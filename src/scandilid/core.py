"""Shared domain types: languages, label sets, labeled sentences, datasets.

The label algebra enforced here is load-bearing for everything else:
`other` marks non-Scandinavian text and is mutually exclusive with the
four language tags, while any combination of the language tags is a
valid multi-label annotation.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence


class DataError(ValueError):
    """A record or value violates one of the dataset invariants."""


class LabelError(DataError):
    """A label or label set is malformed."""


def _check_real(name: str, value: float) -> float:
    """`value` as a Python float, if it is a real number and not a bool
    (a subclass of int, so `True` would pass as 1.0)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_int(name: str, value: int) -> int:
    """`value` if it is exactly an int: a bool is not one."""
    if type(value) is not int:
        raise TypeError(f"{name} must be int, got {value!r}")
    return value


def _check_str(name: str, value: str) -> None:
    """Raise unless `value` is a str that encodes as UTF-8, which one holding
    a lone surrogate (as from a JSON ``"\\ud800"`` escape) does not."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be str, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as e:
        raise DataError(f"{name} does not encode as UTF-8: {value[e.start]!r} at index {e.start}") from None


class Language(Enum):
    """The four Scandinavian written standards plus the catch-all tag."""

    DA = "da"
    NB = "nb"
    NN = "nn"
    SV = "sv"
    OTHER = "other"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_tag(cls, tag: str) -> "Language":
        try:
            return cls(tag)
        except ValueError:
            valid = ", ".join(l.value for l in CANONICAL_ORDER)
            raise LabelError(f"unknown language tag {tag!r} (expected one of: {valid})") from None


# Canonical ordering used for serialization, hashing and model outputs.
CANONICAL_ORDER: tuple[Language, ...] = (
    Language.DA,
    Language.NB,
    Language.NN,
    Language.SV,
    Language.OTHER,
)

SCANDINAVIAN: tuple[Language, ...] = CANONICAL_ORDER[:4]

_RANK = {lang: i for i, lang in enumerate(CANONICAL_ORDER)}


@dataclass(frozen=True)
class LabelSet:
    """A non-empty set of languages; `other` may only appear alone."""

    languages: frozenset[Language]

    def __post_init__(self) -> None:
        if not isinstance(self.languages, frozenset):
            object.__setattr__(self, "languages", frozenset(self.languages))
        if not self.languages:
            raise LabelError("a label set must contain at least one language")
        for lang in self.languages:
            if not isinstance(lang, Language):
                raise LabelError(f"not a Language: {lang!r}")
        if Language.OTHER in self.languages and len(self.languages) > 1:
            raise LabelError(
                "'other' is exclusive and cannot be combined with language labels: "
                + ",".join(sorted(l.value for l in self.languages))
            )

    @classmethod
    def of(cls, *languages: Language | str) -> "LabelSet":
        """Build a validated LabelSet from languages or string tags.

        Raises LabelError for unknown tags, no languages at all, or `other`
        combined with any language tag. Duplicate tags collapse.
        """
        resolved = [l if isinstance(l, Language) else Language.from_tag(l) for l in languages]
        return cls(frozenset(resolved))

    def __iter__(self) -> Iterator[Language]:
        return iter(sorted(self.languages, key=_RANK.__getitem__))

    def __contains__(self, lang: Language) -> bool:
        return lang in self.languages

    def __len__(self) -> int:
        return len(self.languages)

    @property
    def is_other(self) -> bool:
        return self.languages == frozenset({Language.OTHER})

    def tags(self) -> tuple[str, ...]:
        """Tags in canonical order (da, nb, nn, sv, other)."""
        return tuple(l.value for l in self)

    def with_language(self, lang: Language) -> "LabelSet":
        """A copy with `lang` added; never removes labels."""
        return LabelSet(self.languages | {lang})


def _check_labels(value: LabelSet) -> None:
    if not isinstance(value, LabelSet):
        raise TypeError(f"labels must be a LabelSet, got {value!r}")


@dataclass(frozen=True)
class LabeledSentence:
    """One sentence with its gold labels and optional provenance."""

    text: str
    labels: LabelSet
    source: str | None = None

    def __post_init__(self) -> None:
        _check_str("sentence text", self.text)
        _check_labels(self.labels)
        if self.source is not None:
            _check_str("source", self.source)
        if not self.text.strip():
            raise DataError("sentence text must be non-empty after trimming whitespace")


SPLITS = ("train", "validation", "test", "unsplit")


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of labeled sentences.

    Iteration order is part of the contract: the same file always
    yields the same sequence.
    """

    split: str
    items: tuple[LabeledSentence, ...]

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise DataError(f"unknown split {self.split!r} (expected one of {SPLITS})")
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))
        for i, item in enumerate(self.items):
            if not isinstance(item, LabeledSentence):
                raise TypeError(f"items[{i}] must be a LabeledSentence, got {item!r}")

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[LabeledSentence]:
        return iter(self.items)

    def __getitem__(self, index: int) -> LabeledSentence:
        return self.items[index]

    def with_items(self, items: Sequence[LabeledSentence]) -> "Dataset":
        return Dataset(self.split, tuple(items))
