"""Training-data augmentation: punctuation noise, alphabet variants, entity swaps.

All randomness is counter-based: every item draws from its own RNG
seeded by (seed, item index), so results are independent of execution
order and safe to parallelize. Augmentation never touches the test
split; that restriction is structural, not a convention. Entity
annotations arrive as JSONL; the ``ingest`` module docstring lists
their schema.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .core import DataError, Dataset, LabeledSentence, _check_int, _check_real, _check_str
from .ingest import read_jsonl

logger = logging.getLogger(__name__)

ENTITY_CATEGORIES = ("person", "organization", "location", "misc")

_END_MARKS = (".", "!", "?")
_START_MARKS = ("-", "–", ",")


@dataclass(frozen=True)
class PunctConfig:
    """Random punctuation settings.

    A selected sentence gets exactly one alteration: one end mark
    (``.``, ``!`` or ``?``) appended or one start mark (``-``, ``–`` or
    ``,``) prepended, with ``space_prob`` chance of an intervening space.
    """

    rate: float = 0.075
    space_prob: float = 1 / 3
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int("seed", self.seed)
        for name in ("rate", "space_prob"):
            _check_real(name, getattr(self, name))
        if not 0.0 <= self.rate <= 1.0:
            raise DataError(f"rate must be in [0,1], got {self.rate}")
        if not 0.0 <= self.space_prob <= 1.0:
            raise DataError(f"space_prob must be in [0,1], got {self.space_prob}")


def _refuse_protected_split(dataset: Dataset, op: str) -> None:
    if dataset.split == "test":
        raise DataError(f"{op} must not run on the test split")


def _item_rng(seed: int, op: str, index: int) -> random.Random:
    # String seeding hashes via SHA-512 internally: deterministic across
    # runs and platforms, unlike hash()-seeded tuples.
    return random.Random(f"{seed}:{op}:{index}")


def punctuation_augment(dataset: Dataset, cfg: PunctConfig) -> Dataset:
    """Randomly add one leading or trailing punctuation mark per selected item.

    Each item not labeled `other` is independently selected with
    probability ``cfg.rate``. Unselected and `other` items pass through
    byte-identical; labels never change.
    """
    _refuse_protected_split(dataset, "punctuation_augment")
    out: list[LabeledSentence] = []
    for index, item in enumerate(dataset):
        if item.labels.is_other:
            out.append(item)
            continue
        rng = _item_rng(cfg.seed, "punct", index)
        if rng.random() >= cfg.rate:
            out.append(item)
            continue
        at_end = rng.random() < 0.5
        marks = _END_MARKS if at_end else _START_MARKS
        mark = marks[rng.randrange(len(marks))]
        gap = " " if rng.random() < cfg.space_prob else ""
        text = item.text + gap + mark if at_end else mark + gap + item.text
        out.append(LabeledSentence(text, item.labels, item.source))
    return dataset.with_items(out)


def extract_alphabet_variants(dataset: Dataset, letters: Iterable[str]) -> Dataset:
    """The items whose text contains at least one of `letters`
    (case-insensitive), in order, each with its own labels and source.

    Used to harvest counter-examples for alphabet shortcuts, e.g. a
    Swedish corpus's sentences containing æ/ø, or a Norwegian or Danish
    one's containing ä/ö, so letter presence alone cannot decide the label.
    """
    letter_set = {l.lower() for l in letters}
    if not letter_set:
        raise DataError("letters must be non-empty")
    return dataset.with_items([item for item in dataset if any(ch in letter_set for ch in item.text.lower())])


@dataclass(frozen=True)
class EntityAnnotation:
    """A named-entity span, produced by an external tagger.

    ``start``/``end`` are byte offsets into the UTF-8 encoding of the
    sentence; ``surface`` must equal the decoded slice.
    """

    sentence_index: int
    start: int
    end: int
    category: str
    surface: str

    def __post_init__(self) -> None:
        for name in ("sentence_index", "start", "end"):
            _check_int(name, getattr(self, name))
        _check_str("surface", self.surface)
        if self.category not in ENTITY_CATEGORIES:
            raise DataError(
                f"unknown entity category {self.category!r} (expected one of {ENTITY_CATEGORIES})"
            )
        if not 0 <= self.start < self.end:
            raise DataError(f"invalid span [{self.start}, {self.end})")


def _parse_annotation(r: dict) -> EntityAnnotation:
    return EntityAnnotation(r["sentence_index"], r["start"], r["end"], r["category"], r["surface"])


def read_entity_annotations(path: Path | str) -> list[EntityAnnotation]:
    """Read JSONL entity annotations (schema in ``ingest``)."""
    return read_jsonl(path, _parse_annotation)


def ner_swap(dataset: Dataset, annotations: Sequence[EntityAnnotation], seed: int) -> Dataset:
    """Replace each annotated entity with one drawn from its category inventory.

    Inventories are the distinct surfaces seen in `annotations`, per
    category; a draw may return the original surface. Spans are
    rewritten left to right with offsets adjusted; text outside spans
    and all labels stay byte-identical.
    """
    _refuse_protected_split(dataset, "ner_swap")
    _check_int("seed", seed)

    categories = {a.category for a in annotations}
    inventories = {c: sorted({a.surface for a in annotations if a.category == c}) for c in categories}

    by_sentence: dict[int, list[EntityAnnotation]] = {}
    for ann in annotations:
        if not 0 <= ann.sentence_index < len(dataset):
            raise DataError(f"annotation sentence_index {ann.sentence_index} out of range")
        by_sentence.setdefault(ann.sentence_index, []).append(ann)

    out = list(dataset.items)
    for index, anns in by_sentence.items():
        item = dataset[index]
        raw = item.text.encode("utf-8")
        rng = _item_rng(seed, "ner", index)
        pieces: list[bytes] = []
        cursor = 0
        for ann in sorted(anns, key=lambda a: a.start):
            if ann.start < cursor:
                raise DataError(f"overlapping entity spans in sentence {index}")
            if ann.end > len(raw):
                raise DataError(f"span [{ann.start}, {ann.end}) out of bounds in sentence {index}")
            if raw[ann.start : ann.end] != ann.surface.encode("utf-8"):
                raise DataError(
                    f"surface mismatch in sentence {index}: "
                    f"expected {ann.surface!r} at [{ann.start}, {ann.end})"
                )
            pieces.append(raw[cursor : ann.start])
            inventory = inventories[ann.category]
            replacement = inventory[rng.randrange(len(inventory))]
            pieces.append(replacement.encode("utf-8"))
            cursor = ann.end
        pieces.append(raw[cursor:])
        out[index] = LabeledSentence(b"".join(pieces).decode("utf-8"), item.labels, item.source)

    return dataset.with_items(out)
