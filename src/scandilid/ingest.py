"""Corpus ingestion: CoNLL-U text extraction, JSONL records, statistics.

JSONL is the interchange format everywhere, and only this module reads
or writes it: one UTF-8 JSON object per line, ``\\n`` line ends, blank
lines skipped. Field types are exact (a boolean is not an integer, nor
is ``0.0``); a ``?`` field is optional, and absent or null means None.

- dataset item: ``text`` string, ``labels`` list of tags (written in
  canonical order), ``source?`` string;
- translation record (``silverlabel``): ``item_index`` integer,
  ``target`` tag string other than ``other``, ``translation`` string;
- entity annotation (``augment``): ``sentence_index``, ``start``, ``end``
  integers (byte offsets into the UTF-8 sentence), ``category`` and
  ``surface`` strings.

CoNLL-U files are consumed only for their ``# text = ...`` comments;
token columns are never reassembled because that would re-introduce
tokenization artifacts.
"""

from __future__ import annotations

import io
import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .core import (
    CANONICAL_ORDER,
    DataError,
    Dataset,
    LabeledSentence,
    LabelSet,
    Language,
    label_set_parse,
)

logger = logging.getLogger(__name__)

T = TypeVar("T")

FORMATS = ("conllu", "jsonl", "plaintext")

_TEXT_PREFIX = "# text = "


class DatasetFormatError(DataError):
    """A dataset file could not be parsed; message carries file:line context."""


@dataclass(frozen=True)
class CorpusSource:
    """One input corpus and the labels assigned to its sentences.

    For conllu/plaintext sources every extracted sentence receives
    ``assigned_labels``; jsonl sources carry their own labels and
    ``assigned_labels`` must be None.
    """

    path: Path
    format: str
    assigned_labels: LabelSet | None = None

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise DataError(f"unknown corpus format {self.format!r} (expected one of {FORMATS})")
        if self.format in ("conllu", "plaintext") and self.assigned_labels is None:
            raise DataError(f"{self.format} source {self.path} requires assigned labels")
        if self.format == "jsonl" and self.assigned_labels is not None:
            raise DataError(f"jsonl source {self.path} carries its own labels")


@dataclass
class LabelDistribution:
    """Per-language sentence counts for a dataset.

    A sentence with k labels counts once toward each of its k
    languages; ``total`` counts each sentence exactly once, so the sum
    of counts exceeds ``total`` exactly when multi-label items exist.
    """

    counts: dict[Language, int]
    total: int

    def shares(self) -> dict[Language, float]:
        """Fraction of the summed per-language counts held by each language."""
        denom = sum(self.counts.values())
        if denom == 0:
            return {lang: 0.0 for lang in CANONICAL_ORDER}
        return {lang: self.counts[lang] / denom for lang in CANONICAL_ORDER}

    def to_dict(self) -> dict:
        return {
            "counts": {lang.value: self.counts[lang] for lang in CANONICAL_ORDER},
            "total": self.total,
            "shares": {lang.value: round(s, 6) for lang, s in self.shares().items()},
        }


def parse_conllu(stream: Iterable[str]) -> list[str]:
    """Extract the `# text = ...` payload of every sentence block.

    Blocks are separated by blank lines. Blocks without a text comment
    are skipped; the skip count is logged as a warning.
    """
    texts: list[str] = []
    block_has_lines = False
    block_text: str | None = None
    skipped = 0

    def flush() -> None:
        nonlocal block_has_lines, block_text, skipped
        if block_has_lines:
            if block_text is None:
                skipped += 1
            else:
                texts.append(block_text)
        block_has_lines = False
        block_text = None

    for line in stream:
        line = line.rstrip("\n")
        if not line.strip():
            flush()
            continue
        block_has_lines = True
        if block_text is None and line.startswith(_TEXT_PREFIX):
            block_text = line[len(_TEXT_PREFIX):]
    flush()

    if skipped:
        logger.warning("skipped %d CoNLL-U block(s) without a '# text =' comment", skipped)
    return texts


def typed_field(record: dict, name: str, kind: type, optional: bool = False):
    """``record[name]`` if its type is exactly ``kind`` (a bool is not an int);
    KeyError if a required field is missing, None for an absent optional one."""
    value = record.get(name) if optional else record[name]
    if (value is not None or not optional) and type(value) is not kind:
        raise DataError(f"{name!r} must be {kind.__name__}, found {type(value).__name__}")
    return value


def _read_lines(path: Path | str) -> list[str]:
    """The UTF-8 file's lines, each ending in ``\\n`` as in text mode: a line
    ends at ``\\n``, ``\\r\\n`` or ``\\r``. A byte that is not UTF-8 raises
    DatasetFormatError naming path:line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[: e.start]
        lineno = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise DatasetFormatError(f"{path}:{lineno}: not UTF-8 ({e.reason} at file offset {e.start})") from None
    return io.StringIO(text, newline=None).readlines()


def read_jsonl(path: Path | str, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` of each non-blank line's JSON object, in file order. Invalid
    UTF-8 or JSON, a non-object, a missing field (``KeyError`` from ``parse``)
    or a bad value (``DataError``) raises DatasetFormatError naming path:line."""
    out: list[T] = []
    for lineno, line in enumerate(_read_lines(path), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise DatasetFormatError(f"{where}: invalid JSON: {e}") from None
        if not isinstance(record, dict):
            raise DatasetFormatError(f"{where}: expected a JSON object, found {type(record).__name__}")
        try:
            out.append(parse(record))
        except KeyError as e:
            raise DatasetFormatError(f"{where}: missing field {e}") from None
        except DataError as e:
            raise DatasetFormatError(f"{where}: {e}") from None
    return out


def write_jsonl(records: Iterable[dict], path: Path | str) -> None:
    """One JSON object per line, non-ASCII unescaped, ``\\n`` line ends; byte-stable."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False) + "\n")


def _parse_item(record: dict) -> LabeledSentence:
    return LabeledSentence(
        typed_field(record, "text", str),
        label_set_parse(typed_field(record, "labels", list)),
        typed_field(record, "source", str, optional=True),
    )


def _item_record(item: LabeledSentence) -> dict:
    record: dict = {"text": item.text, "labels": list(item.labels.tags())}
    if item.source is not None:
        record["source"] = item.source
    return record


def read_dataset(path: Path | str, split: str = "unsplit") -> Dataset:
    """Read a JSONL dataset; order equals file order on every read."""
    return Dataset(split, tuple(read_jsonl(path, _parse_item)))


def serialize_record(item: LabeledSentence) -> str:
    return json.dumps(_item_record(item), ensure_ascii=False)


def write_dataset(dataset: Dataset, path: Path | str) -> None:
    """Write JSONL with canonical label order; byte-stable across runs."""
    write_jsonl(map(_item_record, dataset), path)


def _extract_source(source: CorpusSource) -> list[LabeledSentence]:
    if source.format == "jsonl":
        return list(read_dataset(source.path).items)
    provenance = str(source.path)
    lines = _read_lines(source.path)
    if source.format == "conllu":
        texts = parse_conllu(lines)
    else:  # plaintext, one sentence per line
        texts = [line.rstrip("\n") for line in lines if line.strip()]
    return [LabeledSentence(t, source.assigned_labels, provenance) for t in texts]


def compose_training_set(
    sources: Sequence[CorpusSource],
    seed: int,
    other_sample_size: int | None = None,
    dedupe: bool = False,
    split: str = "train",
) -> Dataset:
    """Concatenate sources in declared order into one labeled dataset.

    `other`-labeled sentences from all sources are pooled and, when
    ``other_sample_size`` is given, sampled uniformly without
    replacement (seeded, so the composition is reproducible
    bit-for-bit). Sampled items keep their original positions.
    Duplicate texts survive unless ``dedupe`` is set.
    """
    extracted = [_extract_source(s) for s in sources]
    items: list[LabeledSentence] = [item for chunk in extracted for item in chunk]

    other_positions = [i for i, item in enumerate(items) if item.labels.is_other]
    if other_sample_size is not None and other_sample_size < len(other_positions):
        rng = random.Random(seed)
        keep = set(rng.sample(range(len(other_positions)), other_sample_size))
        drop = {pos for j, pos in enumerate(other_positions) if j not in keep}
        items = [item for i, item in enumerate(items) if i not in drop]

    if dedupe:
        first: dict[str, LabeledSentence] = {}
        for item in items:
            first.setdefault(item.text, item)
        items = list(first.values())

    return Dataset(split, tuple(items))


def dataset_stats(dataset: Dataset) -> LabelDistribution:
    """Count sentences per language; multi-label items count once per label."""
    counts = {lang: 0 for lang in CANONICAL_ORDER}
    for item in dataset:
        for lang in item.labels:
            counts[lang] += 1
    return LabelDistribution(counts=counts, total=len(dataset))
