"""Silver multi-labeling via the unchanged-translation rule.

Machine translation between closely related languages tends to be
conservative; when translating a sentence into a target language
changes nothing, the sentence is accepted as valid in that language
and the target tag is added to its labels. Translations can only add
labels, never remove them, and the sentence text itself is never
replaced. Items labeled `other` are never extended.

Translations arrive as external records; any MT system can produce
them, either as JSONL files (translation records, whose schema the
``ingest`` module docstring lists) or through the shell-command plug-in.

The plug-in contract: the command is run through the shell and reads
request lines ``<target-tag>\\t<source-text>\\n`` from stdin until EOF.
Source texts arrive with every whitespace run collapsed to one space, so
each request is exactly one line whatever characters the text holds; the
comparison ignores whitespace, so no match is lost. A silver-labelling
pass sends all of its requests to one process and reads its output only
after writing them all, so a translator may buffer its output.

The answer rule, the only one: a pass succeeds when its process exits
with status 0 and writes UTF-8 holding one ``\\n``-terminated translation
line per request, in request order, and nothing else. Any other answer
(a non-zero exit, bytes that are not UTF-8, a line too many or too few,
a missing final ``\\n``) fails the whole pass, whatever its size. A
failed pass is split in halves and each half retried as a pass of its
own; a failed pass of one request is a failed record, counted and
skipped. When every request of a failed pass's first half fails, its
second half goes one request per process, so a translator that fails
everything costs at most N + ⌈log2 N⌉ + 1 processes for N requests,
not 2N − 1.
"""

from __future__ import annotations

import logging
import subprocess
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    SCANDINAVIAN,
    DataError,
    Dataset,
    LabeledSentence,
    LabelSet,
    Language,
    _check_int,
    _check_str,
)
from .ingest import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TranslationRecord:
    """One translation of dataset item ``item_index`` into ``target``."""

    item_index: int
    target: Language
    translation: str

    def __post_init__(self) -> None:
        _check_int("item_index", self.item_index)
        _check_target(self.target)
        _check_str("translation", self.translation)


def _check_target(target: Language) -> None:
    if not isinstance(target, Language):
        raise TypeError(f"translation target must be a Language, got {target!r}")
    if target == Language.OTHER:
        raise DataError("translation target must be a language, not 'other'")


@dataclass
class ExtendSummary:
    """What a silver-labeling pass did."""

    records_seen: int = 0
    matches: int = 0
    skipped_other: int = 0
    added: dict[Language, int] = field(
        default_factory=lambda: {lang: 0 for lang in SCANDINAVIAN}
    )

    def to_dict(self) -> dict:
        return {
            "records_seen": self.records_seen,
            "matches": self.matches,
            "skipped_other": self.skipped_other,
            "added": {lang.value: n for lang, n in self.added.items()},
        }


def canonical_compare(a: str, b: str) -> bool:
    """Whitespace-insensitive, case- and punctuation-sensitive equality.

    Both sides are put in Unicode canonical composition (NFC), trimmed,
    and internal whitespace runs collapse to single spaces. Anything
    stricter would miss composed/decomposed encoding mismatches;
    anything looser would inflate false multi-labels.
    """
    return _canonical(a) == _canonical(b)


def _canonical(text: str) -> str:
    return " ".join(unicodedata.normalize("NFC", text).split())


def extend_labels(
    dataset: Dataset, records: Sequence[TranslationRecord]
) -> tuple[Dataset, ExtendSummary]:
    """Add target labels for records whose translation left the text unchanged.

    Labels only grow; texts and item order never change; `other` items
    are skipped. Applying the same records twice yields the same
    dataset (idempotent).
    """
    labels: list[LabelSet] = [item.labels for item in dataset]
    summary = ExtendSummary()

    for record in records:
        summary.records_seen += 1
        if not 0 <= record.item_index < len(dataset):
            raise DataError(f"translation record index {record.item_index} out of range")
        item = dataset[record.item_index]
        if item.labels.is_other:
            summary.skipped_other += 1
            continue
        if canonical_compare(item.text, record.translation):
            summary.matches += 1
            if record.target not in labels[record.item_index]:
                labels[record.item_index] = labels[record.item_index].with_language(record.target)
                summary.added[record.target] += 1

    items = [
        LabeledSentence(item.text, new, item.source)
        if new is not item.labels
        else item
        for item, new in zip(dataset, labels)
    ]
    return dataset.with_items(items), summary


def _parse_translation(r: dict) -> TranslationRecord:
    return TranslationRecord(r["item_index"], Language.from_tag(r["target"]), r["translation"])


def read_translation_records(path: Path | str) -> list[TranslationRecord]:
    """Read JSONL translation records (schema in ``ingest``)."""
    return read_jsonl(path, _parse_translation)


def write_translation_records(records: Iterable[TranslationRecord], path: Path | str) -> None:
    rows = ({"item_index": r.item_index, "target": r.target.value, "translation": r.translation} for r in records)
    write_jsonl(rows, path)


def _run_translator(command: str, requests: Sequence[tuple[Language, str]]) -> list[str] | None:
    """Write every request to one translator process, then read its stdout
    to EOF: the translations, or None if they break the answer rule."""
    payload = "".join(f"{target.value}\t{' '.join(text.split())}\n" for target, text in requests)
    completed = subprocess.run(
        command, shell=True, input=payload.encode("utf-8"), capture_output=True
    )
    if completed.returncode != 0:
        return None
    try:
        lines = completed.stdout.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    if lines.pop() != "" or len(lines) != len(requests):
        return None
    return lines


def translate_command(command: str, target: Language, text: str) -> str | None:
    """One plug-in translation, a pass of one request; None marks the record failed."""
    return _translate_pass(command, [(target, text)])[0]


def _translate_pass(command: str, requests: list[tuple[Language, str]]) -> list[str | None]:
    """One translation (or None) per request. A failed pass is split in
    halves, each retried as its own pass, so k bad requests among N cost
    O(k log N) processes. A second half whose first half failed entirely
    goes one request per process, which bounds a pass that fails
    everything to N + ⌈log2 N⌉ + 1."""
    translations = _run_translator(command, requests)
    if translations is not None:
        return translations
    if len(requests) == 1:
        return [None]
    logger.debug(
        "translator command failed on a pass of %d request(s); retrying in halves", len(requests)
    )
    half = len(requests) // 2
    first = _translate_pass(command, requests[:half])
    if any(t is not None for t in first):
        return first + _translate_pass(command, requests[half:])
    return first + [translate_command(command, *request) for request in requests[half:]]


def generate_translations(
    dataset: Dataset, targets: Sequence[Language], command: str
) -> tuple[list[TranslationRecord], int]:
    """Translate every eligible item into every missing target via the plug-in.

    Items labeled `other` and targets an item already carries are
    skipped (the latter could only re-add an existing label), and a
    repeated target is asked once. Every target is checked before any
    process starts. All requests go to one translator process, item by
    item and target by target within an item; if that process fails, the
    requests are retried in halves, down to a process of their own.
    Returns the records plus the count of requests that failed.
    """
    targets = list(dict.fromkeys(targets))
    for target in targets:
        _check_target(target)
    requests = [
        (index, target)
        for index, item in enumerate(dataset)
        if not item.labels.is_other
        for target in targets
        if target not in item.labels
    ]
    if not requests:
        return [], 0
    translations = _translate_pass(command, [(target, dataset[i].text) for i, target in requests])
    records = [
        TranslationRecord(index, target, translation)
        for (index, target), translation in zip(requests, translations)
        if translation is not None
    ]
    failures = len(requests) - len(records)
    if failures:
        logger.warning("translator command failed on %d record(s); skipped", failures)
    return records, failures
