"""Silver multi-labeling via the unchanged-translation rule.

Machine translation between closely related languages tends to be
conservative; when translating a sentence into a target language
changes nothing, the sentence is accepted as valid in that language
and the target tag is added to its labels. Translations can only add
labels, never remove them, and the sentence text itself is never
replaced. Items labeled `other` are never extended.

Translations arrive as external records; any MT system can produce
them, either as JSONL files or through the shell-command plug-in.

The plug-in contract: the command is run through the shell and reads
request lines ``<target-tag>\\t<source-text>\\n`` from stdin until EOF,
then writes one ``\\n``-terminated translation line per request, in
request order, and exits with status 0. Source texts arrive with every
whitespace run collapsed to one space, so each request is exactly one
line whatever characters the text holds; the comparison ignores
whitespace, so no match is lost. A silver-labelling pass sends all of
its requests to one process and reads its output only after writing
them all, so a translator may buffer its output. A pass whose process
exits non-zero or answers with the wrong number of lines is retried one
record per process, and each record that still fails is counted and
skipped.
"""

from __future__ import annotations

import json
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
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TranslationRecord:
    """One translation of dataset item ``item_index`` into ``target``."""

    item_index: int
    target: Language
    translation: str

    def __post_init__(self) -> None:
        if self.target == Language.OTHER:
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
    labels: list[set[Language]] = [set(item.labels.languages) for item in dataset]
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
                labels[record.item_index].add(record.target)
                summary.added[record.target] += 1

    items = [
        LabeledSentence(item.text, LabelSet(frozenset(new)), item.source)
        if frozenset(new) != item.labels.languages
        else item
        for item, new in zip(dataset, labels)
    ]
    return dataset.with_items(items), summary


def read_translation_records(path: Path | str) -> list[TranslationRecord]:
    """Read JSONL records: {item_index, target, translation}."""
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                records.append(
                    TranslationRecord(
                        rec["item_index"], Language.from_tag(rec["target"]), rec["translation"]
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, DataError) as e:
                raise DataError(f"{path}:{lineno}: bad translation record: {e}") from None
    return records


def write_translation_records(records: Iterable[TranslationRecord], path: Path | str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rec in records:
            f.write(
                json.dumps(
                    {
                        "item_index": rec.item_index,
                        "target": rec.target.value,
                        "translation": rec.translation,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def _run_translator(command: str, requests: Sequence[tuple[Language, str]]) -> str | None:
    """Write every request to one translator process, then read its stdout
    to EOF; None if the process exited non-zero."""
    payload = "".join(f"{target.value}\t{' '.join(text.split())}\n" for target, text in requests)
    completed = subprocess.run(
        command, shell=True, input=payload.encode("utf-8"), capture_output=True
    )
    if completed.returncode != 0:
        return None
    return completed.stdout.decode("utf-8")


def translate_command(command: str, target: Language, text: str) -> str | None:
    """Run one plug-in translation in its own process; None marks the record failed.

    The translation is the first ``\\n``-terminated line of the output
    (all of it if it has no ``\\n``); see the module docstring for the
    contract.
    """
    stdout = _run_translator(command, [(target, text)])
    return None if stdout is None else stdout.split("\n", 1)[0]


def generate_translations(
    dataset: Dataset, targets: Sequence[Language], command: str
) -> tuple[list[TranslationRecord], int]:
    """Translate every eligible item into every missing target via the plug-in.

    Items labeled `other` and targets an item already carries are
    skipped (the latter could only re-add an existing label). All
    requests go to one translator process, item by item and target by
    target within an item; if that process fails, each request is
    retried in a process of its own. Returns the records plus the count
    of requests that failed.
    """
    requests = [
        (index, target)
        for index, item in enumerate(dataset)
        if not item.labels.is_other
        for target in targets
        if target not in item.labels
    ]
    if not requests:
        return [], 0
    stdout = _run_translator(command, [(target, dataset[i].text) for i, target in requests])
    translations = None if stdout is None else stdout.split("\n")
    if translations is None or translations.pop() != "" or len(translations) != len(requests):
        logger.warning(
            "translator command failed on a pass of %d request(s); retrying one per process",
            len(requests),
        )
        translations = [translate_command(command, target, dataset[i].text) for i, target in requests]
    records = [
        TranslationRecord(index, target, translation)
        for (index, target), translation in zip(requests, translations)
        if translation is not None
    ]
    failures = len(requests) - len(records)
    if failures:
        logger.warning("translator command failed on %d record(s); skipped", failures)
    return records, failures
