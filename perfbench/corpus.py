"""Seeded input generator for the benchmark.

It is kept apart from ``scandilid.synthetic`` on purpose: that module is
part of the program and may change, and such a change must not change
the workloads.

Five labels (da, nb, nn, sv and other) each own a disjoint letter set,
so every corpus is separable by construction. Word frequencies follow a
Zipf law over a fixed vocabulary per label; a share of sentences mix
two of the four languages and carry both labels, and a share are
`other`. Raw texts carry a capitalised first word and, now and then, a
number, so that normalisation has work to do; every sentence also
carries the text that normalisation must produce, worked out here
rather than by the program.

Long-tail words are never repeated within a run: each is built from a
unique counter, so the featurizer's token cache can never serve them.

The sizes below (vocabulary, word and sentence lengths, Zipf exponent,
shares) are assumptions, not figures taken from a corpus; README.md
lists what each one decides.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

LANGS = ("da", "nb", "nn", "sv")
LABELS = LANGS + ("other",)

ALPHABETS = {
    "da": "abcdefgæøå",
    "nb": "hijklmnêôâ",
    "nn": "opqrstuòóú",
    "sv": "vwxyzäöüéè",
    "other": "àáçëìíîïñõ",
}

NUM_TOKEN = "⟨num⟩"  # what normalisation turns a standalone number into

ZIPF_EXPONENT = 1.07
VOCAB_SIZE = 10_000  # words per label
ZIPF_MAX_WORD_LEN = 6  # Zipf words are shorter than any long-tail word
LONGTAIL_CODE_LEN = 7  # long-tail word = 7-letter unique code + 0..2 letters
SENTENCE_WORDS = (4, 12)
MIXED_SHARE = 0.12
OTHER_SHARE = 0.10
NUMBER_SHARE = 0.15


@dataclass(frozen=True)
class Sentence:
    text: str  # raw text, as a user would send it
    normalized: str  # what normalize_text must return
    labels: tuple[str, ...]  # gold labels in canonical order


def _check_alphabets() -> None:
    seen: set[str] = set()
    for letters in ALPHABETS.values():
        if seen & set(letters) or len(set(letters)) != len(letters):
            raise AssertionError("benchmark alphabets must be disjoint")
        seen |= set(letters)


_check_alphabets()


def _word_len(rank: int) -> int:
    """Word length by frequency rank (1 is the most frequent): 3 letters
    for the top three words, one more per factor of eight in rank, at
    most ZIPF_MAX_WORD_LEN. The same for every seed, so that the work
    per sentence does not depend on the seed."""
    return min(ZIPF_MAX_WORD_LEN, 3 + rank.bit_length() // 3)


@lru_cache(maxsize=4)
def zipf_vocabularies(seed: int) -> dict[str, tuple[list[str], list[float]]]:
    """Per label: distinct words in rank order and their cumulative Zipf weights."""
    rng = random.Random(f"vocab:{seed}")
    vocab = {}
    for label in LABELS:
        letters = ALPHABETS[label]
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < VOCAB_SIZE:
            w = "".join(rng.choice(letters) for _ in range(_word_len(len(words) + 1)))
            if w not in seen:
                seen.add(w)
                words.append(w)
        weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, VOCAB_SIZE + 1)]
        vocab[label] = (words, list(accumulate(weights)))
    return vocab


class LongTail:
    """Words that are new to the run: a unique counter, spelled in the
    label's letters through a fixed permutation, plus 0..2 random letters."""

    _MOD = 10 ** LONGTAIL_CODE_LEN
    _MULT = 7919  # prime, coprime with 10**7, so the permutation is a bijection

    def __init__(self, seed: int):
        self._rng = random.Random(f"longtail:{seed}")
        self._offset = self._rng.randrange(self._MOD)
        self._counter = 0

    def word(self, label: str) -> str:
        if self._counter >= self._MOD:
            raise RuntimeError("long-tail vocabulary exhausted")
        code = (self._counter * self._MULT + self._offset) % self._MOD
        self._counter += 1
        letters = ALPHABETS[label]
        digits = []
        for _ in range(LONGTAIL_CODE_LEN):
            code, d = divmod(code, 10)
            digits.append(letters[d])
        tail = "".join(self._rng.choice(letters) for _ in range(self._rng.randint(0, 2)))
        return "".join(digits) + tail


class SentenceSource:
    """Endless seeded stream of labelled sentences.

    With ``longtail`` set, every word is fresh; otherwise words are drawn
    from the seed's Zipf vocabularies.
    """

    def __init__(self, seed: int, stream: str, longtail: bool = False):
        self._rng = random.Random(f"sentences:{seed}:{stream}")
        self._vocab = zipf_vocabularies(seed)
        self._longtail = LongTail(seed) if longtail else None

    def _word(self, label: str) -> str:
        if self._longtail is not None:
            return self._longtail.word(label)
        words, cum = self._vocab[label]
        return self._rng.choices(words, cum_weights=cum)[0]

    def next(self) -> Sentence:
        rng = self._rng
        n = rng.randint(*SENTENCE_WORDS)
        u = rng.random()
        if u < OTHER_SHARE:
            labels: tuple[str, ...] = ("other",)
            words = [self._word("other") for _ in range(n)]
        elif u < OTHER_SHARE + MIXED_SHARE:
            a, b = sorted(rng.sample(LANGS, 2), key=LANGS.index)
            labels = (a, b)
            words = [self._word(a), self._word(b)]
            words += [self._word(rng.choice(labels)) for _ in range(n - 2)]
            rng.shuffle(words)
        else:
            lang = rng.choice(LANGS)
            labels = (lang,)
            words = [self._word(lang) for _ in range(n)]
        normalized = list(words)
        raw = list(words)
        raw[0] = raw[0][0].upper() + raw[0][1:]
        if rng.random() < NUMBER_SHARE:
            # One number, never first, so it is never merged with another.
            pos = rng.randint(1, len(raw))
            raw.insert(pos, str(rng.randint(0, 9999)))
            normalized.insert(pos, NUM_TOKEN)
        return Sentence(" ".join(raw), " ".join(normalized), labels)

    def take(self, n: int) -> list[Sentence]:
        return [self.next() for _ in range(n)]


def write_jsonl(sentences: list[Sentence], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for s in sentences:
            f.write(json.dumps({"text": s.text, "labels": list(s.labels)}, ensure_ascii=False) + "\n")
