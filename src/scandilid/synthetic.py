"""A synthetic corpus whose difficulty is known by construction.

`generate_shared_alphabet_corpus`: da, nb, nn, sv and `other` share one
alphabet and differ only in their words, as the Scandinavian languages
do. Each draws words from a vocabulary of its own by Zipf rank, and
only the Scandinavian languages mix. Letters alone separate nothing
here, so a model must learn the languages from their words.

Every sentence is drawn through one sampler, `_sample`, from a word
source: a function from a label to a word.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from .core import SCANDINAVIAN, Dataset, LabeledSentence, LabelSet, Language

SHARED_ALPHABET = "abcdefghijklmnopqrstuvwxyzæøåäö"
_SHARED_TAGS = (*SCANDINAVIAN, Language.OTHER)
_SHARED_PAIRS = tuple(itertools.combinations(SCANDINAVIAN, 2))
_MIXED_FRACTION = 0.10
_VOCABULARY_SIZE = 500
_ZIPF_WEIGHTS = list(itertools.accumulate(rank**-1.07 for rank in range(1, _VOCABULARY_SIZE + 1)))


def _word(rng: random.Random, alphabet: str) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 7)))


def _sample(
    rng: random.Random,
    n_train: int,
    n_test: int,
    word: Callable[[Language], str],
) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) pair; test items are freshly drawn.
    A pure sentence has 3-9 words of one of `_SHARED_TAGS`, drawn with
    equal odds; a mixed one (one in ten) has 3-9 words of one of
    `_SHARED_PAIRS`, at least one of each, and carries both labels."""
    splits = []
    for split, n in (("train", n_train), ("test", n_test)):
        items = []
        for _ in range(n):
            if rng.random() < _MIXED_FRACTION:
                pair = _SHARED_PAIRS[rng.randrange(len(_SHARED_PAIRS))]
                words = [word(pair[0]), word(pair[1])] + [word(rng.choice(pair)) for _ in range(rng.randint(1, 7))]
                rng.shuffle(words)
                items.append(LabeledSentence(" ".join(words), LabelSet.of(*pair)))
            else:
                lang = _SHARED_TAGS[rng.randrange(len(_SHARED_TAGS))]
                items.append(LabeledSentence(" ".join(word(lang) for _ in range(rng.randint(3, 9))), LabelSet.of(lang)))
        splits.append(Dataset(split, tuple(items)))
    return splits[0], splits[1]


def _vocabularies(rng: random.Random) -> dict[Language, list[str]]:
    """`_VOCABULARY_SIZE` words per label over `SHARED_ALPHABET`, no word
    in two vocabularies; each list is in Zipf rank order."""
    seen: set[str] = set()
    vocabularies = {}
    for lang in _SHARED_TAGS:
        words: list[str] = []
        while len(words) < _VOCABULARY_SIZE:
            word = _word(rng, SHARED_ALPHABET)
            if word not in seen:
                seen.add(word)
                words.append(word)
        vocabularies[lang] = words
    return vocabularies


def generate_shared_alphabet_corpus(n_train: int, n_test: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) pair over one alphabet; see the module docstring."""
    rng = random.Random(seed)
    vocabularies = _vocabularies(rng)
    return _sample(
        rng, n_train, n_test,
        lambda lang: rng.choices(vocabularies[lang], cum_weights=_ZIPF_WEIGHTS)[0],
    )
