"""Synthetic corpora whose difficulty is known by construction.

`generate_corpus`: three artificial languages use pairwise disjoint
character sets, so a classifier that reads character n-grams can in
principle reach perfect accuracy; a configurable fraction of sentences
deliberately mixes two alphabets and carries both labels.

`generate_shared_alphabet_corpus`: da, nb, nn, sv and `other` share one
alphabet and differ only in their words, as the Scandinavian languages
do. Each draws words from a vocabulary of its own by Zipf rank; a
fraction of sentences mixes the words of two Scandinavian languages and
carries both labels. Letters alone separate nothing here, so a model
must learn the languages from their words.
"""

from __future__ import annotations

import itertools
import random

from .core import SCANDINAVIAN, Dataset, LabeledSentence, LabelSet, Language

ALPHABETS: dict[str, str] = {
    "da": "abcdefg",
    "nb": "hijklmn",
    "nn": "opqrstu",
}

_TAGS = tuple(ALPHABETS)
_PAIRS = tuple(
    (a, b) for i, a in enumerate(_TAGS) for b in _TAGS[i + 1 :]
)


def _word(rng: random.Random, alphabet: str) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 7)))


def _pure_sentence(rng: random.Random, alphabet: str) -> str:
    return " ".join(_word(rng, alphabet) for _ in range(rng.randint(3, 9)))


def _ambiguous_sentence(rng: random.Random, first: str, second: str) -> str:
    # At least one word from each alphabet, remainder drawn from either.
    words = [_word(rng, first), _word(rng, second)]
    words += [_word(rng, rng.choice((first, second))) for _ in range(rng.randint(1, 7))]
    rng.shuffle(words)
    return " ".join(words)


def _items(rng: random.Random, n: int, ambiguous_fraction: float) -> list[LabeledSentence]:
    items = []
    for _ in range(n):
        if rng.random() < ambiguous_fraction:
            first, second = _PAIRS[rng.randrange(len(_PAIRS))]
            items.append(
                LabeledSentence(_ambiguous_sentence(rng, ALPHABETS[first], ALPHABETS[second]),
                                LabelSet.of(first, second))
            )
        else:
            tag = _TAGS[rng.randrange(len(_TAGS))]
            items.append(LabeledSentence(_pure_sentence(rng, ALPHABETS[tag]), LabelSet.of(tag)))
    return items


def generate_corpus(
    n_train: int,
    n_test: int,
    ambiguous_fraction: float = 0.10,
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) pair; test items are freshly drawn."""
    rng = random.Random(seed)
    train = Dataset("train", tuple(_items(rng, n_train, ambiguous_fraction)))
    test = Dataset("test", tuple(_items(rng, n_test, ambiguous_fraction)))
    return train, test


SHARED_ALPHABET = "abcdefghijklmnopqrstuvwxyzæøåäö"
_SHARED_TAGS = (*SCANDINAVIAN, Language.OTHER)
_SHARED_PAIRS = tuple(itertools.combinations(SCANDINAVIAN, 2))
_VOCABULARY_SIZE = 500
_ZIPF_WEIGHTS = list(itertools.accumulate(rank**-1.07 for rank in range(1, _VOCABULARY_SIZE + 1)))
_MIXED_FRACTION = 0.10


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
    """Deterministic (train, test) pair over one alphabet; see the module
    docstring. A pure sentence has 3-9 words of one label, drawn with
    equal odds among da, nb, nn, sv and `other`; a mixed one (one in ten)
    has 3-9 words of two Scandinavian languages, at least one of each."""
    rng = random.Random(seed)
    vocabularies = _vocabularies(rng)

    def word(lang: Language) -> str:
        return rng.choices(vocabularies[lang], cum_weights=_ZIPF_WEIGHTS)[0]

    def items(n: int) -> list[LabeledSentence]:
        out = []
        for _ in range(n):
            if rng.random() < _MIXED_FRACTION:
                pair = _SHARED_PAIRS[rng.randrange(len(_SHARED_PAIRS))]
                words = [word(pair[0]), word(pair[1])] + [word(rng.choice(pair)) for _ in range(rng.randint(1, 7))]
                rng.shuffle(words)
                out.append(LabeledSentence(" ".join(words), LabelSet.of(*pair)))
            else:
                lang = _SHARED_TAGS[rng.randrange(len(_SHARED_TAGS))]
                out.append(LabeledSentence(" ".join(word(lang) for _ in range(rng.randint(3, 9))), LabelSet.of(lang)))
        return out

    return Dataset("train", tuple(items(n_train))), Dataset("test", tuple(items(n_test)))
