"""Synthetic corpora whose difficulty is known by construction.

`generate_shared_alphabet_corpus`: da, nb, nn, sv and `other` share one
alphabet and differ only in their words, as the Scandinavian languages
do. Each draws words from a vocabulary of its own by Zipf rank, and
only the Scandinavian languages mix. Letters alone separate nothing
here, so a model must learn the languages from their words.

`generate_shared_vocabulary_corpus`: the same, but the Scandinavian
vocabularies also share words, as closely related languages do, so a
sentence drawn from one language can be valid in others. Its gold set
holds every language whose vocabulary holds each of its words, beside
the language(s) it was drawn from; the corpus returns both.

Every sentence is drawn through one sampler, `_sample`, from a word
source: a function from a label to a word.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, NamedTuple, Sequence

from .core import SCANDINAVIAN, Dataset, LabeledSentence, LabelSet, Language

SHARED_ALPHABET = "abcdefghijklmnopqrstuvwxyzæøåäö"
_SHARED_TAGS = (*SCANDINAVIAN, Language.OTHER)
_SHARED_PAIRS = tuple(itertools.combinations(SCANDINAVIAN, 2))
_MIXED_FRACTION = 0.10
_VOCABULARY_SIZE = 500
# (labels, word count) groups for `_vocabularies`: the shared groups first,
# so that they hold the top Zipf ranks, then each label's own words.
_SHARED_WORD_GROUPS = (
    (SCANDINAVIAN, 50),
    ((Language.DA, Language.NB), 150),
    ((Language.NB, Language.NN), 150),
    ((Language.DA, Language.SV), 80),
    *(((lang,), 400) for lang in SCANDINAVIAN),
    ((Language.OTHER,), _VOCABULARY_SIZE),
)


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


def _vocabularies(
    rng: random.Random, groups: Sequence[tuple[Sequence[Language], int]]
) -> dict[Language, list[str]]:
    """Distinct words over `SHARED_ALPHABET`: for each (labels, count)
    group in turn, `count` new words added to the vocabulary of each of its
    labels. Each vocabulary lists its words in Zipf rank order."""
    seen: set[str] = set()
    vocabularies: dict[Language, list[str]] = {lang: [] for lang in _SHARED_TAGS}
    for labels, count in groups:
        words: list[str] = []
        while len(words) < count:
            word = _word(rng, SHARED_ALPHABET)
            if word not in seen:
                seen.add(word)
                words.append(word)
        for lang in labels:
            vocabularies[lang] += words
    return vocabularies


def _zipf_source(rng: random.Random, vocabularies: dict[Language, list[str]]) -> Callable[[Language], str]:
    """A word source that draws from a label's vocabulary by Zipf rank (exponent 1.07)."""
    weights = {
        lang: list(itertools.accumulate(rank**-1.07 for rank in range(1, len(words) + 1)))
        for lang, words in vocabularies.items()
    }
    return lambda lang: rng.choices(vocabularies[lang], cum_weights=weights[lang])[0]


def generate_shared_alphabet_corpus(n_train: int, n_test: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) pair over one alphabet; see the module docstring."""
    rng = random.Random(seed)
    vocabularies = _vocabularies(rng, [((lang,), _VOCABULARY_SIZE) for lang in _SHARED_TAGS])
    return _sample(rng, n_train, n_test, _zipf_source(rng, vocabularies))


class SharedVocabularyCorpus(NamedTuple):
    train: Dataset  # each sentence labelled with the language(s) it was drawn from
    test: Dataset
    train_gold: tuple[LabelSet, ...]  # each sentence's gold set, item by item
    test_gold: tuple[LabelSet, ...]
    vocabularies: dict[Language, list[str]]  # in Zipf rank order


def generate_shared_vocabulary_corpus(n_train: int, n_test: int, seed: int = 0) -> SharedVocabularyCorpus:
    """Deterministic corpus over vocabularies that share words; see the module docstring.

    Shared groups: all four languages 50 words, {da, nb} 150, {nb, nn} 150
    and {da, sv} 80, at the top Zipf ranks; each language has 400 words of
    its own, and `other` 500."""
    rng = random.Random(seed)
    vocabularies = _vocabularies(rng, _SHARED_WORD_GROUPS)
    train, test = _sample(rng, n_train, n_test, _zipf_source(rng, vocabularies))
    holders: dict[str, set[Language]] = {}
    for lang, words in vocabularies.items():
        for word in words:
            holders.setdefault(word, set()).add(lang)

    def gold(item: LabeledSentence) -> LabelSet:
        return LabelSet(item.labels.languages.union(set.intersection(*map(holders.__getitem__, item.text.split()))))

    return SharedVocabularyCorpus(
        train, test, tuple(map(gold, train)), tuple(map(gold, test)), vocabularies
    )
