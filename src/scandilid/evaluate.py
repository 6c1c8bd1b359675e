"""Multi-label evaluation of predicted label sets against gold ones.

Exact match is the share of items whose predicted set equals the gold
set, over all items and split by the gold set's size: single-label items
(one language, or `other`) and multi-label ones, where a sentence is
valid in several languages. Per language, precision, recall and F1 count
an item as a true positive when both sets hold the language. A ratio
with nothing to count (no items of a split, no predictions or no gold
items of a language) is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import LabelSet, Language


@dataclass(frozen=True)
class Evaluation:
    exact_match: float
    single_label_exact_match: float
    multi_label_exact_match: float
    multi_label_items: int  # of the gold sets
    precision: dict[Language, float]
    recall: dict[Language, float]
    f1: dict[Language, float]


def _ratio(count: int, total: int) -> float:
    return count / total if total else math.nan


def evaluate(gold: Sequence[LabelSet], predicted: Sequence[LabelSet]) -> Evaluation:
    """Score ``predicted[i]`` against ``gold[i]`` for every item; see the module docstring."""
    if len(gold) != len(predicted):
        raise ValueError(f"{len(gold)} gold label sets but {len(predicted)} predicted ones")
    hits = {False: 0, True: 0}  # exact matches, keyed by whether the gold set is multi-label
    items = {False: 0, True: 0}
    for g, p in zip(gold, predicted):
        items[len(g) > 1] += 1
        hits[len(g) > 1] += g == p
    precision, recall, f1 = {}, {}, {}
    for lang in Language:
        tp = sum(lang in g and lang in p for g, p in zip(gold, predicted))
        in_gold = sum(lang in g for g in gold)
        in_predicted = sum(lang in p for p in predicted)
        precision[lang] = _ratio(tp, in_predicted)
        recall[lang] = _ratio(tp, in_gold)
        f1[lang] = _ratio(2 * tp, in_gold + in_predicted)
    return Evaluation(
        exact_match=_ratio(hits[False] + hits[True], len(gold)),
        single_label_exact_match=_ratio(hits[False], items[False]),
        multi_label_exact_match=_ratio(hits[True], items[True]),
        multi_label_items=items[True],
        precision=precision,
        recall=recall,
        f1=f1,
    )
