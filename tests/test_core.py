import pytest
from hypothesis import given
from hypothesis import strategies as st

from scandilid.core import (
    CANONICAL_ORDER,
    DataError,
    Dataset,
    LabeledSentence,
    LabelError,
    LabelSet,
    Language,
)


def test_exactly_five_languages():
    assert len(Language) == 5
    assert [l.value for l in CANONICAL_ORDER] == ["da", "nb", "nn", "sv", "other"]
    assert str(Language.NB) == "nb"


def test_parse_multi_label():
    labels = LabelSet.of("nb", "da")
    assert labels == LabelSet.of(Language.NB, Language.DA)
    assert labels.tags() == ("da", "nb")


def test_parse_other_singleton():
    labels = LabelSet.of("other")
    assert labels.is_other
    assert len(labels) == 1


def test_parse_rejects_other_combined_with_language():
    with pytest.raises(LabelError, match="'other' is exclusive"):
        LabelSet.of("other", "nb")


def test_parse_rejects_unknown_tag():
    with pytest.raises(LabelError, match="unknown language tag 'no'"):
        LabelSet.of("nb", "no")


def test_parse_rejects_empty_sequence():
    with pytest.raises(LabelError, match="at least one language"):
        LabelSet.of()


def test_serialize_canonical_order():
    assert LabelSet.of("nb", "da").tags() == ("da", "nb")
    assert LabelSet.of("sv").tags() == ("sv",)
    assert LabelSet.of("nn", "nb", "da", "sv").tags() == ("da", "nb", "nn", "sv")


def test_duplicate_tags_collapse():
    assert LabelSet.of("nb", "nb") == LabelSet.of("nb")


def test_construction_rejects_exclusivity_violation_directly():
    # The invariant is structural: no way to build an invalid set.
    with pytest.raises(LabelError):
        LabelSet(frozenset({Language.OTHER, Language.SV}))
    with pytest.raises(LabelError, match="not a Language: 'sv'"):
        LabelSet(frozenset({"sv"}))
    # A plain set is frozen, so the label set stays hashable.
    labels = LabelSet({Language.SV, Language.DA})
    assert labels == LabelSet.of("da", "sv")
    assert isinstance(labels.languages, frozenset) and hash(labels) == hash(LabelSet.of("sv", "da"))


def test_with_language_is_monotone():
    labels = LabelSet.of("da").with_language(Language.NB)
    assert labels == LabelSet.of("da", "nb")


valid_label_sets = st.one_of(
    st.just(frozenset({Language.OTHER})),
    st.sets(
        st.sampled_from([Language.DA, Language.NB, Language.NN, Language.SV]),
        min_size=1,
        max_size=4,
    ).map(frozenset),
)


@given(valid_label_sets)
def test_serialize_parse_round_trip(languages):
    labels = LabelSet(languages)
    assert LabelSet.of(*labels.tags()) == labels


@given(valid_label_sets)
def test_iteration_follows_canonical_order(languages):
    labels = LabelSet(languages)
    ranks = [CANONICAL_ORDER.index(l) for l in labels]
    assert ranks == sorted(ranks)


def test_labeled_sentence_rejects_blank_text():
    with pytest.raises(DataError):
        LabeledSentence("   \t", LabelSet.of("da"))


def test_labeled_sentence_rejects_text_and_labels_of_the_wrong_type():
    with pytest.raises(TypeError, match="sentence text must be str"):
        LabeledSentence(5, LabelSet.of("da"))
    with pytest.raises(TypeError, match="labels must be a LabelSet"):
        LabeledSentence("Hej", "da")
    with pytest.raises(TypeError, match="source must be str"):
        LabeledSentence("Hej", LabelSet.of("da"), source=5)


def test_labeled_sentence_rejects_text_that_does_not_encode_as_utf8():
    # A lone surrogate, as a JSON "\ud800" escape yields, could not be written back.
    for text, source in (("Hej \ud800", None), ("Hej", "\udfff")):
        with pytest.raises(DataError, match="does not encode as UTF-8"):
            LabeledSentence(text, LabelSet.of("da"), source)


def test_labeled_sentence_keeps_source():
    item = LabeledSentence("Hej", LabelSet.of("da"), source="da_ddt")
    assert item.source == "da_ddt"


def test_dataset_rejects_unknown_split():
    with pytest.raises(DataError):
        Dataset("dev", ())


def test_dataset_preserves_order():
    items = tuple(
        LabeledSentence(f"sentence {i}", LabelSet.of("nb")) for i in range(5)
    )
    d = Dataset("train", items)
    assert [it.text for it in d] == [f"sentence {i}" for i in range(5)]
    assert len(d) == 5
    assert d[2].text == "sentence 2"
    assert Dataset("train", list(items)) == d
    # A bare string would fail only later, in write_dataset or train.
    with pytest.raises(TypeError, match=r"items\[1\] must be a LabeledSentence, got 'hej med dig'"):
        Dataset("train", [items[0], "hej med dig"])
