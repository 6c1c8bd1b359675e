import pytest
from hypothesis import given
from hypothesis import strategies as st

from scandilid.augment import (
    EntityAnnotation,
    PunctConfig,
    extract_alphabet_variants,
    ner_swap,
    punctuation_augment,
    read_entity_annotations,
)
from scandilid.core import DataError, Dataset, LabeledSentence, LabelSet

END_MARKS = (".", "!", "?")
START_MARKS = ("-", "–", ",")


def classify_alteration(original: str, augmented: str) -> str | None:
    """Return 'end'/'start' if augmented differs by exactly one allowed mark."""
    for mark in END_MARKS:
        if augmented in (original + mark, original + " " + mark):
            return "end"
    for mark in START_MARKS:
        if augmented in (mark + original, mark + " " + original):
            return "start"
    return None


def make_dataset(n, label_tags=("nb",), split="train"):
    items = tuple(
        LabeledSentence(f"setning nummer {i}", LabelSet.of(*label_tags)) for i in range(n)
    )
    return Dataset(split, items)


def test_rate_zero_is_identity():
    d = make_dataset(50)
    assert punctuation_augment(d, PunctConfig(rate=0.0, seed=1)) == d


def test_rate_one_alters_every_eligible_item():
    d = make_dataset(200)
    out = punctuation_augment(d, PunctConfig(rate=1.0, seed=5))
    for before, after in zip(d, out):
        kind = classify_alteration(before.text, after.text)
        assert kind in ("start", "end"), (before.text, after.text)
        assert after.labels == before.labels


def test_other_items_never_altered():
    items = tuple(
        LabeledSentence(f"utenlandsk {i}", LabelSet.of("other")) for i in range(100)
    )
    d = Dataset("train", items)
    assert punctuation_augment(d, PunctConfig(rate=1.0, seed=2)) == d


def test_mixed_dataset_only_selected_items_change():
    d = make_dataset(2_000)
    cfg = PunctConfig(rate=0.075, seed=9)
    out = punctuation_augment(d, cfg)
    changed = 0
    for before, after in zip(d, out):
        if before.text == after.text:
            assert before == after
        else:
            changed += 1
            assert classify_alteration(before.text, after.text) is not None
    assert changed > 0


def test_empirical_rate_matches_config():
    d = make_dataset(50_000)
    cfg = PunctConfig(rate=0.075, seed=13)
    out = punctuation_augment(d, cfg)
    changed = sum(1 for b, a in zip(d, out) if b.text != a.text)
    assert abs(changed / len(d) - cfg.rate) < 0.01


def test_deterministic_given_seed():
    d = make_dataset(500)
    cfg = PunctConfig(rate=0.2, seed=77)
    assert punctuation_augment(d, cfg) == punctuation_augment(d, cfg)


def test_per_item_randomness_is_positional():
    # Items draw from (seed, index): a shared prefix augments identically
    # regardless of what follows it.
    long = make_dataset(100)
    short = Dataset("train", long.items[:40])
    cfg = PunctConfig(rate=0.5, seed=3)
    assert punctuation_augment(long, cfg).items[:40] == punctuation_augment(short, cfg).items


def test_space_probability_honored():
    d = make_dataset(6_000)
    out = punctuation_augment(d, PunctConfig(rate=1.0, space_prob=1 / 3, seed=21))
    spaced = 0
    for b, a in zip(d, out):
        with_space = tuple(b.text + " " + m for m in END_MARKS) + tuple(
            m + " " + b.text for m in START_MARKS
        )
        if a.text in with_space:
            spaced += 1
    assert abs(spaced / len(d) - 1 / 3) < 0.02


def test_punct_refuses_test_split():
    d = make_dataset(3, split="test")
    with pytest.raises(DataError, match="test split"):
        punctuation_augment(d, PunctConfig(seed=0))


def test_invalid_config_rejected():
    with pytest.raises(DataError):
        PunctConfig(rate=1.5)
    with pytest.raises(DataError):
        PunctConfig(space_prob=-0.1)
    # The seed is formatted into a string: 1.0 and True would seed
    # other augmentations than 1 does.
    for seed in (1.0, True, "1"):
        with pytest.raises(TypeError, match="seed"):
            PunctConfig(seed=seed)
    # Rates are real numbers: True would select every sentence.
    for name, value in (("rate", True), ("space_prob", False), ("rate", "0.1")):
        with pytest.raises(TypeError, match=name):
            PunctConfig(**{name: value})


def corpus(texts, tag):
    return Dataset("unsplit", [LabeledSentence(text, LabelSet.of(tag)) for text in texts])


def test_alphabet_variants_keeps_swedish_letters_in_norwegian_text():
    kept = extract_alphabet_variants(corpus(["Malmö ligger i Sverige", "Oslo ligger i Norge"], "nb"), {"ä", "ö"})
    assert [it.text for it in kept] == ["Malmö ligger i Sverige"]
    assert kept[0].labels == LabelSet.of("nb")


def test_alphabet_variants_swedish_corpus_with_danish_letters():
    kept = extract_alphabet_variants(corpus(["Besök Ørsted"], "sv"), {"æ", "ø"})
    assert len(kept) == 1
    assert kept[0].labels == LabelSet.of("sv")


def test_alphabet_variants_case_insensitive():
    kept = extract_alphabet_variants(corpus(["ÄLGEN kommer"], "nn"), {"ä"})
    assert len(kept) == 1


def test_alphabet_variants_requires_letters():
    with pytest.raises(DataError):
        extract_alphabet_variants(corpus(["x"], "sv"), set())


def test_alphabet_variants_keeps_each_items_labels_and_source():
    mixed = Dataset(
        "train",
        (
            LabeledSentence("Malmö", LabelSet.of("sv"), "sv_talbanken"),
            LabeledSentence("Oslo", LabelSet.of("nb"), "nb_bokmaal"),
            LabeledSentence("Tromsø og Malmö", LabelSet.of("nb", "nn")),
        ),
    )
    kept = extract_alphabet_variants(mixed, "öø")
    assert kept == Dataset("train", (mixed[0], mixed[2]))


@given(st.lists(st.sampled_from(["på æble", "uten treff", "møte", "ren tekst"]), max_size=30))
def test_alphabet_variants_output_is_subsequence(sentences):
    kept = [it.text for it in extract_alphabet_variants(corpus(sentences, "sv"), {"æ", "ø"})]
    it = iter(sentences)
    assert all(any(k == s for s in it) for k in kept)  # kept preserves input order


def ann(idx, start, end, category, surface):
    return EntityAnnotation(idx, start, end, category, surface)


def test_ner_swap_draws_from_category_inventory():
    # Person inventory {Mai Buch, Karl Marx}: the annotated slot must end
    # up holding one of the two names.
    text = "Der stod ingen steder i Mai Buchs eksamenspapirer."
    start = text.encode("utf-8").index(b"Mai Buch")
    d = Dataset(
        "train",
        (
            LabeledSentence(text, LabelSet.of("da", "nb")),
            LabeledSentence("Karl Marx skrev bøker.", LabelSet.of("nb")),
        ),
    )
    annotations = [
        ann(0, start, start + len(b"Mai Buch"), "person", "Mai Buch"),
        ann(1, 0, len(b"Karl Marx"), "person", "Karl Marx"),
    ]
    out = ner_swap(d, annotations, seed=4)
    assert out[0].text in (text, text.replace("Mai Buch", "Karl Marx"))
    assert out[0].labels == d[0].labels


def test_ner_swap_zero_annotations_is_identity():
    d = make_dataset(5)
    assert ner_swap(d, [], seed=0) == d
    # The seed is checked as PunctConfig checks it, with or without annotations.
    for seed in (1.0, True):
        with pytest.raises(TypeError, match="seed"):
            ner_swap(d, [], seed=seed)


def test_ner_swap_deterministic():
    d = Dataset(
        "train",
        tuple(
            LabeledSentence(f"Entitet{i} er her", LabelSet.of("nn")) for i in range(30)
        ),
    )
    annotations = [ann(i, 0, len(f"Entitet{i}".encode()), "misc", f"Entitet{i}") for i in range(30)]
    assert ner_swap(d, annotations, seed=8) == ner_swap(d, annotations, seed=8)


def test_ner_swap_preserves_non_entity_bytes_and_counts():
    text = "Åse møtte Kari på Lillehammer"
    raw = text.encode("utf-8")
    kari = raw.index(b"Kari")
    lille = raw.index(b"Lillehammer")
    d = Dataset("train", (LabeledSentence(text, LabelSet.of("nb", "nn")),))
    annotations = [
        ann(0, kari, kari + 4, "person", "Kari"),
        ann(0, lille, lille + len(b"Lillehammer"), "location", "Lillehammer"),
        # Inventory mates with multibyte surfaces.
        ann(0, raw.index(b"\xc3\x85se"), raw.index(b"\xc3\x85se") + len("Åse".encode()), "person", "Åse"),
    ]
    out = ner_swap(d, annotations, seed=123)
    assert len(out) == len(d)
    assert out[0].labels == d[0].labels
    result = out[0].text
    assert " møtte " in result and " på " in result


def test_ner_swap_rejects_overlapping_spans():
    d = Dataset("train", (LabeledSentence("Oslo kommune", LabelSet.of("nb")),))
    annotations = [
        ann(0, 0, 4, "location", "Oslo"),
        ann(0, 2, 12, "organization", "lo kommune"),
    ]
    with pytest.raises(DataError, match="overlap"):
        ner_swap(d, annotations, seed=0)


def test_ner_swap_rejects_surface_mismatch():
    d = Dataset("train", (LabeledSentence("Oslo kommune", LabelSet.of("nb")),))
    with pytest.raises(DataError, match="mismatch"):
        ner_swap(d, [ann(0, 0, 4, "location", "Bodø")], seed=0)


def test_ner_swap_rejects_out_of_bounds_span():
    d = Dataset("train", (LabeledSentence("kort", LabelSet.of("nb")),))
    with pytest.raises(DataError, match="out of bounds"):
        ner_swap(d, [ann(0, 2, 40, "misc", "rt")], seed=0)


def test_ner_swap_rejects_bad_sentence_index():
    d = make_dataset(2)
    with pytest.raises(DataError, match="out of range"):
        ner_swap(d, [ann(5, 0, 2, "misc", "se")], seed=0)


def test_entity_annotation_positions_must_be_ints():
    # True would pass as sentence 1, and a float offset would fail only
    # when ner_swap slices with it.
    for position in (True, 0.0):
        for args in ((position, 0, 4), (0, position, 4), (0, 0, position)):
            with pytest.raises(TypeError, match="must be int"):
                EntityAnnotation(*args, "person", "Kari")


def test_entity_annotation_rejects_an_empty_or_negative_span():
    for start, end in ((3, 3), (4, 3), (-1, 3)):
        with pytest.raises(DataError, match=rf"invalid span \[{start}, {end}\)"):
            EntityAnnotation(0, start, end, "person", "Kari")


def test_entity_annotation_surface_must_be_str_that_encodes_as_utf8():
    # ner_swap encodes the surface to compare it with the sentence's bytes.
    with pytest.raises(TypeError, match="surface must be str"):
        EntityAnnotation(0, 0, 3, "misc", 123)
    with pytest.raises(DataError, match="surface does not encode as UTF-8"):
        EntityAnnotation(0, 0, 3, "misc", "Kar\udc00")


def test_ner_swap_refuses_test_split():
    d = make_dataset(1, split="test")
    with pytest.raises(DataError, match="test split"):
        ner_swap(d, [], seed=0)


def test_read_entity_annotations(tmp_path):
    p = tmp_path / "ann.jsonl"
    p.write_text(
        '{"sentence_index": 0, "start": 0, "end": 4, "category": "location", "surface": "Oslo"}\n',
        encoding="utf-8",
    )
    annotations = read_entity_annotations(p)
    assert annotations == [EntityAnnotation(0, 0, 4, "location", "Oslo")]


def test_read_entity_annotations_reports_bad_lines(tmp_path):
    p = tmp_path / "ann.jsonl"
    p.write_text('{"sentence_index": 0}\n', encoding="utf-8")
    with pytest.raises(DataError, match=":1:"):
        read_entity_annotations(p)
