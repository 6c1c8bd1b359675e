import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scandilid.core import DataError, Dataset, LabeledSentence, LabelSet, Language
from scandilid.silverlabel import (
    ExtendSummary,
    TranslationRecord,
    canonical_compare,
    extend_labels,
    generate_translations,
    read_translation_records,
    translate_command,
    write_translation_records,
)


def test_compare_collapses_whitespace():
    assert canonical_compare("Hej  der ", "Hej der")
    assert canonical_compare("Hej\tder", "Hej der")


def test_compare_distinguishes_words():
    assert not canonical_compare("Hej der", "Hei der")


def test_compare_is_case_sensitive():
    # Conservative equality: casing differences mean the translator
    # changed something, so no silver label is added.
    assert not canonical_compare("Hej der", "hej der")


def test_compare_case_sensitivity_on_many_pairs():
    rng = random.Random(42)
    words = ["jeg", "har", "en", "plan", "vi", "ses", "må", "søndag", "både", "år"]
    for _ in range(50):
        sentence = " ".join(rng.choice(words) for _ in range(rng.randint(3, 8)))
        flipped = sentence[0].upper() + sentence[1:]
        assert flipped != sentence
        assert not canonical_compare(sentence, flipped)


def test_compare_is_punctuation_sensitive():
    assert not canonical_compare("Hej der.", "Hej der")


def test_compare_unifies_unicode_composition():
    composed = "blå"  # å as one code point
    decomposed = "blå"  # a + combining ring
    assert canonical_compare(composed, decomposed)


def make_dataset():
    return Dataset(
        "train",
        (
            LabeledSentence("Jeg har en plan.", LabelSet.of("da")),
            LabeledSentence("Vi ses i morgen.", LabelSet.of("da")),
            LabeledSentence("Das ist deutsch.", LabelSet.of("other")),
        ),
    )


def test_identity_translation_adds_target():
    d = make_dataset()
    records = [TranslationRecord(0, Language.NB, "Jeg har en plan.")]
    out, summary = extend_labels(d, records)
    assert out[0].labels == LabelSet.of("da", "nb")
    assert out[0].text == d[0].text
    assert summary.matches == 1
    assert summary.added[Language.NB] == 1


def test_changed_translation_adds_nothing():
    d = make_dataset()
    records = [TranslationRecord(0, Language.NB, "Jeg har en plan!")]
    out, summary = extend_labels(d, records)
    assert out == d
    assert summary.matches == 0
    assert sum(summary.added.values()) == 0


def test_other_items_never_extended():
    d = make_dataset()
    records = [TranslationRecord(2, Language.SV, "Das ist deutsch.")]
    out, summary = extend_labels(d, records)
    assert out == d
    assert summary.skipped_other == 1


def test_extension_is_idempotent():
    d = make_dataset()
    records = [
        TranslationRecord(0, Language.NB, "Jeg har en plan."),
        TranslationRecord(1, Language.SV, "Vi ses i morgen"),  # differs: no final period
    ]
    once, _ = extend_labels(d, records)
    twice, _ = extend_labels(once, records)
    assert once == twice


def test_out_of_range_index_rejected():
    with pytest.raises(DataError, match="out of range"):
        extend_labels(make_dataset(), [TranslationRecord(9, Language.NB, "x")])


def test_record_targeting_other_rejected_at_construction():
    with pytest.raises(DataError):
        TranslationRecord(0, Language.OTHER, "x")


label_strategies = st.one_of(
    st.just(LabelSet.of("other")),
    st.sets(st.sampled_from(["da", "nb", "nn", "sv"]), min_size=1, max_size=4).map(
        lambda tags: LabelSet.of(*tags)
    ),
)


@given(
    st.lists(label_strategies, min_size=1, max_size=15),
    st.data(),
)
def test_monotonicity_and_text_immutability(all_labels, data):
    items = tuple(
        LabeledSentence(f"tekst nummer {i}", labels) for i, labels in enumerate(all_labels)
    )
    d = Dataset("train", items)
    n_records = data.draw(st.integers(min_value=0, max_value=20))
    records = []
    for _ in range(n_records):
        idx = data.draw(st.integers(min_value=0, max_value=len(items) - 1))
        target = data.draw(st.sampled_from([Language.DA, Language.NB, Language.NN, Language.SV]))
        identical = data.draw(st.booleans())
        text = items[idx].text if identical else items[idx].text + " endret"
        records.append(TranslationRecord(idx, target, text))
    out, _ = extend_labels(d, records)
    for before, after in zip(d, out):
        assert after.text == before.text
        assert before.labels.languages <= after.labels.languages
        if before.labels.is_other:
            assert after.labels == before.labels


def test_records_round_trip(tmp_path):
    records = [
        TranslationRecord(0, Language.NB, "Jeg har en plan."),
        TranslationRecord(3, Language.SV, "Vi ses på söndag"),
    ]
    p = tmp_path / "records.jsonl"
    write_translation_records(records, p)
    assert read_translation_records(p) == records


def test_read_records_reports_bad_lines(tmp_path):
    p = tmp_path / "records.jsonl"
    p.write_text('{"item_index": 0, "target": "other", "translation": "x"}\n', encoding="utf-8")
    with pytest.raises(DataError, match=":1:"):
        read_translation_records(p)


def test_translate_command_contract():
    # `cut -f2-` is an identity translator under the stdin contract.
    out = translate_command("cut -f2-", Language.NB, "Jeg har en plan.")
    assert out == "Jeg har en plan."


def test_translate_command_failure_returns_none():
    assert translate_command("false", Language.NB, "x") is None


def test_generate_translations_with_identity_command():
    d = make_dataset()
    records, failures = generate_translations(d, [Language.NB], "cut -f2-")
    assert failures == 0
    # Item 2 is `other` and item 0/1 are da-only: both get one nb record.
    assert [(r.item_index, r.target) for r in records] == [
        (0, Language.NB),
        (1, Language.NB),
    ]
    out, summary = extend_labels(d, records)
    assert out[0].labels == LabelSet.of("da", "nb")
    assert out[1].labels == LabelSet.of("da", "nb")
    assert summary.matches == 2


def test_generate_translations_counts_failures():
    d = make_dataset()
    records, failures = generate_translations(d, [Language.NB], "false")
    assert records == []
    assert failures == 2


def per_record_translations(dataset, targets, command):
    """Reference: one translator process per (item, target) request."""
    records, failures = [], 0
    for index, item in enumerate(dataset):
        if item.labels.is_other:
            continue
        for target in targets:
            if target in item.labels:
                continue
            translation = translate_command(command, target, item.text)
            if translation is None:
                failures += 1
            else:
                records.append(TranslationRecord(index, target, translation))
    return records, failures


def counting_command(tmp_path, monkeypatch):
    """An identity translator that appends a line to a file each time it starts."""
    starts = tmp_path / "starts"
    monkeypatch.setenv("STARTS", str(starts))
    return starts, 'echo >> "$STARTS"; cut -f2-'


def test_translation_keeps_unicode_line_separators():
    d = Dataset(
        "train",
        (
            LabeledSentence("hej\u2028der", LabelSet.of("da")),
            LabeledSentence("hej\x85der", LabelSet.of("da")),
        ),
    )
    records, failures = generate_translations(d, [Language.NB], "cut -f2-")
    assert failures == 0
    out, summary = extend_labels(d, records)
    assert summary.matches == 2
    assert [item.labels for item in out] == [LabelSet.of("da", "nb")] * 2
    translation = translate_command("cut -f2-", Language.NB, "hej\u2028der")
    assert canonical_compare(translation, "hej\u2028der")


def test_one_translator_process_per_pass(tmp_path, monkeypatch):
    starts, command = counting_command(tmp_path, monkeypatch)
    d = Dataset(
        "train",
        tuple(LabeledSentence(f"Jeg har plan {i}.", LabelSet.of("da")) for i in range(3)),
    )
    records, failures = generate_translations(d, [Language.NB, Language.SV], command)
    assert starts.read_text().count("\n") == 1
    assert failures == 0
    assert [(r.item_index, r.target) for r in records] == [
        (i, t) for i in range(3) for t in (Language.NB, Language.SV)
    ]
    assert all(r.translation == d[r.item_index].text for r in records)


def test_empty_pass_starts_no_translator(tmp_path, monkeypatch):
    starts, command = counting_command(tmp_path, monkeypatch)
    d = Dataset(
        "train",
        (
            LabeledSentence("Das ist deutsch.", LabelSet.of("other")),
            LabeledSentence("Jeg har en plan.", LabelSet.of("da", "nb")),
        ),
    )
    assert generate_translations(d, [Language.NB], command) == ([], 0)
    assert not starts.exists()


# Fails the whole process on the first request that mentions `bad`.
FAIL_ON_BAD = "awk -F '\\t' '/bad/ { exit 1 } { print $2 }'"


def mixed_dataset():
    return Dataset(
        "train",
        (
            LabeledSentence("Jeg har en plan.", LabelSet.of("da")),
            LabeledSentence("Det er bad nyt.", LabelSet.of("da")),
            LabeledSentence("Das ist deutsch.", LabelSet.of("other")),
            LabeledSentence("Vi  ses i\tmorgen.", LabelSet.of("da", "nb")),
        ),
    )


@pytest.mark.parametrize(
    "command",
    [
        "cut -f2-",
        "false",
        FAIL_ON_BAD,
        # Answers only the first request, so a pass has too few lines.
        "head -n 1 | cut -f2-",
        # Answers every request twice, so a pass has too many lines.
        "cut -f2- | sed p",
        # Answers without the final newline.
        "cut -f2- | tr -d '\\n'",
    ],
)
def test_pass_matches_per_record_path(command):
    d = mixed_dataset()
    targets = [Language.NB, Language.SV]
    assert generate_translations(d, targets, command) == per_record_translations(d, targets, command)


def test_failing_requests_are_retried_one_per_process():
    records, failures = generate_translations(
        mixed_dataset(), [Language.NB, Language.SV], FAIL_ON_BAD
    )
    assert [(r.item_index, r.target) for r in records] == [
        (0, Language.NB),
        (0, Language.SV),
        (3, Language.SV),
    ]
    assert failures == 2
