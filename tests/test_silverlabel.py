import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scandilid import silverlabel
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


def test_extend_summary_to_dict_is_json_in_canonical_order():
    records = [
        TranslationRecord(1, Language.SV, "Vi ses i morgen."),
        TranslationRecord(0, Language.NB, "Jeg har en plan."),
        TranslationRecord(2, Language.NN, "Das ist deutsch."),
    ]
    _, summary = extend_labels(make_dataset(), records)
    record = json.loads(json.dumps(summary.to_dict()))
    assert record == {
        "records_seen": 3,
        "matches": 2,
        "skipped_other": 1,
        "added": {"da": 0, "nb": 1, "nn": 0, "sv": 1},
    }
    assert list(record["added"]) == ["da", "nb", "nn", "sv"]
    assert ExtendSummary().to_dict()["added"] == {"da": 0, "nb": 0, "nn": 0, "sv": 0}


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
    # A tag is not a Language: extend_labels would fail on it later.
    with pytest.raises(TypeError, match="target"):
        TranslationRecord(0, "nb", "x")


def test_record_index_must_be_an_exact_int():
    # True would label item 1 (dataset[True] is dataset[1]), and 1.0 would
    # fail later, inside extend_labels, on a bare tuple-index TypeError.
    for index in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="item_index must be int"):
            TranslationRecord(index, Language.NB, "x")
    assert TranslationRecord(1, Language.NB, "x").item_index == 1


def test_record_translation_must_be_str_that_encodes_as_utf8():
    # extend_labels would fail on 7 inside unicodedata.normalize.
    with pytest.raises(TypeError, match="translation must be str"):
        TranslationRecord(0, Language.NB, 7)
    with pytest.raises(DataError, match="translation does not encode as UTF-8"):
        TranslationRecord(0, Language.NB, "Hei\ud800")


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


@pytest.mark.parametrize(
    "command, translation",
    [
        ("printf a", None),  # no final newline
        ("printf 'a\\nb\\n'", None),  # a line too many
        ("printf ''", None),  # no line at all
        ("printf '\\n'", ""),  # one empty line: the empty translation
    ],
)
def test_translate_command_takes_exactly_one_line(command, translation):
    assert translate_command(command, Language.NB, "x") == translation


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


def counting_command(tmp_path, monkeypatch, translator="cut -f2-"):
    """A translator (identity by default) that appends a line to a file each time it starts."""
    starts = tmp_path / "starts"
    monkeypatch.setenv("STARTS", str(starts))
    return starts, f'echo >> "$STARTS"; {translator}'


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


def test_targets_are_checked_before_any_translator_starts(tmp_path, monkeypatch):
    starts, command = counting_command(tmp_path, monkeypatch)
    d = make_dataset()
    for targets, error in (([Language.OTHER], DataError), (["nb"], TypeError), ("nb", TypeError)):
        with pytest.raises(error, match="target"):
            generate_translations(d, targets, command)
    assert not starts.exists()
    # A repeated target is asked once.
    assert generate_translations(d, [Language.NB, Language.NB], command) == generate_translations(
        d, [Language.NB], command
    )
    assert starts.read_text().count("\n") == 2


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
        # Answers `bad` requests with a byte that is not UTF-8.
        "cut -f2- | sed 's/bad/\\xff/'",
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


def test_undecodable_output_fails_only_its_record():
    records, failures = generate_translations(
        mixed_dataset(), [Language.NB, Language.SV], "cut -f2- | sed 's/bad/\\xff/'"
    )
    assert [(r.item_index, r.target) for r in records] == [
        (0, Language.NB),
        (0, Language.SV),
        (3, Language.SV),
    ]
    assert failures == 2
    assert translate_command("printf '\\377\\n'", Language.NB, "x") is None


def test_one_bad_request_costs_logarithmic_spawns(tmp_path, monkeypatch):
    starts, command = counting_command(tmp_path, monkeypatch, FAIL_ON_BAD)
    d = Dataset(
        "train",
        tuple(
            LabeledSentence("Det er bad nyt." if i == 5 else f"Jeg har plan {i}.", LabelSet.of("da"))
            for i in range(16)
        ),
    )
    records, failures = generate_translations(d, [Language.NB], command)
    # The whole pass, then two halves at each of four levels: 16, 8, 4, 2, 1.
    assert starts.read_text().count("\n") == 1 + 2 * 4
    assert failures == 1
    assert [r.item_index for r in records] == [i for i in range(16) if i != 5]


def test_every_request_failing_costs_linear_spawns(tmp_path, monkeypatch):
    starts, command = counting_command(tmp_path, monkeypatch, "false")
    n = 20
    d = Dataset("train", tuple(LabeledSentence(f"Jeg har plan {i}.", LabelSet.of("da")) for i in range(n)))
    assert generate_translations(d, [Language.NB], command) == ([], n)
    # The pass of 20 and its first halves of 10, 5, 2 and 1 all fail; each
    # second half then goes one request per process: 1 + 3 + 5 + 10.
    # Halving all the way down would take 2 * 20 - 1 = 39.
    assert starts.read_text().count("\n") == 5 + (n - 1)


@pytest.mark.parametrize(
    "translator",
    [
        "cut -f2- | sed p",  # every line twice
        "cut -f2- | tr -d '\\n'",  # no newline at all
        "cut -f2-; echo extra",  # a line too many
        "printf ''",  # no output at all
    ],
)
def test_malformed_translator_fails_every_record(tmp_path, monkeypatch, translator):
    starts, command = counting_command(tmp_path, monkeypatch, translator)
    n = 16
    d = Dataset("train", tuple(LabeledSentence(f"Jeg har plan {i}.", LabelSet.of("da")) for i in range(n)))
    # A pass of one request reads its answer by the same rule as a pass of
    # many, so no record is accepted from output a larger pass refused.
    assert generate_translations(d, [Language.NB], command) == ([], n)
    # As for a translator that exits non-zero: the pass of 16 and its first
    # halves of 8, 4, 2 and 1 fail, then each second half goes one request
    # per process: 5 + 15 = 20, within N + ⌈log2 N⌉ + 1 = 21.
    assert starts.read_text().count("\n") == 5 + (n - 1)


def test_failing_pass_spawns_at_most_n_plus_log_n(monkeypatch):
    spawns = []
    # Records each spawn's requests and returns None (append's result): every process fails.
    monkeypatch.setattr(silverlabel, "_run_translator", lambda command, requests: spawns.append(requests))
    for n in range(1, 300):
        spawns.clear()
        requests = [(Language.NB, f"t{i}") for i in range(n)]
        assert silverlabel._translate_pass("false", requests) == [None] * n
        assert len(spawns) <= n + math.ceil(math.log2(n)) + 1, n
