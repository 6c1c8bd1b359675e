import io
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scandilid.core import CANONICAL_ORDER, SPLITS, DataError, Dataset, LabeledSentence, LabelSet, Language
from scandilid.ingest import (
    DatasetFormatError,
    compose_training_set,
    dataset_stats,
    parse_conllu,
    read_conllu,
    read_dataset,
    read_plaintext,
    write_dataset,
)
from scandilid.augment import read_entity_annotations
from scandilid.silverlabel import TranslationRecord, read_translation_records, write_translation_records

CONLLU_SAMPLE = """\
# sent_id = dk-001
# text = - Gerne.
1\t-\t-\tPUNCT\t_\t_\t2\tpunct\t_\t_
2\tGerne\tgerne\tADV\t_\t_\t0\troot\t_\t_

# sent_id = dk-002
# text = Det er fint.
1\tDet\tdet\tPRON\t_\t_\t3\tnsubj\t_\t_
"""


def test_parse_conllu_extracts_text_comments():
    assert parse_conllu(io.StringIO(CONLLU_SAMPLE)) == ["- Gerne.", "Det er fint."]
    # A stream that does not translate line ends still yields no \r.
    assert parse_conllu(io.StringIO("# text = a b\r\n1\tx\r\n")) == ["a b"]


def test_parse_conllu_empty_stream():
    assert parse_conllu(io.StringIO("")) == []


def test_parse_conllu_two_minimal_blocks():
    stream = io.StringIO("# text = A.\n\n# text = B.\n")
    assert parse_conllu(stream) == ["A.", "B."]


def test_parse_conllu_skips_blocks_without_text(caplog):
    stream = io.StringIO("# sent_id = 1\n1\tord\n\n# text = Med tekst.\n\n# text = \n1\tx\n\n# text = \t \n")
    with caplog.at_level("WARNING"):
        texts = parse_conllu(stream)
    assert texts == ["Med tekst."]
    assert "skipped 3" in caplog.text


def test_compose_skips_a_blank_conllu_text_comment(tmp_path):
    p = tmp_path / "nb.conllu"
    p.write_text("# text = \n1\tx\n\n# text = Hei.\n1\ty\n", encoding="utf-8")
    composed = compose_training_set([read_conllu(p, LabelSet.of("nb"))], seed=0)
    assert [item.text for item in composed] == ["Hei."]


def test_parse_conllu_takes_first_text_line_per_block():
    stream = io.StringIO("# text = første\n# text = andre\n")
    assert parse_conllu(stream) == ["første"]


def test_read_dataset_basic(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"text":"Hej","labels":["da","nb"]}\n', encoding="utf-8")
    d = read_dataset(p)
    assert len(d) == 1
    assert d[0].labels == LabelSet.of("da", "nb")
    assert d[0].source is None


def test_read_dataset_rejects_empty_labels(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"text":"Hej","labels":[]}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r":1:"):
        read_dataset(p)


def test_read_dataset_reports_line_number_for_exclusivity(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(
        '{"text":"ok","labels":["sv"]}\n{"text":"bad","labels":["other","sv"]}\n',
        encoding="utf-8",
    )
    with pytest.raises(DatasetFormatError, match=r":2:"):
        read_dataset(p)


def test_read_dataset_rejects_malformed_json(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"text": "ok", "labels": ["sv"]}\n{broken\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r":2:"):
        read_dataset(p)


def test_read_dataset_rejects_missing_fields(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"labels":["sv"]}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="missing field"):
        read_dataset(p)


_GOOD = {
    read_dataset: '{"text": "Hej", "labels": ["da"]}',
    read_translation_records: '{"item_index": 0, "target": "nb", "translation": "Hei"}',
    read_entity_annotations: '{"sentence_index": 0, "start": 0, "end": 4, "category": "location", "surface": "Oslo"}',
}


def _bad(reader, old, new):
    return pytest.param(reader, _GOOD[reader].replace(old, new), id=f"{reader.__name__}:{new}")


@pytest.mark.parametrize(
    "reader, bad",
    [
        _bad(read_dataset, '"Hej"', "5"),
        _bad(read_dataset, '["da"]', '"da"'),
        _bad(read_dataset, "]}", '], "source": 1}'),
        _bad(read_dataset, "]}", '], "source": "\\ud800"}'),
        _bad(read_dataset, '"Hej"', '"Hej \\ud800"'),
        _bad(read_dataset, '["da"]', '{"da": 1}'),
        _bad(read_dataset, _GOOD[read_dataset], '["Hej", ["da"]]'),
        _bad(read_translation_records, "0", '"0"'),
        _bad(read_translation_records, "0", "true"),
        _bad(read_translation_records, "0", "0.0"),
        _bad(read_translation_records, '"nb"', "1"),
        _bad(read_translation_records, '"Hei"', "7"),
        _bad(read_translation_records, '"Hei"', '"\\udc00Hei"'),
        _bad(read_translation_records, _GOOD[read_translation_records], '[0, "nb", "Hei"]'),
        _bad(read_entity_annotations, '"sentence_index": 0', '"sentence_index": true'),
        _bad(read_entity_annotations, '"start": 0', '"start": 0.0'),
        _bad(read_entity_annotations, "4", '"4"'),
        _bad(read_entity_annotations, '"location"', "3"),
        _bad(read_entity_annotations, '"Oslo"', '["Oslo"]'),
        _bad(read_entity_annotations, '"Oslo"', '"Osl\\ud800"'),
        _bad(read_entity_annotations, _GOOD[read_entity_annotations], '[0, 0, 4, "location", "Oslo"]'),
    ],
)
def test_readers_reject_malformed_records_with_line_number(tmp_path, reader, bad):
    p = tmp_path / "records.jsonl"
    p.write_text(f"{_GOOD[reader]}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r":3:"):
        reader(p)
    p.write_text(f"{_GOOD[reader]}\n", encoding="utf-8")
    assert len(reader(p)) == 1


def _read_source(path, fmt):
    if fmt == "jsonl":
        return list(read_dataset(path))
    reader = {"conllu": read_conllu, "plaintext": read_plaintext}[fmt]
    return list(reader(path, LabelSet.of("da")))


@pytest.mark.parametrize(
    "fmt, first_line, second_line",
    [
        ("jsonl", b'{"text": "Hej", "labels": ["da"]}\n', b'{"text": "caf\xff", "labels": ["da"]}\n'),
        ("plaintext", b"Hej\r\n", b"caf\xff\n"),
        ("conllu", b"# text = Hej\r", b"# text = caf\xff\n"),
    ],
    ids=["jsonl", "plaintext", "conllu"],
)
def test_non_utf8_byte_names_file_and_line(tmp_path, fmt, first_line, second_line):
    p = tmp_path / f"bad.{fmt}"
    p.write_bytes(first_line + second_line)
    with pytest.raises(DatasetFormatError, match=re.escape(f"{p}:2:")):
        _read_source(p, fmt)


def test_readers_reject_a_label_that_is_not_a_label_set(tmp_path):
    # A str label would build items that fail only when written.
    p = tmp_path / "sv.txt"
    p.write_text("# text = Hej då\n", encoding="utf-8")
    for reader in (read_conllu, read_plaintext):
        with pytest.raises(TypeError, match="labels must be a LabelSet"):
            reader(p, "sv")


@pytest.mark.parametrize("reader", [read_conllu, read_plaintext], ids=lambda r: r.__name__)
def test_reader_rejects_a_label_that_is_not_a_label_set_on_an_empty_file(tmp_path, reader):
    # The check comes before the file is read, so it does not wait for a
    # sentence to build.
    p = tmp_path / "empty.txt"
    p.write_text("", encoding="utf-8")
    with pytest.raises(TypeError, match="labels must be a LabelSet"):
        reader(p, "sv")
    assert len(reader(p, LabelSet.of("sv"))) == 0


def test_line_ends_are_universal_newlines(tmp_path):
    p = tmp_path / "mixed.txt"
    p.write_bytes(b"hej\r\nder\rmed\n")
    assert [item.text for item in _read_source(p, "plaintext")] == ["hej", "der", "med"]
    p.write_bytes(b'{"text": "hej", "labels": ["da"]}\r\n{"text": "der", "labels": ["da"]}\r')
    assert [item.text for item in _read_source(p, "jsonl")] == ["hej", "der"]


def test_read_is_order_stable(tmp_path):
    p = tmp_path / "d.jsonl"
    lines = [f'{{"text":"setning {i}","labels":["nn"]}}' for i in range(20)]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    first = read_dataset(p)
    second = read_dataset(p)
    assert first == second
    assert [it.text for it in first] == [f"setning {i}" for i in range(20)]


def test_write_read_round_trip(tmp_path):
    items = (
        LabeledSentence("Hej med dig", LabelSet.of("da"), source="da_ddt"),
        LabeledSentence("Hei på deg", LabelSet.of("nb", "nn")),
    )
    d = Dataset("train", items)
    p = tmp_path / "out.jsonl"
    write_dataset(d, p)
    back = read_dataset(p, split="train")
    assert back == d


def test_write_dataset_canonical_order_and_optional_source(tmp_path):
    items = (
        LabeledSentence("Hej", LabelSet.of("nb", "da")),
        LabeledSentence("Hej", LabelSet.of("da"), source="x"),
    )
    p = tmp_path / "out.jsonl"
    write_dataset(Dataset("train", items), p)
    assert p.read_bytes() == (
        b'{"text": "Hej", "labels": ["da", "nb"]}\n'
        b'{"text": "Hej", "labels": ["da"], "source": "x"}\n'
    )


@pytest.fixture
def bokmal_conllu(tmp_path):
    p = tmp_path / "nb.conllu"
    p.write_text(
        "# text = Første setning.\n1\tx\n\n# text = Andre setning.\n1\ty\n\n# text = Tredje setning.\n1\tz\n",
        encoding="utf-8",
    )
    return p


def test_compose_single_conllu_source(bokmal_conllu):
    d = compose_training_set([read_conllu(bokmal_conllu, LabelSet.of("nb"))], seed=7)
    assert d.split == "train"
    assert len(d) == 3
    assert all(item.labels == LabelSet.of("nb") for item in d)
    assert all(item.source == str(bokmal_conllu) for item in d)


def test_compose_is_byte_reproducible(bokmal_conllu, tmp_path):
    other = tmp_path / "other.txt"
    other.write_text("\n".join(f"otherish {i}" for i in range(10)) + "\n", encoding="utf-8")
    sources = [read_conllu(bokmal_conllu, LabelSet.of("nb")), read_plaintext(other, LabelSet.of("other"))]
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(compose_training_set(sources, seed=3, other_sample_size=4), out_a)
    write_dataset(compose_training_set(sources, seed=3, other_sample_size=4), out_b)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_compose_other_sampling_without_replacement(tmp_path):
    other_a = tmp_path / "a.txt"
    other_a.write_text("\n".join(f"alpha {i}" for i in range(6)) + "\n", encoding="utf-8")
    other_b = tmp_path / "b.txt"
    other_b.write_text("\n".join(f"beta {i}" for i in range(6)) + "\n", encoding="utf-8")
    sv = tmp_path / "sv.txt"
    sv.write_text("svensk mening\n", encoding="utf-8")
    sources = [
        read_plaintext(other_a, LabelSet.of("other")),
        read_plaintext(sv, LabelSet.of("sv")),
        read_plaintext(other_b, LabelSet.of("other")),
    ]
    d = compose_training_set(sources, seed=11, other_sample_size=5)
    others = [item.text for item in d if item.labels.is_other]
    assert len(others) == 5
    assert len(set(others)) == 5
    # Non-other items are untouched and global order is preserved.
    assert [item.text for item in d if not item.labels.is_other] == ["svensk mening"]
    pool = [f"alpha {i}" for i in range(6)] + [f"beta {i}" for i in range(6)]
    assert others == sorted(others, key=pool.index)


def test_compose_samples_other_across_in_memory_jsonl_and_plaintext_corpora(tmp_path):
    jsonl, plain = tmp_path / "d.jsonl", tmp_path / "other.txt"
    in_memory = Dataset("unsplit", [LabeledSentence("Hei på deg", LabelSet.of("nb"), "mem")])
    rows = "".join(f'{{"text": "json {i}", "labels": ["other"]}}\n' for i in range(4))
    jsonl.write_text('{"text": "Hej med dig", "labels": ["da"]}\n' + rows, encoding="utf-8")
    plain.write_text("".join(f"plain {i}\n" for i in range(4)), encoding="utf-8")
    corpora = [in_memory, read_dataset(jsonl), read_plaintext(plain, LabelSet.of("other"))]
    every = [item for corpus in corpora for item in corpus]
    origins = set()
    for seed in range(10):
        d = compose_training_set(corpora, seed=seed, other_sample_size=3)
        others = {item.text for item in d if item.labels.is_other}
        assert len(others) == 3
        # The items are the corpora's own, in their order, sources included.
        assert list(d) == [item for item in every if not item.labels.is_other or item.text in others]
        origins |= {text.split()[0] for text in others}
    assert origins == {"json", "plain"}


def test_compose_rejects_a_seed_or_sample_size_that_is_not_an_exact_int(tmp_path):
    other = tmp_path / "other.txt"
    other.write_text("a\nb\nc\nd\n", encoding="utf-8")
    sources = [read_plaintext(other, LabelSet.of("other"))]
    for seed in (True, 1.5):
        with pytest.raises(TypeError, match="seed must be int"):
            compose_training_set(sources, seed=seed, other_sample_size=2)
    for size in (True, 2.5):
        with pytest.raises(TypeError, match="other_sample_size must be int"):
            compose_training_set(sources, seed=0, other_sample_size=size)
    with pytest.raises(ValueError, match="other_sample_size must be >= 0"):
        compose_training_set(sources, seed=0, other_sample_size=-1)
    assert len(compose_training_set(sources, seed=0, other_sample_size=0)) == 0


def test_compose_keeps_duplicates_unless_dedupe(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("samma mening\nsamma mening\n", encoding="utf-8")
    source = read_plaintext(p, LabelSet.of("sv"))
    assert len(compose_training_set([source], seed=0)) == 2
    assert len(compose_training_set([source], seed=0, dedupe=True)) == 1


def test_dataset_stats_counts_multi_label_once_per_language():
    d = Dataset(
        "train",
        (
            LabeledSentence("en", LabelSet.of("nb")),
            LabeledSentence("to", LabelSet.of("nb", "da")),
        ),
    )
    stats = dataset_stats(d)
    assert stats.counts[Language.NB] == 2
    assert stats.counts[Language.DA] == 1
    assert stats.counts[Language.SV] == 0
    assert stats.total == 2


def test_label_distribution_to_dict_is_json_in_canonical_order():
    d = Dataset("train", [LabeledSentence("to", LabelSet.of("sv", "da")), LabeledSentence("x", LabelSet.of("other"))])
    record = json.loads(json.dumps(dataset_stats(d).to_dict()))
    assert record == {
        "counts": {"da": 1, "nb": 0, "nn": 0, "sv": 1, "other": 1},
        "total": 2,
        "shares": {"da": 0.333333, "nb": 0.0, "nn": 0.0, "sv": 0.333333, "other": 0.333333},
    }
    assert [list(record[key]) for key in ("counts", "shares")] == [["da", "nb", "nn", "sv", "other"]] * 2


def test_dataset_stats_empty():
    stats = dataset_stats(Dataset("unsplit", ()))
    assert stats.total == 0
    assert all(v == 0 for v in stats.counts.values())
    assert all(v == 0.0 for v in stats.shares().values())


def test_dataset_stats_shares_match_published_distribution():
    # Label counts of the full composed training corpus; the published
    # rounded shares are 35% nb, 33% nn, 13% other, 11% sv, 9% da.
    from scandilid.ingest import LabelDistribution

    counts = {
        Language.NB: 23_120,
        Language.DA: 5_977,
        Language.NN: 21_587,
        Language.SV: 6_911,
        Language.OTHER: 8_360,
    }
    dist = LabelDistribution(counts=counts, total=61_406)
    shares = dist.shares()
    expected = {
        Language.NB: 0.35,
        Language.NN: 0.33,
        Language.OTHER: 0.13,
        Language.SV: 0.11,
        Language.DA: 0.09,
    }
    for lang, want in expected.items():
        assert abs(shares[lang] - want) < 0.0075, lang


label_sets = st.one_of(
    st.just(LabelSet.of("other")),
    st.sets(st.sampled_from(["da", "nb", "nn", "sv"]), min_size=1, max_size=4).map(
        lambda tags: LabelSet.of(*tags)
    ),
)


@given(st.lists(label_sets, max_size=40))
def test_stats_count_conservation(all_labels):
    items = tuple(
        LabeledSentence(f"s{i}", labels) for i, labels in enumerate(all_labels)
    )
    stats = dataset_stats(Dataset("unsplit", items))
    assert stats.total == len(items)
    assert sum(stats.counts.values()) >= stats.total
    multi = any(len(labels) > 1 for labels in all_labels)
    assert (sum(stats.counts.values()) > stats.total) == multi


# Any code point, with lone surrogates, line ends and separators drawn often.
any_text = st.text(st.characters(exclude_categories=()) | st.sampled_from(" \r\n\x85\u2028\ud800å"), max_size=12)


def _accepted(make, *strategies):
    """What `make` builds from draws of `strategies`, over the draws it accepts."""

    def build(args):
        try:
            return make(*args)
        except (TypeError, DataError):
            return None

    return st.tuples(*strategies).map(build).filter(lambda value: value is not None)


sentences = _accepted(LabeledSentence, any_text, label_sets, st.none() | any_text)
translations = _accepted(TranslationRecord, st.integers(), st.sampled_from(CANONICAL_ORDER), any_text)


@given(st.sampled_from(SPLITS), st.lists(sentences, max_size=4), st.lists(translations, max_size=4))
def test_every_record_the_constructors_accept_round_trips(tmp_path_factory, split, items, records):
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    dataset = Dataset(split, tuple(items))
    write_dataset(dataset, path)
    assert read_dataset(path, split) == dataset
    write_translation_records(records, path)
    assert read_translation_records(path) == records
