import io
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scandilid.core import Dataset, LabeledSentence, LabelSet, Language
from scandilid.ingest import (
    CorpusSource,
    DatasetFormatError,
    compose_training_set,
    dataset_stats,
    parse_conllu,
    read_dataset,
    serialize_record,
    write_dataset,
)
from scandilid.augment import read_entity_annotations
from scandilid.silverlabel import read_translation_records

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


def test_parse_conllu_empty_stream():
    assert parse_conllu(io.StringIO("")) == []


def test_parse_conllu_two_minimal_blocks():
    stream = io.StringIO("# text = A.\n\n# text = B.\n")
    assert parse_conllu(stream) == ["A.", "B."]


def test_parse_conllu_skips_blocks_without_text(caplog):
    stream = io.StringIO("# sent_id = 1\n1\tord\n\n# text = Med tekst.\n")
    with caplog.at_level("WARNING"):
        texts = parse_conllu(stream)
    assert texts == ["Med tekst."]
    assert "skipped 1" in caplog.text


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
        _bad(read_dataset, _GOOD[read_dataset], '["Hej", ["da"]]'),
        _bad(read_translation_records, "0", '"0"'),
        _bad(read_translation_records, "0", "true"),
        _bad(read_translation_records, "0", "0.0"),
        _bad(read_translation_records, '"nb"', "1"),
        _bad(read_translation_records, '"Hei"', "7"),
        _bad(read_translation_records, _GOOD[read_translation_records], '[0, "nb", "Hei"]'),
        _bad(read_entity_annotations, '"sentence_index": 0', '"sentence_index": true'),
        _bad(read_entity_annotations, '"start": 0', '"start": 0.0'),
        _bad(read_entity_annotations, "4", '"4"'),
        _bad(read_entity_annotations, '"location"', "3"),
        _bad(read_entity_annotations, '"Oslo"', '["Oslo"]'),
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
    return list(compose_training_set([CorpusSource(path, fmt, LabelSet.of("da"))], seed=0))


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


def test_serialize_record_canonical_order_and_optional_source():
    item = LabeledSentence("Hej", LabelSet.of("nb", "da"))
    assert serialize_record(item) == '{"text": "Hej", "labels": ["da", "nb"]}'
    with_src = LabeledSentence("Hej", LabelSet.of("da"), source="x")
    assert serialize_record(with_src) == '{"text": "Hej", "labels": ["da"], "source": "x"}'


@pytest.fixture
def bokmal_conllu(tmp_path):
    p = tmp_path / "nb.conllu"
    p.write_text(
        "# text = Første setning.\n1\tx\n\n# text = Andre setning.\n1\ty\n\n# text = Tredje setning.\n1\tz\n",
        encoding="utf-8",
    )
    return p


def test_compose_single_conllu_source(bokmal_conllu):
    source = CorpusSource(bokmal_conllu, "conllu", LabelSet.of("nb"))
    d = compose_training_set([source], seed=7)
    assert d.split == "train"
    assert len(d) == 3
    assert all(item.labels == LabelSet.of("nb") for item in d)
    assert all(item.source == str(bokmal_conllu) for item in d)


def test_compose_is_byte_reproducible(bokmal_conllu, tmp_path):
    other = tmp_path / "other.txt"
    other.write_text("\n".join(f"otherish {i}" for i in range(10)) + "\n", encoding="utf-8")
    sources = [
        CorpusSource(bokmal_conllu, "conllu", LabelSet.of("nb")),
        CorpusSource(other, "plaintext", LabelSet.of("other")),
    ]
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
        CorpusSource(other_a, "plaintext", LabelSet.of("other")),
        CorpusSource(sv, "plaintext", LabelSet.of("sv")),
        CorpusSource(other_b, "plaintext", LabelSet.of("other")),
    ]
    d = compose_training_set(sources, seed=11, other_sample_size=5)
    others = [item.text for item in d if item.labels.is_other]
    assert len(others) == 5
    assert len(set(others)) == 5
    # Non-other items are untouched and global order is preserved.
    assert [item.text for item in d if not item.labels.is_other] == ["svensk mening"]
    pool = [f"alpha {i}" for i in range(6)] + [f"beta {i}" for i in range(6)]
    assert others == sorted(others, key=pool.index)


def test_compose_keeps_duplicates_unless_dedupe(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("samma mening\nsamma mening\n", encoding="utf-8")
    source = CorpusSource(p, "plaintext", LabelSet.of("sv"))
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
