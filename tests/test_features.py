import json
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scandilid import features
from scandilid.features import (
    REFERENCE_HEAD_EMBED_DIM,
    FeaturizerConfig,
    featurize,
    featurize_many,
)


def reference_fnv(data: bytes) -> int:
    # Independent re-statement of FNV-1a, written differently on purpose.
    state = 14695981039346656037
    for byte in data:
        state = ((state ^ byte) * 1099511628211) % (2**64)
    return state


def enumerate_grams(text: str, min_n: int, max_n: int, include_word: bool) -> list[str]:
    # Brute-force window enumeration over sentinel-wrapped tokens.
    grams = []
    for token in text.split():
        wrapped = "<" + token + ">"
        for n in range(min_n, max_n + 1):
            for i in range(len(wrapped) - n + 1):
                grams.append(wrapped[i : i + n])
        if include_word:
            grams.append(wrapped)
    return grams


def oracle_ids(text: str, cfg: FeaturizerConfig) -> list[int]:
    # In featurize's order: token by token, n ascending, start ascending,
    # whole token last.
    return [
        reference_fnv(g.encode("utf-8")) % cfg.bucket_count
        for g in enumerate_grams(text, cfg.min_n, cfg.max_n, cfg.include_word_unigrams)
    ]


@pytest.fixture
def small_cache(monkeypatch):
    """An empty token cache that holds at most 64 tokens per configuration."""
    monkeypatch.setattr(features, "_caches", {})
    monkeypatch.setattr(features, "_CACHE_TOKENS", 64)
    return features._caches


def test_fnv_published_vectors():
    assert reference_fnv(b"") == 0xCBF29CE484222325
    assert reference_fnv(b"a") == 0xAF63DC4C8601EC8C
    assert reference_fnv(b"foobar") == 0x85944171F73967E8


def test_bigrams_of_two_letter_token():
    cfg = FeaturizerConfig(min_n=2, max_n=2, include_word_unigrams=False, bucket_count=1 << 10)
    ids = featurize("ab", cfg)
    assert len(ids) == 3  # <a, ab, b>
    expected = sorted(reference_fnv(g.encode()) % cfg.bucket_count for g in ["<a", "ab", "b>"])
    assert sorted(ids.tolist()) == expected


def test_gram_count_for_two_short_tokens():
    # "på" wraps to a 4-char token: 4 unigrams + 3 bigrams; same for "hø".
    cfg = FeaturizerConfig(min_n=1, max_n=2, include_word_unigrams=False)
    assert len(featurize("på hø", cfg)) == 14
    with_words = FeaturizerConfig(min_n=1, max_n=2, include_word_unigrams=True)
    assert len(featurize("på hø", with_words)) == 16


# Texts whose tokens are drawn from 1- to 4-byte characters or from ASCII
# only, each of up to 40 characters, so longer than the 4 * max_n bytes a
# chain steps through; and strings with runs of spaces.
TEXTS = st.one_of(
    st.sampled_from(["abыæøå<>⟨€😀", "ab<>z"]).flatmap(
        lambda alphabet: st.lists(st.text(alphabet=alphabet, min_size=1, max_size=40), max_size=6).map(" ".join)
    ),
    st.text(alphabet="abыæøå <⟨€😀", max_size=40),
)
GRAM_RANGES = st.integers(min_value=1, max_value=8).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(min_value=lo, max_value=8))
)


@given(
    st.lists(TEXTS, min_size=1, max_size=4),
    GRAM_RANGES,
    st.integers(min_value=0, max_value=31),
    st.booleans(),
)
def test_featurize_matches_brute_force_oracle(texts, gram_range, log_buckets, include_word):
    # Every example starts from empty caches, so its tokens are hashed, not
    # looked up; min_n above a token's wrapped length gives it no ids.
    # Bucket counts run from 1 (a mask of 0) to 2^31 (a mask of 31 bits),
    # the edges of hashing on 32-bit lanes.
    min_n, max_n = gram_range
    cfg = FeaturizerConfig(
        min_n=min_n,
        max_n=max_n,
        bucket_count=1 << log_buckets,
        include_word_unigrams=include_word,
    )
    expected = [oracle_ids(text, cfg) for text in texts]
    with mock.patch.dict(features._caches, clear=True):
        assert [featurize(text, cfg).tolist() for text in texts] == expected
    with mock.patch.dict(features._caches, clear=True):
        assert [ids.tolist() for ids in featurize_many(texts, cfg)] == expected


def test_a_cached_token_without_ids_beside_a_new_one(small_cache):
    # "ab" wraps to 4 characters, fewer than min_n: its cached ids are b"".
    cfg = FeaturizerConfig(min_n=5, max_n=6, include_word_unigrams=False)
    assert featurize("ab", cfg).tolist() == []
    for text in ("ab abcdef", "abcdefg ab", "ab ab xyzåø ab"):
        assert featurize(text, cfg).tolist() == oracle_ids(text, cfg)
    assert [ids.tolist() for ids in featurize_many(["ab", "ab abcdefgh"], cfg)] == [
        [],
        oracle_ids("ab abcdefgh", cfg),
    ]


@pytest.mark.parametrize(
    "text, min_n, max_n",
    [
        # "ab" wraps to 4 characters, fewer than min_n: its only id is the
        # whole token's, beside tokens with character grams.
        ("ab abcdef ab", 5, 6),
        # Only such tokens: the pass runs no chain step, and every whole
        # token is hashed from the offset basis.
        ("ab a æø 😀", 5, 8),
        ("a", 4, 4),
        # "<ab>" has 4 bytes, the 4 steps of the longest 4-gram: the chain
        # reaches its end and its tail is empty. "<a>" is shorter than the
        # chain, and "<abcdefgh>" has a tail of 6 bytes.
        ("ab a abcdefgh", 1, 4),
        # "<æøå" takes 7 steps, as many as "<abcde>" has bytes; "<æøå>" has
        # a tail of one byte.
        ("æøå abcde", 1, 4),
        ("æ", 1, 1),
        # A token repeated within one call.
        ("hej hej med hej dig med", 1, 4),
    ],
)
def test_whole_token_column_matches_oracle(small_cache, text, min_n, max_n):
    cfg = FeaturizerConfig(min_n=min_n, max_n=max_n, include_word_unigrams=True)
    expected = oracle_ids(text, cfg)
    assert featurize(text, cfg).tolist() == expected
    small_cache.clear()
    assert [ids.tolist() for ids in featurize_many([text, text], cfg)] == [expected, expected]
    assert featurize(text, cfg).tolist() == expected  # from the cache


def test_gram_templates_stay_bounded_whatever_the_token_lengths(small_cache):
    # Token lengths are the input's to choose: 10,000 distinct ones, the
    # last of 100,000 characters. Only templates of short tokens are kept,
    # and at most _TEMPLATES of them.
    features._template.cache_clear()
    cfg = FeaturizerConfig(min_n=1, max_n=1, include_word_unigrams=False)
    lengths = [*range(1, 10_000), 100_000]

    def gram_count(batch: list[int]) -> int:
        return len(featurize(" ".join("a" * length for length in batch), cfg))

    tracemalloc.start()
    try:
        for lo in range(0, len(lengths), 25):
            batch = lengths[lo : lo + 25]
            assert gram_count(batch) == sum(batch) + 2 * len(batch)
        small_cache.clear()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    info = features._template.cache_info()
    assert info.currsize <= min(info.maxsize, features._TEMPLATE_CHARS)
    # Kept templates of lengths up to 64 take 33 KiB here; keeping the last
    # 256 lengths seen instead would hold 40 MB.
    assert kept < 1 << 20
    # A token with a kept template beside one whose template is built afresh.
    text = "ab " + "c" * 70
    assert featurize(text, cfg).tolist() == oracle_ids(text, cfg)


def test_determinism():
    cfg = FeaturizerConfig()
    a = featurize("nøyaktig samme setning", cfg)
    b = featurize("nøyaktig samme setning", cfg)
    assert np.array_equal(a, b)


def test_empty_and_whitespace_text():
    cfg = FeaturizerConfig()
    assert featurize("", cfg).size == 0
    assert featurize("   \t ", cfg).size == 0


def test_ids_within_bucket_range():
    cfg = FeaturizerConfig(bucket_count=1 << 8)
    ids = featurize("en setning med mange forskjellige tegn æøå 123", cfg)
    assert ids.min() >= 0
    assert ids.max() < cfg.bucket_count


def test_widest_bucket_count_matches_oracle():
    # 2^31 buckets: ids use all 31 bits an int32 payload holds.
    cfg = FeaturizerConfig(bucket_count=1 << 31)
    text = "en setning med mange forskjellige tegn æøå 123"
    ids = featurize(text, cfg)
    assert ids.tolist() == oracle_ids(text, cfg)
    assert ids.max() >= 1 << 30


def test_token_order_does_not_change_multiset():
    cfg = FeaturizerConfig()
    assert sorted(featurize("hej med dig", cfg).tolist()) == sorted(
        featurize("dig med hej", cfg).tolist()
    )


def test_config_validation():
    with pytest.raises(ValueError):
        FeaturizerConfig(min_n=0)
    with pytest.raises(ValueError):
        FeaturizerConfig(min_n=3, max_n=2)
    with pytest.raises(ValueError):
        FeaturizerConfig(max_n=9)
    with pytest.raises(ValueError):
        FeaturizerConfig(bucket_count=1000)  # not a power of two
    with pytest.raises(ValueError):
        FeaturizerConfig(bucket_count=1 << 32)  # ids would not fit int32
    assert FeaturizerConfig(bucket_count=1 << 31).bucket_count == 1 << 31
    with pytest.raises(ValueError):
        FeaturizerConfig(embed_dim=0)
    with pytest.raises(TypeError):
        FeaturizerConfig(min_n=1.5)
    with pytest.raises(TypeError):
        FeaturizerConfig(min_n=True)
    with pytest.raises(TypeError):
        FeaturizerConfig(include_word_unigrams="no")
    with pytest.raises(TypeError):
        FeaturizerConfig(embed_dim=8.0)


def test_reference_head_preset():
    cfg = FeaturizerConfig.reference_head()
    assert cfg.embed_dim == REFERENCE_HEAD_EMBED_DIM
    smaller = FeaturizerConfig.reference_head(bucket_count=1 << 10)
    assert smaller.embed_dim == REFERENCE_HEAD_EMBED_DIM
    assert smaller.bucket_count == 1 << 10


GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "featurize_golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("config_name", sorted(GOLDEN["configs"]))
def test_featurize_matches_golden_fixture(config_name, small_cache):
    # Exact ids in exact order, captured from a per-gram FNV-1a
    # implementation; order matters because pooling sums in it. The
    # texts cover 1- to 4-byte UTF-8 characters and a combining mark.
    cfg = FeaturizerConfig(**GOLDEN["configs"][config_name])
    expected = GOLDEN["ids"][config_name]
    for _ in ("cold", "warm"):
        got = [featurize(text, cfg).tolist() for text in GOLDEN["texts"]]
        assert got == expected


def test_cache_never_exceeds_capacity(small_cache):
    cfg = FeaturizerConfig()
    for i in range(50):
        featurize(" ".join(f"ord{i}x{j}" for j in range(7)), cfg)
        assert all(len(cache) <= 64 for cache in small_cache.values())


def test_evicted_token_returns_identical_ids(small_cache):
    cfg = FeaturizerConfig()
    first = featurize("første ⟨num⟩ 😀", cfg).tolist()
    featurize(" ".join(f"fyll{i}" for i in range(200)), cfg)
    assert "første" not in small_cache[(1, 4, 1 << 18, True)]
    assert featurize("første ⟨num⟩ 😀", cfg).tolist() == first
    assert first == oracle_ids("første ⟨num⟩ 😀", cfg)


def test_one_call_with_more_new_tokens_than_the_cache_holds(small_cache):
    cfg = FeaturizerConfig()
    text = " ".join(f"mange{i}" for i in range(150))
    for _ in ("cold", "warm"):
        assert featurize(text, cfg).tolist() == oracle_ids(text, cfg)
        assert len(small_cache[(1, 4, 1 << 18, True)]) <= 64


def test_repeating_the_last_call_after_a_fill_hashes_nothing(small_cache, monkeypatch):
    cfg = FeaturizerConfig()
    hash_tokens, hashed = features._hash_tokens, []

    def counted(tokens, cfg):
        hashed.append(tokens)
        return hash_tokens(tokens, cfg)

    monkeypatch.setattr(features, "_hash_tokens", counted)
    for i in range(30):  # 210 new tokens: the cache fills and is emptied
        text = " ".join(f"fyll{i}x{j}" for j in range(7))
        ids = featurize(text, cfg).tolist()
    assert len(hashed) == 30
    assert featurize(text, cfg).tolist() == ids == oracle_ids(text, cfg)
    assert len(hashed) == 30


def test_a_churned_cache_is_no_larger_than_one_filled_once(small_cache):
    # A dict reclaims deleted entries only when it rebuilds, so evicting a
    # token per insertion grows its table past what its tokens need.
    cfg = FeaturizerConfig()
    for i in range(40):  # 280 new tokens, over 3x the capacity
        featurize(" ".join(f"churn{i}x{j}" for j in range(7)), cfg)
    once = {f"token{k}": b"" for k in range(64)}  # inserted one by one
    assert sys.getsizeof(small_cache[(1, 4, 1 << 18, True)]) <= sys.getsizeof(once)


def test_configs_differing_in_bucket_count_never_share_entries(small_cache):
    wide = FeaturizerConfig(bucket_count=1 << 18)
    narrow = FeaturizerConfig(bucket_count=1 << 6)
    text = "samme ord i begge"
    assert featurize(text, wide).tolist() == oracle_ids(text, wide)
    assert featurize(text, narrow).tolist() == oracle_ids(text, narrow)
    assert featurize(text, wide).tolist() == oracle_ids(text, wide)
    assert len(small_cache) == 2


def test_mutating_a_result_leaves_later_results_unchanged(small_cache):
    cfg = FeaturizerConfig()
    expected = oracle_ids("hej hej med dig", cfg)
    ids = featurize("hej hej med dig", cfg)
    ids[:] = -1
    assert featurize("hej hej med dig", cfg).tolist() == expected
    featurize("hej", cfg)[:] = 7
    assert featurize("hej hej med dig", cfg).tolist() == expected


def test_serving_ids_are_featurize_as_a_read_only_int32_view(small_cache):
    # forward and predict pool these as they are; featurize casts them to int64.
    cfg = FeaturizerConfig()
    for text in ("", "hej hej med dig", "hej"):
        ids = features._ids(text, cfg)
        assert ids.dtype == np.int32 and not ids.flags.writeable
        assert featurize(text, cfg).dtype == np.int64
        assert ids.tolist() == featurize(text, cfg).tolist() == oracle_ids(text, cfg)


def test_featurize_many_matches_featurize_and_oracle(small_cache):
    # Three chunks of texts; each chunk holds over 100 distinct tokens, so
    # the 64-token cache is emptied inside it. Empty texts and repeated tokens
    # included.
    cfg = FeaturizerConfig()
    texts = [" ".join(f"ord{i % 37}ø{j} igjen igjen" for j in range(i % 4)) for i in range(600)]
    texts[5], texts[256], texts[599] = "", "  \t ", "igjen"
    expected = [oracle_ids(text, cfg) for text in texts]
    for _ in ("cold", "warm"):
        got = featurize_many(texts, cfg)
        assert all(ids.dtype == np.int64 for ids in got)
        assert [ids.tolist() for ids in got] == expected
        assert [featurize(text, cfg).tolist() for text in texts] == expected
    assert len(small_cache[(1, 4, 1 << 18, True)]) <= 64
    assert featurize_many([], cfg) == []


def test_concurrent_featurize_with_evicting_cache(small_cache, monkeypatch):
    # Four threads share a 64-token cache and keep filling it with new
    # tokens, so it is emptied while other threads look tokens up, and
    # tokens a call looked up are gone before it joins them.
    # Two threads call featurize_many, in chunks of 16 texts that
    # interleave with the other threads' calls.
    monkeypatch.setattr(features, "_CHUNK_TEXTS", 16)
    cfg = FeaturizerConfig()
    texts = [
        " ".join(f"ord{t}ø{i}x{j} fælles{j % 3}" for j in range(6)) for t in range(4) for i in range(150)
    ]
    expected = {text: oracle_ids(text, cfg) for text in texts}
    errors = []

    class CountedClears(dict):
        clears = 0

        def clear(self):
            self.clears += 1
            super().clear()

    cache = small_cache[(1, 4, 1 << 18, True)] = CountedClears()

    def work(offset):
        try:
            mine = texts[offset::4]
            got = featurize_many(mine, cfg) if offset % 2 else [featurize(text, cfg) for text in mine]
            errors.extend(text for text, ids in zip(mine, got, strict=True) if ids.tolist() != expected[text])
        except Exception as e:  # reported through `errors`
            errors.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # Each of the 18 full chunks brings 96 new tokens, so each empties it.
    assert cache.clears >= 18 and len(cache) <= 64
    assert all(ids == np.array(oracle_ids(token, cfg), np.int32).tobytes() for token, ids in cache.items())
