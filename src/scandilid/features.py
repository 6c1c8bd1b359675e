"""Hashed character-n-gram sentence features.

Tokens are wrapped in boundary sentinels (``natt`` becomes ``<natt>``)
so n-grams at word edges differ from word-internal ones, then every
character n-gram with length in [min_n, max_n] — plus, optionally, the
whole wrapped token — is hashed into a fixed number of embedding
buckets with 64-bit FNV-1a over the gram's UTF-8 bytes.

The featurizer is definitionally a multiset: repeated grams repeat in
the output, and downstream mean-pooling makes the representation
independent of gram order. The order is nevertheless fixed: token by
token, then n ascending, then start ascending, with the whole token
last.

Natural text repeats tokens heavily, so ``featurize`` keeps, for each
(min_n, max_n, bucket_count, include_word_unigrams), a cache of up to
``_CACHE_TOKENS`` (2^18) tokens, each mapped to its bucket ids as int32
bytes: ``bucket_count`` is at most 2^31, so every id fits. A cache is a
plain dict beside a deque of its tokens in insertion order; when it is
full, its oldest token is evicted. Lookups take no lock. Inserting and
evicting, the only writes, happen under one module lock, so the dict
and the deque always hold the same tokens. The tokens of one call that
miss the cache are hashed together in one numpy pass: an FNV-1a chain
starts at every byte of the joined wrapped tokens, and all chains
advance one byte per step, for as many steps as the longest n-gram has
bytes (uint64 arithmetic wraps mod 2^64, as FNV-1a does). A gram's
hash is then the state of the chain at its first byte after its last
byte. A whole token's chain is finished from there byte by byte.

Gram positions come from templates: for a wrapped token of a given
length, the (first character, n) of each of its grams in featurize
order. A pass joins its tokens' templates and shifts each to where its
token starts, so the grams are in order as built and nothing is sorted;
characters are then mapped to byte offsets. Kept templates cost a pass
less than building every gram's position afresh: tag-longtail read
7,300 against 6,485 sentences/s (``BENCH_29.json``). Token lengths are
the input's to choose, so templates are kept only for wrapped lengths up
to ``_TEMPLATE_CHARS`` (64), at most ``_TEMPLATES`` (256) of them;
longer tokens build theirs afresh.

A pass makes the same few numpy calls however few tokens it hashes:
it takes about 25 µs for one token and 48 µs for a sentence of eight
new words (2-CPU VM, numpy 2.4). So ``featurize_many`` takes its texts
``_CHUNK_TEXTS`` (256) at a time and sends every uncached token of a
chunk through one pass; training featurizes its corpus this way. Chunks
bound the split tokens held at once.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .core import _check_int

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_PRIME = np.uint64(FNV_PRIME)

# Embedding width that puts the classifier head (two dense layers over
# `model.HIDDEN_SIZE`'s 64-unit bottleneck) at exactly 20,932 parameters,
# the published head size: 64*322 + 64 + 4*64 + 4.
REFERENCE_HEAD_EMBED_DIM = 322


@dataclass(frozen=True)
class FeaturizerConfig:
    min_n: int = 1
    max_n: int = 4
    bucket_count: int = 1 << 18
    include_word_unigrams: bool = True
    embed_dim: int = 32

    def __post_init__(self) -> None:
        for name in ("min_n", "max_n", "bucket_count", "embed_dim"):
            _check_int(name, getattr(self, name))
        if not isinstance(self.include_word_unigrams, bool):
            raise TypeError(f"include_word_unigrams must be bool, got {self.include_word_unigrams!r}")
        if not 1 <= self.min_n <= self.max_n <= 8:
            raise ValueError(f"need 1 <= min_n <= max_n <= 8, got [{self.min_n}, {self.max_n}]")
        # At most 2^31 buckets, so every masked id fits the cache's int32.
        if not 1 <= self.bucket_count <= 1 << 31 or self.bucket_count & (self.bucket_count - 1):
            raise ValueError(f"bucket_count must be a power of two <= 2**31, got {self.bucket_count}")
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")

    @classmethod
    def reference_head(cls, **overrides) -> "FeaturizerConfig":
        """Preset reproducing the published classifier-head dimensionality."""
        overrides.setdefault("embed_dim", REFERENCE_HEAD_EMBED_DIM)
        return cls(**overrides)


# Tokens kept per featurizer configuration.
_CACHE_TOKENS = 1 << 18
# Per configuration: each cached token's ids, and the cached tokens
# oldest first.
_caches: dict[tuple[int, int, int, bool], tuple[dict[str, bytes], deque[str]]] = {}
_cache_lock = threading.Lock()


# Wrapped token lengths (in characters) whose gram templates are kept,
# and how many templates are kept (see the module docstring).
_TEMPLATE_CHARS = 64
_TEMPLATES = 256


def _grams(length: int, min_n: int, max_n: int) -> np.ndarray:
    """(first character, n) of every gram of a wrapped token of `length`
    characters, as the two rows of an int64 array, in featurize order:
    n ascending, then start ascending."""
    ns = np.arange(min_n, min(max_n, length) + 1)
    counts = length + 1 - ns
    n = ns.repeat(counts)
    start = np.arange(n.size) - (counts.cumsum() - counts).repeat(counts)
    grams = np.stack([start, n])
    grams.flags.writeable = False  # kept and shared by every later pass
    return grams


_template = lru_cache(maxsize=_TEMPLATES)(_grams)


def _hash_tokens(tokens: list[str], cfg: FeaturizerConfig) -> list[bytes]:
    """Masked bucket ids of every token, each as int32 bytes in featurize order."""
    lens = [len(t) + 2 for t in tokens]  # characters, wrapped
    joined = ("<" + "><".join(tokens) + ">").encode("utf-8")
    size = len(joined)
    # Zero padding lets every chain take 4 * max_n steps, the most bytes an
    # n-gram can have; the first pad byte also marks where the last
    # character ends.
    raw = np.frombuffer(joined + bytes(4 * cfg.max_n), np.uint8)

    # Every gram as (first character, n), in featurize order: each token's
    # template, shifted to where the token starts.
    templates = {
        length: (_template if length <= _TEMPLATE_CHARS else _grams)(length, cfg.min_n, cfg.max_n)
        for length in set(lens)
    }
    widths = {length: t.shape[1] for length, t in templates.items()}
    counts = list(map(widths.__getitem__, lens))  # grams per token
    grams = np.concatenate(list(map(templates.__getitem__, lens)), axis=1)
    offsets = list(accumulate(lens, initial=0))  # each token's first character
    grams[0] += np.repeat(np.array(offsets[:-1]), np.array(counts))
    grams[1] += grams[0]  # each gram's first character and the one after it
    edges = ((raw[: size + 1] & 0xC0) != 0x80).nonzero()[0]  # character -> byte offset
    grams = edges[grams]
    # index: each gram's state in `states` below, at row span (its bytes)
    # and column first (its first byte).
    first, index = grams
    index -= first
    steps = int(index.max()) if index.size else 0
    index *= size
    index += first

    # states[s, p]: the chain started at byte p after s bytes. Chains
    # start at every byte; those at continuation bytes are never read.
    data = raw.astype(np.uint64)
    states = np.empty((steps + 1, size), np.uint64)
    states[0] = FNV_OFFSET
    for s in range(steps):
        row = states[s + 1]
        # Positional `out`: a keyword costs more than the step's arithmetic.
        np.bitwise_xor(states[s], data[s : s + size], row)
        np.multiply(row, _PRIME, row)
    flat = states.ravel()
    mask = cfg.bucket_count - 1
    buf = (flat[index] & np.uint64(mask)).astype(np.int32).tobytes()
    bounds = list(accumulate(counts, initial=0))
    out = [buf[4 * lo : 4 * hi] for lo, hi in zip(bounds, bounds[1:])]
    if cfg.include_word_unigrams:
        # A whole token continues its first byte's chain past the longest
        # n-gram: a few bytes per word, cheaper one token at a time than as
        # more steps over every chain.
        offsets = edges[offsets].tolist()
        for k, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            reach = min(hi - lo, steps)
            h = flat.item(reach * size + lo)
            for byte in joined[lo + reach : hi]:
                h = ((h ^ byte) * FNV_PRIME) & _MASK64
            out[k] += (h & mask).to_bytes(4, sys.byteorder)
    return out


def _token_ids(tokens: list[str], cfg: FeaturizerConfig) -> list[bytes]:
    """Each token's bucket ids as int32 bytes. The tokens missing from the
    cache are hashed together in one pass and inserted into it."""
    key = (cfg.min_n, cfg.max_n, cfg.bucket_count, cfg.include_word_unigrams)
    entry = _caches.get(key)
    if entry is None:
        entry = _caches.setdefault(key, ({}, deque()))
    cache, order = entry
    # Each token's ids are read once, here, and fresh ids are used as
    # hashed: another thread, or this insertion, may evict them.
    parts = list(map(cache.get, tokens))
    if None in parts:
        missing = list(dict.fromkeys(t for t, p in zip(tokens, parts) if p is None))
        fresh = dict(zip(missing, _hash_tokens(missing, cfg)))
        parts = [fresh[t] if p is None else p for t, p in zip(tokens, parts)]
        with _cache_lock:
            # Another thread may have cached a token since the lookup; a
            # token enters the queue once, so the queue is the dict's keys.
            for token, ids in fresh.items():
                if token not in cache:
                    cache[token] = ids
                    order.append(token)
            while len(order) > _CACHE_TOKENS:
                del cache[order.popleft()]
    return parts


def _ids(text: str, cfg: FeaturizerConfig) -> np.ndarray:
    """`featurize`'s ids as they are cached: a read-only int32 view of the
    joined bytes, with no cast. `take` accepts int32 indices, so serving
    pools these directly."""
    return np.frombuffer(b"".join(_token_ids(text.split(), cfg)), np.int32)


def featurize(text: str, cfg: FeaturizerConfig) -> np.ndarray:
    """Bucket ids (with multiplicity) for all grams of `text`, as int64.

    The text is split on whitespace; it is expected to be already
    normalized/lowercased by the pipeline. Empty text gives an empty
    array. bucket = hash mod bucket_count; the mask is equivalent
    because bucket_count is a power of two. Safe to call from several
    threads.
    """
    return _ids(text, cfg).astype(np.int64)


# Texts whose uncached tokens `featurize_many` hashes in one pass.
_CHUNK_TEXTS = 256


def featurize_many(texts: Sequence[str], cfg: FeaturizerConfig) -> list[np.ndarray]:
    """``[featurize(text, cfg) for text in texts]``, with one hashing pass
    per ``_CHUNK_TEXTS`` texts instead of one per text."""
    out = []
    for lo in range(0, len(texts), _CHUNK_TEXTS):
        split = [text.split() for text in texts[lo : lo + _CHUNK_TEXTS]]
        parts = _token_ids([token for tokens in split for token in tokens], cfg)
        ends = list(accumulate(map(len, split)))
        for start, end in zip([0] + ends[:-1], ends):
            out.append(np.frombuffer(b"".join(parts[start:end]), np.int32).astype(np.int64))
    return out
