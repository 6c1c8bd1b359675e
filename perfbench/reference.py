"""Computations the benchmark checks the program against.

Nothing here calls into ``scandilid``; only a model's arrays and
featurizer settings are read. FNV-1a 64 is written from its published
specification and checked against the published test vectors. Grams
follow the rules stated in the ``scandilid.features`` docstring: every
character n-gram of ``<token>`` for n in [min_n, max_n], plus the whole
wrapped token when word unigrams are on, each hashed over its UTF-8
bytes and masked to a bucket. The forward pass is a float64 mean-pool,
a ReLU hidden layer and a sigmoid. All of it is vectorised over a batch
of texts, so checking every output costs a fraction of producing it.
"""

from __future__ import annotations

import numpy as np

# FNV-1a, 64-bit (Fowler, Noll, Vo; IETF draft-eastlake-fnv): start from
# the offset basis; for each octet, XOR it into the hash, then multiply
# by the FNV prime modulo 2**64.
FNV64_OFFSET_BASIS = 14695981039346656037
FNV64_PRIME = 1099511628211
FNV64_VECTORS = {b"": 0xCBF29CE484222325, b"a": 0xAF63DC4C8601EC8C, b"foobar": 0x85944171F73967E8}

THRESHOLD_TOLERANCE = 1e-6  # outputs this close to the threshold may round either way
FORWARD_TOLERANCE = 1e-6


def fnv1a64_spans(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """FNV-1a 64 of the byte spans data[start : start + length], one octet
    position at a time across all spans. uint64 multiplication wraps
    modulo 2**64, which is the specification's arithmetic."""
    h = np.full(len(starts), FNV64_OFFSET_BASIS, dtype=np.uint64)
    prime = np.uint64(FNV64_PRIME)
    for j in range(int(lengths.max(initial=0))):
        live = np.nonzero(lengths > j)[0]
        h[live] = (h[live] ^ data[starts[live] + j]) * prime
    return h


def check_fnv_vectors() -> None:
    """Raise unless fnv1a64_spans gives the published test vectors."""
    blob = b"".join(FNV64_VECTORS)
    lengths = np.array([len(k) for k in FNV64_VECTORS])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    got = fnv1a64_spans(np.frombuffer(blob, dtype=np.uint8), starts, lengths)
    for (data, want), h in zip(FNV64_VECTORS.items(), got):
        if int(h) != want:
            raise AssertionError(f"FNV-1a 64 of {data!r} gave {int(h):#x}, want {want:#x}")


def gram_ids(texts: list[str], cfg) -> tuple[np.ndarray, np.ndarray]:
    """Bucket id of every gram of every text, and the index of its text."""
    pieces: list[str] = []
    owner_of_piece: list[int] = []
    for s, text in enumerate(texts):
        for token in text.split():
            pieces.append(f"<{token}>")
            owner_of_piece.append(s)
    if not pieces:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    joined = "".join(pieces)
    codepoints = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    nbytes = 1 + (codepoints >= 0x80) + (codepoints >= 0x800) + (codepoints >= 0x10000)
    byte_at = np.concatenate(([0], np.cumsum(nbytes)))  # byte offset of each character
    utf8 = np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)
    piece_len = np.array([len(p) for p in pieces])
    piece_start = np.concatenate(([0], np.cumsum(piece_len)[:-1]))
    piece_owner = np.array(owner_of_piece)
    end_of_piece = np.repeat(piece_start + piece_len, piece_len)  # per character
    owner_of_char = np.repeat(piece_owner, piece_len)
    chars = np.arange(len(codepoints))
    starts, lengths, owners = [], [], []
    for n in range(cfg.min_n, cfg.max_n + 1):
        first = np.nonzero(chars + n <= end_of_piece)[0]
        starts.append(byte_at[first])
        lengths.append(byte_at[first + n] - byte_at[first])
        owners.append(owner_of_char[first])
    if cfg.include_word_unigrams:
        starts.append(byte_at[piece_start])
        lengths.append(byte_at[piece_start + piece_len] - byte_at[piece_start])
        owners.append(piece_owner)
    hashes = fnv1a64_spans(utf8, np.concatenate(starts), np.concatenate(lengths))
    ids = (hashes & np.uint64(cfg.bucket_count - 1)).astype(np.int64)
    return ids, np.concatenate(owners)


def probabilities(model, texts: list[str]) -> np.ndarray:
    """(len(texts), 4) outputs: float64 mean of the embedding rows of a
    text's grams (zeros for a text without grams), ReLU hidden layer, sigmoid."""
    ids, owners = gram_ids(texts, model.featurizer)
    dim = model.embeddings.shape[1]
    sums = np.zeros((len(texts), dim))
    counts = np.bincount(owners, minlength=len(texts))
    if ids.size:
        order = np.argsort(owners, kind="stable")
        rows = model.embeddings[ids[order]].astype(np.float64)
        present = np.nonzero(counts)[0]
        bounds = np.concatenate(([0], np.cumsum(counts[present])[:-1]))
        sums[present] = np.add.reduceat(rows, bounds, axis=0)
    pooled = sums / np.maximum(counts, 1)[:, None]
    w1, b1 = model.w1.astype(np.float64), model.b1.astype(np.float64)
    w2, b2 = model.w2.astype(np.float64), model.b2.astype(np.float64)
    hidden = np.maximum(pooled @ w1.T + b1, 0.0)
    return 1.0 / (1.0 + np.exp(-(hidden @ w2.T + b2)))


def label_set_ok(tags: tuple[str, ...]) -> bool:
    """Non-empty, and `other` only alone."""
    return bool(tags) and ("other" not in tags or len(tags) == 1)


def decoded_matches(tags: tuple[str, ...], probs: np.ndarray, threshold: float, order: tuple[str, ...]) -> bool:
    """Whether a predicted label set is the thresholded reference; an
    output within THRESHOLD_TOLERANCE of the threshold may go either way."""
    if np.any(np.abs(probs - threshold) < THRESHOLD_TOLERANCE):
        return True
    want = tuple(lang for lang, p in zip(order, probs) if p >= threshold) or ("other",)
    return tags == want


def model_file_bytes(cfg, header_len: int, hidden: int = 64, outputs: int = 4) -> int:
    """Size of a model file: magic (4) + version (2) + header length (4) +
    header + float32 parameters + CRC32 (4)."""
    dim = cfg.embed_dim
    params = cfg.bucket_count * dim + hidden * dim + hidden + outputs * hidden + outputs
    return 14 + header_len + 4 * params
