"""Arc-factored features, hashing, linear scoring, and model files.

Two template families over word forms and POS tags:

* directed: endpoint roles are head/modifier and every template also
  appears conjoined with the attachment direction and a binned distance;
* undirected: endpoint roles are left/right in surface order, no
  direction conjunction (distance conjunction stays).

Each feature is the CRC32 of its template string, masked to a fixed
2**hash_bits weight table, so extraction is deterministic across processes
and runs.  ``hash_arcs`` composes these CRCs from per-position pieces
without building the strings; the string templates themselves, the spec it
is tested against, live in the test suite (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .conll import Sentence
from .errors import DataError, InputError

ROOT_FORM = "*root*"
ROOT_POS = "*ROOT*"
NIL = "*nil*"

DEFAULT_HASH_BITS = 22
# slots come from 32-bit CRCs; the weight table has 2**hash_bits float64
# entries (8 GiB at the maximum)
MAX_HASH_BITS = 30

MODEL_MAGIC = "umstparse-model 1"

# how a directed-mode model merges a pair's two arc scores into one weight
COMBINERS = ("mean", "product")


def distance_bin(d: int) -> str:
    if d <= 5:
        return str(d)
    if d <= 10:
        return "6-10"
    return "11+"


def check_hash_bits(hash_bits) -> int:
    if isinstance(hash_bits, bool) or not isinstance(hash_bits, int) \
            or not 1 <= hash_bits <= MAX_HASH_BITS:
        raise InputError(f"hash_bits must be an integer in [1, {MAX_HASH_BITS}], "
                         f"got {hash_bits!r}")
    return hash_bits


def check_combiner(combiner) -> str:
    if combiner not in COMBINERS:
        raise InputError(f"unknown combiner {combiner!r}")
    return combiner


@dataclass
class Model:
    """Linear model over hashed features.

    mode selects the feature family ("directed" or "undirected");
    combiner is how two directed scores merge into an undirected edge
    weight (one of COMBINERS).  After training, weights holds the
    averaged weights.
    """
    weights: np.ndarray
    mode: str
    combiner: str
    hash_bits: int

    @classmethod
    def new(cls, mode: str, combiner: str = "mean",
            hash_bits: int = DEFAULT_HASH_BITS) -> "Model":
        if mode not in ("directed", "undirected"):
            raise InputError(f"unknown feature mode {mode!r}")
        check_combiner(combiner)
        size = 1 << check_hash_bits(hash_bits)
        return cls(weights=np.zeros(size), mode=mode, combiner=combiner,
                   hash_bits=hash_bits)

    def size(self) -> int:
        return 1 << self.hash_bits


def save_model(model: Model, path) -> None:
    """Line-based text format; floats as hex so the file round-trips exactly."""
    nz = np.nonzero(model.weights)[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(f"hash_bits {model.hash_bits}\n")
        fh.write(f"mode {model.mode}\n")
        fh.write(f"combiner {model.combiner}\n")
        fh.write(f"nnz {len(nz)}\n")
        for slot in nz:
            fh.write(f"{slot} {float(model.weights[slot]).hex()}\n")


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise DataError(f"{path}: not a model file")
    try:
        header = dict(line.split(" ", 1) for line in lines[1:4])
        hash_bits = int(header["hash_bits"])
        mode = header["mode"]
        combiner = header["combiner"]
        nnz = int(lines[4].split(" ", 1)[1])
    except (KeyError, ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed model header") from exc
    try:
        check_hash_bits(hash_bits)
    except InputError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if len(lines) - 5 != nnz:
        raise DataError(f"{path}: header says nnz {nnz} but {len(lines) - 5} "
                        "weight lines follow")
    model = Model.new(mode=mode, combiner=combiner, hash_bits=hash_bits)
    size = model.size()
    for line in lines[5:]:
        try:
            slot_s, value_s = line.split(" ")
            slot, value = int(slot_s), float.fromhex(value_s)
        except ValueError as exc:
            raise DataError(f"{path}: malformed weight line {line!r}") from exc
        if not 0 <= slot < size:
            raise DataError(f"{path}: slot {slot} outside the 2**{hash_bits} "
                            "weight table")
        if not math.isfinite(value):
            raise DataError(f"{path}: weight of slot {slot} is not finite")
        model.weights[slot] = value
    return model


def arc_matrix(n: int) -> np.ndarray:
    """(n+1)x(n+1) bool: [head, mod] is True for every candidate arc of an
    n-token sentence (any head, the root included, to any other token)."""
    arcs = ~np.eye(n + 1, dtype=bool)
    arcs[:, 0] = False
    return arcs


def pair_mask(arcs: np.ndarray) -> np.ndarray:
    """Upper-triangular bool: [a, b] with a < b is True when the pair
    survives the arc mask, that is when either of its directions does."""
    return np.triu(arcs | arcs.T, 1)


# CRC32 composition.  zlib's CRC32 is affine over GF(2):
# crc(A + B) = Z_|B|(crc(A)) ^ crc(B), where Z_k runs k zero bytes through
# the raw CRC register (the identity behind zlib's crc32_combine).  A linear
# map on 32 bits is four 256-entry lookups, one per byte of its input.
# _LOW holds the lookups of Z_k for k < 256 (flat, k-major), _POW those of
# Z_{256 * 2**i}; any length composes from one of each kind per set bit.

def _crc_byte_table() -> np.ndarray:
    c = np.arange(256, dtype=np.int64)
    for _ in range(8):
        c = (c >> 1) ^ np.where(c & 1, 0xEDB88320, 0)
    return c


_BYTE_TABLE = _crc_byte_table()


def _zero_byte(x: np.ndarray) -> np.ndarray:
    """Z_1 applied elementwise."""
    return (x >> 8) ^ _BYTE_TABLE[x & 0xFF]


def _apply(lanes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The linear map given by its (4, 256) lookups, applied elementwise."""
    return (lanes[0][x & 0xFF] ^ lanes[1][(x >> 8) & 0xFF]
            ^ lanes[2][(x >> 16) & 0xFF] ^ lanes[3][x >> 24])


def _zero_tables() -> tuple[np.ndarray, list[np.ndarray]]:
    identity = np.arange(256, dtype=np.int64) << (8 * np.arange(4)[:, None])
    low = [identity]
    for _ in range(255):
        low.append(_zero_byte(low[-1]))
    power = [_zero_byte(low[-1])]
    while len(power) < 55:           # lengths up to 2**63
        power.append(_apply(power[-1], power[-1]))
    return np.stack(low).ravel(), power


_LOW, _POW = _zero_tables()


def _combine(crc_a: np.ndarray, crc_b: np.ndarray, len_b: np.ndarray) -> np.ndarray:
    """crc(A + B) elementwise, from crc(A), crc(B) and |B| in bytes."""
    high = len_b >> 8
    if high.any():
        crc_a, high = np.broadcast_arrays(crc_a, high)
        crc_a = crc_a.copy()
        for bit in range(int(high.max()).bit_length()):
            sel = ((high >> bit) & 1) == 1
            crc_a[sel] = _apply(_POW[bit], crc_a[sel])
    lane = (len_b & 0xFF) << 10
    out = _LOW[lane | (crc_a & 0xFF)]
    for shift in (8, 16, 24):         # byte lane i sits at offset i << 8
        out ^= _LOW[lane | (shift << 5) | ((crc_a >> shift) & 0xFF)]
    out ^= crc_b
    return out


def _crcs(strings) -> tuple[int, ...]:
    """CRC32 of each string, then the UTF-8 byte length of each."""
    encoded = [s.encode("utf-8") for s in strings]
    return tuple(zlib.crc32(e) for e in encoded) + tuple(len(e) for e in encoded)


# Per-position pieces of the feature templates.  The a side contributes
# whole unigram features and the prefix of each two-sided template, the b
# side whole unigram features and the suffix (with its length) that
# completes it; btw joins an (a, mid) prefix with b's |{bp}.
# Memoized per word and per POS context, since text repeats; each memo
# holds at most 8192 entries (about 1 kB each).

@functools.lru_cache(maxsize=8192)
def _word_pieces(ra: str, rb: str, w: str, p: str) -> tuple[int, ...]:
    whole = (f"{ra}w:{w}", f"{ra}p:{p}", f"{ra}wp:{w}|{p}",
             f"{rb}w:{w}", f"{rb}p:{p}", f"{rb}wp:{w}|{p}",
             f"bg1:{w}|{p}", f"bg2:{p}", f"bg3:{w}", f"bg4:{w}|{p}",
             f"bg5:{w}|{p}", f"bg6:{w}", f"bg7:{p}", f"btw:{p}|")
    return tuple(zlib.crc32(s.encode("utf-8")) for s in whole) + \
        _crcs((f"|{w}|{p}", f"|{p}", f"|{w}", p))


@functools.lru_cache(maxsize=8192)
def _context_pieces(prev: str, p: str, nxt: str) -> tuple[int, ...]:
    prefixes = (f"sr1:{p}|{nxt}", f"sr2:{prev}|{p}",
                f"sr3:{p}|{nxt}", f"sr4:{prev}|{p}")
    return tuple(zlib.crc32(s.encode("utf-8")) for s in prefixes) + \
        _crcs((f"|{prev}|{p}", f"|{p}|{nxt}"))


# columns of the per-position table: _word_pieces, then _context_pieces
_A_UNIGRAMS, _B_UNIGRAMS = slice(0, 3), slice(3, 6)
_BTW, _S_WP, _S_P, _S_W, _MID = 13, 14, 15, 16, 17
_S_SR12, _S_SR34 = 26, 27
_LEN = 4                         # a suffix's length sits _LEN columns on
# bg1..bg7 and sr1..sr4: a-side prefix columns and their b-side suffixes
_PREFIXES = np.r_[6:13, 22:26]
_SUFFIXES = np.array([_S_WP, _S_WP, _S_WP, _S_P, _S_W, _S_W, _S_P,
                      _S_SR12, _S_SR12, _S_SR34, _S_SR34])
_SUFFIX_LENS = _SUFFIXES + np.where(_SUFFIXES < _S_SR12, _LEN, 2)

_ROLES = {"directed": ("h", "m"), "undirected": ("l", "r")}


def _conj_table(suffixes: list[str]) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(_crcs(suffixes), dtype=np.int64)
    return values[:len(suffixes)], values[len(suffixes):]


# the conjunction suffix "&..." of an arc, keyed by min(distance, 11), plus
# 12 for a rightward directed arc
_CONJ = {
    "directed": _conj_table([f"&{att}|{distance_bin(d)}"
                             for att in "LR" for d in range(12)]),
    "undirected": _conj_table([f"&{distance_bin(d)}" for d in range(12)]),
}


def position_table(sentence: Sentence, mode: str) -> np.ndarray:
    """Row i holds the pieces of position i (0 is the root); built once per
    sentence and passed to every ``hash_arcs`` call for it."""
    ra, rb = _ROLES[mode]
    forms = [ROOT_FORM] + [t.form for t in sentence.tokens]
    tags = [ROOT_POS] + [t.postag for t in sentence.tokens]
    around = [NIL] + tags + [NIL]
    return np.array([_word_pieces(ra, rb, w, p) + _context_pieces(*around[i:i + 3])
                     for i, (w, p) in enumerate(zip(forms, tags))], dtype=np.int64)


def _plain_crcs(table: np.ndarray, a: np.ndarray, b: np.ndarray,
                owner: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """CRCs of the arcs' features before conjunction: for each arc the 13
    base and 4 sr templates, then one btw per (owner arc, mid)."""
    count = len(a)
    btw_prefix = _combine(table[:, _BTW, None], table[None, :, _MID],
                          table[None, :, _MID + _LEN])
    ta, tb = table[a], table[b]
    two_sided = _combine(
        np.concatenate([ta[:, _PREFIXES].ravel(), btw_prefix[a[owner], mid]]),
        np.concatenate([tb[:, _SUFFIXES].ravel(), tb[owner, _S_P]]),
        np.concatenate([tb[:, _SUFFIX_LENS].ravel(), tb[owner, _S_P + _LEN]]))
    per_arc = np.hstack([ta[:, _A_UNIGRAMS], tb[:, _B_UNIGRAMS],
                         two_sided[:11 * count].reshape(count, 11)])
    return np.concatenate([per_arc.ravel(), two_sided[11 * count:]])


def hash_arcs(table: np.ndarray, mode: str, a: np.ndarray, b: np.ndarray,
              hash_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Slots of the arcs (a[k], b[k]), concatenated in the emission order of
    the string templates, and the start offset of each arc.  ``table`` is the
    sentence's ``position_table`` in the same mode.  An arc's slots do not
    depend on the other arcs of the call."""
    count = len(a)
    dist = np.abs(b - a)
    nb = dist - 1                     # btw features of each arc
    plain = 17 + nb                   # features of each arc before conjunction
    starts = np.zeros(count, dtype=np.int64)
    np.cumsum(2 * plain[:-1], out=starts[1:])
    # one btw feature per (arc, mid), mids ascending
    owner = np.repeat(np.arange(count), nb)
    within = np.arange(len(owner)) - np.repeat(np.cumsum(nb) - nb, nb)
    values = _plain_crcs(table, a, b, owner, np.minimum(a, b)[owner] + 1 + within)
    # per arc: 13 base templates, btw by mid, 4 sr templates, then the
    # same again conjoined
    column = np.arange(17)
    pos = np.concatenate([
        (starts[:, None] + column + (column >= 13) * nb[:, None]).ravel(),
        starts[owner] + 13 + within])
    arc_of = np.concatenate([np.repeat(np.arange(count), 17), owner])
    key = np.minimum(dist, 11)
    if mode == "directed":
        key += 12 * (b > a)
    key = key[arc_of]
    conj_crc, conj_len = _CONJ[mode]
    flat = np.empty(2 * int(plain.sum()), dtype=np.int64)
    flat[pos] = values
    pos += plain[arc_of]
    flat[pos] = _combine(values, conj_crc[key], conj_len[key])
    flat &= (1 << hash_bits) - 1
    return flat, starts


class SentenceFeatures:
    """Hashed feature indices for every candidate arc of one sentence.

    Built once per sentence and reused across epochs; scoring all arcs is
    then a single gather + segmented sum over the weight vector.  Arcs that
    ``allowed`` (a pruner's arc mask, ``Pruner.mask``; None keeps every
    candidate arc) drops are simply absent.  Pairs are (head, mod) in
    directed mode and (left, right) in undirected mode, row-major; each
    pair's slots follow the emission order of the string templates.
    """

    def __init__(self, sentence: Sentence, mode: str,
                 hash_bits: int = DEFAULT_HASH_BITS,
                 allowed: np.ndarray | None = None):
        if mode not in _ROLES:
            raise InputError(f"unknown feature mode {mode!r}")
        check_hash_bits(hash_bits)
        self.mode = mode
        n = len(sentence)
        arcs = arc_matrix(n) if allowed is None else allowed
        if mode == "undirected":
            arcs = pair_mask(arcs)
        a, b = np.nonzero(arcs)
        self.pair_a, self.pair_b = a, b
        self._flat, self._starts = hash_arcs(position_table(sentence, mode),
                                             mode, a, b, hash_bits)
        self._ends = np.append(self._starts[1:], len(self._flat))
        self._pair_id = np.full((n + 1, n + 1), -1, dtype=np.int64)
        self._pair_id[a, b] = np.arange(len(a))
        for array in (a, b, self._flat, self._starts, self._ends):
            array.setflags(write=False)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """The stored pairs as (a, b) tuples, in storage order."""
        return list(zip(self.pair_a.tolist(), self.pair_b.tolist()))

    def _ids(self, a, b) -> np.ndarray:
        ids = self._pair_id[a, b]
        if np.any(ids < 0):
            raise KeyError("pair not in the feature cache")
        return ids

    def indices(self, a: int, b: int) -> np.ndarray:
        k = self._ids(a, b)
        return self._flat[self._starts[k]:self._ends[k]]

    def score_all(self, weights: np.ndarray) -> np.ndarray:
        """Score of every stored pair, aligned with self.pairs."""
        if not len(self.pair_a):
            return np.empty(0)
        return np.add.reduceat(weights[self._flat], self._starts)

    def sum_indices(self, arcs) -> np.ndarray:
        """Concatenated slot indices of several arcs (for gold/pred updates)."""
        if not len(arcs):
            return np.empty(0, dtype=np.int64)
        a, b = np.asarray(arcs, dtype=np.int64).T
        ids = self._ids(a, b)
        starts = self._starts[ids]
        lens = self._ends[ids] - starts
        first = np.repeat(starts - (np.cumsum(lens) - lens), lens)
        return self._flat[first + np.arange(len(first))]
