"""Arc-factored features, hashing, linear scoring, and model files.

Two template families over word forms and POS tags:

* directed: endpoint roles are head/modifier and every template also
  appears conjoined with the attachment direction and a binned distance;
* undirected: endpoint roles are left/right in surface order, no
  direction conjunction (distance conjunction stays).

Each feature is the CRC32 of its template string, masked to a fixed
2**hash_bits weight table, so extraction is deterministic across processes
and runs.  ``hash_arcs`` composes these CRCs, without building the
strings, by gathers from per-sentence tables of shifted per-position
pieces; the string templates themselves, the spec it is tested against,
live in the test suite (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .conll import Sentence
from .errors import DataError, InputError, StructureError

ROOT_FORM = "*root*"
ROOT_POS = "*ROOT*"
NIL = "*nil*"

DEFAULT_HASH_BITS = 22
# slots come from 32-bit CRCs; the weight table has 2**hash_bits float64
# entries (8 GiB at the maximum)
MAX_HASH_BITS = 30

# Slots per block of hash_blocks, bounding hash_arcs' temporaries: 2**16 timed
# faster than 2**13, 2**15, 2**18 and unblocked on d-mst parses of 30-70 tokens.
_BLOCK_SLOTS = 1 << 16

# Positions per stacked table of featurize_corpus.  A chunk holds its memo
# rows' copies and planes, about 15 kB a position, while it hashes, so
# 2**9 positions stay under 8 MB; a longer sentence is a chunk of its own.
_CHUNK_POSITIONS = 1 << 9

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
    """Line-based text format; floats as hex so the file round-trips exactly.

    Only the nonzero slots are written: NaN is, -0.0 is not.  They are
    found by comparing with 0.0 and then scanning the bool result, which
    reads the 2**hash_bits-entry table about three times faster than
    ``np.nonzero`` on the floats themselves."""
    nz = np.flatnonzero(model.weights != 0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(f"hash_bits {model.hash_bits}\n")
        fh.write(f"mode {model.mode}\n")
        fh.write(f"combiner {model.combiner}\n")
        fh.write(f"nnz {len(nz)}\n")
        fh.write("".join(f"{slot} {value.hex()}\n" for slot, value in
                         zip(nz.tolist(), model.weights[nz].tolist())))


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise DataError(f"{path}: not a model file")
    try:
        header = dict(line.split(" ", 1) for line in lines[1:5])
        hash_bits = int(header["hash_bits"])
        mode = header["mode"]
        combiner = header["combiner"]
        nnz = int(header["nnz"])
    except (KeyError, ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed model header") from exc
    if len(lines) - 5 != nnz:
        raise DataError(f"{path}: header says nnz {nnz} but {len(lines) - 5} "
                        "weight lines follow")
    try:
        model = Model.new(mode=mode, combiner=combiner, hash_bits=hash_bits)
    except InputError as exc:
        raise DataError(f"{path}: {exc}") from exc
    size, seen = model.size(), set()
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
        if slot in seen:
            raise DataError(f"{path}: slot {slot} has two weight lines")
        seen.add(slot)
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
# the raw CRC register (the identity behind zlib's crc32_combine).  Z_k is
# linear and Z_j(Z_k(x)) = Z_{j+k}(x), so three pieces compose as
#     crc(A + B + C) = Z_{|B|+|C|}(crc A) ^ Z_{|C|}(crc B) ^ crc C,
# and a slot is the XOR of shifted pieces read from tables (see
# position_table); _combine computes Z_k only to fill those tables, or the
# shifts past them that a call reads.  A linear map on 32 bits is four
# 256-entry lookups, one per byte of its input.  _LOW holds the lookups of
# Z_k for k < 256 (flat, k-major), _POW those of Z_{256 * 2**i}; any length
# composes from one of each kind per set bit.

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


def _crcs(strings) -> np.ndarray:
    return np.array([zlib.crc32(s.encode("utf-8")) for s in strings], dtype=np.int64)


def _utf8_len(s: str) -> int:
    return len(s.encode("utf-8"))


_ROLES = {"directed": ("h", "m"), "undirected": ("l", "r")}


def _conj_table(suffixes: list[str]) -> tuple[np.ndarray, ...]:
    lengths, variant = np.unique([_utf8_len(s) for s in suffixes], return_inverse=True)
    return _crcs(suffixes), variant + 1, np.r_[0, lengths]


# The conjunction suffix "&..." of an arc, keyed by min(distance, 11), plus
# 12 for a rightward directed arc: its CRC and its variant.  A feature
# comes in variants: v = 0 is the feature itself, v > 0 it conjoined with
# a suffix of the v-th conjunction length (lengths[v]).
_CONJ = {
    "directed": _conj_table([f"&{att}|{distance_bin(d)}"
                             for att in "LR" for d in range(12)]),
    "undirected": _conj_table([f"&{distance_bin(d)}" for d in range(12)]),
}

# Per-position pieces of the feature templates.  The a side contributes
# whole unigram features and the prefix of each two-sided template, the b
# side whole unigram features and the suffix that completes it; btw is a's
# "btw:{ap}|", then the mid's POS, then b's |{bp}.  A position's memo row
# holds Z_L of each of its prefixes for L < 64 (shift-major), then its
# unigrams and suffixes (its ends) shifted by each variant's conjunction
# length, then the suffixes' lengths.  Rows of about 4 kB are memoized per
# word and per POS context, since text repeats, 4096 at most.  64 shifts
# hold a suffix and conjunction of a form up to about 40 bytes, and btw's
# shift (the mid POS, |{bp}| and a conjunction) of 15-byte positional tags.
_SHIFTS = 64


def _pieces(mode: str, prefixes: tuple[str, ...], ends: tuple[str, ...],
            lengths: tuple[int, ...]) -> np.ndarray:
    variants = _CONJ[mode][2]
    crc = _crcs(prefixes + ends)
    k = len(prefixes)
    row = np.r_[_combine(np.r_[np.tile(crc[:k], _SHIFTS), np.tile(crc[k:], len(variants))], 0,
                         np.r_[np.repeat(np.arange(_SHIFTS), k),
                               np.repeat(variants, len(ends))]),
                lengths]
    row.setflags(write=False)
    return row


@functools.lru_cache(maxsize=4096)
def _word_pieces(mode: str, w: str, p: str) -> np.ndarray:
    """bg1..bg7's prefixes; a's and b's unigrams, then bg1..bg7's suffixes."""
    ra, rb = _ROLES[mode]
    bar, wp, sw = f"|{p}", f"|{w}|{p}", f"|{w}"
    suffixes = (wp, wp, wp, bar, sw, sw, bar)
    return _pieces(mode, (f"bg1:{w}|{p}", f"bg2:{p}", f"bg3:{w}", f"bg4:{w}|{p}",
                          f"bg5:{w}|{p}", f"bg6:{w}", f"bg7:{p}"),
                   (f"{ra}w:{w}", f"{ra}p:{p}", f"{ra}wp:{w}|{p}",
                    f"{rb}w:{w}", f"{rb}p:{p}", f"{rb}wp:{w}|{p}") + suffixes,
                   tuple(map(_utf8_len, suffixes)))


@functools.lru_cache(maxsize=4096)
def _context_pieces(mode: str, prev: str, p: str, nxt: str) -> np.ndarray:
    """sr1..sr4's prefixes, btw's a| and mid POS; sr1..sr4's suffixes;
    then |p| after the suffixes' lengths."""
    before, after = f"|{prev}|{p}", f"|{p}|{nxt}"
    suffixes = (before, before, after, after)
    return _pieces(mode, (f"sr1:{p}|{nxt}", f"sr2:{prev}|{p}", f"sr3:{p}|{nxt}",
                          f"sr4:{prev}|{p}", f"btw:{p}|", p), suffixes,
                   tuple(map(_utf8_len, suffixes + (p,))))


_BAR = 3                         # b's |{bp}: the suffix of bg4, and of btw


def _mult_dtype(tokens: int) -> type:
    """The dtype of the multiplicities of a sentence of ``tokens`` tokens,
    which count fewer mids than it has tokens: 1 byte below 256 tokens.
    A multiplicity is stored beside every 8-byte slot; at 2 bytes, one
    pruned d-mst epoch on the bundled training set 12 times over peaked
    at 449 MB RSS against 416 MB, and 395 MB with no multiplicities."""
    return np.uint8 if tokens < 1 << 8 else np.uint16 if tokens < 1 << 16 else np.int32


@dataclass(frozen=True)
class PositionTable:
    """What ``hash_arcs`` gathers from, for the positions of one or more
    sentences (``position_table``) in feature family ``mode``.

    Variant v of a feature is the feature itself (v = 0) or it conjoined
    with a suffix of the v-th conjunction length; V variants in all.

    ``planes`` holds Z_L of each position's 13 shifted pieces (the
    prefixes of bg1..bg7 and sr1..sr4, btw's a|, and its POS as a mid),
    shift-major: piece k of position pos at L * stride + 13 * pos + k,
    with stride = 13 N for N positions (n + 1 for one sentence), so an
    index names its shift even past the planes held.  ``width`` is the
    longest shift of any sentence plus one; the table holds the shifts
    below min(width, 64), and ``read`` composes the others.

    Row V * pos + v of the others describes pos as b in variant v: ``ends``
    holds its 17 ends (its unigrams in both roles, then the suffix of each
    two-sided template) shifted by the conjunction; ``trail`` the index of
    each two-sided prefix of position 0 shifted past pos's suffix and the
    conjunction; ``bar_len`` the shift of btw's mid POS, |{bp}| plus the
    conjunction.  btw's a| takes the mid's |p| (``pos_len``) on top.  These
    three hold stride times each shift.

    The T POS tags of the table are numbered (``tag``, one number a
    position).  ``counts`` holds (N + 1) x T, row-major: row pos the
    number of positions before pos holding each tag.  ``first`` holds
    N x T, row-major: row pos the positions where each tag first comes
    at or after pos (N where it never does), ascending, as the keys
    (N + 1) pos + position, so that the whole array ascends; int32 while
    the keys fit.  An arc's mids lo+1..hi-1 then hold
    ``np.searchsorted(first, (N + 1) (lo + 1) + hi) - T (lo + 1)``
    distinct tags, the first mid of each is one of that many entries of
    row lo + 1, and a tag's mids number the difference of two rows of
    ``counts``.  Both take O(N min(N, T)) memory, since T <= N, on every
    route (a pruned parse builds them too): 4 bytes an entry while the
    keys fit in 32 bits, and N² entries when every position has its own
    tag.
    """
    mode: str
    planes: np.ndarray
    width: int
    ends: np.ndarray
    trail: np.ndarray
    bar_len: np.ndarray
    pos_len: np.ndarray
    tag: np.ndarray
    counts: np.ndarray
    first: np.ndarray
    longest: int

    @property
    def ntags(self) -> int:
        """T, the number of POS tags of the table."""
        return len(self.first) // len(self.tag)

    def mult_dtype(self) -> type:
        """The dtype of multiplicities hashed from this table: those of
        its longest sentence (``longest`` tokens), ``_mult_dtype``."""
        return _mult_dtype(self.longest)

    def read(self, at: np.ndarray) -> np.ndarray:
        """The planes at flat indices ``at``: a gather when the table holds
        every shift below the width, else ``_combine`` of each plane read
        from its unshifted one.  The table never changes."""
        stride = 13 * len(self.pos_len)
        if len(self.planes) < self.width * stride:
            return _combine(self.planes[at % stride], 0, at // stride)
        return self.planes[at]


def position_table(sentences: list[Sentence], mode: str) -> PositionTable:
    """The tables of ``sentences``, stacked: each sentence's positions
    (its root first) follow those of the sentence before it, and each
    keeps its own root and ``*nil*`` borders, so an arc of a sentence
    whose ends are offset by its first position reads what it reads in
    the sentence's own table.  Built once and passed to every
    ``hash_arcs`` call for those arcs; a table of one sentence is
    ``position_table([sentence], mode)``.

    The planes copy the shifts below min(width, 64) from the positions'
    memo rows, where the width is the longest shift any sentence reads (a
    suffix, or btw's mid POS and |{bp}, plus a conjunction) plus one: for
    N positions, a fixed cost of N * 13 * min(width, 64) planes and
    N * V * 17 ends copied.  No plane of a longer shift is built: such
    planes could outnumber the slots that read them (a pruned 10-token
    sentence with 40-byte tags has about 1,000 slots and would need 3,700
    more, and planes up to the shift of a 100 kB form would take 10 MB a
    token), so every read of a wider table composes (``read``)."""
    words, contexts, names = [], [], []
    for sentence in sentences:
        forms = [ROOT_FORM] + [t.form for t in sentence.tokens]
        tags = [ROOT_POS] + [t.postag for t in sentence.tokens]
        around = [NIL] + tags + [NIL]
        words += [_word_pieces(mode, w, p) for w, p in zip(forms, tags)]
        contexts += [_context_pieces(mode, *around[i:i + 3]) for i in range(len(tags))]
        names += tags
    words, contexts = np.array(words), np.array(contexts)
    number = {}
    tag = np.array([number.setdefault(name, len(number)) for name in names])
    n1, at = len(tag), np.arange(len(tag))
    counts = np.zeros((n1 + 1, len(number)), dtype=np.int32)
    counts[at + 1, tag] = 1
    counts.cumsum(0, out=counts)
    # row pos: where each tag first comes at or after pos, ascending, keyed
    key = np.int32 if (n1 + 1) ** 2 < 1 << 31 else np.int64
    first = np.full((n1, len(number)), n1, dtype=key)
    first[at, tag] = at
    np.minimum.accumulate(first[::-1], out=first[::-1])
    first.sort()
    first += np.arange(0, (n1 + 1) * n1, n1 + 1, dtype=key)[:, None]
    variants = _CONJ[mode][2]
    nv = len(variants)
    ends = np.concatenate([words[:, 7 * _SHIFTS:-7].reshape(-1, nv, 13),
                           contexts[:, 6 * _SHIFTS:-5].reshape(-1, nv, 4)], axis=2)
    suffix_len = np.concatenate([words[:, -7:], contexts[:, -5:-1]], axis=1)
    pos_len = contexts[:, -1]
    width = int(max(suffix_len.max(), pos_len.max() + suffix_len[:, _BAR].max())
                + variants[-1]) + 1
    held, n1 = min(width, _SHIFTS), len(words)
    planes = np.empty((held, n1, 13), dtype=np.int64)
    planes[:, :, :7] = words[:, :7 * held].reshape(n1, held, 7).transpose(1, 0, 2)
    planes[:, :, 7:] = contexts[:, :6 * held].reshape(n1, held, 6).transpose(1, 0, 2)
    stride = 13 * n1
    trail = stride * (suffix_len[:, None] + variants[:, None])
    return PositionTable(mode=mode, planes=planes.ravel(), width=width,
                         ends=ends.reshape(-1, 17), trail=(trail + np.arange(11)).reshape(-1, 11),
                         bar_len=trail[:, :, _BAR].ravel(), pos_len=stride * pos_len,
                         tag=tag, counts=counts.ravel(), first=first.ravel(),
                         longest=max(map(len, sentences)))


def arc_slots(table: PositionTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Slots of each arc (a[k], b[k]) of ``table``: 17 templates and a btw
    per distinct POS tag among its mids, twice.  The tags are counted by
    one binary search of ``table.first``, O(log(N T)) an arc."""
    row = np.minimum(a, b) + 1
    keys = (len(table.tag) + 1) * row + np.maximum(a, b)
    slots = np.searchsorted(table.first, keys.astype(table.first.dtype))
    slots -= table.ntags * row
    slots += 17
    slots *= 2
    return slots


def _offsets(table: PositionTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each arc's start offset in the slots of its list, then the list's
    slot count: the layout ``hash_arcs`` writes and ``hash_blocks`` cuts."""
    offsets = np.zeros(len(a) + 1, dtype=np.int64)
    np.cumsum(arc_slots(table, a, b), out=offsets[1:])
    return offsets


def hash_arcs(table: PositionTable, a: np.ndarray, b: np.ndarray, hash_bits: int,
              flat: np.ndarray, mult: np.ndarray, offsets: np.ndarray) -> None:
    """Write the slots of the arcs (a[k], b[k]) of ``table.mode``'s
    templates into ``flat``, arc k's run of ``arc_slots`` at
    ``offsets[k]``, and each slot's multiplicity into ``mult``.  A run is
    two halves, the arc's features and then its conjoined ones; a half
    holds the 17 templates other than btw, in the order the string
    templates emit them, each of multiplicity 1, then one btw slot per
    distinct POS tag among the mids, in the order the tags first come
    there, whose multiplicity is the number of mids holding the tag.  An
    arc's score is the sum of weights[flat] * mult over its run, and an
    arc of distance d costs O(min(d, T)) slots for T tags.  The caller
    owns the arrays: ``flat`` is an int64 array of exactly
    ``arc_slots(table, a, b).sum()`` entries (a slice of a list's slots,
    or a scorer's buffer), ``mult`` an array as long of
    ``table.mult_dtype()``, and ``offsets`` each arc's start offset in
    them and then their length (``_offsets``), which the caller computed
    to size them and which give each arc's count of btw slots; the call
    allocates no slot array.  ``table`` is the ``position_table`` of the
    arcs' sentence, or of a stack of sentences with each arc's ends at
    its sentence's positions there; the call reads it and never changes
    it.  An arc's slots do not depend on the other arcs of the call
    (``hash_blocks`` cuts lists).

    Every slot XORs gathers from ``table``, by
    crc(A + B + C) = Z_{|B|+|C|}(crc A) ^ Z_{|C|}(crc B) ^ crc C:
    a unigram is an end; a two-sided template a plane and an end; btw two
    planes (a|, shifted past the mid POS and |{bp}; the mid POS, past
    |{bp}), read at the first mid holding the tag, and an end.  A
    conjoined slot shifts each of them further by the conjunction's
    length and XORs the conjunction's CRC."""
    count, mode = len(a), table.mode
    dist = np.abs(b - a)
    key = np.minimum(dist, 11)
    if mode == "directed":
        key += 12 * (b > a)
    conj_crc, conj_variant, variants = _CONJ[mode]
    starts = offsets[:-1]
    nb = ((offsets[1:] - starts) >> 1) - 17          # btw slots of each arc
    # halves: each arc's features, then each arc's conjoined ones; a half
    # holds the 17 templates in the strings' order, then btw by tag
    variant = np.concatenate([np.zeros(count, dtype=np.int64), conj_variant[key]])
    a2, b2, nb2 = (np.concatenate([x, x]) for x in (a, b, nb))
    rows_b = len(variants) * b2 + variant
    values = table.ends[rows_b]
    values[:, :3] = table.ends[len(variants) * a2 + variant, :3]
    values[count:] ^= conj_crc[key][:, None]
    tail = values[:, 6 + _BAR].copy()
    row_a = 13 * a2
    values[:, 6:] ^= table.read(table.trail[rows_b] + row_a[:, None])
    # an arc's conjoined half follows its 17 + nb plain features
    head = np.concatenate([starts, starts + nb + 17])
    flat[head[:, None] + np.arange(17)] = values
    mult[:] = 1
    if nb.any():
        # one btw per (arc, tag), read at the tag's first mid, in each half
        ntags = table.ntags
        first = np.cumsum(nb) - nb
        k = np.arange(first[-1] + nb[-1])
        mid = table.first[k - np.repeat(first - ntags * (np.minimum(a, b) + 1), nb)] \
            % np.int64(len(table.tag) + 1)
        # the tag's mids: those before hi less those before its first mid
        tag = table.tag[mid]
        times = table.counts[np.repeat(ntags * np.maximum(a, b), nb) + tag] \
            - table.counts[ntags * mid + tag]
        mid, first = np.concatenate([mid, mid]), np.concatenate([first, first])
        bar = table.bar_len[rows_b]
        btw = table.read(np.repeat(row_a + 11 + bar, nb2) + table.pos_len[mid])
        btw ^= table.read(np.repeat(12 + bar, nb2) + 13 * mid)
        btw ^= np.repeat(tail, nb2)
        slot = np.concatenate([k, k]) + np.repeat(head + 17 - first, nb2)
        flat[slot] = btw
        mult[slot] = np.concatenate([times, times])
    flat &= (1 << hash_bits) - 1


def hash_blocks(offsets: np.ndarray):
    """Yield (lo, hi) for consecutive blocks of an arc list, the arcs
    lo..hi-1 whose slots lie at offsets[lo]:offsets[hi] (``offsets`` is
    ``_offsets`` of the list), at most _BLOCK_SLOTS slots each (an arc
    longer than a block is its own).  The caller hashes each block
    (``hash_arcs``) into memory it owns; so a cache costs its stored slots
    plus one block's temporaries, and scoring O(n²) plus one block."""
    lo, count = 0, len(offsets) - 1
    while lo < count:
        hi = count
        if offsets[-1] - offsets[lo] > _BLOCK_SLOTS:
            hi = max(lo + 1, int(np.searchsorted(offsets, offsets[lo] + _BLOCK_SLOTS, "right")) - 1)
        yield lo, hi
        lo = hi


class LazyArcScores:
    """Directed arc scores without a cache, computed when first asked for.

    ``lazy[heads, mods]`` reads what ``table()[heads, mods]`` would, but
    scores only the arcs requested and not yet scored, once each and
    row-major; ``table()`` scores every allowed arc still pending.  One
    call hashes each ``hash_blocks`` block of its arcs into one slot
    buffer and one multiplicity buffer, sized to the call's largest
    block, and reduces them to scores (``_scores``): bit-identical to a
    cache's gather, in O(n²) memory plus one block.  An arc costs
    O(min(d, T)) slots for distance d and T tags in the sentence, so
    ``table()`` is O(n² T).
    Arcs the pruner drops (or that are no candidate arcs) read as -inf
    without being hashed.  ``allowed``
    is the pruner's arc mask (``Pruner.mask``), kept unchanged; None allows
    every candidate arc (``arc_matrix``).  The directed position table is
    built on the first hash, so a scorer asked only for arcs outside the
    mask, or for none, never featurizes.
    """

    def __init__(self, sentence: Sentence, model: Model,
                 allowed: np.ndarray | None = None):
        if model.mode != "directed":
            raise InputError("directed arc scores need a directed-mode model")
        self._sentence = sentence
        self._model = model
        self._table = None
        self.allowed = arc_matrix(len(sentence)) if allowed is None else allowed
        # NaN marks an allowed arc whose score is not computed yet
        self._matrix = np.where(self.allowed, np.nan, -np.inf)

    def __getitem__(self, arcs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        heads, mods = arcs
        scores = self._matrix[heads, mods]
        todo = np.isnan(scores)
        if not todo.any():
            return scores
        size = len(self._matrix)
        # the pending arcs asked for, once each; sorted keys are row-major
        self._score(*np.divmod(np.unique((heads * size + mods)[todo]), size))
        return self._matrix[heads, mods]

    def table(self) -> np.ndarray:
        """The (n+1)x(n+1) matrix, after scoring the allowed arcs still pending."""
        self._score(*np.nonzero(np.isnan(self._matrix)))
        return self._matrix

    def _score(self, a: np.ndarray, b: np.ndarray) -> None:
        if not len(a):
            return
        if self._table is None:
            self._table = position_table([self._sentence], "directed")
        offsets = _offsets(self._table, a, b)
        # a block holds at most _BLOCK_SLOTS slots, or one arc of at most T tags
        longest = 2 * (17 + self._table.ntags)
        size = min(int(offsets[-1]), max(_BLOCK_SLOTS, longest))
        buffer, times = np.empty(size, dtype=np.int64), np.empty(size, self._table.mult_dtype())
        for lo, hi in hash_blocks(offsets):
            at = offsets[lo:hi + 1] - offsets[lo]
            flat, mult = buffer[:at[-1]], times[:at[-1]]
            hash_arcs(self._table, a[lo:hi], b[lo:hi], self._model.hash_bits, flat, mult, at)
            self._matrix[a[lo:hi], b[lo:hi]] = _scores(self._model.weights, flat, mult, at[:-1])


def _scores(weights: np.ndarray, flat: np.ndarray, mult: np.ndarray,
            starts: np.ndarray) -> np.ndarray:
    """Each run's sum of weights[flat] * mult, the runs starting at ``starts``."""
    gathered = weights[flat]
    gathered *= mult
    return np.add.reduceat(gathered, starts)


class SentenceFeatures:
    """Hashed feature indices for every candidate arc of one sentence.

    Built once per sentence and reused across epochs; scoring all arcs is
    then a single gather + segmented sum over the weight vector.  A pair
    survives ``allowed`` (a pruner's arc mask, ``Pruner.mask``; None keeps
    every candidate arc) when either of its directions does.  An
    undirected cache holds the surviving pairs (left, right); a directed
    one holds both directions (head, mod) of each, but no arc into the
    root, so it holds every arc a parse with that mask can predict.
    ``dropped`` holds the held arcs the mask drops, as (heads, mods),
    which ``directed_score_table`` reads as -inf (none in undirected
    mode).  Pairs are row-major; each pair's run of slots (``_flat``,
    at ``_starts``, the ``_offsets`` but the last) and multiplicities
    (``_mult``) is what ``hash_arcs`` writes, 2 (17 + c) slots for c
    distinct mid tags, so a directed cache of an n-token sentence with T
    tags holds O(n² T) slots.  ``sum_indices`` gathers the slots of held
    arcs from these runs.  A cache is the one-sentence case of
    ``featurize_corpus``, which training builds its caches with, and
    keeps no position table (a training run keeps every cache).
    """

    def __init__(self, sentence: Sentence, mode: str,
                 hash_bits: int = DEFAULT_HASH_BITS,
                 allowed: np.ndarray | None = None):
        check_hash_bits(hash_bits)
        a, b, dropped = _held_arcs(sentence, mode, allowed)
        table = position_table([sentence], mode)
        offsets = _offsets(table, a, b)
        self._hold(sentence, mode, hash_bits, a, b, dropped,
                   *_hash_list(table, a, b, hash_bits, offsets), offsets)

    def _hold(self, sentence, mode, hash_bits, a, b, dropped, flat, mult, offsets) -> None:
        self.sentence = sentence
        self.mode = mode
        self.hash_bits = hash_bits
        self.pair_a, self.pair_b, self.dropped = a, b, dropped
        self._flat, self._mult, self._offsets = flat, mult, offsets
        for array in (a, b, *dropped, flat, mult, offsets):
            array.setflags(write=False)
        self._starts = offsets[:-1]

    def pair_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The undirected view of a directed cache, which u-mst-df reads:
        the pairs (u, v), u < v, that survive, row-major.  The cache holds
        both directions of each, or only (0, v) at the root, so these are
        its held arcs with u < v."""
        forward = self.pair_a < self.pair_b
        return self.pair_a[forward], self.pair_b[forward]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """The stored pairs as (a, b) tuples, in storage order."""
        return list(zip(self.pair_a.tolist(), self.pair_b.tolist()))

    def score_all(self, weights: np.ndarray) -> np.ndarray:
        """Score of every stored pair, aligned with self.pairs."""
        return _scores(weights, self._flat, self._mult, self._starts)

    def sum_indices(self, gained, lost=()) -> tuple[np.ndarray, np.ndarray]:
        """The slots of the arcs ``gained`` then ``lost``, in that order,
        each arc's run gathered from the stored slots; and the amount a
        perceptron update adds at each slot, its stored multiplicity times
        +1.0 for a gained arc and -1.0 for a lost one.  No arcs give two
        empty arrays.  Every arc must be held, as an update's are: the
        pruner keeps every gold arc of its own corpus, and a prediction
        makes only held arcs.  Any other arc is a StructureError."""
        arcs = np.asarray([*gained, *lost], dtype=np.int64).reshape(-1, 2)
        n1 = len(self.sentence) + 1
        # np.nonzero stores the pairs row-major, so their keys are sorted
        keys = self.pair_a * n1 + self.pair_b
        wanted = arcs[:, 0] * n1 + arcs[:, 1]
        at = np.searchsorted(keys, wanted)
        if not ((at < len(keys)).all() and (keys[at] == wanted).all()):
            raise StructureError(f"an update arc is not held by the {self.mode} cache")
        first = self._offsets[at]
        lengths = self._offsets[at + 1] - first
        ends = np.cumsum(lengths)
        run = np.arange(lengths.sum()) + np.repeat(first + lengths - ends, lengths)
        step = self._mult[run].astype(np.float64)
        step[lengths[:len(gained)].sum():] *= -1.0
        return self._flat[run], step


# an undirected cache's ``dropped``
_NO_ARCS = (np.empty(0, dtype=np.int64),) * 2


def _held_arcs(sentence: Sentence, mode: str, allowed: np.ndarray | None):
    """The arcs (or pairs) a cache holds, row-major, and the held arcs
    ``allowed`` drops (see ``SentenceFeatures``)."""
    if mode not in _ROLES:
        raise InputError(f"unknown feature mode {mode!r}")
    if mode == "undirected":
        kept = arc_matrix(len(sentence)) if allowed is None else allowed
        return (*np.nonzero(pair_mask(kept)), _NO_ARCS)
    arcs = arc_matrix(len(sentence))
    allowed = arcs if allowed is None else allowed
    held = allowed | (allowed.T & arcs)
    return (*np.nonzero(held), np.nonzero(held & ~allowed))


def _hash_list(table: PositionTable, a: np.ndarray, b: np.ndarray, hash_bits: int,
               offsets: np.ndarray):
    """The slots and multiplicities of a whole arc list whose ``_offsets``
    are ``offsets``: the list's arrays are views of one allocation, and
    ``hash_arcs`` writes each ``hash_blocks`` block into its slices of
    them.  As two allocations, the multiplicities of the chunks of short
    sentences stayed on the heap among freed temporaries: ``train
    --system all`` on the bundled training set 12 times over, pruned,
    peaked at 530 MB RSS against 476 MB as one (2-byte multiplicities
    both)."""
    size, dtype = int(offsets[-1]), np.dtype(table.mult_dtype())
    memory = np.empty((8 + dtype.itemsize) * size, dtype=np.uint8)
    flat, mult = memory[:8 * size].view(np.int64), memory[8 * size:].view(dtype)
    for lo, hi in hash_blocks(offsets):
        hash_arcs(table, a[lo:hi], b[lo:hi], hash_bits, flat[offsets[lo]:offsets[hi]],
                  mult[offsets[lo]:offsets[hi]], offsets[lo:hi + 1] - offsets[lo])
    return flat, mult


def featurize_corpus(sentences: list[Sentence], mode: str,
                     hash_bits: int = DEFAULT_HASH_BITS, mask=None) -> list[SentenceFeatures]:
    """``SentenceFeatures(s, mode, hash_bits, mask(s))`` of each sentence
    s, array for array (``mask`` is ``Pruner.mask``, or None to keep
    every candidate arc), built chunk by chunk: consecutive sentences of
    at most _CHUNK_POSITIONS positions in all, and of one multiplicity
    dtype, share one stacked position table and one ``hash_blocks``
    pass, and each cache's slots and multiplicities are slices of its
    chunk's."""
    check_hash_bits(hash_bits)
    caches, lo = [], 0
    while lo < len(sentences):
        hi, size = lo + 1, len(sentences[lo]) + 1
        # a chunk's sentences share a multiplicity dtype, each its own
        dtype = _mult_dtype(len(sentences[lo]))
        while hi < len(sentences) and size + len(sentences[hi]) + 1 <= _CHUNK_POSITIONS \
                and _mult_dtype(len(sentences[hi])) == dtype:
            size += len(sentences[hi]) + 1
            hi += 1
        chunk = sentences[lo:hi]
        pairs = [_held_arcs(s, mode, None if mask is None else mask(s)) for s in chunk]
        counts = [len(a) for a, _, _ in pairs]
        # in the stacked table, a sentence's positions follow the previous one's
        shift = np.repeat(np.cumsum([0] + [len(s) + 1 for s in chunk[:-1]]), counts)
        a = np.concatenate([a for a, _, _ in pairs]) + shift
        b = np.concatenate([b for _, b, _ in pairs]) + shift
        firsts = np.cumsum([0] + counts).tolist()      # each sentence's first arc
        table = position_table(chunk, mode)
        offsets = _offsets(table, a, b)
        spans = list(zip(firsts, firsts[1:]))
        # Every cache's offsets are made before the chunk's slots.  In this
        # form a perfbench long session peaked at 149 MB RSS, against 167
        # with them made after, when glibc kept 23 MB of freed heap
        # untrimmed after u-mst-df's training (mallinfo2).
        runs = [offsets[i:j + 1] - offsets[i] for i, j in spans]
        flat, mult = _hash_list(table, a, b, hash_bits, offsets)
        for sentence, held, (i, j), at in zip(chunk, pairs, spans, runs):
            cache = SentenceFeatures.__new__(SentenceFeatures)
            cache._hold(sentence, mode, hash_bits, *held, flat[offsets[i]:offsets[j]],
                        mult[offsets[i]:offsets[j]], at)
            caches.append(cache)
        lo = hi
    return caches
