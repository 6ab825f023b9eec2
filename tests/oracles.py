"""Independent brute-force oracles used to check the real implementations.

Everything here is deliberately written against plain edge lists / dicts,
not against the package's graph representation or algorithms.  The
feature templates at the end build every feature string and hash it one
by one: the spec that the package's composed CRCs are checked against.
"""

from __future__ import annotations

import zlib
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from umstparse.conll import Sentence, Token
from umstparse.errors import InputError
from umstparse.features import (DEFAULT_HASH_BITS, NIL, ROOT_FORM, ROOT_POS,
                                Model, _offsets, distance_bin, hash_arcs)


def bfs_components(n: int, edges) -> list[set]:
    """Connected components as vertex sets, via plain BFS over an adjacency dict."""
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    seen.add(y)
                    queue.append(y)
        comps.append(comp)
    return comps


def forest_path_max(n: int, forest_edges, a: int, b: int):
    """Maximum edge weight on the forest path a..b, or None if disconnected.

    forest_edges: iterable of (u, v, weight).  BFS per query; O(n) each.
    """
    if a == b:
        return -np.inf
    adj = {i: [] for i in range(n)}
    for u, v, w in forest_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    best = {a: -np.inf}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        for y, w in adj[x]:
            if y not in best:
                best[y] = max(best[x], w)
                queue.append(y)
    return best.get(b)


_tree_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def all_labeled_trees(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge endpoints of every labeled tree on n vertices.

    Returns (heads_a, heads_b), each of shape (n_trees, n-1).  Decodes every
    possible generating sequence, which enumerates the n^(n-2) labeled trees
    exactly once.  Cached per n.
    """
    if n in _tree_cache:
        return _tree_cache[n]
    if n < 2:
        out = (np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0), dtype=np.int64))
        _tree_cache[n] = out
        return out
    if n == 2:
        out = (np.array([[0]], dtype=np.int64), np.array([[1]], dtype=np.int64))
        _tree_cache[n] = out
        return out
    k = n - 2
    seqs = np.indices((n,) * k).reshape(k, -1).T.astype(np.int64)  # (R, k)
    r = len(seqs)
    degree = np.ones((r, n), dtype=np.int16)
    rows = np.arange(r)
    for i in range(k):
        np.add.at(degree, (rows, seqs[:, i]), 1)
    ea = np.empty((r, n - 1), dtype=np.int64)
    eb = np.empty((r, n - 1), dtype=np.int64)
    for i in range(k):
        leaf = np.argmax(degree == 1, axis=1)
        s = seqs[:, i]
        ea[:, i] = leaf
        eb[:, i] = s
        degree[rows, leaf] -= 1
        degree[rows, s] -= 1
    first = np.argmax(degree == 1, axis=1)
    degree[rows, first] -= 1
    second = np.argmax(degree == 1, axis=1)
    ea[:, k] = first
    eb[:, k] = second
    _tree_cache[n] = (ea, eb)
    return ea, eb


def exhaustive_min_spanning_weight(n: int, edges) -> float:
    """Minimum total weight over all spanning trees, by full enumeration.

    edges: iterable of (u, v, weight); parallel edges keep the lighter one.
    Returns +inf when the graph has no spanning tree.
    """
    wmat = np.full((n, n), np.inf)
    for u, v, w in edges:
        if u == v:
            continue
        if w < wmat[u, v]:
            wmat[u, v] = wmat[v, u] = w
    if n <= 1:
        return 0.0
    ea, eb = all_labeled_trees(n)
    totals = wmat[ea, eb].sum(axis=1)
    return float(totals.min())


_head_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def all_head_assignments(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All head vectors for n tokens plus a validity mask.

    Heads take values in 0..n (0 = root, self-heads excluded); a row is
    valid when following heads from every token reaches the root without
    revisiting, i.e. the vector forms a directed tree.  Cached per n.
    """
    if n in _head_cache:
        return _head_cache[n]
    grids = np.indices((n + 1,) * n).reshape(n, -1).T.astype(np.int64)  # (R, n)
    tokens = np.arange(1, n + 1)
    no_self = (grids != tokens).all(axis=1)
    heads = grids[no_self]
    r = len(heads)
    reach = np.tile(tokens, (r, 1))
    for _ in range(n):
        nonroot = reach > 0
        nxt = np.take_along_axis(heads, np.maximum(reach - 1, 0), axis=1)
        reach = np.where(nonroot, nxt, 0)
    valid = (reach == 0).all(axis=1)
    out = (heads, valid)
    _head_cache[n] = out
    return out


def exhaustive_best_arborescence(scores: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximum-score directed tree by scoring every valid head vector.

    scores[h, m] for h in 0..n, m in 1..n.  Returns (best score, heads).
    """
    n = scores.shape[0] - 1
    heads, valid = all_head_assignments(n)
    tokens = np.arange(1, n + 1)
    totals = scores[heads, tokens].sum(axis=1)
    totals[~valid] = -np.inf
    best = int(np.argmax(totals))
    return float(totals[best]), heads[best].copy()


def random_graph(rng: np.random.Generator, n: int, m: int,
                 connected: bool = True):
    """Random simple graph as parallel (u, v, weight) arrays.

    With connected=True the first n-1 edges form a random spanning tree
    (each vertex i>0 attaches to a random earlier vertex); extra edges are
    drawn without replacement from the remaining vertex pairs.  m is capped
    at the complete-graph size.
    """
    m = min(m, n * (n - 1) // 2)
    if n <= 1 or m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    lo_all, hi_all = np.triu_indices(n, k=1)
    keys_all = lo_all * n + hi_all
    if connected:
        hi_bb = np.arange(1, n, dtype=np.int64)
        lo_bb = (rng.random(n - 1) * hi_bb).astype(np.int64)
        extra_wanted = m - (n - 1)
        if extra_wanted > 0:
            free = ~np.isin(keys_all, lo_bb * n + hi_bb)
            pool = np.nonzero(free)[0]
            pick = pool[rng.permutation(len(pool))[:extra_wanted]]
            u = np.concatenate([lo_bb, lo_all[pick]])
            v = np.concatenate([hi_bb, hi_all[pick]])
        else:
            u, v = lo_bb, hi_bb
    else:
        pick = rng.permutation(len(keys_all))[:m]
        u, v = lo_all[pick], hi_all[pick]
    return u, v, rng.random(len(u))


def join_sentences(sentences):
    """One long sentence made of several in a row: heads are offset, and
    every part keeps its own root arc."""
    tokens, heads, offset = [], [], 0
    for s in sentences:
        for tok, head in zip(s.tokens, s.gold_heads):
            tokens.append(Token(index=len(tokens) + 1, form=tok.form,
                                postag=tok.postag, cpostag=tok.cpostag))
            heads.append(head + offset if head else 0)
        offset += len(s)
    return Sentence(tokens=tuple(tokens), gold_heads=tuple(heads),
                    gold_labels=tuple(["dep"] * len(tokens)))


def one_call_slots(table, a, b, hash_bits):
    """The slots and multiplicities of the arcs (a[k], b[k]) from one
    unblocked ``hash_arcs`` call into arrays of their own, and each arc's
    start offset: the reference that blocked lists, caches and scorers
    must equal.  It calls the function bound at import, so a test's
    wrapper does not see it."""
    offsets = _offsets(table, a, b)
    flat = np.empty(offsets[-1], dtype=np.int64)
    mult = np.empty(offsets[-1], dtype=table.mult_dtype())
    hash_arcs(table, a, b, hash_bits, flat, mult, offsets)
    return flat, mult, offsets[:-1]


def slot_multiset(slots, mult) -> Counter:
    """How often each slot fires in a run of slots with their
    multiplicities (a slot may repeat, as two templates can hash alike);
    signed multiplicities, as an update adds, net out, and slots that
    net to 0 are left out.  ``slot_multiset(slots, np.ones(len(slots)))``
    is the multiset of hashed strings."""
    counts = Counter()
    for slot, times in zip(np.asarray(slots).tolist(), np.asarray(mult).tolist()):
        counts[slot] += times
    return Counter({slot: times for slot, times in counts.items() if times})


def directed_arcs(sentence, pruner=None):
    """Candidate arcs (head, mod) in row-major order, kept by the scalar
    pruning rule."""
    n = len(sentence)
    return [(h, m) for h in range(n + 1) for m in range(1, n + 1)
            if h != m and (pruner is None or pruner.allows(sentence, h, m))]


def undirected_pairs(sentence, pruner=None):
    """Pairs (i, j), i < j, in row-major order, kept when either direction
    survives the scalar pruning rule."""
    n = len(sentence)
    return [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)
            if pruner is None or pruner.allows(sentence, i, j)
            or pruner.allows(sentence, j, i)]


def local_enhancement_oracle(heads, matrix: np.ndarray, rounds: int) -> tuple:
    """Greedy rewiring by the scalar rule, one edge at a time.

    Per round, every edge (u, v) with u != root and parent t of u is a
    candidate swap to (t, v), (v, u); an arc is present when its
    matrix[head, mod] is finite.  A swap with an absent new arc is skipped,
    an absent current arc makes its gain +inf, and the best positive gain
    is applied, ties to the smallest (u, v).
    """
    heads = list(heads)
    n = len(heads)

    def present(h, m):
        return bool(np.isfinite(matrix[h, m]))

    def get(h, m):
        return float(matrix[h, m])

    for _ in range(rounds):
        best_gain = 0.0
        best = None
        for v in range(1, n + 1):
            u = heads[v - 1]
            if u == 0:
                continue
            t = heads[u - 1]
            if not present(t, v) or not present(v, u):
                continue
            if not present(t, u) or not present(u, v):
                gain = np.inf
            else:
                gain = -get(t, u) + -get(u, v) - (-get(t, v) + -get(v, u))
            if gain <= 0.0:
                continue
            if best is None or gain > best_gain or \
                    (gain == best_gain and (u, v) < best[1:]):
                best_gain = gain
                best = (t, u, v)
        if best is None:
            break
        t, u, v = best
        heads[u - 1] = v
        heads[v - 1] = t
    return tuple(heads)


# Chu-Liu-Edmonds in its recursive textbook form: the spec of
# inference._cle_heads, tie-breaking included.  The cycle contracted is
# the first one met by walks from nodes 1, 2, ... in turn; the contracted
# graph orders the other nodes ascending and the new node last; every
# argmax takes the first index among ties.

def _find_cycle(heads: np.ndarray) -> set | None:
    k = len(heads)
    for start in range(1, k):
        seen = []
        on_path = set()
        node = start
        while node != 0:
            if node in on_path:
                idx = seen.index(node)
                return set(seen[idx:])
            on_path.add(node)
            seen.append(node)
            node = int(heads[node])
        # reached root: no cycle through start
    return None


def cle_heads_reference(score: np.ndarray) -> np.ndarray:
    """Best head per node over score[h, m]; node 0 is the root."""
    k = score.shape[0]
    s = score.copy()
    np.fill_diagonal(s, -np.inf)
    s[:, 0] = -np.inf
    heads = np.zeros(k, dtype=np.int64)
    if k > 1:
        heads[1:] = np.argmax(s[:, 1:], axis=0)
    cycle = _find_cycle(heads)
    if cycle is None:
        return heads
    cyc = sorted(cycle)
    rest = [v for v in range(k) if v not in cycle]
    c_new = len(rest)
    ns = np.full((c_new + 1, c_new + 1), -np.inf)
    ns[:c_new, :c_new] = s[np.ix_(rest, rest)]
    cycle_in = s[heads[cyc], cyc]                        # weight of each cycle arc
    into = s[np.ix_(rest, cyc)] - cycle_in[None, :]      # swap cost of entering
    ns[:c_new, c_new] = into.max(axis=1)
    enter_choice = np.asarray(cyc)[np.argmax(into, axis=1)]
    out = s[np.ix_(cyc, rest)]
    ns[c_new, :c_new] = out.max(axis=0)
    out_choice = np.asarray(cyc)[np.argmax(out, axis=0)]
    sub = cle_heads_reference(ns)
    result = heads.copy()
    for i, m in enumerate(rest):
        if m == 0:
            continue
        nh = int(sub[i])
        result[m] = out_choice[i] if nh == c_new else rest[nh]
    entering_head = rest[int(sub[c_new])]
    m_star = int(enter_choice[rest.index(entering_head)])
    result[m_star] = entering_head
    return result


# The feature templates as strings: the spec that features.hash_arcs (which
# composes the same CRCs without building any string) is tested against.

def hash_feature(s: str, hash_bits: int) -> int:
    return zlib.crc32(s.encode("utf-8")) & ((1 << hash_bits) - 1)


@dataclass(frozen=True)
class FeatureVector:
    """Sorted hashed slots, implicit count 1 each (duplicates allowed)."""
    indices: np.ndarray

    def __len__(self):
        return len(self.indices)


def _word_pos(sentence: Sentence, i: int) -> tuple[str, str]:
    if i == 0:
        return ROOT_FORM, ROOT_POS
    return sentence.tokens[i - 1].form, sentence.tokens[i - 1].postag


def _pos_at(sentence: Sentence, i: int) -> str:
    if i == 0:
        return ROOT_POS
    if 1 <= i <= len(sentence):
        return sentence.tokens[i - 1].postag
    return NIL


def _arc_templates(sentence: Sentence, a: int, b: int,
                   ra: str, rb: str) -> list[str]:
    """Shared template body; a/b are positions, ra/rb the role prefixes."""
    aw, ap = _word_pos(sentence, a)
    bw, bp = _word_pos(sentence, b)
    feats = [
        f"{ra}w:{aw}",
        f"{ra}p:{ap}",
        f"{ra}wp:{aw}|{ap}",
        f"{rb}w:{bw}",
        f"{rb}p:{bp}",
        f"{rb}wp:{bw}|{bp}",
        f"bg1:{aw}|{ap}|{bw}|{bp}",
        f"bg2:{ap}|{bw}|{bp}",
        f"bg3:{aw}|{bw}|{bp}",
        f"bg4:{aw}|{ap}|{bp}",
        f"bg5:{aw}|{ap}|{bw}",
        f"bg6:{aw}|{bw}",
        f"bg7:{ap}|{bp}",
    ]
    lo, hi = (a, b) if a < b else (b, a)
    for mid in range(lo + 1, hi):
        feats.append(f"btw:{ap}|{_pos_at(sentence, mid)}|{bp}")
    a_next = _pos_at(sentence, a + 1)
    a_prev = _pos_at(sentence, a - 1) if a > 0 else NIL
    b_next = _pos_at(sentence, b + 1)
    b_prev = _pos_at(sentence, b - 1) if b > 0 else NIL
    feats.append(f"sr1:{ap}|{a_next}|{b_prev}|{bp}")
    feats.append(f"sr2:{a_prev}|{ap}|{b_prev}|{bp}")
    feats.append(f"sr3:{ap}|{a_next}|{bp}|{b_next}")
    feats.append(f"sr4:{a_prev}|{ap}|{bp}|{b_next}")
    return feats


def directed_feature_strings(sentence: Sentence, head: int, mod: int) -> list[str]:
    """Template expansion for a directed arc head -> mod (head may be 0)."""
    n = len(sentence)
    if not 0 <= head <= n or not 1 <= mod <= n or head == mod:
        raise InputError(f"invalid arc ({head}, {mod}) for a {n}-token sentence")
    feats = _arc_templates(sentence, head, mod, "h", "m")
    att = "R" if mod > head else "L"
    conj = f"{att}|{distance_bin(abs(head - mod))}"
    return feats + [f"{f}&{conj}" for f in feats]


def undirected_feature_strings(sentence: Sentence, i: int, j: int) -> list[str]:
    """Template expansion for the unordered pair {i, j}; order-insensitive."""
    n = len(sentence)
    if not 0 <= i <= n or not 0 <= j <= n or i == j or max(i, j) < 1:
        raise InputError(f"invalid pair ({i}, {j}) for a {n}-token sentence")
    l, r = (i, j) if i < j else (j, i)
    feats = _arc_templates(sentence, l, r, "l", "r")
    conj = distance_bin(r - l)
    return feats + [f"{f}&{conj}" for f in feats]


def _hash_all(strings: list[str], hash_bits: int) -> FeatureVector:
    mask = (1 << hash_bits) - 1
    idx = sorted(zlib.crc32(s.encode("utf-8")) & mask for s in strings)
    return FeatureVector(indices=np.asarray(idx, dtype=np.int64))


def extract_directed(sentence: Sentence, head: int, mod: int,
                     hash_bits: int = DEFAULT_HASH_BITS) -> FeatureVector:
    return _hash_all(directed_feature_strings(sentence, head, mod), hash_bits)


def extract_undirected(sentence: Sentence, i: int, j: int,
                       hash_bits: int = DEFAULT_HASH_BITS) -> FeatureVector:
    return _hash_all(undirected_feature_strings(sentence, i, j), hash_bits)




def score(model: Model, fv: FeatureVector) -> float:
    """Dot product of the model weights with a (sparse, unit-valued) vector."""
    if len(fv) and int(fv.indices.max()) >= model.size():
        raise InputError("feature slot exceeds model size")
    return float(model.weights[fv.indices].sum())
