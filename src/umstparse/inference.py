"""Parse-graph construction and tree inference.

The undirected route scores unordered token pairs (directly with
undirected features, or by combining the two directed scores of a pair),
negates the scores so the spanning-forest engines can minimize, extracts
a spanning tree, and directs it away from the dummy root.  The directed
route is the classical maximum-arborescence baseline over the full
directed score table.  A greedy post-pass can rewire the undirected
route's tree against a directed model's scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conll import DependencyTree, Sentence
from .errors import InputError, StructureError
from .features import Model, SentenceFeatures, arc_matrix, hash_arcs, position_table
from .graph import UndirectedGraph
from .mst import RandomSource, SpanningForest, boruvka_msf, randomized_msf

SYSTEMS = ("d-mst", "u-mst-uf", "u-mst-uf-lep", "u-mst-df")


def feature_mode(system: str) -> str:
    """The feature family of the model a system parses with."""
    return "directed" if system in ("d-mst", "u-mst-df") else "undirected"


@dataclass
class ParserConfig:
    system: str = "u-mst-uf"
    combiner: str = "mean"
    enhancement_rounds: int = 5
    mst_backend: str = "randomized"   # or "boruvka"
    seed: int = 1
    pruning: str = "none"             # or "length-dictionary"

    def validate(self):
        if self.system not in SYSTEMS:
            raise InputError(f"unknown system {self.system!r}")
        if self.combiner not in ("mean", "product"):
            raise InputError(f"unknown combiner {self.combiner!r}")
        if self.mst_backend not in ("randomized", "boruvka"):
            raise InputError(f"unknown mst backend {self.mst_backend!r}")
        if self.pruning not in ("none", "length-dictionary"):
            raise InputError(f"unknown pruning mode {self.pruning!r}")
        if self.enhancement_rounds < 0:
            raise InputError("enhancement_rounds must be >= 0")
        return self


def combine(s_uv: float, s_vu: float, combiner: str) -> float:
    """Merge the two directed scores of a vertex pair into one weight."""
    if combiner == "mean":
        return (s_uv + s_vu) / 2.0
    if combiner == "product":
        return s_uv * s_vu
    raise InputError(f"unknown combiner {combiner!r}")


@dataclass
class Pruner:
    """Length dictionary: longest observed attachment per directed POS pair.

    An arc head->mod is allowed when its (head POS, mod POS, direction)
    was seen in training with at least this length; unseen pairs are
    pruned.  Arcs out of the dummy root are always allowed.  ``allows`` is
    the rule for one arc, ``mask`` the same rule for every arc of a
    sentence; max_len is read once, at construction.
    """
    max_len: dict = field(default_factory=dict)

    def __post_init__(self):
        tags = sorted({tag for key in self.max_len for tag in key[:2]})
        self._tag_id = {tag: i for i, tag in enumerate(tags)}
        # [head tag, mod tag, rightward]; the last tag id stands for any
        # tag unseen in training, and -1 for no limit seen
        self._limits = np.full((len(tags) + 1, len(tags) + 1, 2), -1,
                               dtype=np.int64)
        for (head_tag, mod_tag, direction), length in self.max_len.items():
            self._limits[self._tag_id[head_tag], self._tag_id[mod_tag],
                         int(direction > 0)] = length

    def allows(self, sentence: Sentence, head: int, mod: int) -> bool:
        if head == 0:
            return True
        key = (sentence.tokens[head - 1].postag,
               sentence.tokens[mod - 1].postag,
               1 if mod > head else -1)
        limit = self.max_len.get(key)
        return limit is not None and abs(mod - head) <= limit

    def mask(self, sentence: Sentence) -> np.ndarray:
        """(n+1)x(n+1) bool: [head, mod] is True when the arc is a candidate
        (see features.arc_matrix) that ``allows`` keeps."""
        n = len(sentence)
        unseen = len(self._tag_id)
        ids = np.asarray([unseen] + [self._tag_id.get(t.postag, unseen)
                                     for t in sentence.tokens])
        pos = np.arange(n + 1)
        rightward = (pos[None, :] > pos[:, None]).astype(np.int64)
        limit = self._limits[ids[:, None], ids[None, :], rightward]
        allowed = np.abs(pos[None, :] - pos[:, None]) <= limit
        allowed[0] = True
        return allowed & arc_matrix(n)


def build_pruner(corpus: list[Sentence]) -> Pruner:
    """Collect maximum gold attachment lengths per directed POS pair."""
    max_len: dict = {}
    for sent in corpus:
        for mod0, head in enumerate(sent.gold_heads):
            mod = mod0 + 1
            if head == 0:
                continue
            key = (sent.tokens[head - 1].postag,
                   sent.tokens[mod - 1].postag,
                   1 if mod > head else -1)
            length = abs(mod - head)
            if length > max_len.get(key, 0):
                max_len[key] = length
    return Pruner(max_len=max_len)


class DirectedScoreTable:
    """Dense (n+1)x(n+1) table of arc scores; absent arcs read as -inf."""

    def __init__(self, n: int, matrix: np.ndarray):
        self.n = n
        self.matrix = matrix

    @classmethod
    def from_pairs(cls, n: int, heads: np.ndarray, mods: np.ndarray,
                   scores: np.ndarray) -> "DirectedScoreTable":
        matrix = np.full((n + 1, n + 1), -np.inf)
        matrix[heads, mods] = scores
        return cls(n, matrix)

    def get(self, head: int, mod: int) -> float:
        return float(self.matrix[head, mod])

    def present(self, head: int, mod: int) -> bool:
        return bool(np.isfinite(self.matrix[head, mod]))

    def scores(self, heads: np.ndarray, mods: np.ndarray) -> np.ndarray:
        return self.matrix[heads, mods]


class LazyArcScores:
    """Directed arc scores, computed when first asked for.

    Reads like a DirectedScoreTable through ``scores``, but featurizes and
    scores only the arcs requested: all of them not yet scored in one
    ``hash_arcs`` call, in row-major order.  Each arc has the same slots as
    in SentenceFeatures, so its score is bit-identical to
    ``directed_score_table``'s.  Arcs the pruner drops (or that are no
    candidate arcs) read as -inf.
    """

    def __init__(self, sentence: Sentence, model: Model,
                 pruner: Pruner | None = None):
        if model.mode != "directed":
            raise InputError("directed arc scores need a directed-mode model")
        n = len(sentence)
        self._weights = model.weights
        self._hash_bits = model.hash_bits
        self._table = position_table(sentence, "directed")
        self._matrix = np.full((n + 1, n + 1), -np.inf)
        # allowed arcs whose score is not in _matrix yet
        self._pending = arc_matrix(n) if pruner is None else pruner.mask(sentence)

    def scores(self, heads: np.ndarray, mods: np.ndarray) -> np.ndarray:
        todo = np.zeros_like(self._pending)
        todo[heads, mods] = True
        a, b = np.nonzero(todo & self._pending)      # row-major, no repeats
        if len(a):
            flat, starts = hash_arcs(self._table, "directed", a, b, self._hash_bits)
            self._matrix[a, b] = np.add.reduceat(self._weights[flat], starts)
            self._pending[a, b] = False
        return self._matrix[heads, mods]


def directed_score_table(sentence: Sentence, model: Model,
                         pruner: Pruner | None = None,
                         cache: SentenceFeatures | None = None) -> DirectedScoreTable:
    """Score every allowed directed arc of the sentence."""
    if model.mode != "directed":
        raise InputError("directed score table needs a directed-mode model")
    if cache is None:
        cache = SentenceFeatures(sentence, "directed", model.hash_bits, pruner)
    scores = cache.score_all(model.weights)
    return DirectedScoreTable.from_pairs(len(sentence), cache.pair_a,
                                         cache.pair_b, scores)


@dataclass
class ParseGraph:
    """Undirected problem instance: vertex 0 is the dummy root, vertices
    1..n the tokens; edge weights are negated scores (engines minimize)."""
    graph: UndirectedGraph
    pairs: list            # pairs[original_id] = (u, v) with u < v


def build_parse_graph(sentence: Sentence, model: Model,
                      pruner: Pruner | None = None,
                      cache: SentenceFeatures | None = None,
                      ) -> tuple[ParseGraph, DirectedScoreTable | None]:
    """Encode one sentence as an undirected spanning-tree instance.

    Undirected-mode models score each unordered pair directly; directed-mode
    models combine the pair's two arc scores (or keep the single unpruned
    one).  A pair survives pruning when either of its directions does; pairs
    touching the root always survive, keeping the graph connected.
    """
    n = len(sentence)
    table = None
    if model.mode == "undirected":
        if cache is None:
            cache = SentenceFeatures(sentence, "undirected", model.hash_bits, pruner)
        u, v = cache.pair_a, cache.pair_b
        weights = -cache.score_all(model.weights)
        pairs = list(cache.pairs)
    else:
        if cache is None:
            cache = SentenceFeatures(sentence, "directed", model.hash_bits, pruner)
        table = directed_score_table(sentence, model, pruner, cache)
        # a direction survives when the cache covered it and the pruner
        # (re-checked here: training uses unpruned caches so that updates
        # can featurize any predicted arc) allows it
        alive = np.isfinite(table.matrix)
        if pruner is not None:
            alive &= pruner.mask(sentence)
        u, v = np.triu_indices(n + 1, 1)
        fwd, rev = alive[u, v], alive[v, u]
        s_uv, s_vu = table.matrix[u, v], table.matrix[v, u]
        scores = np.where(fwd, s_uv, s_vu)
        both = fwd & rev
        scores[both] = combine(s_uv[both], s_vu[both], model.combiner)
        keep = fwd | rev
        u, v, weights = u[keep], v[keep], -scores[keep]
        pairs = list(zip(u.tolist(), v.tolist()))
    graph = UndirectedGraph(n + 1, u, v, weights,
                            np.arange(len(pairs), dtype=np.int64))
    return ParseGraph(graph=graph, pairs=pairs), table


def direct_tree(graph: UndirectedGraph, mst: SpanningForest,
                root: int = 0) -> DependencyTree:
    """Orient a spanning tree away from the root.

    Breadth-first from the root, every tree edge is marked outgoing from
    the side reached first; with the root constrained to have no incoming
    edge this orientation is the only valid one.  Raises StructureError
    when the forest does not span the graph's vertices.
    """
    n = graph.n_vertices
    ids = np.asarray(sorted(mst.edge_ids), dtype=np.int64)
    sel = np.isin(graph.original_id, ids)
    eu = graph.u[sel].tolist()
    ev = graph.v[sel].tolist()
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(eu, ev):
        adj[a].append(b)
        adj[b].append(a)
    heads = [-1] * n
    heads[root] = root
    queue = [root]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for y in adj[x]:
            if heads[y] == -1:
                heads[y] = x
                queue.append(y)
    if len(queue) != n:
        raise StructureError("spanning tree does not cover all vertices")
    return DependencyTree(heads=tuple(heads[1:]))


def swap_gain(s_tu: float, s_uv: float, s_tv: float, s_vu: float) -> float:
    """Weight saved by replacing edges (t,u),(u,v) with (t,v),(v,u)
    (elementwise on arrays).

    Operates on minimization weights; a positive value means the rewired
    tree is lighter.  Callers holding maximizing scores pass them negated.
    """
    return s_tu + s_uv - (s_tv + s_vu)


def local_enhancement(tree: DependencyTree, s_d: DirectedScoreTable | LazyArcScores,
                      rounds: int = 5) -> DependencyTree:
    """Greedy rewiring of a directed tree against directed arc scores.

    Per round, every edge (u, v) whose upper endpoint u has a parent t is
    scored with :func:`swap_gain`; the single best positive-gain swap is
    applied (ties to the smallest (u, v)).  Edges out of the root are
    skipped.  Swaps whose new arcs are absent (not finite) are never
    taken; absent current arcs make any legal swap infinitely attractive.
    A round reads the four arcs of every edge with one ``scores`` call.
    """
    if not tree.is_valid():
        raise StructureError("local enhancement requires a valid tree")
    heads = np.array([0, *tree.heads], dtype=np.int64)    # heads[v], v in 0..n
    for _ in range(rounds):
        v = np.flatnonzero(heads)           # (u, v) with u != root
        u = heads[v]
        t = heads[u]
        s = s_d.scores(np.concatenate([t, v, t, u]),
                       np.concatenate([v, u, u, v])).reshape(4, len(v))
        s_tv, s_vu, s_tu, s_uv = s
        present = np.isfinite(s)
        with np.errstate(invalid="ignore"):
            gain = np.where(present[2] & present[3],
                            swap_gain(-s_tu, -s_uv, -s_tv, -s_vu), np.inf)
        legal = np.flatnonzero(present[0] & present[1] & (gain > 0.0))
        if not len(legal):
            break
        top = legal[gain[legal] == gain[legal].max()]
        best = top[np.argmin(u[top] * len(heads) + v[top])]
        heads[u[best]] = v[best]
        heads[v[best]] = t[best]
    return DependencyTree(heads=tuple(heads[1:].tolist()))


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


def _cle_heads(score: np.ndarray) -> np.ndarray:
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
    sub = _cle_heads(ns)
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


def cle_directed_mst(s_d: DirectedScoreTable) -> DependencyTree:
    """Maximum-weight arborescence rooted at vertex 0 (recursive
    cycle-contracting implementation over the dense score table)."""
    if s_d.n == 0:
        return DependencyTree(heads=())
    heads = _cle_heads(s_d.matrix)
    return DependencyTree(heads=tuple(int(h) for h in heads[1:]))


def undirected_spanning_tree(pg: ParseGraph, backend: str,
                             rng: RandomSource | None) -> SpanningForest:
    if backend == "boruvka":
        return boruvka_msf(pg.graph)
    if backend == "randomized":
        return randomized_msf(pg.graph, rng if rng is not None else RandomSource(0))
    raise InputError(f"unknown mst backend {backend!r}")


def parse(sentence: Sentence, model: Model, config: ParserConfig,
          directed_model: Model | None = None,
          pruner: Pruner | None = None,
          sentence_index: int = 0,
          features: SentenceFeatures | None = None) -> DependencyTree:
    """Parse one sentence with the configured system.

    d-mst ignores the pruner (it runs on the complete directed graph);
    u-mst-uf-lep additionally needs the separately trained directed model
    for its rewiring pass, which scores only the arcs it reads.
    ``features`` is the sentence's featurization in the model's mode, when
    the caller already has it (training featurizes each sentence once).
    """
    config.validate()
    system = config.system
    mode = feature_mode(system)
    if model.mode != mode:
        raise InputError(f"{system} needs a {mode}-mode model")
    if system == "d-mst":
        return cle_directed_mst(directed_score_table(sentence, model, None, features))
    pg, _ = build_parse_graph(sentence, model, pruner, features)
    rng = RandomSource.derive(config.seed, sentence_index)
    forest = undirected_spanning_tree(pg, config.mst_backend, rng)
    tree = direct_tree(pg.graph, forest)
    if system == "u-mst-uf-lep":
        if directed_model is None:
            raise InputError("u-mst-uf-lep needs the directed (d-mst) model "
                             "for its enhancement scores")
        scores = LazyArcScores(sentence, directed_model, pruner)
        tree = local_enhancement(tree, scores, config.enhancement_rounds)
    return tree
