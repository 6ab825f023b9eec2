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

from .conll import DependencyTree, Sentence, _find_cycle
from .errors import DataError, InputError, StructureError
from .features import (LazyArcScores, Model, SentenceFeatures, arc_matrix,
                       check_combiner, pair_mask)
from .graph import UndirectedGraph
from .mst import RandomSource, SpanningForest, randomized_msf

SYSTEMS = ("d-mst", "u-mst-uf", "u-mst-uf-lep", "u-mst-df")
PRUNING_MODES = ("none", "length-dictionary")

# The parse settings each system reads besides its model and the seed.
# d-mst runs on the complete directed graph, so it reads no pruning; only
# u-mst-df combines two directed scores per pair; only u-mst-uf-lep rewires
# its tree with a directed model.
SETTINGS_READ = {
    "d-mst": frozenset(),
    "u-mst-uf": frozenset({"pruning"}),
    "u-mst-uf-lep": frozenset({"pruning", "enhancement_rounds", "directed_model"}),
    "u-mst-df": frozenset({"pruning", "combiner"}),
}


def feature_mode(system: str) -> str:
    """The feature family of the model a system parses with."""
    return "directed" if system in ("d-mst", "u-mst-df") else "undirected"


@dataclass
class ParserConfig:
    """Inference settings; the combiner is the model's (``Model.combiner``)."""
    system: str = "u-mst-uf"
    enhancement_rounds: int = 5
    seed: int = 1
    pruning: str = "none"             # one of PRUNING_MODES

    def validate(self):
        if self.system not in SYSTEMS:
            raise InputError(f"unknown system {self.system!r}")
        if self.pruning not in PRUNING_MODES:
            raise InputError(f"unknown pruning mode {self.pruning!r}")
        if self.enhancement_rounds < 0:
            raise InputError("enhancement_rounds must be >= 0")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        return self

    @property
    def pruned(self) -> bool:
        """Whether parse prunes: the system reads pruning and it is on."""
        return ("pruning" in SETTINGS_READ[self.system]
                and self.pruning == "length-dictionary")


def combine(s_uv: float, s_vu: float, combiner: str) -> float:
    """Merge the two directed scores of a vertex pair into one weight."""
    if check_combiner(combiner) == "mean":
        return (s_uv + s_vu) / 2.0
    return s_uv * s_vu


def _pruning_key(sentence: Sentence, head: int, mod: int) -> tuple[str, str, int]:
    """The length dictionary's key of head -> mod: (head POS, mod POS, ±1)."""
    return (sentence.tokens[head - 1].postag, sentence.tokens[mod - 1].postag,
            1 if mod > head else -1)


@dataclass
class Pruner:
    """Length dictionary: longest observed attachment per directed POS pair.

    An arc head->mod is allowed when its (head POS, mod POS, direction)
    was seen in training with at least this length; unseen pairs are
    pruned.  Arcs out of the dummy root are always allowed, and arcs that
    are no candidate arcs (into the root, or self arcs) never are.
    ``allows`` is the rule for one arc, ``mask`` the same rule for every
    arc of a sentence; max_len is read once, at construction.
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
        if mod == 0 or head == mod:
            return False
        if head == 0:
            return True
        limit = self.max_len.get(_pruning_key(sentence, head, mod))
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


def check_gold_heads(corpus: list[Sentence], label: str) -> None:
    """A DataError naming the first sentence of ``corpus`` with a gold
    HEAD outside [0, n], as "<label> sentence <number>"."""
    for number, sent in enumerate(corpus, 1):
        if any(not 0 <= head <= len(sent) for head in sent.gold_heads):
            raise DataError(f"{label} sentence {number}: HEAD out of range")


def build_pruner(corpus: list[Sentence]) -> Pruner:
    """Collect maximum gold attachment lengths per directed POS pair.

    A gold HEAD outside [0, n] is a DataError naming the sentence.
    """
    check_gold_heads(corpus, "train")
    max_len: dict = {}
    for sent in corpus:
        for mod, head in enumerate(sent.gold_heads, 1):
            if head == 0:
                continue
            key = _pruning_key(sent, head, mod)
            length = abs(mod - head)
            if length > max_len.get(key, 0):
                max_len[key] = length
    return Pruner(max_len=max_len)


def directed_score_table(sentence: Sentence, model: Model,
                         allowed: np.ndarray | None = None,
                         cache: SentenceFeatures | None = None) -> np.ndarray:
    """The (n+1)x(n+1) matrix of arc scores, ``[head, mod]``, of every
    directed arc of the sentence that ``allowed`` (a ``Pruner.mask``; None
    for all) keeps; every other entry is -inf.  It is the one route to a
    sentence's directed scores: CLE reads it, and so do u-mst-df's pairs,
    with or without a cache.

    ``cache`` is a training cache built with the mask (``allowed`` is then
    not read): its stored slots are gathered, and the arcs it holds but
    its mask dropped (``SentenceFeatures.dropped``) read -inf.  Without
    one, the matrix is ``LazyArcScores(sentence, model, allowed).table()``.
    Both give the same bytes; the scorer takes O(n²) memory plus one
    hashing block."""
    if model.mode != "directed":
        raise InputError("directed score table needs a directed-mode model")
    if cache is None:
        return LazyArcScores(sentence, model, allowed).table()
    matrix = np.full((len(sentence) + 1,) * 2, -np.inf)
    matrix[cache.pair_a, cache.pair_b] = cache.score_all(model.weights)
    matrix[cache.dropped] = -np.inf
    return matrix


@dataclass
class ParseGraph:
    """Undirected problem instance: vertex 0 is the dummy root, vertices
    1..n the tokens; edge weights are negated scores (engines minimize)."""
    graph: UndirectedGraph

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """pairs[original_id] = (u, v) with u < v."""
        return list(zip(self.graph.u.tolist(), self.graph.v.tolist()))


def build_parse_graph(sentence: Sentence, model: Model,
                      allowed: np.ndarray | None = None,
                      cache: SentenceFeatures | None = None,
                      ) -> tuple[ParseGraph, np.ndarray | None]:
    """Encode one sentence as an undirected spanning-tree instance.

    Undirected-mode models score each unordered pair directly; directed-mode
    models read the directed score matrix (one ``directed_score_table``
    call), where an absent arc reads -inf, and return that matrix beside
    the graph (None for undirected models).  Such a pair scores the
    ``combine`` of its two arc scores when both are present, and otherwise
    the larger one, its only present arc.  ``allowed`` is the pruner's arc
    mask (``Pruner.mask``; None keeps every arc): a pair survives when
    either of its directions does, and pairs touching the root always
    survive, keeping the graph connected.  A given ``cache`` is the
    ``SentenceFeatures`` built with that mask; a directed one gives the
    surviving pairs (``pair_layout``).
    """
    n = len(sentence)
    matrix = None
    if model.mode == "undirected":
        if cache is None:
            cache = SentenceFeatures(sentence, "undirected", model.hash_bits,
                                     allowed)
        u, v = cache.pair_a, cache.pair_b
        weights = -cache.score_all(model.weights)
    else:
        matrix = directed_score_table(sentence, model, allowed, cache)
        if cache is None:
            u, v = np.nonzero(pair_mask(np.isfinite(matrix)))
        else:
            u, v = cache.pair_layout()
        s_uv, s_vu = matrix[u, v], matrix[v, u]
        scores = np.maximum(s_uv, s_vu)
        both = np.minimum(s_uv, s_vu) > -np.inf
        scores[both] = combine(s_uv[both], s_vu[both], model.combiner)
        weights = -scores
    graph = UndirectedGraph(n + 1, u, v, weights, np.arange(len(u), dtype=np.int64))
    return ParseGraph(graph=graph), matrix


def direct_tree(graph: UndirectedGraph, mst: SpanningForest) -> DependencyTree:
    """Orient a spanning tree away from the root, vertex 0.

    Breadth-first from the root, every tree edge is marked outgoing from
    the side reached first; with the root constrained to have no incoming
    edge this orientation is the only valid one.

    The walk starts from the forest's edge positions in ``graph``
    (``SpanningForest.positions_in``).  There must be one per edge id,
    each in [0, m), or the forest names an edge the graph lacks; that,
    and a forest that does not span the graph's vertices, raise
    StructureError.
    """
    n = graph.n_vertices
    at = mst.positions_in(graph)
    pos = at.tolist()
    if len(pos) != len(mst.edge_ids) or (
            pos and not 0 <= min(pos) <= max(pos) < graph.n_edges):
        raise StructureError("spanning tree has edges the graph lacks")
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(graph.u[at].tolist(), graph.v[at].tolist()):
        adj[a].append(b)
        adj[b].append(a)
    heads = [0] + [-1] * (n - 1)
    queue = [0]
    for x in queue:             # grows while it is walked
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


def local_enhancement(tree: DependencyTree, s_d: np.ndarray | LazyArcScores,
                      rounds: int = 5) -> DependencyTree:
    """Greedy rewiring of a directed tree against directed arc scores.

    Per round, every edge (u, v) whose upper endpoint u has a parent t is
    scored with :func:`swap_gain`; the single best positive-gain swap is
    applied (ties to the smallest (u, v)).  Edges out of the root are
    skipped.  ``s_d`` is a score matrix (``directed_score_table``) or a
    ``LazyArcScores``; both read -inf for an absent arc.  A round first
    keeps the candidate edges, those whose two new arcs (t, v) and (v, u)
    are present by the mask (the scorer's ``allowed``, or where the matrix
    is finite), without reading a score; it stops when there are none,
    and otherwise reads the four arcs of the candidate edges with one
    ``s_d[heads, mods]`` lookup.  A candidate's new arcs score finite, so
    its gain is finite, or +inf when a current arc is absent (such a swap
    wins), and never NaN.  The tree check is ``is_valid_tree``'s O(n)
    walk, so all but the scoring costs O(n) per round.
    """
    if not tree.is_valid():
        raise StructureError("local enhancement requires a valid tree")
    allowed = s_d.allowed if isinstance(s_d, LazyArcScores) else np.isfinite(s_d)
    heads = np.array([0, *tree.heads], dtype=np.int64)    # heads[v], v in 0..n
    for _ in range(rounds):
        v = np.flatnonzero(heads)               # (u, v) with u != root
        u = heads[v]
        t = heads[u]
        candidate = allowed[t, v] & allowed[v, u]
        if not candidate.any():
            break
        v, u, t = v[candidate], u[candidate], t[candidate]
        # per edge, the arcs (t, v), (v, u), (t, u), (u, v)
        s = s_d[np.concatenate([t, v, t, u]),
                np.concatenate([v, u, u, v])].reshape(4, len(v))
        s_tv, s_vu, s_tu, s_uv = s
        gain = swap_gain(-s_tu, -s_uv, -s_tv, -s_vu)
        legal = np.flatnonzero(gain > 0.0)
        if not len(legal):
            break
        gains = gain[legal]
        top = legal[gains == gains.max()]
        best = top[np.argmin(u[top] * len(heads) + v[top])]
        heads[u[best]] = v[best]
        heads[v[best]] = t[best]
    return DependencyTree(heads=tuple(heads[1:].tolist()))


def _cle_heads(score: np.ndarray) -> list[int]:
    """Best head per node over score[h, m]; node 0 is the root (head 0).

    Chu-Liu-Edmonds with an explicit stack of contractions.  Every level
    keeps the indices of the one before: a contracted cycle's nodes leave
    the active set and a new node, numbered after all others, joins it.
    Nodes are therefore ordered as the recursive textbook form orders them
    (the uncontracted nodes ascending, the contracted node last), every
    maximum takes the first index among ties, and so the heads match that
    form's exactly (``tests/oracles.py``, ``cle_heads_reference``).

    ``col[m][h]`` is the score of arc h -> m at the current level; rows of
    inactive nodes read -inf in every active column.  A column whose head
    is outside the contracted cycle keeps that head, since the new node's
    entry is at most the column's maximum and comes last.  Scores must not
    be NaN.
    """
    k = score.shape[0]
    neg_inf = -np.inf
    s = np.array(score, dtype=np.float64)
    s.flat[::k + 1] = neg_inf
    s[:, 0] = neg_inf
    heads = s.argmax(axis=0).tolist()          # heads[0] = 0: column 0 is -inf
    col = s.T.tolist()
    active = list(range(k))                    # ascending; node 0 first
    rooted = [False] * k
    levels = []                                # (new node, cycle, out) per contraction
    while (cyc := _find_cycle(heads, active[1:], rooted)) is not None:
        c = len(col)
        in_cycle = set(cyc)
        active = [v for v in active if v not in in_cycle]
        # the new node's row: per column, the best arc out of the cycle
        out = {}
        first, later = cyc[0], cyc[1:]
        for m in active[1:]:
            cm = col[m]
            best, arg = cm[first], first
            for h in later:
                if cm[h] > best:
                    best, arg = cm[h], h
            out[m] = arg
            for h in cyc:
                cm[h] = neg_inf
            cm.append(best)
            if heads[m] in in_cycle:
                heads[m] = cm.index(max(cm))
        # the new node's column: per head, the best arc into the cycle,
        # scored against the cycle arc it replaces; only the root and the
        # active nodes can head it, every other row reads -inf
        into = [neg_inf] * (c + 1)
        for v in cyc:
            cv = col[v]
            w = cv[heads[v]]
            for h in active:
                x = cv[h] - w
                if x > into[h]:
                    into[h] = x
        col.append(into)
        heads.append(into.index(max(into)))
        active.append(c)
        rooted.append(False)
        levels.append((c, cyc, out))
    # expand: the level's nodes headed by a contracted node take their
    # arc's cycle end, and the cycle node that the contracted node's arc
    # enters (the best swap, the first among ties) takes its head; the
    # other cycle nodes keep their cycle heads, and so the scores of the
    # arcs they replace
    for c, cyc, out in reversed(levels):
        for m, arg in out.items():
            if heads[m] == c:
                heads[m] = arg
        h = heads[c]
        heads[max(cyc, key=lambda v: col[v][h] - col[v][heads[v]])] = h
    return heads[:k]


def cle_directed_mst(s_d: np.ndarray) -> DependencyTree:
    """Maximum-weight arborescence rooted at vertex 0 (iterative
    cycle-contracting Chu-Liu-Edmonds) over the (n+1)x(n+1) score matrix
    ``s_d[head, mod]`` of ``directed_score_table``; -inf marks an absent
    arc."""
    return DependencyTree(heads=tuple(_cle_heads(s_d)[1:]))


def parse(sentence: Sentence, model: Model, config: ParserConfig,
          directed_model: Model | None = None,
          pruner: Pruner | None = None,
          sentence_index: int = 0,
          features: SentenceFeatures | None = None) -> DependencyTree:
    """Parse one sentence with the configured system.

    d-mst ignores the pruner (it runs on the complete directed graph); the
    others need one exactly when ``config.pruning`` is "length-dictionary",
    and take the randomized spanning forest, seeded per sentence.
    u-mst-uf-lep additionally needs the separately trained directed-mode
    model (checked before any scoring) for its rewiring pass, whose
    ``LazyArcScores`` scores only the four arcs of each candidate swap,
    one whose two new arcs the pruner's mask allows, so a pruned sentence
    with no candidate swap is never featurized in directed mode; d-mst
    and u-mst-df read one ``directed_score_table`` call (its ``table()``
    without ``features``).
    ``features`` is the sentence's featurization in the model's mode,
    when the caller already has it, pruned by the pruner's mask
    (training featurizes each sentence once).
    """
    config.validate()
    system = config.system
    mode = feature_mode(system)
    if model.mode != mode:
        article = "an" if mode == "undirected" else "a"
        raise InputError(f"{system} needs {article} {mode}-mode model")
    if system == "u-mst-uf-lep" and (directed_model is None
                                     or directed_model.mode != "directed"):
        raise InputError("u-mst-uf-lep needs the directed (d-mst) model "
                         "for its enhancement scores")
    if system == "d-mst":
        return cle_directed_mst(directed_score_table(sentence, model, None, features))
    if config.pruned != (pruner is not None):
        raise InputError("pruning 'length-dictionary' needs a pruner" if config.pruned
                         else "a pruner needs pruning 'length-dictionary'")
    # one mask for every stage that reads it: the graph (unless the cache
    # already holds the pruned arcs) and the rewiring
    allowed = None
    if pruner is not None and (features is None or system == "u-mst-uf-lep"):
        allowed = pruner.mask(sentence)
    pg, _ = build_parse_graph(sentence, model, allowed, features)
    forest = randomized_msf(pg.graph, RandomSource(config.seed, sentence_index))
    tree = direct_tree(pg.graph, forest)
    if system == "u-mst-uf-lep":
        scores = LazyArcScores(sentence, directed_model, allowed)
        tree = local_enhancement(tree, scores, config.enhancement_rounds)
    return tree
