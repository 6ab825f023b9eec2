"""Spans and counters for the traced benchmark run.

The tracer records from the benchmark's own files: while it is entered it
replaces the names each umstparse module looks up at call time (module
globals such as ``umstparse.inference.SentenceFeatures``, plus two methods)
with wrappers that record a span per call, and it puts every original back
on exit.  No source file of the parser changes, and an untraced run never
executes a wrapper.

A span is ``(name, context, start_ns, end_ns, parent, op)``: ``context`` is
the label the workload sets (``tracer.context``: the system at parse time,
``train.<system>`` in training), ``parent`` the index of the enclosing span
and ``op`` the index of the outermost span, which identifies the operation
(one parse or one training).  Counters are keyed by context too.
"""

from __future__ import annotations

import time
from collections import Counter

from umstparse import conll, features, graph, inference, mst, training, unionfind
from umstparse.conll import is_valid_tree


def _featurize_name(args, kwargs):
    mode = kwargs["mode"] if "mode" in kwargs else args[1]
    return f"features.featurize.{mode}"


def _after_featurize(tracer, record, cache, args):
    key = (cache.mode, record[1])
    tracer.counts[("features.pairs", *key)] += len(cache.pairs)
    # _flat is private to SentenceFeatures: one hashed slot per entry
    tracer.counts[("features.hashed", *key)] += len(cache._flat)


def _after_parse_graph(tracer, record, result, args):
    n = len(args[0])
    ctx = record[1]
    tracer.counts[("inference.graph_edges", ctx)] += result[0].graph.n_edges
    tracer.counts[("inference.graph_pairs", ctx)] += n * (n + 1) // 2


def _after_lep(tracer, record, result, args):
    before = args[0].heads
    tracer.counts[("inference.lep_heads_changed", None)] += sum(
        1 for a, b in zip(before, result.heads) if a != b)


def _after_msf(tracer, record, result, args):
    """Count edges and keep the graph and forest for checking against
    Kruskal's after the traced pass."""
    tracer.counts[("mst.edges", record[1])] += args[0].n_edges
    tracer.forests.append((args[0], result))


def _after_predict(tracer, record, tree, args):
    """Validate each training prediction and count perceptron updates.

    An update happens exactly when the predicted structure differs from the
    gold one: head vectors for directed systems, unordered edge sets for
    undirected ones.
    """
    sentence, config = args[0], args[2]
    ctx = record[1]
    tracer.counts[("training.predictions", ctx)] += 1
    if len(tree.heads) != len(sentence) or not is_valid_tree(tree.heads):
        tracer.invalid_predictions += 1
    if training.feature_mode(config.system) == "directed":
        differs = tuple(tree.heads) != tuple(sentence.gold_heads)
    else:
        def pairs(heads):
            return {(min(h, m), max(h, m)) for m, h in enumerate(heads, 1)}
        differs = pairs(tree.heads) != pairs(sentence.gold_heads)
    if differs:
        tracer.counts[("training.updates", ctx)] += 1


# (owner, attribute, span name or name function, after-hook).  The
# workloads use the randomized MSF backend only, so Boruvka's and Kruskal's
# engines are not wrapped; Kruskal's checks the forests after tracing.
TARGETS = (
    (conll, "read_conll", "conll.read", None),
    (conll, "write_conll", "conll.write", None),
    (inference, "parse", "inference.parse", None),
    (inference, "SentenceFeatures", _featurize_name, _after_featurize),
    (inference, "directed_score_table", "inference.directed_score_table", None),
    (inference, "build_parse_graph", "inference.build_parse_graph", _after_parse_graph),
    (inference, "direct_tree", "inference.direct_tree", None),
    (inference, "local_enhancement", "inference.lep", _after_lep),
    (inference, "cle_directed_mst", "inference.cle", None),
    (inference, "randomized_msf", "mst.randomized_msf", _after_msf),
    (training, "train_full", "training.train_full", None),
    (training, "_predict", "training.predict", _after_predict),
    (training, "SentenceFeatures", _featurize_name, _after_featurize),
    (training, "directed_score_table", "inference.directed_score_table", None),
    (training, "build_parse_graph", "inference.build_parse_graph", _after_parse_graph),
    (training, "direct_tree", "inference.direct_tree", None),
    (training, "cle_directed_mst", "inference.cle", None),
    (features.SentenceFeatures, "score_all", "features.score_all", None),
    (mst, "randomized_msf", "mst.randomized_msf", _after_msf),
    (mst, "boruvka_step", "graph.boruvka_step", None),
    (mst, "connected_components", "graph.connected_components", None),
    (mst, "simplify", "graph.simplify", None),
    (graph, "connected_components", "graph.connected_components", None),
    (graph, "simplify", "graph.simplify", None),
)


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.context = None          # label set by the workload
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.forests: list[tuple] = []
        self.invalid_predictions = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, name, after in TARGETS:
            self._install(owner, attr, self._wrap(getattr(owner, attr), name, after))
        self._install(unionfind.UnionFind, "union",
                      self._counting(unionfind.UnionFind.union))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _install(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, original, name, after):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_name = name if isinstance(name, str) else name(args, kwargs)
            index = len(tracer.spans)
            parent = stack[-1] if stack else -1
            op = stack[0] if stack else index
            record = [span_name, tracer.context, 0, 0, parent, op]
            tracer.spans.append(record)
            stack.append(index)
            record[2] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                record[3] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(tracer, record, result, args)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _counting(self, original):
        tracer = self
        counts = self.counts

        def union(uf, a, b):
            counts[("unionfind.union", tracer.context)] += 1
            return original(uf, a, b)

        union.__wrapped__ = original
        return union

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tcontext\tstart_ns\tend_ns\tparent\top\n")
            for rec in self.spans:
                fh.write("\t".join(str(x) for x in rec) + "\n")


class SpanStats:
    """Per-(name, context) call counts, total and self time in ns."""

    def __init__(self, spans):
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[4] >= 0:
                child_ns[rec[4]] += rec[3] - rec[2]
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        for rec, inner in zip(spans, child_ns):
            key = (rec[0], rec[1])
            dur = rec[3] - rec[2]
            self.calls[key] += 1
            self.total_ns[key] += dur
            self.self_ns[key] += dur - inner

    def _sum(self, table, name, context=None):
        """Sum over the spans of ``name`` in ``context``: one label, a
        tuple of labels, or None for every context."""
        if isinstance(context, str):
            context = (context,)
        return sum(v for (n, c), v in table.items()
                   if n == name and (context is None or c in context))

    def calls_of(self, name, context=None) -> int:
        return self._sum(self.calls, name, context)

    def total_ms(self, name, context=None) -> float:
        return self._sum(self.total_ns, name, context) / 1e6

    def self_ms(self, name, context=None) -> float:
        return self._sum(self.self_ns, name, context) / 1e6
