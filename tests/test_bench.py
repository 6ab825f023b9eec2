import io

import pytest

from umstparse.bench import run_bench, run_bench_graph
from umstparse.errors import InputError
from umstparse.graph import UndirectedGraph
from umstparse.mst import _BASE_EDGES, SpanningForest

TRIANGLE = UndirectedGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75)])


@pytest.mark.parametrize("bench", [
    lambda algorithms, stream: run_bench([100], [4], [1], algorithms, stream),
    lambda algorithms, stream: run_bench_graph(TRIANGLE, [1], algorithms, stream),
], ids=["run_bench", "run_bench_graph"])
def test_unknown_algorithm_rejected_before_any_output(bench):
    stream = io.StringIO()
    with pytest.raises(InputError, match="'prim'"):
        bench(["kruskal", "prim"], stream)
    assert stream.getvalue() == ""


def test_each_algorithm_warms_up_once_before_the_first_row(monkeypatch):
    stream = io.StringIO()
    calls = []

    def stub(name):
        def engine(graph, seed):
            calls.append((name, graph.n_edges, stream.getvalue()))
            return SpanningForest(frozenset(), 0.0)
        return engine

    monkeypatch.setattr("umstparse.bench.ALGORITHMS",
                        {name: stub(name) for name in ("kruskal", "randomized")})
    run_bench_graph(TRIANGLE, [1, 2], ["randomized", "kruskal"], stream)
    # one untimed call per algorithm on a graph above the Kruskal base
    # case, before the header; then one call per algorithm and seed
    assert [(name, m > _BASE_EDGES, written == "")
            for name, m, written in calls] == [
        ("randomized", True, True), ("kruskal", True, True),
        ("randomized", False, False), ("kruskal", False, False),
        ("randomized", False, False), ("kruskal", False, False)]
    assert len(stream.getvalue().splitlines()) == 1 + 4
