import io

import pytest

from umstparse.bench import run_bench, run_bench_graph
from umstparse.errors import InputError
from umstparse.graph import UndirectedGraph

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
