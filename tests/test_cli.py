import json
import pathlib

import pytest

from umstparse.cli import main
from umstparse.conll import load_conll

DATA = pathlib.Path(__file__).parent / "data"
FIXTURE_TRAIN = pathlib.Path(__file__).parent.parent / "data" / "fixture_train.conll"
FIXTURE_DEV = pathlib.Path(__file__).parent.parent / "data" / "fixture_dev.conll"


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    """Small train/dev slices of the bundled treebank, as files."""
    base = tmp_path_factory.mktemp("mini")
    train = load_conll(FIXTURE_TRAIN)[:40]
    dev = load_conll(FIXTURE_DEV)[:10]
    from umstparse.conll import save_conll
    train_path = base / "train.conll"
    dev_path = base / "dev.conll"
    save_conll(train_path, train)
    save_conll(dev_path, dev)
    return train_path, dev_path


def run(*argv):
    return main([str(a) for a in argv])


TRAIN_FLAGS = ["--epochs", "3", "--seed", "11", "--hash-bits", "16"]


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = run("train", "--train", tmp_path / "nope.conll",
             "--model-out", tmp_path / "m")
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_bad_usage_exits_1(capsys):
    assert run("parse", "--model") == 1
    assert run("frobnicate") == 1


def test_train_is_deterministic(mini_corpus, tmp_path):
    train_path, _ = mini_corpus
    out_a, out_b = tmp_path / "a.model", tmp_path / "b.model"
    assert run("train", "--train", train_path, "--model-out", out_a,
               "--system", "u-mst-uf", *TRAIN_FLAGS) == 0
    assert run("train", "--train", train_path, "--model-out", out_b,
               "--system", "u-mst-uf", *TRAIN_FLAGS) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.model.trainlog.csv").read_text().startswith("epoch,train_uas")


def test_lep_parse_without_directed_model_exits_1(mini_corpus, tmp_path, capsys):
    train_path, dev_path = mini_corpus
    model = tmp_path / "uf.model"
    assert run("train", "--train", train_path, "--model-out", model,
               "--system", "u-mst-uf", *TRAIN_FLAGS) == 0
    rc = run("parse", "--model", model, "--input", dev_path,
             "--output", tmp_path / "out.conll", "--system", "u-mst-uf-lep")
    assert rc == 1
    assert "d-mst" in capsys.readouterr().err


def test_parse_output_rereads_and_is_deterministic(mini_corpus, tmp_path):
    train_path, dev_path = mini_corpus
    model = tmp_path / "uf.model"
    run("train", "--train", train_path, "--model-out", model,
        "--system", "u-mst-uf", *TRAIN_FLAGS)
    out_a, out_b = tmp_path / "p1.conll", tmp_path / "p2.conll"
    assert run("parse", "--model", model, "--input", dev_path,
               "--output", out_a, "--seed", "11") == 0
    assert run("parse", "--model", model, "--input", dev_path,
               "--output", out_b, "--seed", "11") == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    parsed = load_conll(out_a)
    gold = load_conll(dev_path)
    assert len(parsed) == len(gold)
    assert all(len(p) == len(g) for p, g in zip(parsed, gold))


def test_threads_do_not_change_output(mini_corpus, tmp_path):
    train_path, dev_path = mini_corpus
    model = tmp_path / "uf.model"
    run("train", "--train", train_path, "--model-out", model,
        "--system", "u-mst-uf", *TRAIN_FLAGS)
    out_1, out_4 = tmp_path / "t1.conll", tmp_path / "t4.conll"
    run("parse", "--model", model, "--input", dev_path, "--output", out_1,
        "--seed", "11", "--threads", "1")
    run("parse", "--model", model, "--input", dev_path, "--output", out_4,
        "--seed", "11", "--threads", "4")
    assert out_1.read_bytes() == out_4.read_bytes()


def test_end_to_end_golden_predictions(mini_corpus, tmp_path):
    train_path, dev_path = mini_corpus
    model = tmp_path / "uf.model"
    run("train", "--train", train_path, "--model-out", model,
        "--system", "u-mst-uf", *TRAIN_FLAGS)
    out = tmp_path / "pred.conll"
    assert run("parse", "--model", model, "--input", dev_path,
               "--output", out, "--seed", "11") == 0
    golden = (DATA / "golden_pred.conll").read_bytes()
    assert out.read_bytes() == golden


def test_eval_reports_and_csv(mini_corpus, tmp_path, capsys):
    train_path, dev_path = mini_corpus
    model = tmp_path / "uf.model"
    run("train", "--train", train_path, "--model-out", model,
        "--system", "u-mst-uf", *TRAIN_FLAGS)
    pred = tmp_path / "pred.conll"
    run("parse", "--model", model, "--input", dev_path, "--output", pred,
        "--seed", "11")
    capsys.readouterr()
    csv_path = tmp_path / "report.csv"
    assert run("eval", "--gold", dev_path, "--pred", pred,
               "--pred-b", dev_path, "--csv", csv_path) == 0
    text = capsys.readouterr().out
    assert "D-UAS" in text
    assert "head-to-head" in text
    assert "oracle" in text
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "metric,value"
    assert any(r.startswith("oracle_d_uas,") for r in rows)
    # the gold file evaluated against itself is perfect
    assert any(r == "b_d_uas,100.000000" for r in rows)


def test_eval_respects_punct_flag(mini_corpus, tmp_path, capsys):
    _, dev_path = mini_corpus
    assert run("eval", "--gold", dev_path, "--pred", dev_path) == 0
    default_out = capsys.readouterr().out
    assert run("eval", "--gold", dev_path, "--pred", dev_path,
               "--no-punct-filter") == 0
    nofilter_out = capsys.readouterr().out
    scored = [int(line.split()[1]) for line in default_out.splitlines()
              if line.startswith("scored_tokens")]
    scored_all = [int(line.split()[1]) for line in nofilter_out.splitlines()
                  if line.startswith("scored_tokens")]
    assert scored_all[0] > scored[0]


def test_config_file_with_flag_override(mini_corpus, tmp_path):
    train_path, _ = mini_corpus
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"system": "d-mst", "epochs": 2,
                                  "seed": 11, "hash_bits": 16}))
    out = tmp_path / "m.model"
    assert run("train", "--train", train_path, "--model-out", out,
               "--config", config, "--epochs", "1") == 0
    from umstparse.features import load_model
    model = load_model(out)
    assert model.mode == "directed"  # system came from the config file
    log = (tmp_path / "m.model.trainlog.csv").read_text().splitlines()
    assert len(log) == 2  # header + 1 epoch: the flag overrode the config


def test_unknown_config_key_exits_2(mini_corpus, tmp_path):
    train_path, _ = mini_corpus
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sustem": "d-mst"}))
    assert run("train", "--train", train_path, "--model-out", tmp_path / "m",
               "--config", config) == 2


@pytest.mark.parametrize("body, named", [
    ({"seed": "abc"}, "'seed'"),
    ({"epochs": "2"}, "'epochs'"),
    ({"epochs": 2.0}, "'epochs'"),
    ({"hash_bits": True}, "'hash_bits'"),
    ({"shuffle": 1}, "'shuffle'"),
    ({"system": 3}, "'system'"),
    ({"enhancement_rounds": None}, "'enhancement_rounds'"),
    ({"threads": False}, "'threads'"),
    ([{"seed": 1}], "JSON object"),
])
def test_config_value_of_wrong_type_exits_2(mini_corpus, tmp_path, capsys,
                                            body, named):
    train_path, _ = mini_corpus
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))
    assert run("train", "--train", train_path, "--model-out", tmp_path / "m",
               "--config", config) == 2
    assert named in capsys.readouterr().err


def test_misspelled_pruning_exits_2(mini_corpus, tmp_path, capsys):
    train_path, _ = mini_corpus
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pruning": "lenght-dictionary", "epochs": 1}))
    assert run("train", "--train", train_path, "--model-out", tmp_path / "m",
               "--config", config) == 2
    assert "lenght-dictionary" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("bad", ["train", "model", "config"])
def test_non_utf8_input_exits_2(mini_corpus, tmp_path, capsys, bad):
    train_path, dev_path = mini_corpus
    model = tmp_path / "m.model"
    assert run("train", "--train", train_path, "--model-out", model,
               *TRAIN_FLAGS) == 0
    garbage = tmp_path / "garbage"
    garbage.write_bytes(b"\xff\xfe1\tx\n")
    args = {"train": ("train", "--train", garbage, "--model-out", tmp_path / "n"),
            "model": ("parse", "--model", garbage, "--input", dev_path,
                      "--output", tmp_path / "out.conll"),
            "config": ("parse", "--model", model, "--input", dev_path,
                       "--output", tmp_path / "out.conll", "--config", garbage)}
    capsys.readouterr()
    assert run(*args[bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "UTF-8" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bits", ["-3", "0", "31"])
def test_hash_bits_outside_range_exits_2(mini_corpus, tmp_path, capsys, bits):
    train_path, _ = mini_corpus
    assert run("train", "--train", train_path, "--model-out", tmp_path / "m",
               "--epochs", "1", "--hash-bits", bits) == 2
    assert "hash_bits" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "hash_bits 60\nmode undirected\ncombiner mean\nnnz 0\n",
    "hash_bits 4\nmode undirected\ncombiner mean\nnnz 1\n16 0x1.0p+0\n",
])
def test_model_outside_its_hash_range_exits_2(mini_corpus, tmp_path, capsys, body):
    _, dev_path = mini_corpus
    model = tmp_path / "bad.model"
    model.write_text("umstparse-model 1\n" + body)
    assert run("parse", "--model", model, "--input", dev_path,
               "--output", tmp_path / "out.conll") == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "hash_bits4\nmode undirected\ncombiner mean\nnnz 0\n",
    "hash_bits 4\nmode undirected\ncombiner mean\nnnz 1\n3 nan\n",
    "hash_bits 4\nmode undirected\ncombiner mean\nnnz 1\n3 inf\n",
    "hash_bits 4\nmode undirected\ncombiner mean\nnnz 1\n3 -inf\n",
    "hash_bits 4\nmode undirected\ncombiner mean\nnnz 5\n3 0x1.0p+0\n",
    "hash_bits 4\nmode undirected\ncombiner mean\nnnz 0\n3 0x1.0p+0\n",
], ids=["header-without-space", "nan-weight", "inf-weight", "minus-inf-weight",
        "fewer-weights-than-nnz", "more-weights-than-nnz"])
def test_malformed_model_exits_2(mini_corpus, tmp_path, capsys, body):
    """Rejected when the model is loaded, not later by the parser."""
    _, dev_path = mini_corpus
    model = tmp_path / "bad.model"
    model.write_text("umstparse-model 1\n" + body)
    assert run("parse", "--model", model, "--input", dev_path,
               "--output", tmp_path / "out.conll") == 2
    assert f"data error: {model}:" in capsys.readouterr().err


def test_bench_tiny(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--sizes", "200", "--densities", "4",
               "--seeds", "1,2", "--out", out) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "algorithm,n,m,seed,wall_time_ns,total_weight"
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == 6  # 3 algorithms x 2 seeds
    for seed in ("1", "2"):
        weights = {r[5] for r in body if r[3] == seed}
        assert len(weights) == 1  # same forest weight per graph


def test_bench_from_graph_dump(tmp_path):
    import numpy as np
    from umstparse.graph import UndirectedGraph, dump_graph
    from oracles import random_graph
    u, v, w = random_graph(np.random.default_rng(3), 30, 80)
    g = UndirectedGraph(30, u, v, w, np.arange(len(u)))
    dump_path = tmp_path / "g.txt"
    with open(dump_path, "w") as fh:
        dump_graph(g, fh)
    out = tmp_path / "bench.csv"
    assert run("bench", "--graph-file", dump_path, "--seeds", "5",
               "--out", out) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert {r[0] for r in rows} == {"kruskal", "boruvka", "randomized"}
    assert all(r[1] == "30" and r[2] == "80" for r in rows)
    assert len({r[5] for r in rows}) == 1


def test_bench_requires_sizes_or_graph_file(capsys):
    assert run("bench", "--seeds", "1") == 1


def test_prune_stats_on_own_training_set(mini_corpus, tmp_path, capsys):
    train_path, dev_path = mini_corpus
    csv_path = tmp_path / "stats.csv"
    assert run("prune-stats", "--train", train_path, "--dev", train_path,
               "--csv", csv_path) == 0
    out = capsys.readouterr().out
    fields = dict(line.split() for line in out.splitlines())
    assert fields["gold_edges_kept_pct"] == "100.00"
    assert float(fields["undirected_edges_kept_pct"]) < 100.0
    assert csv_path.read_text().startswith("metric,value")
    capsys.readouterr()
    assert run("prune-stats", "--train", train_path, "--dev", dev_path) == 0
    dev_fields = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert 50.0 <= float(dev_fields["gold_edges_kept_pct"]) <= 100.0
