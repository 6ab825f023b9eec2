import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from umstparse import cli
from umstparse.cli import main
from umstparse.conll import load_conll

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parent.parent / "src"
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


def test_config_keys_are_the_settings_fields():
    """A config file accepts exactly the fields of TrainConfig and
    ParserConfig, each as the type of its default, and threads: the keys
    and types it accepted when they were listed by hand."""
    from dataclasses import fields

    from umstparse.inference import ParserConfig
    from umstparse.training import TrainConfig
    settings = {f.name: type(f.default) for cls in (TrainConfig, ParserConfig)
                for f in fields(cls)}
    assert cli.CONFIG_TYPES == {**settings, "threads": int}
    assert cli.CONFIG_TYPES == {"system": str, "combiner": str, "enhancement_rounds": int,
                                "seed": int, "pruning": str, "epochs": int,
                                "shuffle": bool, "hash_bits": int, "threads": int}


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
    "hash_bits 4\nmode undirected\ncombiner mean\nnnz 1\n3 0x1.0p+99999\n",
], ids=["header-without-space", "nan-weight", "inf-weight", "minus-inf-weight",
        "fewer-weights-than-nnz", "more-weights-than-nnz", "weight-overflowing-a-float"])
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


def test_reader_closing_the_pipe_is_no_error():
    """``bench ... | head -1``: the reader closes stdout after the first
    line while rows are still coming, and the run exits 0 quietly."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    seeds = ",".join(str(seed) for seed in range(21))
    proc = subprocess.Popen(
        [sys.executable, "-m", "umstparse.cli", "bench", "--sizes", "2000",
         "--densities", "2", "--seeds", seeds],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 0
    assert first == b"algorithm,n,m,seed,wall_time_ns,total_weight\n"
    assert err == b""


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


def test_train_all_trains_u_mst_uf_once(mini_corpus, tmp_path, monkeypatch):
    """u-mst-uf-lep trains as u-mst-uf, so `--system all` trains three
    models and writes the u-mst-uf model and log under both names."""
    import umstparse.cli as cli
    train_path, _ = mini_corpus
    trained = []
    real = cli.train_full

    def counting(corpus, config, *args, **kwargs):
        trained.append(config.system)
        return real(corpus, config, *args, **kwargs)

    monkeypatch.setattr(cli, "train_full", counting)
    out = tmp_path / "models"
    assert run("train", "--train", train_path, "--model-out", out,
               "--system", "all", "--epochs", "1", "--hash-bits", "12") == 0
    assert trained == ["d-mst", "u-mst-uf", "u-mst-df"]
    for suffix in (".model", ".model.trainlog.csv"):
        assert ((out / f"u-mst-uf-lep{suffix}").read_bytes()
                == (out / f"u-mst-uf{suffix}").read_bytes())


@pytest.fixture(scope="module")
def removed_surface_files(mini_corpus, tmp_path_factory):
    train_path, dev_path = mini_corpus
    base = tmp_path_factory.mktemp("surface")
    model = base / "uf.model"
    assert run("train", "--train", train_path, "--model-out", model,
               "--epochs", "1", "--hash-bits", "12") == 0
    configs = {"empty": {}, "backend": {"mst_backend": "boruvka"},
               "max": {"combiner": "max"}}
    for name, body in configs.items():
        (base / f"{name}.json").write_text(json.dumps(body))
    return {"train": train_path, "dev": dev_path, "model": model,
            **{name: base / f"{name}.json" for name in configs}}


TRAIN_CMD = ("train", "--train", "{train}", "--model-out", "{out}",
             "--epochs", "1", "--hash-bits", "12")
PARSE_CMD = ("parse", "--model", "{model}", "--input", "{dev}", "--output", "{out}")
COMMANDS_WITHOUT_RUN_FLAGS = {
    "eval": ("eval", "--gold", "{dev}", "--pred", "{dev}"),
    "bench": ("bench", "--sizes", "200", "--seeds", "1",
              "--algorithms", "kruskal", "--out", "{out}"),
    "prune-stats": ("prune-stats", "--train", "{train}", "--dev", "{dev}"),
}
REMOVED_SURFACE = {
    "train --mst-backend": (TRAIN_CMD + ("--mst-backend", "boruvka"), 1, "--mst-backend"),
    "parse --mst-backend": (PARSE_CMD + ("--mst-backend", "boruvka"), 1, "--mst-backend"),
    **{f"{name} {flag}": (cmd + (flag, value), 1, flag)
       for name, cmd in COMMANDS_WITHOUT_RUN_FLAGS.items()
       for flag, value in (("--seed", "3"), ("--system", "d-mst"),
                           ("--config", "{empty}"))},
    "train config mst_backend": (TRAIN_CMD + ("--config", "{backend}"), 2, "mst_backend"),
    "parse config mst_backend": (PARSE_CMD + ("--config", "{backend}"), 2, "mst_backend"),
    "parse config combiner": (PARSE_CMD + ("--config", "{max}"), 2, "'max'"),
}


@pytest.mark.parametrize("argv, code, named", REMOVED_SURFACE.values(),
                         ids=REMOVED_SURFACE.keys())
def test_removed_settings_are_rejected(removed_surface_files, tmp_path, capsys,
                                       argv, code, named):
    """Settings that changed no result are gone: their flags are usage
    errors (exit 1) and their config keys data errors (exit 2)."""
    capsys.readouterr()
    assert run(*[a.format(**removed_surface_files, out=tmp_path / "out")
                 for a in argv]) == code
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def two_models(mini_corpus, tmp_path_factory):
    train_path, dev_path = mini_corpus
    base = tmp_path_factory.mktemp("flags")
    models = {}
    for system in ("u-mst-uf", "d-mst"):
        models[system] = base / f"{system}.model"
        assert run("train", "--train", train_path, "--model-out", models[system],
                   "--system", system, "--epochs", "1", "--hash-bits", "12") == 0
    config = base / "prune.json"
    config.write_text(json.dumps({"pruning": "length-dictionary"}))
    return {"train": train_path, "dev": dev_path, "uf": models["u-mst-uf"],
            "d": models["d-mst"], "prune_config": config}


UF_PARSE = ("parse", "--model", "{uf}", "--input", "{dev}", "--output", "{out}")
D_PARSE = ("parse", "--model", "{d}", "--input", "{dev}", "--output", "{out}")
PRUNE = ("--pruning", "length-dictionary", "--prune-train", "{train}")
LEP = ("--system", "u-mst-uf-lep", "--directed-model", "{d}")
UNREAD_FLAGS = {
    "d-mst --pruning length-dictionary": (D_PARSE + PRUNE, "--pruning length-dictionary"),
    "d-mst --pruning length-dictionary alone": (
        D_PARSE + ("--pruning", "length-dictionary"), "--pruning length-dictionary"),
    "d-mst --prune-train": (D_PARSE + ("--prune-train", "{train}"), "--prune-train"),
    "u-mst-uf --prune-train without pruning": (
        UF_PARSE + ("--prune-train", "{train}"), "--prune-train"),
    "u-mst-uf --combiner": (UF_PARSE + ("--combiner", "product"), "--combiner"),
    "u-mst-uf-lep --combiner": (UF_PARSE + LEP + ("--combiner", "mean"), "--combiner"),
    "d-mst --combiner": (D_PARSE + ("--combiner", "product"), "--combiner"),
    "u-mst-uf --enhancement-rounds": (
        UF_PARSE + ("--enhancement-rounds", "3"), "--enhancement-rounds"),
    "d-mst --enhancement-rounds": (
        D_PARSE + ("--enhancement-rounds", "3"), "--enhancement-rounds"),
    "u-mst-uf --directed-model": (UF_PARSE + ("--directed-model", "{d}"),
                                  "--directed-model"),
    "u-mst-df --directed-model": (
        D_PARSE + ("--system", "u-mst-df", "--directed-model", "{d}"),
        "--directed-model"),
}
READ_FLAGS = {
    "u-mst-df --combiner": D_PARSE + ("--system", "u-mst-df", "--combiner", "product"),
    "u-mst-uf-lep --enhancement-rounds": UF_PARSE + LEP + ("--enhancement-rounds", "2"),
    "u-mst-uf --pruning length-dictionary": UF_PARSE + PRUNE,
    "d-mst --pruning none": D_PARSE + ("--pruning", "none"),
    "d-mst config pruning": D_PARSE + ("--config", "{prune_config}"),
    "--threads": UF_PARSE + ("--threads", "2"),
}


@pytest.mark.parametrize("argv, named", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS.keys())
def test_parse_rejects_flags_the_system_ignores(two_models, tmp_path, capsys,
                                                argv, named):
    """A parse flag the chosen system would not read is a usage error
    (exit 1) before any input is read."""
    capsys.readouterr()
    assert run(*[a.format(**two_models, out=tmp_path / "out") for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", READ_FLAGS.values(), ids=READ_FLAGS.keys())
def test_parse_accepts_flags_the_system_reads(two_models, tmp_path, argv):
    """Config-file keys are not command-line flags: d-mst ignores a
    config's pruning without asking for --prune-train."""
    assert run(*[a.format(**two_models, out=tmp_path / "out") for a in argv]) == 0
    assert (tmp_path / "out").exists()


GOOD_SENTENCE = ("1\tthe\t_\tD\tD\t_\t2\tdet\n"
                 "2\tdog\t_\tN\tN\t_\t3\tsubj\n"
                 "3\truns\t_\tV\tV\t_\t0\troot\n")


def _second_sentence_with_heads(heads):
    rows = [f"{i}\t{w}\t_\t{t}\t{t}\t_\t{h}\tdep" for i, (w, t, h)
            in enumerate(zip(("a", "cat", "sleeps"), "DNV", heads), start=1)]
    return GOOD_SENTENCE + "\n" + "\n".join(rows) + "\n"


@pytest.fixture(scope="module")
def bad_input_files(removed_surface_files, two_models, tmp_path_factory):
    base = tmp_path_factory.mktemp("bad")
    bodies = {
        "self_loop": _second_sentence_with_heads((2, 2, 0)),
        "head_past_end": _second_sentence_with_heads((2, 9, 0)),
        "negative_head": _second_sentence_with_heads((2, -1, 0)),
        "seed_config": json.dumps({"seed": -1}),
        "weight_graph": "0 1 0.5 0\n1 2 heavy 1\n",
        "vertex_graph": "zero 1 0.5 0\n",
        "repeated_id_graph": "0 1 0.5 0\n1 2 0.25 1\n0 2 0.75 0\n",
        "nan_graph": "0 1 nan 0\n1 2 0.5 1\n",
        "inf_graph": "0 1 0.5 0\n1 2 inf 1\n",
        "negative_vertex_graph": "0 1 0.5 0\n-1 2 0.25 1\n",
        "skipped_id": "1\ta\t_\tD\tD\t_\t0\troot\n3\tb\t_\tN\tN\t_\t1\tdep\n\n",
        "comment_inside": GOOD_SENTENCE + "\n# ok\n" + GOOD_SENTENCE.replace(
            "2\tdog", "# misplaced\n2\tdog"),
        "blank_lines": "\n\n\n",
        "not_json": '{"epochs": ',
        "empty": "",
    }
    files = {**removed_surface_files, "d_model": two_models["d"]}
    for name, body in bodies.items():
        files[name] = base / name
        files[name].write_text(body)
    return files


BAD_INPUTS = {
    # a negative seed is a data error naming the seed, from flag or config
    "train --seed -1": (TRAIN_CMD + ("--seed", "-1"), 2, "seed"),
    "parse --seed -1": (PARSE_CMD + ("--seed", "-1"), 2, "seed"),
    "train config seed -1": (TRAIN_CMD + ("--config", "{seed_config}"), 2, "seed"),
    "parse config seed -1": (PARSE_CMD + ("--config", "{seed_config}"), 2, "seed"),
    # bench arguments out of range are usage errors
    "bench --sizes -5": (("bench", "--sizes", "-5"), 1, "--sizes"),
    "bench --densities 0": (("bench", "--sizes", "100", "--densities", "0"), 1,
                            "--densities"),
    "bench --seeds -1": (("bench", "--sizes", "100", "--seeds", "-1"), 1, "--seeds"),
    "bench --graph-file --seeds -1": (
        ("bench", "--graph-file", "{weight_graph}", "--seeds", "-1"), 1, "--seeds"),
    # a graph file with a non-numeric field is a data error naming the line
    "bench non-numeric weight": (("bench", "--graph-file", "{weight_graph}"), 2,
                                 "line 2"),
    "bench non-numeric vertex": (("bench", "--graph-file", "{vertex_graph}"), 2,
                                 "line 1"),
    # ... and it is read before --out is opened, so no empty CSV is left
    "bench non-numeric weight --out": (
        ("bench", "--graph-file", "{weight_graph}", "--out", "{out}"), 2, "line 2"),
    "bench non-numeric vertex --out": (
        ("bench", "--graph-file", "{vertex_graph}", "--out", "{out}"), 2, "line 1"),
    # edge ids break weight ties, so a graph file may not repeat one
    "bench repeated original_id": (
        ("bench", "--graph-file", "{repeated_id_graph}", "--out", "{out}"), 2,
        "line 3"),
    # comments are carried only before a sentence's first token line
    "parse comment_inside": (PARSE_CMD[:4] + ("{comment_inside}",) + PARSE_CMD[5:],
                             2, "line 7"),
    # training needs gold heads that form a tree
    **{f"train {' '.join(flags)} {name}": (
        TRAIN_CMD[:2] + (f"{{{name}}}",) + TRAIN_CMD[3:] + flags, 2,
        "training sentence 2")
       for name in ("self_loop", "head_past_end", "negative_head")
       for flags in (("--system", "d-mst"), ("--system", "u-mst-uf"),
                     ("--system", "u-mst-uf", "--pruning", "length-dictionary"))},
    # prune-stats needs gold heads in range on both sides
    "prune-stats dev head past end": (
        ("prune-stats", "--train", "{train}", "--dev", "{head_past_end}"), 2,
        "dev sentence 2"),
    "prune-stats train head past end": (
        ("prune-stats", "--train", "{head_past_end}", "--dev", "{dev}"), 2,
        "train sentence 2"),
    "prune-stats dev negative head": (
        ("prune-stats", "--train", "{train}", "--dev", "{negative_head}"), 2,
        "dev sentence 2"),
    # the pruner parse rebuilds reads the same gold heads
    **{f"parse --prune-train {name}": (
        PARSE_CMD + ("--pruning", "length-dictionary", "--prune-train", f"{{{name}}}"),
        2, "train sentence 2")
       for name in ("head_past_end", "negative_head")},
    # each command's own checks of its settings and inputs
    "parse --system all": (PARSE_CMD + ("--system", "all"), 1, "single --system"),
    "parse u-mst-uf-lep --directed-model undirected": (
        PARSE_CMD + ("--system", "u-mst-uf-lep", "--directed-model", "{model}"), 2,
        "not a directed model"),
    "parse --pruning without --prune-train": (
        PARSE_CMD + ("--pruning", "length-dictionary"), 1, "needs --prune-train"),
    "train blank lines": (TRAIN_CMD[:2] + ("{blank_lines}",) + TRAIN_CMD[3:], 2,
                          "no sentences"),
    "train --config not JSON": (TRAIN_CMD + ("--config", "{not_json}"), 2,
                                "invalid config JSON"),
    "bench --sizes 10,x": (("bench", "--sizes", "10,x"), 1, "--sizes"),
    "bench --algorithms nope": (("bench", "--sizes", "100", "--algorithms", "nope"), 1,
                                "'nope'"),
    "prune-stats empty dev": (("prune-stats", "--train", "{train}", "--dev", "{empty}"),
                              2, "empty corpus"),
    # a path through a file is a data error, whether read or written
    "eval --gold under a file": (("eval", "--gold", "{dev}/x", "--pred", "{dev}"),
                                 2, "Not a directory"),
    # ... and a CSV path is opened before any report line is printed
    "eval --csv under a file": (("eval", "--gold", "{dev}", "--pred", "{dev}",
                                 "--csv", "{dev}/x.csv"), 2, "Not a directory"),
    "prune-stats --csv under a file": (
        ("prune-stats", "--train", "{train}", "--dev", "{dev}", "--csv", "{dev}/x.csv"),
        2, "Not a directory"),
    # settings out of range, token IDs out of order and edges no graph has
    # are data errors
    "train --epochs 0": (TRAIN_CMD[:5] + ("--epochs", "0"), 2, "epochs must be >= 1"),
    "parse u-mst-uf-lep --enhancement-rounds -1": (
        PARSE_CMD + ("--system", "u-mst-uf-lep", "--directed-model", "{d_model}",
                     "--enhancement-rounds", "-1"), 2, "enhancement_rounds must be >= 0"),
    "parse token IDs 1, 3": (PARSE_CMD[:4] + ("{skipped_id}",) + PARSE_CMD[5:], 2,
                             "near line 3: token ID 3 at position 2"),
    **{f"bench {name}": (("bench", "--graph-file", f"{{{name}}}"), 2, named)
       for name, named in (("nan_graph", "edge weights must be finite"),
                           ("inf_graph", "edge weights must be finite"),
                           ("negative_vertex_graph", "edge endpoint out of range"))},
    # --system all writes one log per model, so one --log-out has no place
    "train --system all --log-out": (
        TRAIN_CMD + ("--system", "all", "--log-out", "{out}.csv"), 1, "--log-out"),
}


@pytest.mark.parametrize("argv, code, named", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_input_exits_with_one_line(bad_input_files, tmp_path, capsys,
                                       argv, code, named):
    """Malformed arguments and inputs end in one error line and the exit
    code of their kind (1 usage, 2 data), not a traceback, and print
    nothing on stdout."""
    capsys.readouterr()
    assert run(*[a.format(**bad_input_files, out=tmp_path / "out")
                 for a in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error:" if code == 1 else "data error:")
    assert named in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_unexpected_exception_is_one_internal_error_line(monkeypatch, capsys):
    """Any other exception from a command ends in exit 3 and one line."""
    def broken(args):
        raise RuntimeError("invariant broken")

    monkeypatch.setitem(cli.COMMANDS, "bench", broken)
    capsys.readouterr()
    assert run("bench", "--sizes", "100") == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: invariant broken\n"


def test_structure_error_is_one_internal_error_line(monkeypatch, capsys):
    """A broken invariant below a command (a StructureError) ends in exit 3
    and one line that names it."""
    from umstparse.errors import StructureError

    def broken(*args, **kwargs):
        raise StructureError("spanning tree does not cover all vertices")

    monkeypatch.setattr(cli, "run_bench", broken)
    capsys.readouterr()
    assert run("bench", "--sizes", "100") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: spanning tree does not cover all vertices\n"


def test_an_update_arc_outside_the_cache_exits_3(mini_corpus, tmp_path, monkeypatch, capsys):
    """Training's caches hold every arc an update reads.  A mask that keeps
    only the root's arcs drops gold arcs from the pruned u-mst-df caches,
    which breaks that invariant: ``train`` ends in exit 3 with one line
    and writes no model."""
    from umstparse import inference

    def root_arcs_only(self, sentence):
        allowed = np.zeros((len(sentence) + 1,) * 2, dtype=bool)
        allowed[0, 1:] = True
        return allowed

    monkeypatch.setattr(inference.Pruner, "mask", root_arcs_only)
    capsys.readouterr()
    model = tmp_path / "u-mst-df.model"
    assert run("train", "--train", mini_corpus[0], "--model-out", model, "--system", "u-mst-df",
               "--pruning", "length-dictionary", *TRAIN_FLAGS) == 3
    assert capsys.readouterr().err == \
        "internal error: an update arc is not held by the directed cache\n"
    assert not model.exists()


def test_parse_keeps_non_tree_gold_with_a_warning(bad_input_files, tmp_path, caplog):
    """parse never reads gold heads: a non-tree gold column only warns."""
    out = tmp_path / "out.conll"
    with caplog.at_level("WARNING"):
        assert run("parse", "--model", bad_input_files["model"],
                   "--input", bad_input_files["self_loop"], "--output", out) == 0
    assert "do not form a tree" in caplog.text
    assert [len(s) for s in load_conll(out)] == [3, 3]


def test_parse_keeps_comments_byte_for_byte(mini_corpus, tmp_path):
    """Every sentence's leading "#" lines come out of d-mst parsing as they
    went in; only the HEAD column of token lines may change."""
    train_path, dev_path = mini_corpus
    blocks = dev_path.read_text(encoding="utf-8").split("\n\n")[:-1]
    text = "".join(f"# sent_id = {i}\n# text = d\u00e9j\u00e0 vu\t\u2014 {i}\n{b}\n\n"
                   for i, b in enumerate(blocks))
    commented = tmp_path / "commented.conll"
    commented.write_text(text, encoding="utf-8")
    model, out = tmp_path / "d.model", tmp_path / "out.conll"
    assert run("train", "--train", train_path, "--model-out", model,
               "--system", "d-mst", *TRAIN_FLAGS) == 0
    assert run("parse", "--model", model, "--system", "d-mst",
               "--input", commented, "--output", out) == 0
    got = out.read_bytes().decode("utf-8").split("\n")
    want = text.split("\n")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w.startswith("#") or not w:
            assert g == w
        else:
            assert g.split("\t")[:6] + g.split("\t")[7:] == \
                w.split("\t")[:6] + w.split("\t")[7:]


def _mutated(data: bytes, rng) -> bytes:
    """One to four byte edits: overwrite, delete or insert a byte (often a
    CoNLL delimiter, a digit or a byte no UTF-8 text starts with), or
    repeat a run of up to 40 bytes."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(out) + 1)
        kind = rng.randrange(4)
        byte = rng.choice(b"\t\n -_0123456789\xff\xc3" + bytes([rng.randrange(256)]))
        if kind == 0 and at < len(out):
            out[at] = byte
        elif kind == 1 and at < len(out):
            del out[at]
        elif kind == 2:
            out.insert(at, byte)
        elif at < len(out):
            out[at:at] = out[at:at + rng.randint(1, 40)]
    return bytes(out)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The first 12 dev sentences, as they are and with every POS tag
    padded past 64 bytes, and the models trained on them (hash bits 14)."""
    import dataclasses
    from umstparse.conll import save_conll
    base = tmp_path_factory.mktemp("fuzz")
    sentences = load_conll(FIXTURE_DEV)[:12]
    plain, wide = base / "plain.conll", base / "wide.conll"
    save_conll(plain, sentences)
    save_conll(wide, [dataclasses.replace(s, tokens=tuple(
        dataclasses.replace(t, postag=t.postag.ljust(70, "-")) for t in s.tokens))
        for s in sentences])
    models = base / "models"
    assert run("train", "--train", plain, "--model-out", models, "--system", "all",
               "--epochs", "1", "--hash-bits", "14") == 0
    return {"plain": plain, "wide": wide, "models": models}


def _fuzz_commands(files, given, out):
    models = files["models"]
    return {
        "parse pruned u-mst-uf": (
            "parse", "--model", models / "u-mst-uf.model", "--system", "u-mst-uf",
            "--pruning", "length-dictionary", "--prune-train", given,
            "--input", given, "--output", out),
        "parse d-mst": ("parse", "--model", models / "d-mst.model", "--system", "d-mst",
                        "--input", given, "--output", out),
        "train pruned u-mst-df": (
            "train", "--train", given, "--model-out", out, "--system", "u-mst-df",
            "--pruning", "length-dictionary", "--epochs", "1", "--hash-bits", "14"),
        "eval": ("eval", "--gold", files["plain"], "--pred", given, "--csv", out),
        "prune-stats": ("prune-stats", "--train", given, "--dev", given, "--csv", out),
    }


@pytest.mark.parametrize("source, count", [("plain", 150), ("wide", 50), ("model", 200)])
def test_exit_code_contract_under_byte_mutations(fuzz_inputs, tmp_path, capsys,
                                                 source, count):
    """Seeded byte mutations of CoNLL input (through parse, train, eval and
    prune-stats) and of a u-mst-uf-lep model file (through parse) exit 0
    or 2.  A failure prints nothing on stdout, ends its stderr with one
    "data error:" line (conll.py's gold-tree warnings may come before it)
    and leaves no output, model or CSV file behind."""
    import random
    rng = random.Random(f"exit-code-fuzz-{source}")
    models, out, given = fuzz_inputs["models"], tmp_path / "out", tmp_path / "given"
    original = (models / "u-mst-uf-lep.model" if source == "model"
                else fuzz_inputs[source]).read_bytes()
    breaches, codes = [], set()
    for case in range(count):
        given.write_bytes(_mutated(original, rng))
        if source == "model":
            runs = {"parse u-mst-uf-lep": (
                "parse", "--model", given, "--directed-model", models / "d-mst.model",
                "--system", "u-mst-uf-lep", "--input", fuzz_inputs["plain"],
                "--output", out)}
        else:
            runs = _fuzz_commands(fuzz_inputs, given, out)
        for name, argv in runs.items():
            capsys.readouterr()
            code = run(*argv)
            stdout, stderr = capsys.readouterr()
            left = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("out"))
            codes.add(code)
            lines = stderr.strip().splitlines()
            if code != 0 and (code != 2 or stdout or left
                              or not lines or not lines[-1].startswith("data error:")):
                breaches.append((case, name, code, stdout, stderr, left))
            for path in left:
                (tmp_path / path).unlink()
    assert not breaches, breaches[:5]
    assert codes == {0, 2}          # the mutations reach both outcomes
