"""Pinned output bytes of the command-line pipeline.

Trains every system on a slice of the bundled treebank, pruned and
unpruned, parses a dev slice with all four systems, evaluates each
prediction file and writes the pruning statistics, all through
``cli.main``.  The sha256 of every file written must match the table
below: models, training logs, predictions and CSV reports.

A change that means to alter output bytes regenerates the table (run
this file with ``UMSTPARSE_PRINT_PINS=1`` and ``-s`` to print it) and
says in CHANGES.md which files changed and why.
"""

import hashlib
import os
import pathlib

import pytest

from umstparse.cli import main
from umstparse.conll import load_conll, save_conll

DATA = pathlib.Path(__file__).parent.parent / "data"
SYSTEMS = ("d-mst", "u-mst-uf", "u-mst-uf-lep", "u-mst-df")
TRAIN_FLAGS = ("--epochs", "2", "--hash-bits", "16")

PINNED = {
    "prune-stats.csv":
        "aab9cf276eaba791212f29b993467e686dd6d7b77e4cd0bca5198e6c753b5d61",
    "pruned/d-mst.eval.csv":
        "dab84ecf0304d7ed16fa3028343bf4a437e444e1a1ced0cf7a0c3485891d018d",
    "pruned/d-mst.model":
        "561634f72fc9af8bc282a7c66d7be8639afae1752a12c4da1dd79729c8b1c5e3",
    "pruned/d-mst.model.trainlog.csv":
        "1bac638f4ae46e39fd16a2fb3a22a63761194b6afe04eaaba7716b1ca5a02360",
    "pruned/d-mst.pred.conll":
        "2f7311615007d1961fb658d755923b00bf6f89b4b4ff6a7fb101a9511c1dea9a",
    "pruned/u-mst-df.eval.csv":
        "ca056cfb2350f4469f8254d29c383037e698d189d000aae6fe2e1f78c0575c54",
    "pruned/u-mst-df.model":
        "57c8358e20d7434d7275b269abd457776ea9624689a43395bc3f1c7951ea4ccc",
    "pruned/u-mst-df.model.trainlog.csv":
        "13d0f48c190277f3c37d3741559b02529f81b8cf8a1f96d841b2252053dc510e",
    "pruned/u-mst-df.pred.conll":
        "581000f7efc206e5604f5a155ff399896eb1d700fdcf577dba80b03f2880cf5a",
    "pruned/u-mst-uf-lep.eval.csv":
        "dfb86eec16ae29b7de4c6bc59613e86218a8da8ada50c7d9de8ff321b1d27dfb",
    "pruned/u-mst-uf-lep.model":
        "c7816961860acd51b8406addc578e90240af52309c952b5b4dc3867684da17fc",
    "pruned/u-mst-uf-lep.model.trainlog.csv":
        "a27c7a878b1588bc55ffba3c369aa5641ba38f7a865462c5ea52f07b6a9503c7",
    "pruned/u-mst-uf-lep.pred.conll":
        "4eac0be758a5311a560fc34a87d156cdeaef20a79d57b2718a54b3f27ab6244e",
    "pruned/u-mst-uf.eval.csv":
        "257b5eaf838948b3b066732bbd8d1ed1185cdd4c7646cd6d46bec1702e5f5ce3",
    "pruned/u-mst-uf.model":
        "c7816961860acd51b8406addc578e90240af52309c952b5b4dc3867684da17fc",
    "pruned/u-mst-uf.model.trainlog.csv":
        "a27c7a878b1588bc55ffba3c369aa5641ba38f7a865462c5ea52f07b6a9503c7",
    "pruned/u-mst-uf.pred.conll":
        "56766ae8e1d7dddc41acc971511515fe13a1b1e850860907cd2cd1c6bbd6cee7",
    "pruned/u-mst-uf.vs.d-mst.eval.csv":
        "d255e1442d4e27591aa259ed297ecf4acf16323eed4a4d0735b1a612cecb369c",
    "unpruned/d-mst.eval.csv":
        "dab84ecf0304d7ed16fa3028343bf4a437e444e1a1ced0cf7a0c3485891d018d",
    "unpruned/d-mst.model":
        "561634f72fc9af8bc282a7c66d7be8639afae1752a12c4da1dd79729c8b1c5e3",
    "unpruned/d-mst.model.trainlog.csv":
        "1bac638f4ae46e39fd16a2fb3a22a63761194b6afe04eaaba7716b1ca5a02360",
    "unpruned/d-mst.pred.conll":
        "2f7311615007d1961fb658d755923b00bf6f89b4b4ff6a7fb101a9511c1dea9a",
    "unpruned/u-mst-df.eval.csv":
        "5896bef4018333037d0e45cf1dc7d6a1a974294aa3faf6da2cfc1e682157b6cd",
    "unpruned/u-mst-df.model":
        "ddbdb38d116af189881c370556cb96789420e0c52b12fecfdea0ef0e38e23d24",
    "unpruned/u-mst-df.model.trainlog.csv":
        "9a6d1679cd00e015522d4c8e4ebac224b345602312b6a972377eec9baf4ab329",
    "unpruned/u-mst-df.pred.conll":
        "99555e5e794b723b617fc75932d16c7554015ea450aeb3b86f96fb99d5eaa4d2",
    "unpruned/u-mst-uf-lep.eval.csv":
        "59264ce75a7439bb2a47becaf31a1fe6e0b458c811c55b362782cea1fcbea036",
    "unpruned/u-mst-uf-lep.model":
        "6142e9fdecd95aba48670de981f115c02cf262b595ff8fe1bb8d11d2a62afa03",
    "unpruned/u-mst-uf-lep.model.trainlog.csv":
        "5db6774de07f44bf343e21e24bdb22a39385470efb0f3a261c5636bd8a41d055",
    "unpruned/u-mst-uf-lep.pred.conll":
        "ec56565a009eadb7e678a7cc616cdf650b966f5daa1674c78911e28d71cff32f",
    "unpruned/u-mst-uf.eval.csv":
        "b500e6572a1a5eadfd35bac1b03acef323ba7ff17a5b1d7500844e28383f0514",
    "unpruned/u-mst-uf.model":
        "6142e9fdecd95aba48670de981f115c02cf262b595ff8fe1bb8d11d2a62afa03",
    "unpruned/u-mst-uf.model.trainlog.csv":
        "5db6774de07f44bf343e21e24bdb22a39385470efb0f3a261c5636bd8a41d055",
    "unpruned/u-mst-uf.pred.conll":
        "b187eefad2b9d53d26effa0dc33b91f6d354bba7a2cb42b8637db2d60f15d40c",
    "unpruned/u-mst-uf.vs.d-mst.eval.csv":
        "f653ba04af254ed5194fab3260fb9b4b47b37b9c81be3f75a2faaaa781bcfb38",
}


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every file the pipeline writes, by path relative to its directory."""
    base = tmp_path_factory.mktemp("pinned")
    train, dev = base / "train.conll", base / "dev.conll"
    save_conll(train, load_conll(DATA / "fixture_train.conll")[:60])
    save_conll(dev, load_conll(DATA / "fixture_dev.conll")[:30])
    for setting, prune in (("unpruned", ()),
                           ("pruned", ("--pruning", "length-dictionary"))):
        models = base / setting
        _run("train", "--train", train, "--model-out", models,
             "--system", "all", *TRAIN_FLAGS, *prune)
        for system in SYSTEMS:
            argv = ["parse", "--model", models / f"{system}.model",
                    "--input", dev, "--output", models / f"{system}.pred.conll",
                    "--system", system, "--seed", "3"]
            if system != "d-mst":
                argv += [*prune, *(("--prune-train", train) if prune else ())]
            if system == "u-mst-uf-lep":
                argv += ["--directed-model", models / "d-mst.model"]
            _run(*argv)
            _run("eval", "--gold", dev, "--pred", models / f"{system}.pred.conll",
                 "--csv", models / f"{system}.eval.csv")
        _run("eval", "--gold", dev, "--pred", models / "u-mst-uf.pred.conll",
             "--pred-b", models / "d-mst.pred.conll",
             "--csv", models / "u-mst-uf.vs.d-mst.eval.csv")
    _run("prune-stats", "--train", train, "--dev", dev,
         "--csv", base / "prune-stats.csv")
    written = {path.relative_to(base).as_posix(): path
               for path in sorted(base.rglob("*")) if path.is_file()}
    del written["train.conll"], written["dev.conll"]
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in written.items()}


def test_every_output_file_is_pinned(outputs):
    if os.environ.get("UMSTPARSE_PRINT_PINS"):
        for name, digest in outputs.items():
            print(f'    "{name}":\n        "{digest}",')
    assert sorted(outputs) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes(outputs, name):
    assert outputs[name] == PINNED[name]
