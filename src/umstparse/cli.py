"""Command-line entry point: train, parse, eval, bench, prune-stats.

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
inputs), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import partial

import numpy as np

from .bench import ALGORITHMS, run_bench, run_bench_graph
from .conll import DependencyTree, load_conll, save_conll
from .errors import DataError, InputError, StructureError
from .evaluate import format_report, head_to_head, oracle_combine, report_csv_rows, score
from .features import COMBINERS, check_combiner, load_model, pair_mask, save_model
from .graph import load_graph
from .inference import (PRUNING_MODES, SETTINGS_READ, SYSTEMS, ParserConfig,
                        build_pruner, check_gold_heads, parse)
from .training import TrainConfig, train_full

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # full flag names only: bench would read a --seed prefix as --seeds
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


# config-file keys, each with its default's JSON type (a bool is no int)
CONFIG_TYPES = {**{f.name: type(f.default) for cls in (TrainConfig, ParserConfig)
                   for f in fields(cls)}, "threads": int}


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid config JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(CONFIG_TYPES)
    if unknown:
        raise DataError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in data.items():
        if type(value) is not CONFIG_TYPES[key]:
            raise DataError(f"{path}: config key {key!r} must be "
                            f"{CONFIG_TYPES[key].__name__}, got {value!r}")
    return data


def _merged(args) -> dict:
    """Config-file values, overridden by explicit flags."""
    merged = _load_config(args.config)
    for key in CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def build_arg_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="umstparse",
                  description="Dependency parsing with undirected MST inference")
    subs = top.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="train parsing model(s)")
    p_train.add_argument("--train", required=True, dest="train_path")
    p_train.add_argument("--model-out", required=True)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--shuffle", action="store_const", const=True, default=None)
    p_train.add_argument("--combiner", choices=COMBINERS, default=None)
    p_train.add_argument("--pruning", choices=PRUNING_MODES, default=None)
    p_train.add_argument("--hash-bits", type=int, dest="hash_bits", default=None)
    p_train.add_argument("--log-out", default=None,
                         help="per-epoch training UAS CSV (default: <model>.trainlog.csv)")

    p_parse = subs.add_parser("parse", help="parse a CoNLL file")
    p_parse.add_argument("--model", required=True)
    p_parse.add_argument("--directed-model", default=None,
                         help="d-mst model used by u-mst-uf-lep")
    p_parse.add_argument("--input", required=True)
    p_parse.add_argument("--output", required=True)
    p_parse.add_argument("--enhancement-rounds", type=int,
                         dest="enhancement_rounds", default=None)
    p_parse.add_argument("--combiner", choices=COMBINERS, default=None,
                         help="override the combiner stored in the model file")
    p_parse.add_argument("--pruning", choices=PRUNING_MODES, default=None)
    p_parse.add_argument("--prune-train", default=None,
                         help="training CoNLL used to rebuild the pruner")

    p_eval = subs.add_parser("eval", help="score predictions against gold")
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--pred-b", default=None,
                        help="second prediction file: adds head-to-head and oracle")
    p_eval.add_argument("--csv", default=None, help="also write CSV here")
    p_eval.add_argument("--no-punct-filter", action="store_true",
                        help="score punctuation tokens too")

    p_bench = subs.add_parser("bench", help="time MSF backends on random graphs")
    p_bench.add_argument("--sizes", default=None,
                         help="comma-separated edge counts, e.g. 10000,100000")
    p_bench.add_argument("--densities", default="8",
                         help="comma-separated edge/vertex ratios")
    p_bench.add_argument("--seeds", default="1,2,3")
    p_bench.add_argument("--algorithms", default=",".join(ALGORITHMS))
    p_bench.add_argument("--graph-file", default=None,
                         help="bench a fixed graph in dump format instead of "
                              "random ones")
    p_bench.add_argument("--out", default=None, help="CSV path (default stdout)")

    p_stats = subs.add_parser("prune-stats",
                              help="length-dictionary pruning statistics")
    p_stats.add_argument("--train", required=True, dest="train_path")
    p_stats.add_argument("--dev", required=True)
    p_stats.add_argument("--csv", default=None)

    for sub in (p_train, p_parse):
        sub.add_argument("--config", help="JSON config file; flags override it")
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--system", choices=list(SYSTEMS) + ["all"], default=None)
    for sub in subs.choices.values():
        sub.add_argument("--threads", type=int, default=None,
                         help="accepted for compatibility; has no effect")
    return top


def _config(cls, merged: dict, **fixed):
    """A validated ``cls`` from the merged settings it has fields for;
    ``fixed`` overrides them."""
    settings = {f.name: merged[f.name] for f in fields(cls) if f.name in merged}
    return cls(**{**settings, **fixed}).validate()


def cmd_train(args) -> int:
    corpus = load_conll(args.train_path)
    if not corpus:
        raise DataError(f"{args.train_path}: no sentences")
    merged = _merged(args)
    system = merged.get("system", "u-mst-uf")
    if system == "all":
        if args.log_out is not None:
            raise UsageError("--system all writes <model>.trainlog.csv per "
                             "model and takes no --log-out")
        os.makedirs(args.model_out, exist_ok=True)
        paths = {name: os.path.join(args.model_out, f"{name}.model") for name in SYSTEMS}
    else:
        paths = {system: args.model_out}
    trained = {}            # u-mst-uf-lep trains as u-mst-uf: train that once
    for name, path in paths.items():
        config = _config(TrainConfig, merged, system=name)
        trains_as = config.parser_config().system
        if trains_as not in trained:
            trained[trains_as] = train_full(corpus, config)
        model, log = trained[trains_as]
        save_model(model, path)
        _write_lines(args.log_out or f"{path}.trainlog.csv",
                     ["epoch,train_uas",
                      *(f"{i},{uas:.6f}" for i, uas in enumerate(log, start=1))])
        final = "" if system == "all" else f" (final training UAS {log[-1]:.2f})"
        print(f"trained {name} -> {path}{final}")
    return EXIT_OK


def _write_lines(path, lines) -> None:
    """Write a CSV report: each of ``lines`` and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{line}\n" for line in lines))


def _unread_parse_flags(args, config: ParserConfig) -> list[str]:
    """The parse flags given on the command line that the system ignores."""
    reads = SETTINGS_READ[config.system]
    flags = {   # flag: (given, read)
        "--pruning length-dictionary": (args.pruning == "length-dictionary",
                                        "pruning" in reads),
        "--prune-train": (args.prune_train is not None, config.pruned),
        "--combiner": (args.combiner is not None, "combiner" in reads),
        "--enhancement-rounds": (args.enhancement_rounds is not None,
                                 "enhancement_rounds" in reads),
        "--directed-model": (args.directed_model is not None,
                             "directed_model" in reads),
    }
    return [flag for flag, (given, read) in flags.items() if given and not read]


def cmd_parse(args) -> int:
    model = load_model(args.model)
    merged = _merged(args)
    default_system = "d-mst" if model.mode == "directed" else "u-mst-uf"
    system = merged.get("system", default_system)
    if system == "all":
        raise UsageError("parse needs a single --system")
    model.combiner = check_combiner(merged.get("combiner", model.combiner))
    config = _config(ParserConfig, merged, system=system)
    unread = _unread_parse_flags(args, config)
    if unread:
        raise UsageError(f"{config.system} does not read {', '.join(unread)}")
    directed_model = None
    if "directed_model" in SETTINGS_READ[config.system]:
        if args.directed_model is None:
            raise UsageError(
                "u-mst-uf-lep rewires trees with d-mst scores: pass the "
                "trained d-mst model via --directed-model")
        directed_model = load_model(args.directed_model)
        if directed_model.mode != "directed":
            raise DataError(f"{args.directed_model} is not a directed model")
    pruner = None
    if config.pruned:
        if args.prune_train is None:
            raise UsageError("--pruning length-dictionary needs --prune-train "
                             "to rebuild the length dictionary")
        pruner = build_pruner(load_conll(args.prune_train))
    sentences = load_conll(args.input)
    trees = [parse(sentence, model, config, directed_model=directed_model,
                   pruner=pruner, sentence_index=index)
             for index, sentence in enumerate(sentences)]
    save_conll(args.output, sentences, trees)
    print(f"parsed {len(sentences)} sentences -> {args.output}")
    return EXIT_OK


def _trees_of(sentences) -> list[DependencyTree]:
    return [DependencyTree(heads=s.gold_heads) for s in sentences]


def cmd_eval(args) -> int:
    gold = load_conll(args.gold)
    pred_a = _trees_of(load_conll(args.pred))
    exclude_punct = not args.no_punct_filter
    report = score(gold, pred_a, exclude_punct)
    out = [f"== {args.pred} ==", format_report(report).rstrip()]
    csv_rows = report_csv_rows(report)
    if args.pred_b:
        pred_b = _trees_of(load_conll(args.pred_b))
        report_b = score(gold, pred_b, exclude_punct)
        out += [f"== {args.pred_b} ==", format_report(report_b).rstrip()]
        pa, pb, tie = head_to_head(gold, pred_a, pred_b, exclude_punct)
        out += ["== head-to-head (directed UAS per sentence) ==",
                f"a_better {pa:.2f}", f"b_better {pb:.2f}", f"tie {tie:.2f}"]
        oracle = oracle_combine(gold, pred_a, pred_b, exclude_punct)
        out += ["== oracle (better tree per sentence) ==",
                format_report(oracle).rstrip()]
        csv_rows += [f"b_d_uas,{report_b.d_uas:.6f}",
                     f"b_u_uas,{report_b.u_uas:.6f}",
                     f"a_better,{pa:.6f}", f"b_better,{pb:.6f}",
                     f"tie,{tie:.6f}",
                     f"oracle_d_uas,{oracle.d_uas:.6f}",
                     f"oracle_u_uas,{oracle.u_uas:.6f}"]
    if args.csv:       # written first: an unusable path prints no report
        _write_lines(args.csv, csv_rows)
    print("\n".join(out))
    return EXIT_OK


def _int_list(text: str, flag: str, low: int) -> list[int]:
    """Comma-separated integers, each at least ``low``."""
    try:
        values = [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if any(v < low for v in values):
        raise UsageError(f"{flag} values must be >= {low}, got {text!r}")
    return values


def cmd_bench(args) -> int:
    algorithms = [a for a in args.algorithms.split(",") if a]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise UsageError(f"unknown algorithm {a!r}")
    if args.graph_file is None and args.sizes is None:
        raise UsageError("pass --sizes for random graphs or --graph-file "
                         "for a fixed one")

    seeds = _int_list(args.seeds, "--seeds", 0)
    if args.graph_file is None:
        sizes = _int_list(args.sizes, "--sizes", 1)
        densities = _int_list(args.densities, "--densities", 1)
        go = partial(run_bench, sizes, densities, seeds, algorithms)
    else:               # read before --out is opened: a bad file leaves none
        with open(args.graph_file, encoding="utf-8") as fh:
            go = partial(run_bench_graph, load_graph(fh), seeds, algorithms)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            go(stream=fh)
        print(f"wrote {args.out}")
    else:
        go(stream=sys.stdout)
    return EXIT_OK


def cmd_prune_stats(args) -> int:
    train_corpus = load_conll(args.train_path)
    dev_corpus = load_conll(args.dev)
    if not train_corpus or not dev_corpus:
        raise DataError("empty corpus")
    pruner = build_pruner(train_corpus)
    check_gold_heads(dev_corpus, "dev")
    total_edges = kept_edges = total_gold = kept_gold = 0
    for sent in dev_corpus:
        n = len(sent)
        kept = pair_mask(pruner.mask(sent))
        total_edges += n * (n + 1) // 2
        kept_edges += int(kept.sum())
        total_gold += n
        gold = (kept | kept.T)[list(sent.gold_heads), np.arange(1, n + 1)]
        kept_gold += int(gold.sum())
    edges_pct = 100.0 * kept_edges / total_edges if total_edges else 0.0
    gold_pct = 100.0 * kept_gold / total_gold if total_gold else 0.0
    lines = [f"undirected_edges_kept_pct {edges_pct:.2f}",
             f"gold_edges_kept_pct {gold_pct:.2f}",
             f"edges_total {total_edges}",
             f"edges_kept {kept_edges}",
             f"gold_total {total_gold}",
             f"gold_kept {kept_gold}"]
    if args.csv:       # written first: an unusable path prints no report
        _write_lines(args.csv,
                     ["metric,value", *(line.replace(" ", ",") for line in lines)])
    print("\n".join(lines))
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "parse": cmd_parse,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "prune-stats": cmd_prune_stats,
}


def main(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return EXIT_OK
    except (OSError, DataError, InputError) as exc:  # OSError: an unusable path
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except UnicodeDecodeError as exc:
        print(f"data error: input is not UTF-8 ({exc})", file=sys.stderr)
        return EXIT_DATA
    except StructureError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
