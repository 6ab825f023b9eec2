"""Dependency parsing with undirected minimum-spanning-tree inference."""

from .conll import DependencyTree, Sentence, Token, is_punctuation, load_conll, read_conll, save_conll, write_conll
from .errors import DataError, InputError, StructureError, UmstError
from .evaluate import EvalReport, head_to_head, oracle_combine, score
from .features import Model, load_model, save_model
from .graph import UndirectedGraph, boruvka_step, connected_components, contract_graph, simplify
from .inference import ParserConfig, Pruner, build_parse_graph, build_pruner, cle_directed_mst, combine, direct_tree, local_enhancement, parse, swap_gain
from .mst import RandomSource, SpanningForest, boruvka_msf, f_heavy_edges, kruskal_msf, randomized_msf
from .training import TrainConfig, train, train_full

__version__ = "0.1.0"

__all__ = [
    "DataError", "DependencyTree", "EvalReport", "InputError", "Model",
    "ParserConfig", "Pruner", "RandomSource", "Sentence", "SpanningForest",
    "StructureError", "Token", "TrainConfig", "UmstError", "UndirectedGraph",
    "boruvka_msf", "boruvka_step", "build_parse_graph", "build_pruner",
    "cle_directed_mst", "combine", "connected_components", "contract_graph",
    "direct_tree", "f_heavy_edges", "head_to_head", "is_punctuation",
    "kruskal_msf", "load_conll", "load_model", "local_enhancement",
    "oracle_combine", "parse", "randomized_msf", "read_conll", "save_conll",
    "save_model", "score", "simplify", "swap_gain", "train", "train_full",
    "write_conll",
]
