"""Chained-tuple flow table lookup: fast wildcard rule matching with
marker/hint pruning, plus baselines, workload tooling and a benchmark
harness."""

from .baselines import LinearClassifier, TssClassifier, linear_lookup
from .classifier import StructureStats, TupleChainClassifier
from .etc import EtcClassifier
from .graph import build_graph, min_path_cover
from .model import (MISS_PRIORITY, FieldSchema, MatchResult, Rule,
                    best_rule, mask_less_than, matches)
from .workload import (RuleSetFile, TupleProfile, UpdateStream, gen_rules,
                       gen_trace, gen_updates, parse_classbench,
                       parse_generic, write_generic)

__all__ = [
    "MISS_PRIORITY", "FieldSchema", "MatchResult", "Rule",
    "best_rule", "mask_less_than", "matches",
    "TupleChainClassifier", "StructureStats", "EtcClassifier",
    "LinearClassifier", "TssClassifier", "linear_lookup",
    "build_graph", "min_path_cover",
    "RuleSetFile", "TupleProfile", "UpdateStream",
    "gen_rules", "gen_trace", "gen_updates",
    "parse_classbench", "parse_generic", "write_generic",
]
