"""Exact construction and auditing of homogeneous Moran sets.

Declarative per-level parameters drive an exact-rational interval hierarchy;
on top of it sit the trimmed reconstruction, a bounded-ratio branch
refinement, the dimension formula with condition certificates, a uniform
mass measure with Frostman-type audits, and image-side measures under
parametric increasing maps.
"""

from .specs import (GapPolicy, MoranSpec, SequenceRule, constant, preset,
                    preset_names, presets, spec_from_config, validate_spec)
from .tree import LevelSet, Node, build_level, iter_level, level_stats
from .reconstruct import StarState, first_reconstruct
from .dimension import (ConditionCert, DimSeries, box_count, check_conditions,
                        cover_sum, dim_formula_seq)
from .branchtree import BranchTree, Schedule, build_T, choose_M
from .measure import MassMeasure, WindowAudit, frostman_audit, mu_window
from .qsmap import (ImageMeasure, ImageTree, build_mu_d, image_tree,
                    parse_map, prop1_ratio_series, prop1_ratio_series_uniform,
                    sandwich_audit, stats_series)

__version__ = "0.1.0"

__all__ = [
    "GapPolicy", "MoranSpec", "SequenceRule", "constant", "preset",
    "preset_names", "presets", "spec_from_config", "validate_spec",
    "LevelSet", "Node", "build_level", "iter_level", "level_stats",
    "StarState", "first_reconstruct",
    "ConditionCert", "DimSeries", "box_count", "check_conditions",
    "cover_sum", "dim_formula_seq",
    "BranchTree", "Schedule", "build_T", "choose_M",
    "MassMeasure", "WindowAudit", "frostman_audit", "mu_window",
    "ImageMeasure", "ImageTree", "build_mu_d", "image_tree", "parse_map",
    "prop1_ratio_series", "prop1_ratio_series_uniform", "sandwich_audit",
    "stats_series",
]
