"""Exact regularity decompositions for bounded-VC relations.

Finite k-partite relations with weighted counting measures, 0-1 regular
partitions with a small exceptional part, stable (ladder-bounded) partitions
with no exceptional part, and the dyadic / convexity counterexample
simulators, all over exact rational arithmetic.

The public names are imported from their modules on first use (PEP 562), so
`import vcreg` alone loads neither the engines nor numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "convexity": ("IntegerInterval", "ap_count", "convexity_density", "is_edge",
                  "reflection_involution_check"),
    "core": ("Box", "Hypergraph", "Measure", "binary_view", "density", "edge_mass",
             "uniform_measures"),
    "dyadic": ("DyadicBall", "anti_homogeneity_bound_check", "ball_family_search",
               "ball_parity_report", "dyadic_hypergraph", "level_pair_counts",
               "odd_split_density", "parse_balls", "random_ball_union"),
    "errors": ("DepthCapExceeded", "InputError", "RefinementFailed",
               "VerificationError", "ZeroMeasureBox"),
    "homog": ("definable_homogeneous_search",),
    "instances": ("GeneratorSpec", "Generated", "generate"),
    "regularity": ("DeltaPartition", "DenseBox", "RectApprox", "RegularPartition",
                   "delta_approx_partition", "find_dense_box", "net_param_bound",
                   "rectangular_approximation", "regular_partition",
                   "verify_regular_partition"),
    "stable": ("GoodDescent", "LadderCertificate", "good_descent_partition",
               "ladder_index", "stable_regular_partition"),
    "vc": ("EpsNet", "SetFamily", "VCDimension", "epsilon_net", "fiber_family",
           "net_size_formula", "sauer_bound", "shatter_function", "vc_dimension"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "reset"])

# The one store of values a process keeps across calls, each built from its
# inputs alone: MEMO[table] maps keys to values, oldest first.
MEMO: dict = {}


def remember(table: str, bound: int, key, compute):
    """MEMO[table][key], else compute()'s value, stored once it returns; a miss
    first drops the oldest entries, so at most `bound` are ever held."""
    entries = MEMO.setdefault(table, {})
    if key not in entries:
        while len(entries) >= bound:
            del entries[next(iter(entries))]
        entries[key] = compute()
    return entries[key]


def reset() -> None:
    """Empty every process-wide cache: the "input" table (cli) and the
    "dimension" table (vc)."""
    MEMO.clear()


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{mod}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
