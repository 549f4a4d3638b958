"""Weingarten calculus, exact moment formulas for outputs of products of
random quantum channels, and the matching Monte Carlo and free-probability
cross-checks.

``import wgchan`` loads none of the layers.  Each exported name is imported
from its submodule on first use (``wgchan.X`` or ``from wgchan import X``)
and is the same object as ``wgchan.<module>.X``, so a process pays for numpy
and a layer's source only when it touches that layer.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "perm": (
        "CycleType",
        "LabeledIndex",
        "Permutation",
        "all_permutations",
        "compose",
        "cycle_type",
        "distance",
        "geodesics",
        "identity",
        "is_geodesic",
        "length",
        "make_gamma_delta",
        "mobius",
        "non_crossing_partitions",
        "transposition",
    ),
    "weingarten": (
        "IndexTuple",
        "McEstimate",
        "WgTable",
        "haar_moment",
        "haar_moment_mc",
        "wg_asymptotic",
        "wg_cycle_exact",
        "wg_exact",
    ),
    "moments": (
        "ChoiceFunction",
        "ExponentReport",
        "MomentPrediction",
        "RegimeParams",
        "asymptotic_moment_conjugate",
        "choice_functions",
        "choice_to_permutation",
        "exact_moment_conjugate",
        "exact_moment_pinched",
        "minimize_S",
        "minimize_S1",
        "minimize_S2",
        "minimize_S_pinched",
        "reference_S1",
        "reference_S2",
        "vanishing_cancellation_check",
    ),
    "montecarlo": (
        "ChannelSpec",
        "DensityMatrix",
        "EnsembleReport",
        "FactoredDensityMatrix",
        "apply_channel",
        "bell_state",
        "conjugate_spec",
        "independent_spec",
        "moment_ensemble",
        "product_output",
        "run_ensemble",
        "sample_haar",
    ),
    "freeprob": (
        "EntropyPrediction",
        "MarchenkoPastur",
        "entropy_prediction",
        "gamma_t_vector",
        "mp_density",
        "mp_entropy_integral",
        "mp_moment",
        "naive_bound",
        "vn_entropy",
    ),
}

#: exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
