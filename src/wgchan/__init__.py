"""Weingarten calculus, exact moment formulas for outputs of products of
random quantum channels, and the matching Monte Carlo and free-probability
cross-checks."""

from .perm import (
    CycleType,
    LabeledIndex,
    Permutation,
    all_permutations,
    compose,
    cycle_type,
    distance,
    geodesics,
    identity,
    is_geodesic,
    length,
    make_gamma_delta,
    mobius,
    non_crossing_partitions,
    transposition,
)
from .weingarten import (
    IndexTuple,
    McEstimate,
    WgTable,
    haar_moment,
    haar_moment_mc,
    wg_asymptotic,
    wg_cycle_exact,
    wg_exact,
)
from .moments import (
    ChoiceFunction,
    ExponentReport,
    MomentPrediction,
    RegimeParams,
    asymptotic_moment_conjugate,
    choice_functions,
    choice_to_permutation,
    exact_moment_conjugate,
    exact_moment_pinched,
    minimize_S,
    minimize_S1,
    minimize_S2,
    minimize_S_pinched,
    reference_S1,
    reference_S2,
    vanishing_cancellation_check,
)
from .montecarlo import (
    ChannelSpec,
    DensityMatrix,
    EnsembleReport,
    FactoredDensityMatrix,
    SpectralReport,
    apply_channel,
    bell_state,
    conjugate_spec,
    independent_spec,
    moment_ensemble,
    product_output,
    run_ensemble,
    sample_haar,
    spectral_report,
)
from .freeprob import (
    EntropyPrediction,
    MarchenkoPastur,
    entropy_prediction,
    gamma_t_vector,
    mp_density,
    mp_entropy_integral,
    mp_moment,
    naive_bound,
    vn_entropy,
)

__version__ = "0.1.0"
