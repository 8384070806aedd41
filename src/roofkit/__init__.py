"""Numerical laboratory for output-entropy convex roofs of quantum channels.

Estimate the convex closure of a channel's output entropy by multi-restart
optimization over pure-state decompositions, derive Holevo quantities and
entanglement of formation from it, and probe additivity-type inequalities
with explicit upper/lower bound bookkeeping.
"""

from .additivity import (
    AdditivityReport,
    ContinuityProbe,
    ScanResult,
    TruncationTrace,
    continuity_probe,
    margin_check,
    min_output_margin,
    scan_random,
    truncation_experiment,
)
from .channels import (
    Channel,
    GaussianDensity,
    RandomPhaseSpec,
    TabulatedDensity,
    UniformDensity,
    apply,
    choi,
    completely_depolarizing,
    complementary,
    dephasing,
    direct_sum_mixture,
    is_ppt_choi,
    measure_prepare,
    noiseless,
    output_entropy,
    partial_trace_channel,
    phase_channel_complement_mp,
    phase_complement_gram_deviation,
    random_phase_channel,
    random_stinespring,
    schur_matrix,
    tail_entropy_bound,
    tail_quantities,
    tensor_channel,
)
from .core import (
    DensityMatrix,
    PureState,
    SubsystemShape,
    TruncationProjector,
    basis_state,
    is_psd,
    marginals,
    mixed_with,
    partial_trace,
    partial_transpose,
    purify,
    random_density,
    random_pure,
    random_unitary,
    rng_for,
    tensor,
    top_eigenbasis,
    trace_norm,
    trace_out,
    truncate_state,
)
from .entropy import (
    EnergyConstraint,
    binary_entropy,
    extended_entropy,
    gibbs_state,
    min_orbit_energy,
    power_trace,
    relative_entropy,
    spectrum_entropy,
    von_neumann_entropy,
)
from .errors import (
    DegenerateTruncationError,
    DimensionError,
    InfeasibleError,
    NumericError,
    ParameterError,
    ResolutionError,
    RoofkitError,
    UnsupportedError,
    ValidityError,
)
from .roof import (
    Ensemble,
    RoofOptions,
    RoofResult,
    average_output_entropy,
    ccooe,
    chi_direct,
    chi_from_roof,
    ensemble_from_mixing,
    eof,
    min_output_entropy,
)
from .serialize import VERSION as __version__, channel_from_family
