"""Numerical workbench for squeezed-light optical phase estimation.

Two engines cover the same squeeze / phase / loss / unsqueeze / intensity
protocol: :mod:`qmetro.gaussian` evaluates its normally ordered second
moments in closed form, and :mod:`qmetro.fock` evolves exact truncated
Fock-space states (the brute-force oracle).  :mod:`qmetro.correlations`
supplies photon-statistics parameters, Fisher information, the estimation
benchmarks and the probe-state catalogue; :mod:`qmetro.protocol` orchestrates
runs and cross-engine comparisons; the ``qmetro`` CLI exposes all of it.

Importing the package loads only the standard library: numpy and scipy are
bound lazily (:mod:`qmetro._lazy`) and load on the first Fock computation.
"""

from .correlations import (
    ProbeFamily,
    ProbeStatistics,
    TableRow,
    UndefinedStatisticError,
    classical_fisher_information,
    cramer_rao_bound,
    heisenberg_limit,
    mandel_q,
    mode_correlation,
    oracle_probe,
    oracle_row,
    path_symmetric_qfi,
    probe_statistics,
    pure_state_qfi,
    shot_noise_limit,
    table_row,
)
from .fock import (
    EmptyProjectionError,
    MixedState,
    ObservableMoments,
    PureState,
    TruncationOverflowError,
    beam_splitter,
    coherent,
    entangled_coherent,
    expectation,
    fidelity,
    loss,
    loss_kraus,
    noon,
    number_distribution,
    number_state,
    observable_moments,
    phase_shift,
    product,
    project_total_photon,
    squeeze,
    squeezed_vacuum,
    to_density,
    twin_fock,
    two_mode_squeezed_vacuum,
    vacuum,
)
from .gaussian import (
    AffineMap,
    MomentVector,
    SingularOperatingPointError,
    loss_map,
    number_variance,
    phase_error,
    phase_error_from_moments,
    protocol_moments,
    protocol_point,
    protocol_slope,
    rotation_map,
    signal,
    signal_slope,
    snl_ratio,
    squeeze_map,
)
from .protocol import (
    ComparisonReport,
    ProtocolConfig,
    ProtocolResult,
    VanishingDerivativeError,
    default_cutoff,
    error_propagation,
    fock_signal_curve,
    gaussian_signal_curve,
    lossless_output_distribution,
    run_both,
    run_fock,
    run_gaussian,
)

__version__ = "0.1.0"
