"""Sparse superposition codes on the AWGN channel.

Codec (Gaussian dictionary, exhaustive least-squares decoding), analytic
error-probability bound engine, Reed-Solomon outer-code composition,
dictionary power diagnostics, and a seeded Monte Carlo harness with a CSV
curve generator and CLI.
"""

from .bounds import (
    AchievableRate,
    BoundQuery,
    InfeasibleError,
    SectionBound,
    TailBound,
    achievable_rate,
    channel_dispersion,
    min_section_size_rate_for_target,
    mistake_tail_bound,
    normal_approximation_rate,
    section_bound,
    split_bound,
    subset_rate,
    union_bound,
)
from .codec import (
    DecodeResult,
    Dictionary,
    EnumerationCapError,
    SparseCoefficients,
    awgn_channel,
    count_mistakes,
    decode_exhaustive,
    decoding_statistic,
    encode,
    generate_dictionary,
    normalized_power,
    synthesize,
    to_bits,
)
from .diagnostics import (
    ColumnGeometry,
    PowerReport,
    average_power_signed,
    average_power_unsigned,
    codeword_power_stats,
    column_geometry,
    power_report,
    worst_case_power_bound,
)
from .exponents import (
    capped_deviation_exponent,
    chi_square_exponent,
    deviation_exponent,
    inverse_chi_square_exponent,
    inverse_deviation_exponent,
    optimal_tilt,
    statistic_cgf,
)
from .geometry import (
    ChannelSpec,
    CodeSpec,
    capacity,
    capacity_shape_gap,
    combinatorial_rate,
    combinatorial_surplus,
    log_binomial,
    min_gap,
    partial_capacity,
    section_size_rate_finite,
    section_size_rate_limit,
    small_alpha_slope,
    snr_branch_point,
    spread_direct,
    spread_refined,
)
from .harness import (
    ExperimentConfig,
    MCReport,
    TrialResult,
    emit_curves,
    run_monte_carlo,
    simulate_csv,
)
from .rs import (
    Field,
    RSDecodeReason,
    RSDecodeResult,
    RSSpec,
    compose_decode,
    compose_encode,
    composite_rate,
    rs_decode,
    rs_encode,
)

__version__ = "0.1.0"
