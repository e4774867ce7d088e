"""Half-duplex two-hop relay diversity toolkit.

Simulates linear relay processing schemes (cyclic delay diversity, phase
rolling, custom unitary-scaled families), estimates outage and ML error
probabilities by reproducible Monte Carlo, evaluates the closed-form
Jensen-outage bracket built on the product-Rayleigh law, and extracts
diversity slopes from SNR sweeps.
"""

__version__ = "0.1.0"

from .channel_model import (
    ChannelRealization,
    effective_channel,
    simulate_normalized,
    simulate_two_hop,
    two_hop,
)
from .codebook import (
    Codebook,
    cdd_condition,
    difference_matrix,
    gaussian_codebook,
    min_gram_eigenvalue,
    phase_rolling_condition,
    rank_full,
)
from .errors import (
    ConfigError,
    FileFormatError,
    InsufficientDataError,
    InternalConsistencyError,
    InvalidParameterError,
    RelaydivError,
    ResourceLimitError,
    SchemeInvalidError,
)
from .information import (
    jensen_mi,
    jensen_mi_via_gramian,
    mutual_information,
)
from .outage_analysis import (
    OutageCurve,
    ProbEstimate,
    SlopeEstimate,
    adaptive_trials,
    analytic_jensen_bracket,
    bessel_k1,
    fit_diversity_slope,
    mc_exact_outage,
    mc_jensen_outage,
    mc_ml_error,
    product_rayleigh_cdf,
    union_bound,
)
from .relay_schemes import (
    GramianSummary,
    RelayScheme,
    custom_scheme,
    cyclic_delay_scheme,
    dft_matrix,
    gramian,
    phase_rolling_scheme,
)
