"""Hierarchical imprecise-probability reliability inference.

Turns per-subdomain success/failure counts, operational-profile weights,
and interval-valued prior hyperparameters into posterior CDF envelopes of
non-failure probability and future reliability at subdomain, domain, and
system levels.
"""

from .baselines import (
    BetaPosterior,
    bb_expected_future_reliability,
    bb_mean_envelope,
    bb_system_samples,
    bb_update,
    informative_prior,
)
from .inference import (
    Band,
    InferenceReport,
    empirical_cdf,
    envelope,
    expected_reliability,
    infer,
)
from .model import (
    DomainSpec,
    GridSpec,
    HyperBox,
    McSpec,
    ReliabilityQuery,
    SubdomainData,
    SystemSpec,
    ValidationError,
    validate,
)

__version__ = "0.1.0"
