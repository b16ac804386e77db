"""Scale-invariant spectral entropy of log-binned distance distributions.

Pipeline: truncated distance extraction -> fixed-resolution logarithmic
binning -> discrete log-frequency spectrum -> spectral entropy.  Poisson
and random-pseudoprime simulators provide stochastic reference models, and
the experiments module probes stability, deviation, and ensemble behavior.
"""

__version__ = "0.1.0"

from .binning import LogBinning, log_bin, rescale_invariance_check
from .cramer import (
    CramerConfig,
    cramer_distances,
    cramer_entropy,
    members_in_window,
    nearest_member,
    simulate_cramer_set,
)
from .distances import (
    DistanceMultiset,
    aggregate_distances,
    read_values,
    truncated_distances,
    write_values,
)
from .entropy import EntropyReport, entropy_from_counts, full_pipeline, spectral_entropy
from .errors import (
    ConfigurationError,
    CoverageError,
    DegenerateRangeError,
    DegenerateSpectrumError,
    EmptyDistancesError,
    InvalidArgumentError,
    SpecentError,
)
from .experiments import (
    DeviationProfile,
    EnsembleDistribution,
    StabilityProfile,
    deviation_profile,
    ensemble_distribution,
    matched_null_config,
    stability_profile,
)
from .nullmodel import (
    NullBaseline,
    NullEstimate,
    PoissonConfig,
    StabilizationReport,
    baseline_from_estimate,
    check_bin_stabilization,
    estimate_null_entropy,
    load_null_baseline,
    null_entropy_once,
    write_baseline,
)
from .primes import PrimeTable, first_n_primes, primes_in_window, sieve_up_to
from .spectrum import Spectrum, log_spectrum

__all__ = [
    "__version__",
    "CramerConfig",
    "ConfigurationError",
    "CoverageError",
    "DegenerateRangeError",
    "DegenerateSpectrumError",
    "DeviationProfile",
    "DistanceMultiset",
    "EmptyDistancesError",
    "EnsembleDistribution",
    "EntropyReport",
    "InvalidArgumentError",
    "LogBinning",
    "NullBaseline",
    "NullEstimate",
    "PoissonConfig",
    "PrimeTable",
    "SpecentError",
    "Spectrum",
    "StabilityProfile",
    "StabilizationReport",
    "aggregate_distances",
    "baseline_from_estimate",
    "check_bin_stabilization",
    "cramer_distances",
    "cramer_entropy",
    "deviation_profile",
    "ensemble_distribution",
    "entropy_from_counts",
    "estimate_null_entropy",
    "first_n_primes",
    "full_pipeline",
    "load_null_baseline",
    "log_bin",
    "log_spectrum",
    "matched_null_config",
    "members_in_window",
    "nearest_member",
    "null_entropy_once",
    "primes_in_window",
    "read_values",
    "rescale_invariance_check",
    "sieve_up_to",
    "simulate_cramer_set",
    "spectral_entropy",
    "stability_profile",
    "truncated_distances",
    "write_baseline",
    "write_values",
]
