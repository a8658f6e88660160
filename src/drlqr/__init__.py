"""Distributionally robust LQR for linear systems with multiplicative noise.

Data-driven moment ambiguity sets with high-probability radii, generalized
Riccati solvers, LMI-based robust synthesis, and mean-square stability
certification.
"""

from .ambiguity import (AmbiguityConfig, InsufficientDataError, MomentAmbiguity,
                        SampleSet, SampleSizeError, ambiguity_radii,
                        build_ambiguity, empirical_moments, load_samples_csv,
                        min_sample_size, t_mu, t_sigma)
from .drsynth import DrSynthesisError, SynthesisResult, synth_full, synth_rhc
from .experiment import (Example1Result, ExperimentConfig, RunRecord,
                         replicate_example1, run_sample_complexity,
                         sample_gaussian)
from .matcore import DomainError, NumericalFailure, ShapeError, SymMatrix
from .riccati import Controller, NotStabilizableError, dr_covariance, value_iteration
from .stability import (ClosedLoop, InstabilityError, closed_loop_cost,
                        closed_loop_value_matrix, is_mss)
from .sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem

__version__ = "0.1.0"

__all__ = [
    "AmbiguityConfig", "ClosedLoop", "Controller", "CostWeights",
    "DisturbanceMoments", "DomainError", "DrSynthesisError", "Example1Result",
    "ExperimentConfig", "InstabilityError", "InsufficientDataError",
    "MomentAmbiguity", "MultNoiseSystem", "NotStabilizableError",
    "NumericalFailure", "RunRecord", "SampleSet", "SampleSizeError",
    "ShapeError", "SymMatrix", "SynthesisResult", "ambiguity_radii",
    "build_ambiguity", "closed_loop_cost", "closed_loop_value_matrix",
    "dr_covariance", "empirical_moments", "is_mss", "load_samples_csv",
    "min_sample_size", "replicate_example1", "run_sample_complexity",
    "sample_gaussian", "synth_full", "synth_rhc", "t_mu", "t_sigma",
    "value_iteration",
]
