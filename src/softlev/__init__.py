"""softlev: softmax and leverage-score query models under query constraints.

A query is a plain vector: x in the energy ball for a softmax model, the
scale vector s in the box for a leverage model.  ``softmax_pmf`` and
``leverage_pmf`` give the exact output distribution at a query, ``draw``
takes seeded samples from it, and ``ModelSpec.max_hellinger`` finds the
query that best separates a pair of models.  Around these: statistical
distances with closed-form gap bounds, constrained query optimization,
likelihood-ratio hypothesis testing with Monte-Carlo sample-complexity
estimation, and a reproducible experiment harness.  Hot kernels are written
in numpy; each optimizer objective takes a stack of query points and
returns its values with their closed-form gradients, so a line-search
round of every restart of a multi-start ascent is one kernel call, and the
gradient at each accepted point comes with it.
"""

from ._kernels import BACKEND
from .bounds import (
    BoundReport,
    extremal_pair,
    lemma_h2_bound,
    lemma_tv_bound,
    leverage_lb_quantity,
    softmax_lb_quantity,
)
from .distributions import (
    DiscreteDistribution,
    draw,
    hellinger_sq,
    mean_under,
    tv,
    variance_under,
)
from .errors import (
    INDISTINGUISHABLE,
    BudgetExceeded,
    ConstraintViolation,
    DegenerateModel,
    DomainError,
    IndistinguishableError,
    InputFormatError,
    RankDeficient,
    ShapeMismatch,
    ZeroLeverage,
)
from .harness import (
    ExperimentSpec,
    SweepRow,
    gaussian_instance,
    load_model_spec,
    low_mass_row_instance,
    padded_identity_instance,
    run_bound_suite,
    run_invariance_suite,
    run_sweep,
    run_taylor_check,
)
from .hypotest import (
    ModelOracle,
    SampleComplexity,
    estimate_sample_complexity,
    estimate_success,
)
from .leverage import (
    BoxConstraint,
    leverage_pmf,
    leverage_pmf_derivative,
    leverage_w,
)
from .model import ModelSpec
from .numerics import gram, min_eigenvalue, row_gram_gap, two_to_infty_norm
from .optimize import (
    OptimizerConfig,
    OptResult,
    max_hellinger_leverage,
    max_hellinger_softmax,
    max_variance_leverage,
    max_variance_softmax,
)
from .rng import derive_seed, generator
from .softmax import EnergyConstraint, softmax_pmf

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BoundReport",
    "BoxConstraint",
    "BudgetExceeded",
    "ConstraintViolation",
    "DegenerateModel",
    "DiscreteDistribution",
    "DomainError",
    "EnergyConstraint",
    "ExperimentSpec",
    "INDISTINGUISHABLE",
    "IndistinguishableError",
    "InputFormatError",
    "ModelOracle",
    "ModelSpec",
    "OptResult",
    "OptimizerConfig",
    "RankDeficient",
    "SampleComplexity",
    "ShapeMismatch",
    "SweepRow",
    "ZeroLeverage",
    "derive_seed",
    "draw",
    "estimate_sample_complexity",
    "estimate_success",
    "extremal_pair",
    "gaussian_instance",
    "generator",
    "gram",
    "hellinger_sq",
    "lemma_h2_bound",
    "lemma_tv_bound",
    "leverage_lb_quantity",
    "leverage_pmf",
    "leverage_pmf_derivative",
    "leverage_w",
    "load_model_spec",
    "low_mass_row_instance",
    "max_hellinger_leverage",
    "max_hellinger_softmax",
    "max_variance_leverage",
    "max_variance_softmax",
    "mean_under",
    "min_eigenvalue",
    "padded_identity_instance",
    "row_gram_gap",
    "run_bound_suite",
    "run_invariance_suite",
    "run_sweep",
    "run_taylor_check",
    "softmax_lb_quantity",
    "softmax_pmf",
    "tv",
    "two_to_infty_norm",
    "variance_under",
]
