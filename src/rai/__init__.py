"""Thresholded streaming feature selection with alpha-investing.

A multi-pass approximation to forward stepwise regression: candidates are
tested against a per-pass t-threshold, each test spends alpha-wealth, and
each rejection earns some back, which bounds the marginal false discovery
rate.  Products of selected terms can be fed back into the stream to search
interaction spaces without enumerating them up front.

Exact references for small problems live in :mod:`rai.oracles`; synthetic
benchmarks in :mod:`rai.simulate`; the command line front end in
:mod:`rai.cli`.
"""

__version__ = "0.1.0"

from . import errors
from .engine import (RaiConfig, SelectionTrace, fit_terms, run_rai,
                     skip_passes, test_candidate)
from .kernel import (COLLINEARITY_TOL, RESIDUAL_TOL, T_STAT_MAX, Dataset,
                     ModelState, r_squared_of, standardize)
from .oracles import (BoundInputs, aic, brute_force_subset, forward_stepwise,
                      submodularity_ratio, theorem_bound,
                      theorem_bound_branches)
from .terms import FeatureTerm, generate_candidates, monomial, realize
from .wealth import (ALPHA_FLOOR, DEFAULT_INITIAL_WEALTH, DEFAULT_PAYOUT,
                     WealthLedger, pass_parameters)
from .simulate import METHODS, SCENARIOS, SimSpec, run_experiment

__all__ = [
    "__version__",
    "errors",
    # kernel
    "Dataset", "ModelState", "standardize", "r_squared_of",
    "COLLINEARITY_TOL", "RESIDUAL_TOL", "T_STAT_MAX",
    # wealth
    "WealthLedger", "pass_parameters",
    "DEFAULT_INITIAL_WEALTH", "DEFAULT_PAYOUT", "ALPHA_FLOOR",
    # terms
    "FeatureTerm", "generate_candidates", "monomial", "realize",
    # engine
    "RaiConfig", "run_rai", "test_candidate", "skip_passes", "fit_terms",
    "SelectionTrace",
    # oracles
    "forward_stepwise", "brute_force_subset", "submodularity_ratio",
    "theorem_bound", "theorem_bound_branches", "BoundInputs", "aic",
    # simulation
    "SimSpec", "run_experiment", "SCENARIOS", "METHODS",
]
