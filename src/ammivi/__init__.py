"""Bayesian AMMI models for genotype-by-environment data.

Mean-field variational inference with a Gibbs-sampler reference
implementation, a simulation harness, and predictive reporting.
"""

from .analysis import PredictiveSummary, compare, export_heatmap, in_sample_rmse, predict, rmse
from .freqfit import fit_additive, fit_interaction, frequentist_fit
from .gibbs import PosteriorDraws, full_conditional, gibbs_fit, rhat_table, summarize
from .model import (Dataset, Hyperparams, ModelConfig, ThetaPoint, default_hyperparams,
                    load_csv, load_theta_csv, mean_matrix, post_process, write_csv,
                    write_theta_csv)
from .simulate import SimScenario, scenario_grid
from .statsmath import (gelman_rubin, orthonormalize_interaction, sample_trunc_normal,
                        trunc_normal_moments)
from .vi import (ExpectationCache, FitResult, VariationalState, elbo, fit,
                 init_state, posterior_mean_theta)

__version__ = "0.1.0"
