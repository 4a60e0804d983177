"""Approximate communication equilibria of finite Bayesian games.

Simulate uncoupled no-regret dynamics driven by an untruthful-swap-regret
minimizer, account every regret notion exactly from ledgers, certify the
resulting play distribution (deviation gains, strategy representability,
conditional independence), stress learners on adversarial reward streams, and
verify price-of-anarchy bounds for conditionally smooth games.
"""

from .game import (BayesianGame, MixtureDistribution, PriorModel,
                   StrategyDistribution, load_game, mixture_to_tabular, save_game,
                   uniform_policy, validate_game)
from .transforms import (DeviationPair, SwapTransform, assemble_transform,
                         deviation_to_transform, fixed_point, linear_to_transform)
from .learners import StrategySwapLearner, TypewiseSwapLearner, UntruthfulSwapLearner
from .regret import (RegretLedger, accumulate, external_regret, strategy_regret,
                     typewise_regret, untruthful_bound, untruthful_regret,
                     untruthful_witness)
from .dynamics import (DynamicsConfig, RunResult, exact_reward, run_dynamics,
                       sample_count, sampled_reward)
from .verifier import (EquilibriumCertificate,
                       anf_bs_epsilon, bne_epsilon, coarse_epsilon,
                       comm_eq_epsilon, conditional_independence,
                       deviation_tensor, sfce_epsilon, strategy_representable)
from .adversary import LowerBoundInstance, build_instance, run_experiment
from .poa import (PoaReport, QuasilinearGame, SmoothnessSpec, check_smoothness,
                  poa_report)

__all__ = [
    "BayesianGame", "MixtureDistribution", "PriorModel", "StrategyDistribution",
    "load_game", "mixture_to_tabular", "save_game", "uniform_policy", "validate_game",
    "DeviationPair", "SwapTransform", "assemble_transform", "deviation_to_transform",
    "fixed_point", "linear_to_transform",
    "StrategySwapLearner", "TypewiseSwapLearner", "UntruthfulSwapLearner",
    "RegretLedger", "accumulate", "external_regret", "strategy_regret", "typewise_regret",
    "untruthful_bound", "untruthful_regret", "untruthful_witness",
    "DynamicsConfig", "RunResult", "exact_reward", "run_dynamics", "sample_count",
    "sampled_reward",
    "EquilibriumCertificate", "anf_bs_epsilon", "bne_epsilon", "coarse_epsilon",
    "comm_eq_epsilon", "conditional_independence", "deviation_tensor", "sfce_epsilon",
    "strategy_representable",
    "LowerBoundInstance", "build_instance", "run_experiment",
    "PoaReport", "QuasilinearGame", "SmoothnessSpec", "check_smoothness", "poa_report",
]

__version__ = "0.1.0"
