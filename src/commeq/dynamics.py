"""Uncoupled no-regret dynamics over a Bayesian game.

Each round every player emits a type-wise policy, sees the exact (or
Monte-Carlo) expected reward vector induced by everyone else's policy, and
feeds it back into their learner.  The run returns the 1/T-weighted empirical
mixture, per-player ledgers, and the certificate eps = max_i (untruthful swap
regret)_i / T that makes the mixture an eps-approximate communication
equilibrium.

All randomness flows through counter-based streams keyed by (seed, player,
round), so threaded and sequential execution sample identical values.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDims, BadInput
from .game import BayesianGame, MixtureDistribution, expected_rewards
from .learners import StrategySwapLearner, TypewiseSwapLearner, UntruthfulSwapLearner
from .regret import (RegretLedger, accumulate, external_regret, typewise_regret,
                     untruthful_bound, untruthful_regret)

DEFAULT_ENUMERATION_CAP = 10**7

LEARNER_KINDS = ("untruthful", "typewise", "strategy-swap")
REWARD_MODES = ("exact", "sampled")


@dataclass(frozen=True)
class DynamicsConfig:
    horizon: int
    learners: tuple[str, ...] | str = "untruthful"
    reward_mode: str = "exact"          # "exact" | "sampled"
    epsilon: float = 0.1                # sampled mode accuracy target
    delta: float = 0.05                 # sampled mode failure probability
    seed: int = 0
    threads: int = 1
    curve_stride: int = 1               # 0 disables the per-round regret curve
    thin_stride: int = 1                # >1 stores every k-th component (approximation!)
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    strategy_cap: int = 4096

    def learner_kinds(self, n: int) -> tuple[str, ...]:
        kinds = (self.learners,) * n if isinstance(self.learners, str) else tuple(self.learners)
        if len(kinds) != n:
            raise BadInput(f"need {n} learner kinds, got {len(kinds)}")
        for kind in kinds:
            if kind not in LEARNER_KINDS:
                raise BadInput(f"unknown learner kind {kind!r}")
        return kinds


@dataclass
class RunResult:
    mixture: MixtureDistribution
    ledgers: list[RegretLedger]
    certificate: float
    untruthful: list[float]
    curve: np.ndarray                   # rows: t, player, external, typewise, untruthful, bound
    horizon: int
    sigma_traces: list[np.ndarray | None] = field(default_factory=list)


def exact_reward(game: BayesianGame, i: int, policies,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """Exact expected reward u_i(theta_i, a_i) under the others' type-wise policies."""
    opponents = [np.asarray(policies[j])[None] for j in range(game.n) if j != i]
    return expected_rewards(game, i, opponents, cap)[0]


def sample_count(epsilon: float, delta: float, n: int, horizon: int,
                 max_type_action: int) -> int:
    """Per-entry Monte-Carlo sample count for the sampled-reward oracle."""
    return math.ceil((8.0 / epsilon**2)
                     * math.log(2.0 * n * horizon * max_type_action / delta))


def sampled_reward(game: BayesianGame, i: int, policies, epsilon: float, delta: float,
                   rng: np.random.Generator, horizon: int) -> np.ndarray:
    """Monte-Carlo estimate of exact_reward; each entry averages its full sample
    budget, so it lands within epsilon/4 of the exact value except with the
    per-entry failure probability the budget was sized for."""
    nt, na = game.num_types, game.num_actions
    max_ta = max(k * m for k, m in zip(nt, na))
    n_samples = sample_count(epsilon, delta, game.n, horizon, max_ta)
    others = [j for j in range(game.n) if j != i]
    other_dims = [nt[j] for j in others]
    cond = game.prior.conditional_matrix(i)
    v = game.payoff_from_own_view(i)    # (K_i, M_i, T_-i, A_-i)
    out = np.empty((nt[i], na[i]))
    for theta in range(nt[i]):
        flat_types = rng.choice(cond.shape[1], size=n_samples, p=cond[theta])
        type_idx = np.unravel_index(flat_types, other_dims) if others else ()
        flat_actions = np.zeros(n_samples, dtype=np.int64)
        for pos, j in enumerate(others):
            pj = np.asarray(policies[j], dtype=float)
            rows = pj[type_idx[pos]]
            draws = (rows.cumsum(axis=1) < rng.random(n_samples)[:, None]).sum(axis=1)
            draws = np.minimum(draws, pj.shape[1] - 1)
            flat_actions = flat_actions * pj.shape[1] + draws
        out[theta] = v[theta, :, flat_types, flat_actions].mean(axis=0)
    return out


def _round_rng(seed: int, player: int, t: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, ((player + 1) << 48) | t], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _make_learner(kind: str, game: BayesianGame, i: int, config: DynamicsConfig):
    nt, na = game.num_types[i], game.num_actions[i]
    rho = game.prior.marginals[i]
    if kind == "untruthful":
        return UntruthfulSwapLearner(rho, na, config.horizon)
    if kind == "typewise":
        return TypewiseSwapLearner(rho, na)
    return StrategySwapLearner(nt, na, cap=config.strategy_cap)


def run_dynamics(game: BayesianGame, config: DynamicsConfig) -> RunResult:
    t_max = int(config.horizon)
    if t_max < 1:
        raise BadDims("horizon must be >= 1")
    if config.thin_stride > 1 and t_max % config.thin_stride != 0:
        raise BadDims("thin_stride must divide the horizon")
    if config.threads < 1:
        raise BadInput("threads must be >= 1")
    if config.reward_mode not in REWARD_MODES:
        raise BadInput(f"unknown reward mode {config.reward_mode!r}")
    if config.reward_mode == "sampled" and not (config.epsilon > 0 and 0 < config.delta < 1):
        raise BadInput("sampled rewards need eps > 0 and 0 < delta < 1")
    kinds = config.learner_kinds(game.n)
    learners = [_make_learner(kinds[i], game, i, config) for i in range(game.n)]
    ledgers = [RegretLedger.create(game.prior.marginals[i], game.num_actions[i])
               for i in range(game.n)]
    policy_trace = [np.empty((t_max, game.num_types[i], game.num_actions[i]))
                    for i in range(game.n)]
    sigma_traces: list[np.ndarray | None] = [
        np.empty((t_max, learners[i].S)) if kinds[i] == "strategy-swap" else None
        for i in range(game.n)]
    curve_rows: list[list[float]] = []
    prev_u: list[np.ndarray | None] = [None] * game.n

    pool = ThreadPoolExecutor(max_workers=config.threads) if config.threads > 1 else None
    try:
        for t in range(1, t_max + 1):
            def decide(i: int) -> np.ndarray:
                out = learners[i].step(prev_u[i])
                if kinds[i] == "strategy-swap":
                    sigma_traces[i][t - 1] = out
                    return learners[i].policy_marginal()
                return out
            if pool is None:
                policies = [decide(i) for i in range(game.n)]
            else:
                policies = list(pool.map(decide, range(game.n)))

            def reward(i: int) -> np.ndarray:
                if config.reward_mode == "sampled":
                    rng = _round_rng(config.seed, i, t)
                    return sampled_reward(game, i, policies, config.epsilon,
                                          config.delta, rng, t_max)
                return exact_reward(game, i, policies, config.enumeration_cap)
            if pool is None:
                rewards = [reward(i) for i in range(game.n)]
            else:
                rewards = list(pool.map(reward, range(game.n)))

            for i in range(game.n):
                policy_trace[i][t - 1] = policies[i]
                accumulate(ledgers[i], policies[i], rewards[i])
                prev_u[i] = rewards[i]
            if config.curve_stride and t % config.curve_stride == 0:
                for i in range(game.n):
                    curve_rows.append([
                        float(t), float(i),
                        external_regret(ledgers[i]),
                        typewise_regret(ledgers[i]),
                        untruthful_regret(ledgers[i]),
                        untruthful_bound(t, game.num_types[i], game.num_actions[i]),
                    ])
    finally:
        if pool is not None:
            pool.shutdown()

    mixture = _trace_to_mixture(policy_trace, t_max, config.thin_stride)
    regrets = [untruthful_regret(led) for led in ledgers]
    certificate = max(0.0, max(r / t_max for r in regrets))
    curve = np.asarray(curve_rows) if curve_rows else np.empty((0, 6))
    return RunResult(mixture, ledgers, certificate, regrets, curve, t_max, sigma_traces)


def _trace_to_mixture(policy_trace, t_max: int, thin: int) -> MixtureDistribution:
    if thin <= 1:
        weights = np.full(t_max, 1.0 / t_max)
        return MixtureDistribution.from_stacked(weights, policy_trace)
    keep = np.arange(thin - 1, t_max, thin)
    weights = np.full(keep.size, thin / t_max)
    return MixtureDistribution.from_stacked(weights, [p[keep] for p in policy_trace])


def empirical_distribution(profiles) -> MixtureDistribution:
    """Uniform-weight mixture of per-round product profiles."""
    t = len(profiles)
    return MixtureDistribution.create(np.full(t, 1.0 / t), profiles)


# ---------------------------------------------------------------------------
# serialization

def write_regret_csv(path: str, curve: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,player,external,typewise,untruthful,bound\n")
        for row in curve:
            vals = ",".join(repr(float(v)) for v in row[2:])
            fh.write(f"{int(row[0])},{int(row[1])},{vals}\n")


def result_to_json_dict(result: RunResult) -> dict:
    mix = result.mixture
    return {
        "horizon": result.horizon,
        "certificate": result.certificate,
        "per_player_untruthful_regret": list(result.untruthful),
        "mixture": {
            "kind": "mixture",
            "weights": mix.weights.tolist(),
            "policies": [p.tolist() for p in mix.policies],
        },
    }


def write_equilibrium_json(path: str, result: RunResult) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result_to_json_dict(result), fh, sort_keys=True)
        fh.write("\n")


def write_certificate_txt(path: str, result: RunResult, game: BayesianGame) -> None:
    bound = max(untruthful_bound(result.horizon, game.num_types[i], game.num_actions[i])
                for i in range(game.n)) / result.horizon
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"epsilon = {result.certificate!r}\n")
        fh.write(f"worst_case_bound_at_T = {bound!r}\n")
        fh.write(f"horizon = {result.horizon}\n")
