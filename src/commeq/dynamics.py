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
from dataclasses import dataclass

import numpy as np

from .errors import BadDims, BadInput, SupportTooLarge
from .game import (BayesianGame, MixtureDistribution, expected_rewards, open_output,
                   policy_product)
from .learners import StrategySwapLearner, TypewiseSwapLearner, UntruthfulSwapLearner
from .regret import (RegretLedger, accumulate, block_rounds, external_regret,
                     typewise_regret, untruthful_bound, untruthful_regret)

SAMPLE_CAP = 2**22               # Monte-Carlo samples per entry of a sampled reward

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
    sampling: tuple[float, float] | None = None     # sampled rewards: slack, confidence


def exact_reward(game: BayesianGame, i: int, policies) -> np.ndarray:
    """Exact expected reward u_i(theta_i, a_i) under the others' type-wise policies."""
    opponents = [np.asarray(policies[j])[None] for j in range(game.n) if j != i]
    return expected_rewards(game, i, opponents)[0]


def sample_count(epsilon: float, delta: float, n: int, horizon: int,
                 max_type_action: int) -> int:
    """Per-entry Monte-Carlo sample count for the sampled-reward oracle.

    BadInput unless eps is finite and positive and 0 < delta < 1;
    SupportTooLarge past SAMPLE_CAP, where an eps whose square underflows
    asks for infinitely many.  Each type of an oracle call splits this many
    samples over the opponent cells in one multinomial draw, so a sampled
    call costs about as much as an exact call or more; the checks come before
    any draw.
    """
    if not (0 < epsilon < math.inf and 0 < delta < 1):
        raise BadInput("sampled rewards need a finite eps > 0 and 0 < delta < 1")
    scale = 8.0 / epsilon**2 if epsilon**2 > 0 else math.inf
    count = scale * math.log(2.0 * n * horizon * max_type_action / delta)
    if count > SAMPLE_CAP:
        raise SupportTooLarge(f"eps = {epsilon!r} needs {count:.3g} samples per entry, "
                              f"past the cap of {SAMPLE_CAP}")
    return math.ceil(count)


def sampled_reward(game: BayesianGame, i: int, policies, epsilon: float, delta: float,
                   rng: np.random.Generator, horizon: int) -> np.ndarray:
    """Monte-Carlo estimate of exact_reward; each entry averages its full sample
    budget, so it lands within epsilon/4 of the exact value except with the
    per-entry failure probability the budget was sized for.

    The samples of a type theta enter the mean only through how often each
    opponent cell (theta_-i, a_-i) is drawn, so one ``rng.multinomial`` draws
    those counts for every type at once from
    q_theta(theta_-i, a_-i) = rho(theta_-i | theta) * prod_j p_j(a_j | theta_j).
    A call costs about O(|Theta_i| x cells), about as much as exact_reward or
    more.
    """
    nt, na = game.num_types, game.num_actions
    max_ta = max(k * m for k, m in zip(nt, na))
    n_samples = sample_count(epsilon, delta, game.n, horizon, max_ta)
    # each action gets the mass an inverse-CDF draw gives it: the row's CDF
    # steps clipped to [0, 1], with whatever the row lacks on the last action
    opponents = []
    for j in range(game.n):
        if j != i:
            steps = np.cumsum(policies[j], axis=1, dtype=float)
            steps[:, -1] = 1.0
            np.clip(steps, 0.0, 1.0, out=steps)
            steps[:, 1:] -= steps[:, :-1]
            opponents.append(steps[None])
    table = policy_product(np.ones((1, 1, 1)), opponents)[0]            # (T_-i, A_-i)
    q = (game.prior.conditional_matrix(i)[:, :, None] * table).reshape(nt[i], -1)
    q /= q.sum(axis=1, keepdims=True)     # so rounding never trips multinomial's check
    counts = rng.multinomial(n_samples, q).astype(float)
    cells = game.payoff_from_own_view(i).reshape(nt[i], na[i], -1)   # (K_i, M_i, T_-i A_-i)
    return np.einsum("kac,kc->ka", cells, counts) / n_samples


def _round_rng(seed: int, player: int, t: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, ((player + 1) << 48) | t], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class _Group:
    """Players stepped by one learner, with one stacked ledger entry each."""

    kind: str
    players: list[int]
    learner: object
    ledger: RegretLedger
    rewards: list                          # this block's (B, K, M) rewards so far
    prev: np.ndarray | None = None         # the reward the learner is fed next


def _make_groups(game: BayesianGame, kinds: tuple[str, ...],
                 config: DynamicsConfig) -> list[_Group]:
    """Untruthful players of equal (K, M) share one batched learner, and so do
    type-wise ones; a strategy-swap player steps a learner of its own."""
    keys = [i if kind == "strategy-swap" else (kind, game.num_types[i], game.num_actions[i])
            for i, kind in enumerate(kinds)]
    groups = []
    for key in dict.fromkeys(keys):                     # in order of first player
        players = [i for i, other in enumerate(keys) if other == key]
        first = players[0]
        kind, nt, na = kinds[first], game.num_types[first], game.num_actions[first]
        rows = np.stack([game.prior.marginals[i] for i in players])
        if kind == "untruthful":
            learner = UntruthfulSwapLearner(rows, na, config.horizon)
        elif kind == "typewise":
            learner = TypewiseSwapLearner(rows, na)
        else:
            learner = StrategySwapLearner(nt, na)
        groups.append(_Group(kind, players, learner, RegretLedger.create(rows, na), []))
    return groups


def run_dynamics(game: BayesianGame, config: DynamicsConfig) -> RunResult:
    t_max = int(config.horizon)
    if t_max < 1:
        raise BadDims("horizon must be >= 1")
    if config.threads < 1:
        raise BadInput("threads must be >= 1")
    if config.reward_mode not in REWARD_MODES:
        raise BadInput(f"unknown reward mode {config.reward_mode!r}")
    if config.reward_mode == "sampled":
        max_ta = max(k * m for k, m in zip(game.num_types, game.num_actions))
        sample_count(config.epsilon, config.delta, game.n, t_max, max_ta)
    kinds = config.learner_kinds(game.n)
    groups = _make_groups(game, kinds, config)
    block = block_rounds(*(g.ledger for g in groups))
    policy_trace = [np.empty((t_max, game.num_types[i], game.num_actions[i]))
                    for i in range(game.n)]
    curve = np.empty((t_max, game.n, 6))
    curve[:, :, 0] = np.arange(1, t_max + 1)[:, None]
    curve[:, :, 1] = np.arange(game.n)

    # exact rewards make numpy calls too small to release the interpreter lock
    # for long, so a pool would only add hand-offs there
    pooled = config.threads > 1 and config.reward_mode == "sampled"
    pool = ThreadPoolExecutor(max_workers=config.threads) if pooled else None
    try:
        for t in range(1, t_max + 1):
            for g in groups:
                played = g.learner.step(g.prev)
                if g.kind == "strategy-swap":           # the step returned sigma
                    played = g.learner.policy_marginal()[None]
                for b, i in enumerate(g.players):
                    policy_trace[i][t - 1] = played[b]
            policies = [p[t - 1] for p in policy_trace]

            def reward(i: int) -> np.ndarray:
                if config.reward_mode == "sampled":
                    rng = _round_rng(config.seed, i, t)
                    return sampled_reward(game, i, policies, config.epsilon,
                                          config.delta, rng, t_max)
                return exact_reward(game, i, policies)
            if pool is None:
                rewards = [reward(i) for i in range(game.n)]
            else:
                rewards = list(pool.map(reward, range(game.n)))

            for g in groups:
                u = np.stack([rewards[i] for i in g.players])
                g.rewards.append(u)
                g.prev = u[0] if g.kind == "strategy-swap" else u
            if t % block == 0 or t == t_max:    # a block is played: account for it
                for g in groups:
                    t0 = t - len(g.rewards)
                    x = np.stack([policy_trace[i][t0:t] for i in g.players], axis=1)
                    rows = accumulate(g.ledger, x, g.rewards)
                    g.rewards = []
                    curve[t0:t, g.players, 2] = external_regret(rows)
                    curve[t0:t, g.players, 3] = typewise_regret(rows)
                    curve[t0:t, g.players, 4] = untruthful_regret(rows)
                    curve[t0:t, g.players, 5] = untruthful_bound(rows.rounds, *x.shape[-2:])
    finally:
        if pool is not None:
            pool.shutdown()

    entries = {i: entry for g in groups for i, entry in zip(g.players, g.ledger.entries())}
    ledgers = [entries[i] for i in range(game.n)]
    mixture = MixtureDistribution.from_stacked(np.full(t_max, 1.0 / t_max), policy_trace)
    regrets = [untruthful_regret(led) for led in ledgers]
    certificate = max(0.0, max(r / t_max for r in regrets))
    sampled = config.reward_mode == "sampled"
    sampling = (config.epsilon / 2, 1 - config.delta) if sampled else None
    return RunResult(mixture, ledgers, certificate, regrets, curve.reshape(-1, 6), t_max,
                     sampling)


# ---------------------------------------------------------------------------
# serialization

def write_regret_csv(path: str, curve: np.ndarray) -> None:
    with open_output(path) as fh:
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
    with open_output(path) as fh:
        fh.write(json.dumps(result_to_json_dict(result), sort_keys=True))   # C encoder
        fh.write("\n")


def write_certificate_txt(path: str, result: RunResult, game: BayesianGame) -> None:
    bound = max(untruthful_bound(result.horizon, game.num_types[i], game.num_actions[i])
                for i in range(game.n)) / result.horizon
    with open_output(path) as fh:
        fh.write(f"epsilon = {result.certificate!r}\n")
        fh.write(f"worst_case_bound_at_T = {bound!r}\n")
        fh.write(f"horizon = {result.horizon}\n")
        for key, value in sampling_fields(result).items():
            fh.write(f"{key} = {value!r}\n")


def sampling_fields(result: RunResult) -> dict:
    """For sampled rewards, what bounds the exact eps of the play: each
    Monte-Carlo entry lies within eps/4 of its exact value except with the
    probability delta the sample budget was sized for, so the exact eps is at
    most the certificate plus eps/2 with confidence 1 - delta.  Empty for
    exact rewards."""
    if result.sampling is None:
        return {}
    slack, confidence = result.sampling
    return {"sampling_slack": slack, "confidence": confidence,
            "epsilon_upper_bound": result.certificate + slack}
