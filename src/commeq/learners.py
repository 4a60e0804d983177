"""Online learners: the untruthful-swap-regret minimizer, the type-wise swap
learner that is a batch of one-type untruthful learners, and the explicit
strategy-space swap learner.

All learners share the feed-then-decide convention: calling ``step(reward)``
first applies the previous round's reward (``None`` on round one), then emits
the next decision.  Identical seeds and reward streams give bit-identical
decision streams; there is no hidden randomness anywhere in this module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadInput, RewardOutOfRange
from .game import decode_strategy_profile, prior_rows, strategy_space_size_under
from .transforms import _fixed_points, _power_fixed_point, _solve_fixed_point

REWARD_TOL = 1e-9
LEARNER_FP_TOL = 1e-10
LEARNER_FP_CAP = 20_000
DEFAULT_STRATEGY_LEARNER_CAP = 4096


def _softmax(logw: np.ndarray) -> np.ndarray:
    z = logw - logw.max(axis=0, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=0, keepdims=True)


def _check_reward(u: np.ndarray, low: float, high) -> None:
    """Reject rewards outside [low, high]; written so that NaN fails too.
    ``high`` is a scalar or one bound per learner."""
    if not (u.min() >= low and (u <= high).all()):
        raise RewardOutOfRange(f"reward entries span [{u.min():.6g}, {u.max():.6g}], "
                               "outside the range [0, r] or not finite")


def _reward_in(prev_reward, shape: tuple[int, ...]) -> np.ndarray:
    """The reward as floats of ``shape``, else BadInput or RewardOutOfRange."""
    u = np.asarray(prev_reward, dtype=float)
    if u.shape != shape:
        raise BadInput(f"reward must have shape {shape}")
    _check_reward(u, -REWARD_TOL, 1.0 + REWARD_TOL)
    return u


def _count(value, name: str) -> int:
    """A size argument as an int; BadInput unless it is an integer >= 1."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise BadInput(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def fixed_rate_eta(num_decisions: int, horizon: int) -> float:
    """Step size sqrt(8 ln d / T) for regret sqrt(T ln d / 2): the fixed rate, T's one way in."""
    return math.sqrt(8.0 * math.log(num_decisions) / max(1, horizon))


class _DoublingBank:
    """A grid of independent MWU learners sharing decision size d.

    ``shape`` indexes the learners, batch axis first: (B, K, K, M) action
    experts, (B, K) report experts.  Weights, rewards and decisions are laid
    out decision axis first, ``(d,) + shape``, and kept as (d, learners).  In
    C order each per-learner max or sum is d - 1 elementwise operations over
    contiguous slabs; in order F, the fixed rate's, each softmax sum adds d
    contiguous entries, pairwise from 8 on, as a last-axis sum does.
    ``ranges``, broadcast against ``shape``, are the learners' reward ranges;
    zero-range learners ignore updates and stay uniform.  A fixed rate
    ``fixed_eta`` (a horizon's one way in) replaces the doubling trick's
    budget, epochs, restarts and reward check (its caller forms the rewards).
    """

    def __init__(self, shape: tuple[int, ...], d: int, ranges, fixed_eta=None):
        self.shape = shape
        self.d = int(d)
        self.ranges = np.broadcast_to(np.asarray(ranges, dtype=float), shape).flatten()
        self.live = self.ranges > 0
        # slightly looser than the public 1e-9: fixed-point and reward dust compound
        self.high = self.ranges + 1e-8
        self.order = "C" if fixed_eta is None else "F"
        self.logw = np.zeros((d, self.ranges.size), order=self.order)
        if fixed_eta is not None:
            self.eta, self.budget = fixed_eta, None
            return
        self.epoch_cum = np.zeros((d, self.ranges.size))
        self.budget = np.full(self.ranges.size, math.log(d))
        self.eta = np.ones(self.ranges.size) if d > 1 else np.zeros(self.ranges.size)

    def decisions(self) -> np.ndarray:
        return _softmax(self.logw).reshape((self.d,) + self.shape)

    def update(self, rewards: np.ndarray) -> None:
        rewards = rewards.reshape(self.logw.shape)
        if self.budget is not None:
            _check_reward(rewards, -1e-8, self.high)
        if self.d <= 1:
            return
        rn = np.divide(rewards, self.ranges, where=self.live,
                       out=np.zeros(self.logw.shape, order=self.order))
        self.logw += self.eta * rn
        if self.budget is None:
            return
        self.epoch_cum += rn
        burst = self.epoch_cum.max(axis=0) > self.budget
        if burst.any():
            self.budget[burst] *= 2.0
            self.eta[burst] = np.sqrt(math.log(self.d) / self.budget[burst])
            self.logw[:, burst] = 0.0
            self.epoch_cum[:, burst] = 0.0


def _hot_fixed_points(dense: np.ndarray, seed: np.ndarray, tol: float,
                      num_types: int) -> np.ndarray:
    """Fixed points for the learner loop: warm-started power iteration on a
    stack of transforms with a least-squares fallback for degenerate
    (non-positive) entries.  The step routines are looked up in this module,
    so wrappers bound to their names here see the learners' calls."""
    return _fixed_points(dense, seed, tol, LEARNER_FP_CAP, num_types,
                         _power_fixed_point, _solve_fixed_point)


class UntruthfulSwapLearner:
    """Minimizes untruthful swap regret over one player's (types x actions) policies.

    Internally two ``_DoublingBank``s: fixed-rate report experts per true type
    (the horizon's one use) and doubling action experts per (true type, report,
    recommendation).  Each round they assemble a strictly positive swap
    transform whose fixed point is the emitted policy: deviating through it
    gains nothing.

    A (K,) prior row makes one learner, stepped with (K, M) rewards into
    (K, M) policies.  (B, K) rows make B independent learners sharing (K, M)
    that step as one: rewards and policies are (B, K, M), and every entry
    emits the decisions it would emit alone.
    """

    def __init__(self, prior_row, num_actions: int, horizon: int):
        rho = prior_rows(prior_row)
        self.rho = rho.reshape(-1, rho.shape[-1])     # (B, K)
        self.B, self.K = self.rho.shape
        self.M = _count(num_actions, "num_actions")
        self.reports = _DoublingBank((self.B, self.K), self.K, self.rho,
                                     fixed_eta=fixed_rate_eta(self.K, int(horizon)))
        self.bank = _DoublingBank((self.B, self.K, self.K, self.M), self.M,
                                  self.rho[:, :, None, None])
        self.y = self.bank.decisions()        # (M_a, B, K, K, M_a')
        self.x = np.full((self.B, self.K, self.M), 1.0 / self.M)
        # flat indices into w that repeat each w(b, theta, theta') along a'
        self._w_cols = np.arange(self.K * self.rho.size).repeat(self.M).reshape(self.rho.size, -1)
        self._shape = rho.shape + (self.M,)

    def step(self, prev_reward=None) -> np.ndarray:
        """Feed the previous round's reward (None on round one), emit the next policy."""
        return self._step(prev_reward, self._shape)

    def _step(self, prev_reward, shape: tuple[int, ...]) -> np.ndarray:
        """step, with rewards and policies of ``shape``: the (B, K, M) entries
        in C order, grouped as the caller sees them."""
        if prev_reward is not None:
            self._feed(_reward_in(prev_reward, shape).reshape(self.x.shape))
        self._decide()
        return self.x.reshape(shape).copy()

    def _feed(self, u: np.ndarray) -> None:
        ubar = self.rho[:, :, None] * u                            # (B, theta, a)
        # doubling subroutine (theta, theta', a') sees reward x(theta',a') * ubar(theta,a)
        split = ubar.transpose(2, 0, 1)[:, :, :, None, None] * self.x[:, None]
        self.bank.update(split)                             # (a, B, theta, theta', a')
        if self.K > 1:
            # report expert theta sees, per decision theta', the y-weighted collapse
            self.reports.update(np.einsum("abtpc,abtpc->btp", self.y, split).transpose(2, 0, 1))

    def _decide(self) -> None:
        self.w = self.reports.decisions().transpose(1, 2, 0)     # (B, theta, theta')
        self.y = self.bank.decisions()
        x = _hot_fixed_points(self._dense(), self.x.reshape(self.B, -1), LEARNER_FP_TOL,
                              self.K)
        self.x = x.reshape(self.B, self.K, self.M)

    def _dense(self) -> np.ndarray:
        """Q[b, (theta, a), (theta', a')] = w(theta, theta') y(a | theta, theta', a'),
        multiplied over rows of length K M: y as (a, (b, theta), (theta', a'))
        times w repeated along a', then moved to (b, (theta, a), (theta', a'))."""
        km = self.K * self.M
        q = self.y.reshape(self.M, self.B * self.K, km) * self.w.take(self._w_cols)
        return q.transpose(1, 0, 2).reshape(self.B, km, km)


class TypewiseSwapLearner:
    """Per type, a Blum-Mansour swap learner fed that type's reward row scaled
    by its prior probability: a one-type untruthful learner (no report
    experts, the M x M swap transform).  A (K,) prior row steps K of them as
    one batch, (B, K) rows B K of them; rewards and policies are (K, M), or
    (B, K, M)."""

    def __init__(self, prior_row, num_actions: int):
        rho = prior_rows(prior_row)
        self.core = UntruthfulSwapLearner(rho.reshape(-1, 1), num_actions, 1)
        self._shape = rho.shape + (self.core.M,)

    def step(self, prev_reward=None) -> np.ndarray:
        """Feed the previous round's reward (None on round one), emit the next policy."""
        return self.core._step(prev_reward, self._shape)


class StrategySwapLearner:
    """Swap-regret minimizer over the explicit strategy set S_i = A_i^Theta_i.

    One doubling MWU over actions per (strategy, type); the emitted strategy
    distribution is the stationary distribution of the induced |S_i| x |S_i|
    column-stochastic matrix.  Only viable for tiny strategy spaces: |S_i| is
    checked against DEFAULT_STRATEGY_LEARNER_CAP.
    """

    def __init__(self, num_types: int, num_actions: int):
        self.K = _count(num_types, "num_types")
        self.M = _count(num_actions, "num_actions")
        self.S = strategy_space_size_under((self.K,), (self.M,), DEFAULT_STRATEGY_LEARNER_CAP)
        # (S, K) action indices
        self.table = decode_strategy_profile(np.arange(self.S), (self.K,), (self.M,))[0]
        self.bank = _DoublingBank((self.S, self.K), self.M, 1.0)
        self.sigma = np.full(self.S, 1.0 / self.S)

    def step(self, prev_reward=None) -> np.ndarray:
        if prev_reward is not None:
            u = _reward_in(prev_reward, (self.K, self.M))
            self.bank.update(u.T[:, None, :] * self.sigma[:, None])
        z = self.bank.decisions()                       # (M, S, K)
        p = np.ones((self.S, self.S))
        for theta in range(self.K):
            p *= z[self.table[:, theta], :, theta]      # P(s, s') = prod_theta z_{s',theta}(s(theta))
        self.sigma = _hot_fixed_points(p[None], self.sigma[None], LEARNER_FP_TOL, 1)[0]
        return self.sigma.copy()

    def policy_marginal(self) -> np.ndarray:
        """Per-type action marginals of the current strategy distribution."""
        out = np.zeros((self.K, self.M))
        for theta in range(self.K):
            np.add.at(out[theta], self.table[:, theta], self.sigma)
        return out
