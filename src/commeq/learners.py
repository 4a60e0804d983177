"""Online learners: plain and doubling-trick multiplicative weights, the
untruthful-swap-regret minimizer, per-type swap learners, and the explicit
strategy-space swap learner.

All learners share the feed-then-decide convention: calling ``step(reward)``
first applies the previous round's reward (``None`` on round one), then emits
the next decision.  Identical seeds and reward streams give bit-identical
decision streams; there is no hidden randomness anywhere in this module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadInput, RewardOutOfRange, SupportTooLarge
from .game import prior_rows, strategy_table
from .transforms import _fixed_points, _power_fixed_point, _solve_fixed_point

REWARD_TOL = 1e-9
LEARNER_FP_TOL = 1e-10
LEARNER_FP_CAP = 20_000
DEFAULT_STRATEGY_LEARNER_CAP = 4096


def _softmax(logw: np.ndarray, axis: int) -> np.ndarray:
    z = logw - logw.max(axis=axis, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=axis, keepdims=True)


def _check_reward(u: np.ndarray, top, tol: float) -> None:
    """Reject rewards outside [-tol, top + tol]; written so that NaN fails too.
    ``top`` is the reward range, a scalar or one per learner."""
    if not (u.min() >= -tol and (u <= top + tol).all()):
        raise RewardOutOfRange(f"reward entries span [{u.min():.6g}, {u.max():.6g}], "
                               "outside the range [0, r] or not finite")


def fixed_rate_eta(num_decisions: int, horizon: int) -> float:
    """Step size sqrt(8 ln d / T), tuned for the sqrt(T ln d / 2) regret form."""
    if num_decisions <= 1:
        return 0.0
    return math.sqrt(8.0 * math.log(num_decisions) / max(1, horizon))


class MwuLearner:
    """Fixed-rate multiplicative weights over ``d`` decisions with rewards in [0, r]."""

    def __init__(self, num_decisions: int, horizon: int | None = None,
                 eta: float | None = None, reward_range: float = 1.0):
        if eta is None:
            if horizon is None:
                raise BadInput("need either an explicit eta or a horizon to tune it")
            eta = fixed_rate_eta(num_decisions, horizon)
        self.d = int(num_decisions)
        self.eta = float(eta)
        self.r = float(reward_range)
        self.logw = np.zeros(self.d)
        self.total_arm_reward = np.zeros(self.d)
        self.alg_reward = 0.0
        self.rounds = 0

    @property
    def decision(self) -> np.ndarray:
        return _softmax(self.logw, axis=0)

    def update(self, reward) -> np.ndarray:
        reward = np.asarray(reward, dtype=float)
        if reward.shape != (self.d,):
            raise BadInput(f"reward must have {self.d} entries")
        _check_reward(reward, self.r, REWARD_TOL)
        self.alg_reward += float(self.decision @ reward)
        self.total_arm_reward += reward
        self.rounds += 1
        if self.r > 0:
            self.logw += self.eta * (reward / self.r)
        return self.decision

    def external_regret(self) -> float:
        return float(self.total_arm_reward.max() - self.alg_reward)


class DoublingMwu:
    """Multiplicative weights with the doubling trick.

    Budgets are in units of the reward range: the epoch restarts (uniform
    weights, step size retuned to sqrt(ln d / U)) as soon as some arm's
    in-epoch cumulative reward exceeds U_k, with U_0 = ln d and U_{k+1} = 2 U_k.
    """

    def __init__(self, num_decisions: int, reward_range: float = 1.0):
        self.d = int(num_decisions)
        self.r = float(reward_range)
        self.logw = np.zeros(self.d)
        self.epoch = 0
        self.budget = math.log(self.d) if self.d > 1 else 0.0
        self.eta = 1.0 if self.d > 1 else 0.0  # sqrt(ln d / U_0)
        self.epoch_cum = np.zeros(self.d)
        self.total_arm_reward = np.zeros(self.d)
        self.alg_reward = 0.0
        self.rounds = 0

    @property
    def decision(self) -> np.ndarray:
        return _softmax(self.logw, axis=0)

    def update(self, reward) -> np.ndarray:
        reward = np.asarray(reward, dtype=float)
        if reward.shape != (self.d,):
            raise BadInput(f"reward must have {self.d} entries")
        _check_reward(reward, self.r, REWARD_TOL)
        self.alg_reward += float(self.decision @ reward)
        self.total_arm_reward += reward
        self.rounds += 1
        if self.r > 0 and self.d > 1:
            rn = reward / self.r
            self.logw += self.eta * rn
            self.epoch_cum += rn
            if self.epoch_cum.max() > self.budget:
                self.epoch += 1
                self.budget *= 2.0
                self.eta = math.sqrt(math.log(self.d) / self.budget)
                self.logw[:] = 0.0
                self.epoch_cum[:] = 0.0
        return self.decision

    def external_regret(self) -> float:
        return float(self.total_arm_reward.max() - self.alg_reward)


class _DoublingBank:
    """A grid of independent doubling-trick MWU learners sharing decision size d.

    ``shape`` indexes the learners; a batch of untruthful learners puts its
    batch axis first, (B, K, K, M).  Weights, rewards and decisions are laid
    out decision axis first, ``(d,) + shape``, so each per-learner max or sum
    is d - 1 elementwise operations over contiguous slabs instead of one tiny
    reduction per learner; the state is kept as (d, learners), the fewest axes
    for numpy to iterate.  ``ranges`` broadcasts against ``shape`` and gives
    each learner's reward range; zero-range learners ignore updates and stay
    uniform.
    """

    def __init__(self, shape: tuple[int, ...], d: int, ranges):
        self.shape = shape
        self.d = int(d)
        self.ranges = np.broadcast_to(np.asarray(ranges, dtype=float), shape).flatten()
        self.live = self.ranges > 0
        self.logw = np.zeros((d, self.ranges.size))
        self.epoch_cum = np.zeros((d, self.ranges.size))
        logd = math.log(d) if d > 1 else 0.0
        self.budget = np.full(self.ranges.size, logd)
        self.eta = np.ones(self.ranges.size) if d > 1 else np.zeros(self.ranges.size)

    def decisions(self) -> np.ndarray:
        return _softmax(self.logw, axis=0).reshape((self.d,) + self.shape)

    def update(self, rewards: np.ndarray) -> None:
        rewards = rewards.reshape(self.logw.shape)
        # slightly looser than the public 1e-9: fixed-point and reward dust compound
        _check_reward(rewards, self.ranges, 1e-8)
        if self.d <= 1:
            return
        rn = np.divide(rewards, self.ranges, out=np.zeros(rewards.shape), where=self.live)
        self.logw += self.eta * rn
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

    Internally: one fixed-rate MWU over reported types per true type, one
    doubling MWU over actions per (true type, reported type, recommended
    action).  Each round the subroutine outputs assemble a strictly positive
    swap transform whose fixed point is the emitted policy, so deviating
    through the learner's own transform gains nothing.

    A (K,) prior row makes one learner, stepped with (K, M) rewards into
    (K, M) policies.  (B, K) rows make B independent learners sharing (K, M)
    that step as one: rewards and policies are (B, K, M), and every entry
    emits the decisions it would emit alone.
    """

    def __init__(self, prior_row, num_actions: int, horizon: int,
                 fp_tol: float = LEARNER_FP_TOL):
        rho = prior_rows(prior_row, batched=True)
        self.batched = rho.ndim == 2
        self.rho = rho if self.batched else rho[None]     # (B, K)
        self.B, self.K = self.rho.shape
        self._rho_col = self.rho[:, :, None]
        self._typed = self._rho_col > 0
        self.M = int(num_actions)
        self.T = int(horizon)
        self.fp_tol = float(fp_tol)
        self.eta_type = fixed_rate_eta(self.K, self.T)
        self.logw = np.zeros((self.B, self.K, self.K))
        self.bank = _DoublingBank((self.B, self.K, self.K, self.M), self.M,
                                  self.rho[:, :, None, None])
        self.w = _softmax(self.logw, axis=2)
        self.y = self.bank.decisions()        # (M_a, B, K, K, M_a')
        self.x = np.full((self.B, self.K, self.M), 1.0 / self.M)
        self.rounds = 0

    def step(self, prev_reward=None) -> np.ndarray:
        """Feed the previous round's reward (None on round one), emit the next policy."""
        if prev_reward is not None:
            self._feed(np.asarray(prev_reward, dtype=float))
        self._decide()
        self.rounds += 1
        return self.x.copy() if self.batched else self.x[0].copy()

    def _feed(self, u: np.ndarray) -> None:
        shape = (self.B, self.K, self.M) if self.batched else (self.K, self.M)
        if u.shape != shape:
            raise BadInput(f"reward must have shape {shape}")
        _check_reward(u, 1.0, REWARD_TOL)
        ubar = self._rho_col * u                            # (B, theta, a)
        # doubling subroutine (theta, theta', a') sees reward x(theta',a') * ubar(theta,a)
        split = ubar.transpose(2, 0, 1)[:, :, :, None, None] * self.x[:, None]
        self.bank.update(split)                             # (a, B, theta, theta', a')
        # type subroutine theta sees, per decision theta', the y-weighted collapse
        z = np.einsum("abtpc,abtpc->btp", self.y, split)
        if self.K > 1:
            self.logw += self.eta_type * np.divide(z, self._rho_col, out=np.zeros(z.shape),
                                                   where=self._typed)

    def _decide(self) -> None:
        self.w = _softmax(self.logw, axis=2)
        self.y = self.bank.decisions()
        x = _hot_fixed_points(self._dense(), self.x.reshape(self.B, -1), self.fp_tol, self.K)
        self.x = x.reshape(self.B, self.K, self.M)

    def _dense(self) -> np.ndarray:
        """Q[b, (theta, a), (theta', a')] = w(theta, theta') y(a | theta, theta', a'),
        built with (b, theta) as one axis."""
        bk, km = self.B * self.K, self.K * self.M
        y4 = self.y.reshape(self.M, bk, self.K, self.M).transpose(1, 0, 2, 3)
        q4 = self.w.reshape(bk, self.K)[:, None, :, None] * y4
        return q4.reshape(self.B, km, km)

    def current_transform_dense(self) -> np.ndarray:
        """The dense transform, (B, KM, KM) for a batch, (KM, KM) for one learner."""
        dense = self._dense()
        return dense if self.batched else dense[0]


class SwapRegretLearner:
    """Swap-regret minimizer over one action set: one doubling MWU expert per
    recommended action, playing the stationary distribution of the stacked
    expert outputs."""

    def __init__(self, num_actions: int, reward_range: float = 1.0,
                 fp_tol: float = LEARNER_FP_TOL):
        self.M = int(num_actions)
        self.fp_tol = float(fp_tol)
        self.bank = _DoublingBank((self.M,), self.M, reward_range)
        self.p = np.full(self.M, 1.0 / self.M)

    def step(self, prev_reward=None) -> np.ndarray:
        if prev_reward is not None:
            u = np.asarray(prev_reward, dtype=float)
            if u.shape != (self.M,):
                raise BadInput(f"reward must have {self.M} entries")
            _check_reward(u, self.bank.ranges, REWARD_TOL)
            self.bank.update(u[:, None] * self.p)
        # decisions()[a, a'] is expert a''s weight on a: already the dense transform
        dense = self.bank.decisions()[None]
        self.p = _hot_fixed_points(dense, self.p[None], self.fp_tol, 1)[0]
        return self.p.copy()


class TypewiseSwapLearner:
    """One independent swap-regret learner per type, fed that type's reward row
    scaled by its prior probability."""

    def __init__(self, prior_row, num_actions: int, fp_tol: float = LEARNER_FP_TOL):
        self.rho = prior_rows(prior_row)
        self.K = self.rho.size
        self.M = int(num_actions)
        self.per_type = [SwapRegretLearner(self.M, reward_range=float(r), fp_tol=fp_tol)
                         for r in self.rho]

    def step(self, prev_reward=None) -> np.ndarray:
        fed = [None] * self.K
        if prev_reward is not None:
            u = np.asarray(prev_reward, dtype=float)
            if u.shape != (self.K, self.M):
                raise BadInput(f"reward must have shape {(self.K, self.M)}")
            _check_reward(u, 1.0, REWARD_TOL)
            fed = self.rho[:, None] * u
        return np.stack([learner.step(f) for learner, f in zip(self.per_type, fed)])


class StrategySwapLearner:
    """Swap-regret minimizer over the explicit strategy set S_i = A_i^Theta_i.

    One doubling MWU over actions per (strategy, type); the emitted strategy
    distribution is the stationary distribution of the induced |S_i| x |S_i|
    column-stochastic matrix.  Only viable for tiny strategy spaces.
    """

    def __init__(self, num_types: int, num_actions: int,
                 cap: int = DEFAULT_STRATEGY_LEARNER_CAP,
                 fp_tol: float = LEARNER_FP_TOL):
        self.K = int(num_types)
        self.M = int(num_actions)
        self.fp_tol = float(fp_tol)
        size = self.M ** self.K
        if size > cap:
            raise SupportTooLarge(f"|S_i| = {size} exceeds learner cap {cap}")
        self.S = size
        self.table = strategy_table(self.K, self.M)     # (S, K) action indices
        self.bank = _DoublingBank((self.S, self.K), self.M, 1.0)
        self.sigma = np.full(self.S, 1.0 / self.S)

    def step(self, prev_reward=None) -> np.ndarray:
        if prev_reward is not None:
            u = np.asarray(prev_reward, dtype=float)
            if u.shape != (self.K, self.M):
                raise BadInput(f"reward must have shape {(self.K, self.M)}")
            _check_reward(u, 1.0, REWARD_TOL)
            self.bank.update(u.T[:, None, :] * self.sigma[:, None])
        z = self.bank.decisions()                       # (M, S, K)
        p = np.ones((self.S, self.S))
        for theta in range(self.K):
            p *= z[self.table[:, theta], :, theta]      # P(s, s') = prod_theta z_{s',theta}(s(theta))
        self.sigma = _hot_fixed_points(p[None], self.sigma[None], self.fp_tol, 1)[0]
        return self.sigma.copy()

    def policy_marginal(self) -> np.ndarray:
        """Per-type action marginals of the current strategy distribution."""
        out = np.zeros((self.K, self.M))
        for theta in range(self.K):
            np.add.at(out[theta], self.table[:, theta], self.sigma)
        return out
