import math

import numpy as np
import pytest

from commeq.errors import RewardOutOfRange, SupportTooLarge
from commeq.game import decode_strategy_profile
from commeq.learners import (StrategySwapLearner, TypewiseSwapLearner,
                             UntruthfulSwapLearner, _DoublingBank)
from commeq.regret import (RegretLedger, accumulate, strategy_regret,
                           typewise_regret, untruthful_bound, untruthful_regret)

from .oracles import ReferenceSwapLearner, reference_untruthful_trace

GOLDEN_REWARDS = np.array([
    [[1.0, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[1.0, 0.0], [0.5, 0.5]],
    [[0.2, 0.8], [0.9, 0.1]],
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.0, 0.0], [1.0, 1.0]],
    [[0.7, 0.3], [0.3, 0.7]],
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.5, 0.5], [0.5, 0.5]],
])

# frozen from the straight-line eigendecomposition reference on GOLDEN_REWARDS
GOLDEN_X5 = np.array([[0.50133178, 0.49866822],
                      [0.58747900, 0.41252100]])
GOLDEN_X10 = np.array([[0.52628376, 0.47371624],
                       [0.41300889, 0.58699111]])


def _doubling(d):
    """A doubling-trick MWU over d arms: a bank of one learner."""
    return _DoublingBank((), d, 1.0)


def test_doubling_first_restart_at_budget_crossing():
    state = _doubling(2)
    budget0 = float(state.budget[0])
    total = 0.0
    rounds = 0
    while state.budget[0] == budget0:
        state.update(np.array([0.4, 0.0]))
        total += 0.4
        rounds += 1
        assert rounds < 100
    # the restart happened exactly when the best arm first exceeded U_0
    assert total > budget0
    assert total - 0.4 <= budget0


def test_doubling_zero_rewards_never_restart():
    state = _doubling(4)
    for _ in range(200):
        state.update(np.zeros(4))
    assert state.budget[0] == math.log(4)
    assert np.allclose(state.decisions(), 0.25)


def test_doubling_regret_bound_u_star_100():
    rng = np.random.default_rng(0)
    state = _doubling(2)
    arm_reward, alg_reward = np.zeros(2), 0.0
    while arm_reward.max() < 100.0:
        arm = int(rng.random() < 0.4)
        reward = np.zeros(2)
        reward[arm] = 1.0
        alg_reward += float(state.decisions() @ reward)
        arm_reward += reward
        state.update(reward)
    u_star = arm_reward.max()
    assert u_star - alg_reward <= 6 * math.sqrt(u_star * math.log(2)) + 2 * math.log(2)


@pytest.mark.parametrize("d", [3, 16])
def test_fixed_rate_bank_is_a_last_axis_softmax_of_the_scaled_running_sum(d):
    """A batch of B = 2 learners over (B, 2), one of them with range 0: each
    decision equals, bit for bit, the softmax along a contiguous last axis of
    eta times the running sum of reward / range; the zero-range learner stays
    uniform; and on a stream that restarts a doubling bank of the same shape,
    the fixed-rate bank's budget and eta never change."""
    ranges = np.array([[0.5, 0.0], [1.0, 0.25]])
    eta = 0.3
    fixed = _DoublingBank((2, 2), d, ranges, fixed_eta=eta)
    doubling = _DoublingBank((2, 2), d, ranges)
    budget0 = doubling.budget.copy()
    acc = np.zeros((2, 2, d))
    rng = np.random.default_rng(d)
    for _ in range(40):
        rewards = rng.random((d, 2, 2)) * ranges
        fixed.update(rewards)
        doubling.update(rewards)
        scaled = np.moveaxis(rewards, 0, -1) / np.where(ranges > 0, ranges, 1.0)[..., None]
        acc += eta * np.where(ranges[..., None] > 0, scaled, 0.0)
        z = acc - acc.max(axis=-1, keepdims=True)
        w = np.exp(z)
        reference = w / w.sum(axis=-1, keepdims=True)
        got = np.moveaxis(fixed.decisions(), 0, -1)
        assert np.array_equal(got, reference)
        assert np.array_equal(got[0, 1], np.full(d, 1.0 / d))
        assert fixed.budget is None and fixed.eta == eta
    assert (doubling.budget > budget0).any()


def test_untruthful_cold_start_uniform():
    for k, m in [(1, 2), (2, 3), (4, 2)]:
        state = UntruthfulSwapLearner(np.full(k, 1 / k), m, 100)
        assert np.allclose(state.step(None), 1.0 / m)


def test_untruthful_fixed_point_residual_every_round():
    rng = np.random.default_rng(5)
    k, m, t_max = 3, 2, 200
    state = UntruthfulSwapLearner(np.full(k, 1 / k), m, t_max)
    prev = None
    for t in range(t_max):
        x = state.step(prev)
        dense = state._dense()[0]
        assert np.abs(dense @ x.reshape(-1) - x.reshape(-1)).max() <= 1e-8
        assert np.abs(x.sum(axis=1) - 1).max() <= 1e-9
        prev = rng.random((k, m))


def test_untruthful_single_type_equals_swap_learner():
    rng = np.random.default_rng(7)
    t_max = 300
    lu = UntruthfulSwapLearner(np.array([1.0]), 3, t_max)
    ls = ReferenceSwapLearner(3, reward_range=1.0)
    prev = None
    for t in range(t_max):
        xu = lu.step(prev)
        xs = ls.step(None if prev is None else 1.0 * prev[0])
        np.testing.assert_allclose(xu[0], xs, rtol=0, atol=1e-12)
        prev = rng.random((1, 3))


def test_untruthful_golden_trace():
    rho = np.array([0.5, 0.5])
    state = UntruthfulSwapLearner(rho, 2, 10)
    prev = None
    trace = []
    for t in range(10):
        trace.append(state.step(prev))
        prev = GOLDEN_REWARDS[t]
    assert np.allclose(trace[4], GOLDEN_X5, atol=1e-7)
    assert np.allclose(trace[9], GOLDEN_X10, atol=1e-7)
    reference = reference_untruthful_trace(rho, 2, 10, GOLDEN_REWARDS)
    for got, want in zip(trace, reference):
        assert np.allclose(got, want, atol=1e-8)


def test_untruthful_regret_bound_random_streams():
    rng = np.random.default_rng(1)
    for k, m, t_max in [(2, 2, 2000), (3, 3, 1500)]:
        rho = np.full(k, 1 / k)
        state = UntruthfulSwapLearner(rho, m, t_max)
        ledger = RegretLedger.create(rho, m)
        prev = None
        for _ in range(t_max):
            x = state.step(prev)
            u = rng.random((k, m))
            accumulate(ledger, x, u)
            prev = u
        assert untruthful_regret(ledger) <= untruthful_bound(t_max, k, m)


def test_untruthful_zero_prior_type_stays_uniform():
    rho = np.array([0.7, 0.3, 0.0])
    t_max = 50
    state = UntruthfulSwapLearner(rho, 2, t_max)
    rng = np.random.default_rng(2)
    prev = None
    for _ in range(t_max):
        x = state.step(prev)
        assert np.allclose(x[2], 0.5)
        prev = rng.random((3, 2))


def test_typewise_single_type_is_swap_learner():
    rng = np.random.default_rng(3)
    lt = TypewiseSwapLearner(np.array([1.0]), 2)
    ls = ReferenceSwapLearner(2, reward_range=1.0)
    prev = None
    for _ in range(100):
        a = lt.step(prev)
        b = ls.step(None if prev is None else 1.0 * prev[0])
        np.testing.assert_allclose(a[0], b, rtol=0, atol=1e-12)
        prev = rng.random((1, 2))


def test_typewise_identical_rows_and_seeds_move_together():
    rng = np.random.default_rng(4)
    lt = TypewiseSwapLearner(np.array([0.5, 0.5]), 3)
    prev = None
    for _ in range(80):
        x = lt.step(prev)
        assert np.array_equal(x[0], x[1])
        row = rng.random(3)
        prev = np.stack([row, row])


def test_typewise_never_beats_untruthful_on_shared_run():
    rng = np.random.default_rng(6)
    k, m, t_max = 2, 2, 800
    rho = np.full(k, 1 / k)
    us = rng.random((t_max, k, m))
    for cls, kwargs in [(UntruthfulSwapLearner, {"horizon": t_max}),
                        (TypewiseSwapLearner, {})]:
        state = cls(rho, m, **kwargs)
        ledger = RegretLedger.create(rho, m)
        prev = None
        for t in range(t_max):
            x = state.step(prev)
            accumulate(ledger, x, us[t])
            prev = us[t]
        assert typewise_regret(ledger) <= untruthful_regret(ledger) + 1e-12


def test_strategy_swap_cold_start_uniform():
    state = StrategySwapLearner(2, 2)
    assert np.allclose(state.step(None), 0.25)


def test_strategy_swap_single_type_matches_swap_learner():
    rng = np.random.default_rng(8)
    lt = StrategySwapLearner(1, 3)
    ls = TypewiseSwapLearner([1.0], 3)
    prev = None
    for _ in range(100):
        sigma = lt.step(prev)
        p = ls.step(prev)[0]
        assert np.allclose(sigma, p, atol=1e-12)
        prev = rng.random((1, 3))


def test_strategy_swap_regret_bound():
    rng = np.random.default_rng(9)
    k, m, t_max = 2, 2, 2000
    rho = np.full(k, 1 / k)
    state = StrategySwapLearner(k, m)
    sigmas, us = [], rng.random((t_max, k, m))
    prev = None
    for t in range(t_max):
        sigmas.append(state.step(prev))
        prev = us[t]
    measured = strategy_regret(np.stack(sigmas), us, rho)
    assert measured <= 6 * math.sqrt(t_max * 4 * math.log(2)) + 8 * math.log(2)


def test_strategy_swap_cap():
    with pytest.raises(SupportTooLarge):
        StrategySwapLearner(24, 2)


def test_strategy_swap_stationarity_and_marginal():
    rng = np.random.default_rng(10)
    state = StrategySwapLearner(2, 2)
    prev = None
    for _ in range(50):
        sigma = state.step(prev)
        assert abs(sigma.sum() - 1) <= 1e-9
        marg = state.policy_marginal()
        table = decode_strategy_profile(np.arange(4), (2,), (2,))[0]
        for theta in range(2):
            for a in range(2):
                direct = sigma[table[:, theta] == a].sum()
                assert marg[theta, a] == pytest.approx(direct, abs=1e-12)
        prev = rng.random((2, 2))


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(11)
        state = UntruthfulSwapLearner(np.array([0.5, 0.5]), 2, 100)
        prev = None
        outs = []
        for _ in range(100):
            outs.append(state.step(prev))
            prev = rng.random((2, 2))
        return np.stack(outs)

    a, b = run(), run()
    assert np.array_equal(a, b)
