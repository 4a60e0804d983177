import numpy as np
import pytest

from commeq.errors import AuditError
from commeq.game import strategy_table
from commeq.regret import (RegretLedger, accumulate, audit_ledger,
                           external_regret, ledger_diagonal_gap, strategy_regret,
                           typewise_regret, untruthful_bound, untruthful_regret,
                           untruthful_witness)

from .oracles import (enumerate_external, enumerate_strategy,
                      enumerate_typewise, enumerate_untruthful)


def test_accumulate_single_round():
    ledger = RegretLedger.create([1.0], 2)
    accumulate(ledger, np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
    # C[theta, theta', a_rewarded, a_played] = ubar(theta, a) x(theta', a')
    assert np.allclose(ledger.cross[0, 0], [[0.5, 0.5], [0.0, 0.0]])
    assert ledger.alg_reward == pytest.approx(0.5)


def test_accumulate_zero_round_noop():
    ledger = RegretLedger.create([0.5, 0.5], 2)
    accumulate(ledger, np.full((2, 2), 0.5), np.zeros((2, 2)))
    assert ledger.cross.sum() == 0.0
    assert ledger.alg_reward == 0.0
    assert ledger.rounds == 1


def test_accumulate_linearity():
    rng = np.random.default_rng(0)
    x = rng.random((2, 3))
    x /= x.sum(axis=1, keepdims=True)
    u = rng.random((2, 3))
    one = RegretLedger.create([0.4, 0.6], 3)
    accumulate(one, x, u)
    two = RegretLedger.create([0.4, 0.6], 3)
    accumulate(two, x, u)
    accumulate(two, x, u)
    assert np.allclose(two.cross, 2 * one.cross)
    assert two.alg_reward == pytest.approx(2 * one.alg_reward)


def test_untruthful_single_round_half():
    ledger = RegretLedger.create([1.0], 2)
    accumulate(ledger, np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
    assert untruthful_regret(ledger) == pytest.approx(0.5)


def test_untruthful_point_mass_type_swap():
    # two types, point-mass play matched to the wrong reward rows: swapping
    # the report (with identity action swap) gains everything; with
    # deterministic single-round play every swap family collapses to the
    # per-type best action, so type-wise regret is 1 as well
    rho = np.array([0.5, 0.5])
    ledger = RegretLedger.create(rho, 2)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    u = np.array([[0.0, 1.0], [1.0, 0.0]])
    accumulate(ledger, x, u)
    assert untruthful_regret(ledger) == pytest.approx(1.0)
    assert typewise_regret(ledger) == pytest.approx(1.0)
    _, _, value = untruthful_witness(ledger)
    assert value == pytest.approx(1.0)


def test_untruthful_strictly_above_typewise():
    # the second type's recommendation acts as a round clock: misreporting
    # decodes it, while no truthful action swap gains anything
    rho = np.array([0.5, 0.5])
    ledger = RegretLedger.create(rho, 2)
    xs = [np.array([[1.0, 0.0], [1.0, 0.0]]),
          np.array([[1.0, 0.0], [0.0, 1.0]])]
    us = [np.array([[1.0, 0.0], [0.5, 0.5]]),
          np.array([[0.0, 1.0], [0.5, 0.5]])]
    for x, u in zip(xs, us):
        accumulate(ledger, x, u)
    assert typewise_regret(ledger) == pytest.approx(0.0, abs=1e-12)
    assert untruthful_regret(ledger) == pytest.approx(0.5)
    psi, _, _ = untruthful_witness(ledger)
    assert psi[0] == 1


def test_external_constant_rewards_zero():
    ledger = RegretLedger.create([0.5, 0.5], 2)
    for _ in range(5):
        accumulate(ledger, np.full((2, 2), 0.5), np.full((2, 2), 0.7))
    assert external_regret(ledger) == pytest.approx(0.0, abs=1e-12)


def test_regret_matches_enumeration_oracles():
    rng = np.random.default_rng(42)
    for case in range(100):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        t_max = int(rng.integers(1, 51))
        rho = rng.random(k) + 0.05
        rho /= rho.sum()
        xs = rng.random((t_max, k, m))
        xs /= xs.sum(axis=2, keepdims=True)
        us = rng.random((t_max, k, m))
        ledger = RegretLedger.create(rho, m)
        for t in range(t_max):
            accumulate(ledger, xs[t], us[t])
        assert untruthful_regret(ledger) == pytest.approx(
            enumerate_untruthful(xs, us, rho), abs=1e-9)
        assert typewise_regret(ledger) == pytest.approx(
            enumerate_typewise(xs, us, rho), abs=1e-9)
        assert external_regret(ledger) == pytest.approx(
            enumerate_external(xs, us, rho), abs=1e-9)


def test_regret_ordering_property():
    rng = np.random.default_rng(1)
    for _ in range(30):
        k, m, t_max = 3, 3, 40
        rho = rng.random(k)
        rho /= rho.sum()
        ledger = RegretLedger.create(rho, m)
        for _ in range(t_max):
            x = rng.random((k, m))
            x /= x.sum(axis=1, keepdims=True)
            accumulate(ledger, x, rng.random((k, m)))
        e, tw, us_ = external_regret(ledger), typewise_regret(ledger), untruthful_regret(ledger)
        assert e <= tw + 1e-12
        assert tw <= us_ + 1e-12


def test_diagonal_identity():
    rng = np.random.default_rng(2)
    ledger = RegretLedger.create([0.3, 0.7], 2)
    for _ in range(200):
        x = rng.random((2, 2))
        x /= x.sum(axis=1, keepdims=True)
        accumulate(ledger, x, rng.random((2, 2)))
    assert ledger_diagonal_gap(ledger) <= 1e-9
    audit_ledger(ledger)


def test_negative_regret_raises():
    ledger = RegretLedger.create([1.0], 2)
    accumulate(ledger, np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    ledger.alg_reward += 1.0   # corrupt the ledger: impossible accounting
    with pytest.raises(AuditError):
        untruthful_regret(ledger)


def test_witness_replays_to_reported_value():
    rng = np.random.default_rng(3)
    rho = np.array([0.2, 0.5, 0.3])
    ledger = RegretLedger.create(rho, 2)
    xs, us = [], []
    for _ in range(30):
        x = rng.random((3, 2))
        x /= x.sum(axis=1, keepdims=True)
        u = rng.random((3, 2))
        xs.append(x)
        us.append(u)
        accumulate(ledger, x, u)
    psi, phi, value = untruthful_witness(ledger)
    replay = 0.0
    for x, u in zip(xs, us):
        for th in range(3):
            for ap in range(2):
                replay += rho[th] * x[psi[th], ap] * u[th, phi[th, ap]]
    assert replay - ledger.alg_reward == pytest.approx(value, abs=1e-9)
    assert value == pytest.approx(untruthful_regret(ledger) + ledger.alg_reward
                                  - ledger.alg_reward, abs=1e-12)


def test_strategy_regret_single_type_equals_swap():
    rng = np.random.default_rng(4)
    t_max, m = 40, 3
    sigmas = rng.random((t_max, m))
    sigmas /= sigmas.sum(axis=1, keepdims=True)
    us = rng.random((t_max, 1, m))
    rho = np.array([1.0])
    # with one type, strategies are actions and the ledger agrees
    ledger = RegretLedger.create(rho, m)
    for t in range(t_max):
        accumulate(ledger, sigmas[t][None, :], us[t])
    assert strategy_regret(sigmas, us, rho) == pytest.approx(
        typewise_regret(ledger), abs=1e-9)


def test_strategy_regret_optimal_stream_zero():
    # point mass on the per-type best strategy each round
    t_max, k, m = 20, 2, 2
    rng = np.random.default_rng(5)
    us = rng.random((t_max, k, m))
    table = strategy_table(k, m)
    sigmas = np.zeros((t_max, table.shape[0]))
    best = us.sum(axis=0).argmax(axis=1)        # best fixed action per type
    best_strategy = int(np.flatnonzero((table == best).all(axis=1))[0])
    sigmas[:, best_strategy] = 1.0
    rho = np.array([0.5, 0.5])
    # the best map keeps the best strategy in place only if it is optimal
    # round-by-round; use constant rewards so it is
    us = np.tile(us.mean(axis=0, keepdims=True), (t_max, 1, 1))
    best = us.sum(axis=0).argmax(axis=1)
    best_strategy = int(np.flatnonzero((table == best).all(axis=1))[0])
    sigmas[:, :] = 0.0
    sigmas[:, best_strategy] = 1.0
    assert strategy_regret(sigmas, us, rho) == pytest.approx(0.0, abs=1e-9)


def test_strategy_regret_matches_enumeration():
    rng = np.random.default_rng(6)
    k, m, t_max = 2, 2, 20
    table = strategy_table(k, m)
    for _ in range(10):
        sigmas = rng.random((t_max, 4))
        sigmas /= sigmas.sum(axis=1, keepdims=True)
        us = rng.random((t_max, k, m))
        rho = rng.random(k) + 0.1
        rho /= rho.sum()
        assert strategy_regret(sigmas, us, rho) == pytest.approx(
            enumerate_strategy(sigmas, us, rho, table), abs=1e-9)


def test_bound_formula_degenerate_dims():
    assert untruthful_bound(100, 1, 2) == pytest.approx(
        6 * np.sqrt(100 * 2 * np.log(2)) + 4 * np.log(2))
    assert untruthful_bound(100, 1, 1) == 0.0


def _constant_stream(rounds, checked=False):
    """u = 0.7 everywhere against uniform play, K = M = 3: zero regret exactly,
    so every negative value is float drift.  ``checked`` evaluates the swap
    regrets after every round, as the dynamics do."""
    ledger = RegretLedger.create(np.full(3, 1.0 / 3), 3)
    x, u = np.full((3, 3), 1.0 / 3), np.full((3, 3), 0.7)
    for _ in range(rounds):
        accumulate(ledger, x, u)
        if checked:
            untruthful_regret(ledger)
            typewise_regret(ledger)
    return ledger


def test_negative_regret_slack_grows_with_the_horizon():
    ledger = _constant_stream(50_000, checked=True)
    assert untruthful_regret(ledger) < -1e-9         # drift beyond the old fixed 1e-9
    audit_ledger(ledger)
    for rounds in (100, 50_000):
        inflated = (ledger if rounds == 50_000 else _constant_stream(rounds)).copy()
        inflated.alg_reward += 1e-6
        for check in (untruthful_regret, typewise_regret, audit_ledger):
            with pytest.raises(AuditError):
                check(inflated)
