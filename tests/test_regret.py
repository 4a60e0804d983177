import numpy as np
import pytest

from commeq import regret
from commeq.errors import AuditError, BadInput
from commeq.game import decode_strategy_profile
from commeq.regret import (EPS, NEGATIVE_REGRET_TOL, RegretLedger, accumulate, block_rounds,
                           external_regret, strategy_regret, typewise_regret,
                           untruthful_bound, untruthful_regret, untruthful_witness)

from .oracles import (audit_ledger, enumerate_external, enumerate_strategy,
                      enumerate_typewise, enumerate_untruthful, ledger_diagonal_gap)


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
    table = decode_strategy_profile(np.arange(m**k), (k,), (m,))[0]
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
    table = decode_strategy_profile(np.arange(m**k), (k,), (m,))[0]
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


def test_stacked_ledger_judges_each_entry_against_its_own_drift():
    """Entry 0 is the 50 000-round drift ledger, which passes alone; entry 1
    is the same ledger scaled by 1/100 with 5e-9 of reward it never earned,
    below the scaled ledger's drift but above entry 0's."""
    big = _constant_stream(50_000)
    small = RegretLedger(big.rho, big.cross / 100, big.alg_reward / 100 + 5e-9, big.rounds)

    def stacked(*entries):
        return RegretLedger(np.stack([e.rho for e in entries]),
                            np.stack([e.cross for e in entries]),
                            np.array([e.alg_reward for e in entries]), big.rounds)
    for check in (untruthful_regret, typewise_regret):
        values = check(stacked(big, big))
        assert values.shape == (2,) and values[0] == check(big)
        with pytest.raises(AuditError):
            check(small)
        with pytest.raises(AuditError):
            check(stacked(big, small))


def _random_stream(rng, lead, k, m, rounds):
    """Prior rows and (rounds,) + lead + (K, M) policies and rewards."""
    rho = rng.dirichlet(np.ones(k), size=lead or None)
    xs = rng.dirichlet(np.ones(m), size=(rounds,) + lead + (k,))
    return rho, xs, rng.random((rounds,) + lead + (k, m))


@pytest.mark.parametrize("cells", [1, 1000, regret.LEDGER_BLOCK_CELLS])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_block_fold_matches_one_round_at_a_time(monkeypatch, cells, lead):
    """Random single and stacked streams folded in blocks of one round, of a
    size that does not divide the stream, and of the default size: every
    row, its round count, its three regrets and the ledger after each call
    equal those of the ledger fed one round at a time, bit for bit."""
    monkeypatch.setattr(regret, "LEDGER_BLOCK_CELLS", cells)
    rng = np.random.default_rng(11 + len(lead))
    rho, xs, us = _random_stream(rng, lead, 3, 2, 50)
    one, folded = RegretLedger.create(rho, 2), RegretLedger.create(rho, 2)
    block = block_rounds(folded)
    assert block == max(1, cells // folded.store.size) and (block == 1 or 50 % block)
    checks = (external_regret, typewise_regret, untruthful_regret)
    for lo in range(0, 50, block):
        rows = accumulate(folded, xs[lo:lo + block], us[lo:lo + block])
        curves = [check(rows) for check in checks]
        for r in range(len(rows.alg_reward)):
            accumulate(one, xs[lo + r], us[lo + r])
            assert np.array_equal(rows.cross[r], one.cross)
            assert np.array_equal(rows.alg_reward[r], one.alg_reward)
            assert np.all(rows.rounds[r] == one.rounds)
            for curve, check in zip(curves, checks):
                assert np.array_equal(curve[r], check(one))
        assert np.array_equal(folded.cross, one.cross) and folded.rounds == one.rounds
        assert np.array_equal(folded.alg_reward, one.alg_reward)


def test_block_fold_writes_into_the_ledgers_arrays():
    """A folded block lands in the arrays the ledger already holds: the
    entries of a stacked ledger see it, and a ledger built on a C-order
    cross tensor keeps that array and sums into it."""
    rng = np.random.default_rng(44)
    rho, xs, us = _random_stream(rng, (2,), 3, 2, 12)
    stacked, ref = RegretLedger.create(rho, 2), RegretLedger.create(rho, 2)
    for x, u in zip(xs, us):
        accumulate(ref, x, u)
    entries, alg = stacked.entries(), stacked.alg_reward
    plain = np.zeros(ref.cross.shape)
    c_order = RegretLedger(rho, plain, np.zeros(2))
    for ledger in (stacked, c_order):
        accumulate(ledger, xs[:5], us[:5])
        accumulate(ledger, xs[5:], us[5:])
        assert np.array_equal(ledger.cross, ref.cross)
        assert np.array_equal(ledger.alg_reward, ref.alg_reward) and ledger.rounds == 12
    assert stacked.alg_reward is alg
    assert np.shares_memory(c_order.cross, plain) and np.array_equal(plain, ref.cross)
    for b, entry in enumerate(entries):
        assert np.array_equal(entry.cross, ref.cross[b])


def test_block_fold_rejects_misshapen_blocks():
    ledger = RegretLedger.create([0.5, 0.5], 2)
    for x in (np.full((0, 2, 2), 0.5), np.full((3, 2, 3), 0.5), np.full((2, 2), 0.5)[None, None]):
        with pytest.raises(BadInput):
            accumulate(ledger, x, x)
    with pytest.raises(BadInput):
        accumulate(ledger, np.full((3, 2, 2), 0.5), np.full((2, 2, 2), 0.5))
    assert ledger.rounds == 0 and ledger.cross.sum() == 0.0


def test_block_rows_are_audited_at_their_own_round_counts():
    """Eight rounds of reward 2^20 into a one-type, one-action ledger, then
    5 ulps of reward the rows never earned.  At round 8 that is within the
    drift of 8 rounds (9 ulps with the one cell) but not of 1 (2 ulps); at
    round 2 it is beyond the drift of 2 rounds (3 ulps) but within that of
    the block's last row (9 ulps)."""
    rows = accumulate(RegretLedger.create([1.0], 1), np.ones((8, 1, 1)),
                      np.full((8, 1, 1), 2.0**20))
    assert rows.rounds.tolist() == list(range(1, 9))

    def row(r, rounds):
        return RegretLedger(rows.rho[r], rows.cross[r], float(rows.alg_reward[r]), rounds)
    rows.alg_reward[7] += 5 * EPS * rows.alg_reward[7]
    assert untruthful_regret(rows)[7] < -NEGATIVE_REGRET_TOL
    with pytest.raises(AuditError):
        untruthful_regret(row(7, 1))
    rows.alg_reward[1] += 5 * EPS * rows.alg_reward[1]
    with pytest.raises(AuditError, match="untruthful swap regret"):
        untruthful_regret(rows)
    assert untruthful_regret(row(1, 8)) < -NEGATIVE_REGRET_TOL


def test_untruthful_witness_is_stable_under_float_dust():
    """Policies that ignore the type make every report tie: psi is the lowest
    report under any one-ulp change of the cross tensor."""
    rng = np.random.default_rng(6)
    rho = np.array([0.2, 0.5, 0.3])
    ledger = RegretLedger.create(rho, 3)
    for _ in range(25):
        accumulate(ledger, np.repeat(rng.dirichlet(np.ones(3))[None], 3, axis=0),
                   rng.random((3, 3)))
    for seed in range(20):
        dusty = ledger.copy()
        step = np.random.default_rng(seed).random(dusty.cross.shape) < 0.5
        dusty.cross = np.nextafter(dusty.cross, np.where(step, -np.inf, np.inf))
        psi, _, value = untruthful_witness(dusty)
        assert psi.tolist() == [0, 0, 0]
        assert value == pytest.approx(untruthful_regret(dusty), abs=1e-12)


def test_untruthful_witness_actions_are_stable_under_float_dust():
    """Actions 0 and 1 always pay the same and beat action 2: phi is the lowest
    action under any one-ulp change of the cross tensor, and the witness
    replays to the regret."""
    rng = np.random.default_rng(10)
    rho = np.array([0.2, 0.5, 0.3])
    ledger = RegretLedger.create(rho, 3)
    for _ in range(25):
        u = rng.uniform(0.0, 0.5, (3, 3))
        u[:, 1] = u[:, 0] = rng.uniform(0.5, 1.0, 3)
        accumulate(ledger, rng.dirichlet(np.ones(3), size=3), u)
    for seed in range(20):
        dusty = ledger.copy()
        step = np.random.default_rng(seed).random(dusty.cross.shape) < 0.5
        dusty.cross = np.nextafter(dusty.cross, np.where(step, -np.inf, np.inf))
        psi, phi, value = untruthful_witness(dusty)
        assert phi.tolist() == [[0, 0, 0]] * 3
        replay = sum(dusty.cross[th, psi[th], phi[th, ap], ap]
                     for th in range(3) for ap in range(3))
        assert replay - dusty.alg_reward == pytest.approx(value, abs=1e-12)
        assert value == pytest.approx(untruthful_regret(dusty), abs=1e-12)
