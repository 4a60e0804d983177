"""The learner round's long-axis layouts against per-sweep and plain-layout
references, compared with == rather than a tolerance: the ledger's (theta, a,
theta', a') store and the block-checked power iteration must give the bits
the plain (theta, theta', a, a') ledger and the per-sweep iteration give."""

import numpy as np
import pytest

from commeq import adversary, learners, transforms
from commeq.dynamics import DynamicsConfig, run_dynamics
from commeq.regret import (RegretLedger, accumulate, external_regret, typewise_regret,
                           untruthful_regret, untruthful_witness)

from .fixture_files import game as fixture_game
from .oracles import ReferenceLedger, random_transform, reference_power_fixed_points

TOL, CAP = learners.LEARNER_FP_TOL, learners.LEARNER_FP_CAP


def _captured(run, every):
    """(dense, seed) of every ``every``-th fixed point the learners ask for in ``run()``."""
    calls, seen = [], [0]
    real = learners._power_fixed_point

    def spy(dense, seed, tol, cap):
        seen[0] += 1
        if seen[0] % every == 0:
            calls.append((dense.copy(), seed.copy()))
        return real(dense, seed, tol, cap)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learners, "_power_fixed_point", spy)
        run()
    return calls


def _assert_same(got, want):
    x, res, sweeps = got
    assert np.array_equal(x, want[0]) and np.array_equal(res, want[1])
    assert sweeps == want[2] and isinstance(sweeps, int)


def _swap(k, m):
    """The type swap of a two-type player: its iteration oscillates until the plateau exit."""
    return transforms.deviation_to_transform(
        transforms.DeviationPair.create([1, 0], np.tile(np.arange(m), (k, 1)))).dense()


@pytest.fixture(scope="module")
def captured_transforms():
    inst = adversary.build_instance(3, 600, 1)
    stream = _captured(lambda: adversary.run_experiment(inst), 20)
    auction = fixture_game("first_price_auction")
    stacked = _captured(lambda: run_dynamics(auction, DynamicsConfig(horizon=300)), 10)
    return stream, stacked


@pytest.mark.parametrize("block, cells", [(transforms.SWEEP_BLOCK, transforms.SWEEP_BLOCK_CELLS),
                                          (3, transforms.SWEEP_BLOCK_CELLS), (8, 0)])
def test_power_fixed_point_matches_per_sweep_reference(monkeypatch, captured_transforms,
                                                       block, cells):
    """Learner transforms from an adversary run (one 32 x 32 entry) and an
    auction run (two stacked 6 x 6 entries), at the shipped block, a shorter
    one and one sweep per check: the same iterate, residual and sweep."""
    monkeypatch.setattr(transforms, "SWEEP_BLOCK", block)
    monkeypatch.setattr(transforms, "SWEEP_BLOCK_CELLS", cells)
    stream, stacked = captured_transforms
    assert len(stream) == 30 and {d.shape for d, _ in stream} == {(1, 32, 32)}
    assert len(stacked) == 30 and {d.shape for d, _ in stacked} == {(2, 6, 6)}
    for dense, seed in stream + stacked:
        want = reference_power_fixed_points(dense, seed, TOL, CAP)
        _assert_same(transforms._power_fixed_point(dense, seed, TOL, CAP), want)
    sweeps = [reference_power_fixed_points(d, s, TOL, CAP)[2] for d, s in stream]
    assert len(set(sweeps)) > 3           # the calls stop at many different sweeps


@pytest.mark.parametrize("block", [transforms.SWEEP_BLOCK, 3])
def test_power_fixed_point_plateau_and_cap_match_per_sweep_reference(block, monkeypatch):
    """A positive transform that converges, a type swap that oscillates and
    a damped rotation whose residuals rise and fall: alone and stacked, the
    last two stop at their second plateau check, and a cap that no block
    length divides stops them with their best residual, which for the
    rotation is not its last one."""
    monkeypatch.setattr(transforms, "SWEEP_BLOCK", block)
    rng = np.random.default_rng(41)
    turn = 0.999 * np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    dense = np.stack([random_transform(rng, 1, 2).dense(), _swap(2, 1), turn])
    seed = np.array([[0.9, 0.1], [0.8, 0.2], [1.0, 0.0]])
    for rows in ([1], [2], [0, 1, 2]):
        want = reference_power_fixed_points(dense[rows], seed[rows], TOL, CAP)
        assert want[2] == 2 * transforms.PLATEAU_STRIDE and want[1][-1] > TOL
        _assert_same(transforms._power_fixed_point(dense[rows], seed[rows], TOL, CAP), want)
        want = reference_power_fixed_points(dense[rows], seed[rows], TOL, 37)
        assert want[2] == 37 and want[1][-1] > TOL
        _assert_same(transforms._power_fixed_point(dense[rows], seed[rows], TOL, 37), want)
    xs = [seed[2]]
    for _ in range(37):
        xs.append(turn @ xs[-1])
    assert want[1][-1] < np.abs(xs[-1] - xs[-2]).max()      # the rotation's last residual


def _stream(rng, lead, k, m, rounds):
    return [(rng.dirichlet(np.ones(m), size=lead + (k,)), rng.random(lead + (k, m)))
            for _ in range(rounds)]


def _rows(rng, lead, k):
    rho = rng.dirichlet(np.ones(k), size=lead or None)
    if k > 2:
        rho[..., 1] = 0.0                  # a zero-mass type
        rho /= rho.sum(axis=-1, keepdims=True)
    return rho


@pytest.mark.parametrize("k, m", [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (2, 9), (9, 2),
                                  (32, 2), (4, 8)])
@pytest.mark.parametrize("batch", [None, 3])
def test_ledger_matches_plain_layout_reference(k, m, batch):
    """Random single and stacked streams: the cross tensor, the three
    regrets and every entry's witness equal the plain-layout ledger's."""
    rng = np.random.default_rng(100 * k + m)
    lead = () if batch is None else (batch,)
    rho = _rows(rng, lead, k)
    ledger, ref = RegretLedger.create(rho, m), ReferenceLedger(rho, m)
    singles = [ReferenceLedger(row, m) for row in np.reshape(rho, (-1, k))]
    for x, u in _stream(rng, lead, k, m, 40):
        accumulate(ledger, x, u)
        ref.accumulate(x, u)
        for one, xb, ub in zip(singles, np.reshape(x, (-1, k, m)), np.reshape(u, (-1, k, m))):
            one.accumulate(xb, ub)
    assert np.array_equal(ledger.cross, ref.cross)
    assert np.array_equal(external_regret(ledger), ref.external())
    assert np.array_equal(typewise_regret(ledger), ref.typewise())
    assert np.array_equal(untruthful_regret(ledger), ref.untruthful())
    for entry, one in zip([ledger] if batch is None else ledger.entries(), singles):
        psi, phi, value = untruthful_witness(entry)
        want = one.witness()
        assert np.array_equal(psi, want[0]) and np.array_equal(phi, want[1])
        assert value == want[2]


def test_ledger_copy_entries_and_c_order_cross_accumulate():
    """After ten rounds: a copy accumulates on its own, the entries of a
    stacked ledger see the stacked ledger's later rounds, and a ledger built
    from a C-order cross tensor keeps that array and accumulates into it."""
    rng = np.random.default_rng(43)
    k, m, lead = 3, 2, (2,)
    rho = _rows(rng, lead, k)
    stream = _stream(rng, lead, k, m, 25)
    stacked, ref = RegretLedger.create(rho, m), ReferenceLedger(rho, m)
    for x, u in stream[:10]:
        accumulate(stacked, x, u)
        ref.accumulate(x, u)
    copy, entries = stacked.copy(), stacked.entries()
    plain = np.ascontiguousarray(stacked.cross)
    c_order = RegretLedger(rho, plain, stacked.alg_reward.copy(), stacked.rounds)
    assert c_order.cross.flags.c_contiguous and np.shares_memory(c_order.cross, plain)
    for x, u in stream[10:]:
        for ledger in (stacked, copy, c_order):
            accumulate(ledger, x, u)
        ref.accumulate(x, u)
    for ledger in (stacked, copy, c_order):
        assert np.array_equal(ledger.cross, ref.cross)
        assert np.array_equal(ledger.alg_reward, ref.alg_reward)
        assert np.array_equal(untruthful_regret(ledger), ref.untruthful())
    assert not np.shares_memory(copy.store, stacked.store)
    assert np.array_equal(plain, ref.cross)
    for b, entry in enumerate(entries):
        assert np.shares_memory(entry.store, stacked.store)
        assert np.array_equal(entry.cross, ref.cross[b])
