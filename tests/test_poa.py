import numpy as np
import pytest

from commeq.dynamics import DynamicsConfig, run_dynamics
from commeq.errors import AssumptionViolated, BadInput, NotAnEquilibrium
from commeq.game import BayesianGame, PriorModel
from commeq.poa import (QuasilinearGame, SmoothnessSpec, check_smoothness,
                        poa_report, validate_quasilinear)

from .fixture_files import auction, auction_spec, game as fixture_game
from .oracles import mixture


def identity_spec(game, lam, mu, mode="game"):
    dev = []
    for i in range(game.n):
        d = np.zeros(game.num_types + (game.num_actions[i],), dtype=np.int64)
        d[...] = np.arange(game.num_actions[i])
        dev.append(d)
    return SmoothnessSpec.create(lam, mu, mode, dev)


def constant_spec(game, lam, mu, action=0, mode="game"):
    dev = [np.full(game.num_types + (game.num_actions[i],), action, dtype=np.int64)
           for i in range(game.n)]
    return SmoothnessSpec.create(lam, mu, mode, dev)


def test_zero_game_trivially_smooth():
    game = fixture_game("zero_payoff_game")
    report = check_smoothness(game, identity_spec(game, 1.0, 0.0))
    assert report.passed
    assert report.min_slack == pytest.approx(0.0)


def test_assumptions_enforced():
    game = fixture_game("correlated_coarse_game")    # tabular (correlated) prior
    with pytest.raises(AssumptionViolated):
        check_smoothness(game, identity_spec(game, 1.0, 0.0))


def test_quasilinear_validation():
    aq = auction()
    assert validate_quasilinear(aq) == []
    bad_alloc = [v.copy() for v in aq.alloc_values]
    bad_alloc[0][0, 0, 0] += 0.25
    with pytest.raises(BadInput):
        QuasilinearGame.create(aq.base, bad_alloc, list(aq.payments))


def test_auction_smooth_at_half_one():
    aq = auction()
    report = check_smoothness(aq, auction_spec())
    assert report.passed
    assert report.min_slack >= 0.0


def test_auction_not_smooth_at_nine_tenths():
    aq = auction()
    report = check_smoothness(aq, auction_spec(0.9))
    assert not report.passed
    assert report.witness is not None
    # the binding cells: one bidder holds the high value but the deviation
    # only recovers half of it against the standing bids
    assert report.min_slack == pytest.approx(-0.2)
    assert report.witness[0] in [(0, 1), (1, 0)]


def test_auction_smoothness_brute_force_identity():
    # recompute every cell of the mechanism inequality with plain loops
    aq = auction()
    spec = auction_spec()
    welfare = aq.alloc_values[0][:, None] + aq.alloc_values[1][None, :]   # (2, 2, 3, 3)
    pay = aq.payments[0] + aq.payments[1]
    v = [aq.base.payoffs[i] for i in range(2)]
    min_slack = np.inf
    for theta in np.ndindex(2, 2):
        opt = welfare[theta].max()
        for act in np.ndindex(3, 3):
            lhs = 0.0
            for i in range(2):
                dev = list(act)
                dev[i] = spec.deviation[i][theta + (act[i],)]
                lhs += v[i][theta + tuple(dev)]
            min_slack = min(min_slack, lhs - 0.5 * opt + 1.0 * pay[act])
    report = check_smoothness(aq, spec)
    assert report.min_slack == pytest.approx(min_slack, abs=1e-12)
    assert min_slack >= 0.0


def test_poa_report_point_mass_optimum():
    # pure coordination game: the welfare-optimal profile is an equilibrium
    prior = PriorModel.product([[0.5, 0.5], [0.5, 0.5]])
    v = np.zeros((2, 2, 2, 2))
    v[:, :, 0, 0] = 1.0
    v[:, :, 1, 1] = 0.4
    game = BayesianGame.create([["a", "b"], ["a", "b"]], [["l", "r"], ["l", "r"]],
                               prior, [v, v], "own-type")
    point = np.array([[1.0, 0.0], [1.0, 0.0]])
    mix = mixture([1.0], [[point, point]])
    spec = constant_spec(game, 0.4, 1.0)   # "switch to the good action"
    assert check_smoothness(game, spec).passed
    report = poa_report(game, mix, spec, eps_tol=1e-9)
    assert report.ratio == pytest.approx(1.0)
    assert report.bound_satisfied


def test_poa_zero_welfare_convention():
    game = fixture_game("zero_payoff_game")
    point = np.array([[1.0, 0.0], [1.0, 0.0]])
    mix = mixture([1.0], [[point, point]])
    report = poa_report(game, mix, identity_spec(game, 1.0, 0.0), eps_tol=1e-9)
    assert report.ratio == 1.0
    assert report.opt_welfare == 0.0


def test_poa_rejects_non_equilibrium():
    # playing the dominated action is far from any equilibrium, but the game
    # itself is (1, 0)-smooth via the dominant deviation
    prior = PriorModel.product([[0.5, 0.5], [0.5, 0.5]])
    v0 = np.zeros((2, 2, 2, 2))
    v0[:, :, 0, :] = 1.0
    v0[:, :, 1, :] = 0.3
    v1 = np.zeros((2, 2, 2, 2))
    v1[:, :, :, 0] = 1.0
    v1[:, :, :, 1] = 0.3
    game = BayesianGame.create([["a", "b"], ["a", "b"]], [["l", "r"], ["l", "r"]],
                               prior, [v0, v1], "own-type")
    bad_point = np.array([[0.0, 1.0], [0.0, 1.0]])
    mix = mixture([1.0], [[bad_point, bad_point]])
    spec = constant_spec(game, 1.0, 0.0)
    assert check_smoothness(game, spec).passed
    with pytest.raises(NotAnEquilibrium):
        poa_report(game, mix, spec, eps_tol=1e-6)


def test_poa_rejects_failing_spec():
    aq = auction()
    res = run_dynamics(aq.base, DynamicsConfig(horizon=50))
    with pytest.raises(BadInput):
        poa_report(aq, res.mixture, auction_spec(0.9),
                   eps_tol=1.0)


def test_poa_end_to_end_short_run():
    aq = auction()
    spec = auction_spec()
    res = run_dynamics(aq.base, DynamicsConfig(horizon=3000, seed=0))
    report = poa_report(aq, res.mixture, spec, eps_tol=0.05)
    assert report.bound == 0.5
    assert report.bound_satisfied
    assert report.opt_welfare == pytest.approx(1.25)
    assert report.opt_welfare >= report.eq_welfare
