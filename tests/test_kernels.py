"""The vectorised kernels against the straight-line references in oracles.py,
on random tiny games."""

import numpy as np
import pytest

from commeq.dynamics import exact_reward
from commeq.game import (BayesianGame, MixtureDistribution, PriorModel,
                         StrategyDistribution, mixture_eval, mixture_to_tabular,
                         strategy_space_size)
from commeq.poa import (QuasilinearGame, SmoothnessSpec, check_smoothness,
                        smoothness_frontier)
from commeq.verifier import _profile_matrix, coarse_epsilon, sfce_epsilon

from .oracles import (reference_max_lambda, reference_representability_matrix,
                      reference_sigma_classes, reference_smoothness)

GAMES = 60


def _labels(counts, tag):
    return [[f"{tag}{i}_{k}" for k in range(c)] for i, c in enumerate(counts)]


def _random_dims(rng, max_size):
    while True:
        n = int(rng.integers(1, 4))
        nt = tuple(int(k) for k in rng.integers(1, 3, n))
        na = tuple(int(m) for m in rng.integers(2, 4, n))
        if strategy_space_size(nt, na) <= max_size:
            return nt, na


def _random_prior(rng, nt, dyadic):
    """Product or tabular; dyadic priors use masses 1/2 and 1, so sums are exact."""
    if rng.random() < 0.5:
        rows = [np.full(k, 1.0 / k) if dyadic else rng.random(k) + 0.1 for k in nt]
        return PriorModel.product([r / r.sum() for r in rows])
    table = np.zeros(nt) if dyadic else rng.integers(0, 3, nt).astype(float)  # zero cells
    table.reshape(-1)[rng.choice(table.size, min(2, table.size), replace=False)] += 1.0
    return PriorModel.tabular(table / table.sum())


def random_game(rng, dyadic):
    nt, na = _random_dims(rng, 800)
    prior = _random_prior(rng, nt, dyadic)
    shape = nt + na
    payoffs = [rng.integers(0, 8, shape) / 8.0 if dyadic else rng.random(shape)
               for _ in nt]
    return BayesianGame.create(_labels(nt, "t"), _labels(na, "a"), prior, payoffs)


def random_sigma(rng, game, dyadic):
    size = strategy_space_size(game.num_types, game.num_actions)
    support = rng.choice(size, min(size, int(rng.integers(1, 7))), replace=False)
    if dyadic:
        support = support[:2]
    probs = np.zeros(size)
    probs[support] = 1.0 if dyadic else rng.random(support.size)
    return StrategyDistribution.create(game.num_types, game.num_actions, probs / probs.sum())


@pytest.mark.parametrize("klass", ["sfce", "sfcce", "anfcce"])
def test_sigma_classes_match_loop_reference(klass):
    rng = np.random.default_rng(7)
    for g in range(GAMES):
        dyadic = g % 3 == 0
        game = random_game(rng, dyadic)
        sigma = random_sigma(rng, game, dyadic)
        cert = sfce_epsilon(game, sigma) if klass == "sfce" \
            else coarse_epsilon(game, sigma, klass)
        ref = reference_sigma_classes(game, sigma.probs, klass)
        for dev, (gain, witness) in zip(cert.per_player, ref):
            assert abs(dev.gain - gain) <= 1e-12, (g, klass)
            assert dev.witness == witness, (g, klass)


def random_smooth_game(rng, dyadic):
    """Quasilinear own-type game; dyadic values make slack ties, which the
    witness must break in C order."""
    while True:
        nt, na = _random_dims(rng, 10**6)
        if np.prod(nt) * np.prod(na) <= 400:
            break
    rows = [rng.random(k) + 0.1 for k in nt]
    prior = PriorModel.product([r / r.sum() for r in rows])
    n = len(nt)
    if dyadic:
        alloc = [rng.integers(4, 9, (nt[i],) + na) / 8.0 for i in range(n)]
        pay = [rng.integers(0, 4, na) / 8.0 for _ in range(n)]
    else:
        alloc = [0.5 + 0.5 * rng.random((nt[i],) + na) for i in range(n)]
        pay = [0.5 * rng.random(na) for _ in range(n)]
    payoffs = []
    for i in range(n):
        shape = [1] * n
        shape[i] = nt[i]
        own = (alloc[i] - pay[i]).reshape(tuple(shape) + na)
        payoffs.append(np.broadcast_to(own, nt + na))
    base = BayesianGame.create(_labels(nt, "t"), _labels(na, "a"), prior, payoffs, "own-type")
    return QuasilinearGame.create(base, alloc, pay)


def test_smoothness_matches_loop_reference():
    rng = np.random.default_rng(11)
    failing = 0
    for g in range(GAMES):
        dyadic = g % 3 == 0
        qg = random_smooth_game(rng, dyadic)
        base = qg.base
        mode = "mechanism" if g % 2 else "game"
        dev = [rng.integers(0, base.num_actions[i], base.num_types + (base.num_actions[i],))
               for i in range(base.n)]
        lam, mu = (rng.integers(1, 9) / 4, rng.integers(0, 5) / 4) if dyadic \
            else (rng.uniform(0.05, 1.5), rng.uniform(0, 2))
        spec = SmoothnessSpec.create(float(lam), float(mu), mode, dev)
        target = qg if mode == "mechanism" else base
        report = check_smoothness(target, spec)
        min_slack, witness = reference_smoothness(target, spec)
        assert report.min_slack == min_slack, g
        assert report.passed == (min_slack >= -1e-9)
        assert report.witness == (None if report.passed else witness), g
        failing += not report.passed
        mus = [0.0, float(rng.uniform(0, 2)), 2.0]
        rows = smoothness_frontier(target, spec.deviation, mode, mus)
        assert [r["max_lambda"] for r in rows] == \
            [reference_max_lambda(target, spec.deviation, mode, mu) for mu in mus], g
    assert 0 < failing < GAMES                  # both verdicts were exercised


def test_representability_matrix_matches_loop_reference():
    rng = np.random.default_rng(5)
    for _ in range(GAMES):
        nt, na = _random_dims(rng, 300)
        np.testing.assert_array_equal(_profile_matrix(nt, na),
                                      reference_representability_matrix(nt, na))


def test_policy_product_matches_pointwise_definitions():
    rng = np.random.default_rng(3)
    for _ in range(GAMES):
        game = random_game(rng, dyadic=False)
        nt, na = game.num_types, game.num_actions
        comps = int(rng.integers(1, 4))
        policies = [rng.dirichlet(np.ones(m), size=(comps, k)) for k, m in zip(nt, na)]
        mix = MixtureDistribution.from_stacked(rng.dirichlet(np.ones(comps)), policies)
        tab = mixture_to_tabular(mix)
        for theta in np.ndindex(*nt):
            for act in np.ndindex(*na):
                assert tab[theta + act] == pytest.approx(mixture_eval(mix, theta, act), abs=1e-15)
        profile = [p[0] for p in policies]
        for i in range(game.n):
            want = np.zeros((nt[i], na[i]))
            prior = game.prior.full_table()
            for theta in np.ndindex(*nt):
                if game.prior.marginals[i][theta[i]] <= 0:
                    continue
                for act in np.ndindex(*na):
                    others = np.prod([profile[j][theta[j], act[j]]
                                      for j in range(game.n) if j != i])
                    want[theta[i], act[i]] += (prior[theta] / game.prior.marginals[i][theta[i]]
                                               * others * game.payoffs[i][theta + act])
            live = game.prior.marginals[i] > 0
            np.testing.assert_allclose(exact_reward(game, i, profile)[live], want[live],
                                       atol=1e-14)
