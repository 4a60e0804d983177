"""The vectorised kernels against the straight-line references in oracles.py,
on random tiny games."""

import math

import numpy as np
import pytest

from commeq import adversary, dynamics, game as game_module
from commeq.dynamics import (DynamicsConfig, _round_rng, exact_reward, run_dynamics,
                             sample_count, sampled_reward)
from commeq.errors import EnumerationTooLarge
from commeq.game import (BayesianGame, MixtureDistribution, PriorModel,
                         StrategyDistribution, mixture_to_tabular, strategy_space_size)
from commeq.learners import StrategySwapLearner, TypewiseSwapLearner, UntruthfulSwapLearner
from commeq.poa import QuasilinearGame, SmoothnessSpec, check_smoothness
from commeq.regret import (RegretLedger, accumulate, external_regret, typewise_regret,
                           untruthful_regret)
from commeq.verifier import _profile_matrix, coarse_epsilon, deviation_tensor, sfce_epsilon

from .fixture_files import game as fixture_game
from .oracles import _hot_fixed_point as oracles_hot_fixed_point
from .oracles import (ReferenceStrategyLearner, ReferenceTypewiseLearner,
                      ReferenceUntruthfulLearner, mixture_eval, random_transform,
                      reference_deviation_gains, reference_exact_reward,
                      reference_representability_matrix, reference_sampled_reward,
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


def random_mixture(rng, game, components):
    policies = [rng.dirichlet(np.ones(m), size=(components, k))
                for k, m in zip(game.num_types, game.num_actions)]
    return MixtureDistribution.from_stacked(rng.dirichlet(np.ones(components)), policies)


def test_reward_kernel_matches_einsum_reference(monkeypatch):
    """Oracle and both deviation-tensor branches; block sizes of one component,
    a few components and the default, so mixtures span several blocks."""
    rng = np.random.default_rng(13)
    spanned = 0
    for g in range(GAMES):
        block_cells = (1, 24, game_module.CONTRACT_BLOCK_CELLS)[g % 3]
        monkeypatch.setattr(game_module, "CONTRACT_BLOCK_CELLS", block_cells)
        game = random_game(rng, dyadic=False)
        nt, na = game.num_types, game.num_actions
        mix = random_mixture(rng, game, int(rng.integers(1, 10)))
        tab = rng.random(nt + na) * (rng.random(nt + na) < 0.7)      # zero cells
        tab.reshape(-1)[0] += 1.0
        tab /= tab.sum()
        profile = [p[0] for p in mix.policies]
        for i in range(game.n):
            np.testing.assert_allclose(exact_reward(game, i, profile),
                                       reference_exact_reward(game, i, profile),
                                       rtol=0, atol=1e-13)
            for dist in (mix, tab):
                got = deviation_tensor(game, i, dist)
                want = reference_deviation_gains(game, i, dist)      # (theta, theta', a', a)
                rho = game.prior.marginals[i]
                np.testing.assert_allclose(got.cross, rho[:, None, None, None]
                                           * want.transpose(0, 1, 3, 2), rtol=0, atol=1e-13)
                truthful = float((rho * np.einsum("iibb->ib", want).sum(axis=1)).sum())
                assert abs(got.alg_reward - truthful) <= 1e-13
        spanned += block_cells == 1 and mix.num_components > 1 and game.n > 1
    assert spanned > 0


def test_enumeration_cap_raises_before_the_reward_matrix_is_built(monkeypatch):
    rng = np.random.default_rng(17)
    while True:
        game = random_game(rng, dyadic=False)
        if game.n > 1:
            break
    mix = random_mixture(rng, game, 3)
    tab = mixture_to_tabular(mix)
    monkeypatch.setattr(game_module, "DEFAULT_ENUMERATION_CAP", 1)
    with pytest.raises(EnumerationTooLarge):
        exact_reward(game, 0, [p[0] for p in mix.policies])
    for dist in (mix, tab):
        with pytest.raises(EnumerationTooLarge):
            deviation_tensor(game, 0, dist)
    assert game._flat_payoffs == {}


GAME_FIXTURES = ("correlated_coarse_game", "first_price_auction", "guessing_game",
                 "matching_game", "zero_payoff_game")


@pytest.mark.parametrize("name", GAME_FIXTURES)
def test_dynamics_with_reference_oracle_agree(monkeypatch, name):
    game = fixture_game(name)
    for learners in ("untruthful", "typewise"):
        config = DynamicsConfig(horizon=300, learners=learners)
        fast = run_dynamics(game, config)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "exact_reward",
                          lambda *args: calls.append(1) or reference_exact_reward(*args))
            slow = run_dynamics(game, config)
        assert len(calls) == 300 * game.n
        assert abs(fast.certificate - slow.certificate) <= 1e-12
        for a, b in zip(fast.mixture.policies, slow.mixture.policies):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


def _sparse_policies(rng, game):
    """Random type-wise policies; about a third of the actions get probability 0."""
    out = []
    for k, m in zip(game.num_types, game.num_actions):
        p = rng.random((k, m)) * (rng.random((k, m)) < 0.7)
        p[np.arange(k), rng.integers(0, m, k)] += 0.1
        out.append(p / p.sum(axis=1, keepdims=True))
    return out


def _sampled_pair(game, i, policies, eps, delta, seed, t, horizon):
    """The oracle and its reference, each on a fresh (seed, player, round) stream."""
    return tuple(oracle(game, i, policies, eps, delta, _round_rng(seed, i, t), horizon)
                 for oracle in (sampled_reward, reference_sampled_reward))


@pytest.mark.parametrize("name", GAME_FIXTURES)
def test_sampled_reward_matches_reference_on_fixtures(name):
    game = fixture_game(name)
    rng = np.random.default_rng(19)
    for t in range(1, 4):
        policies = _sparse_policies(rng, game)
        for i in range(game.n):
            got, want = _sampled_pair(game, i, policies, 0.1, 0.05, 7, t, 200)
            assert np.array_equal(got, want), (name, i, t)


def test_sampled_reward_matches_reference_bit_for_bit():
    """1-3 players with one to three actions each, product and tabular priors
    with zero-mass types, zero-probability actions and some policy rows
    summing to slightly less than 1, whose missing mass the draw gives to the
    last action.  Sample counts run from about ten to about a thousand, and
    some one-action players have more than 128."""
    rng = np.random.default_rng(23)
    single = 0
    for g in range(GAMES):
        n = int(rng.integers(1, 4))
        nt = tuple(int(k) for k in rng.integers(1, 4, n))
        na = tuple(int(m) for m in rng.integers(1, 4, n))
        prior = _random_prior(rng, nt, dyadic=False)
        payoffs = [rng.random(nt + na) for _ in nt]
        game = BayesianGame.create(_labels(nt, "t"), _labels(na, "a"), prior, payoffs)
        policies = _sparse_policies(rng, game)
        if g % 4 == 3:          # rows short of 1: draws past them take the last action
            policies = [p * (1 - 2.0**-6) for p in policies]
        eps = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        for i in range(n):
            got, want = _sampled_pair(game, i, policies, eps, 0.1, g, 1 + g % 5, 50)
            assert np.array_equal(got, want), (g, i)
            max_ta = max(k * m for k, m in zip(nt, na))
            single += na[i] == 1 and sample_count(eps, 0.1, n, 50, max_ta) > 128
    assert single > 0


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", GAME_FIXTURES)
def test_sampled_dynamics_with_reference_oracle_identical(monkeypatch, name, threads):
    game = fixture_game(name)
    config = DynamicsConfig(horizon=40, reward_mode="sampled", epsilon=0.2, seed=5,
                            threads=threads)
    fast = run_dynamics(game, config)
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "sampled_reward",
                      lambda *args: calls.append(1) or reference_sampled_reward(*args))
        slow = run_dynamics(game, config)
    assert len(calls) == 40 * game.n
    assert fast.certificate == slow.certificate
    assert np.array_equal(fast.curve, slow.curve)
    for a, b in zip(fast.mixture.policies, slow.mixture.policies):
        assert np.array_equal(a, b)


# The learners' decision-axis-first bank against the decision-axis-last
# reference.  Entrywise arithmetic is unchanged; summation orders differ in
# the untruthful learner's collapse z, in the bank's softmax for d >= 8 (numpy
# sums a trailing axis of 8 or more pairwise) and in the swap learner's
# matrix-vector products (its transform was column-major, now row-major).
LEARNER_ROUNDS = 2000
LEARNER_DIMS = ((3, 1), (4, 2), (3, 3), (2, 8), (1, 9))     # (types, actions)


def _learner_pair(kind, rho, m):
    k = rho.size
    if kind == "untruthful":
        return (UntruthfulSwapLearner(rho, m, LEARNER_ROUNDS),
                ReferenceUntruthfulLearner(rho, m, LEARNER_ROUNDS))
    if kind == "typewise":
        return TypewiseSwapLearner(rho, m), ReferenceTypewiseLearner(rho, m)
    return StrategySwapLearner(k, m), ReferenceStrategyLearner(k, m)


def _played(kind, learner, out):
    return learner.policy_marginal() if kind == "strategy-swap" else out


def _seeded_stream(k, m, seed):
    """A prior row with a zero-mass type (when k > 1) and a reward stream in
    which one action pays 1 in every other round, so the experts' in-epoch
    sums keep crossing their budgets and the doubling restarts fire
    throughout."""
    rng = np.random.default_rng(seed)
    rho = rng.random(k) + 0.1
    rho[k - 1] = 0.0 if k > 1 else rho[k - 1]
    rho /= rho.sum()
    stream = rng.random((LEARNER_ROUNDS, k, m))
    stream[::2, :, int(rng.integers(m))] = 1.0
    return rho, stream


def _restarts(banks, m):
    return sum(int((b.budget > math.log(m)).sum()) for b in banks)


@pytest.mark.parametrize("kind", dynamics.LEARNER_KINDS)
@pytest.mark.parametrize("k, m", LEARNER_DIMS)
def test_learners_match_decision_axis_last_reference(kind, k, m):
    """The seeded streams of ``_seeded_stream``."""
    rho, stream = _seeded_stream(k, m, 1000 * k + m)
    new, ref = _learner_pair(kind, rho, m)
    ledgers = (RegretLedger.create(rho, m), RegretLedger.create(rho, m))
    prev = None
    for u in stream:
        got, want = new.step(prev), ref.step(prev)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        accumulate(ledgers[0], _played(kind, new, got), u)
        accumulate(ledgers[1], _played(kind, ref, want), u)
        prev = u
    for regret in (untruthful_regret, typewise_regret):
        assert abs(regret(ledgers[0]) - regret(ledgers[1])) <= 1e-9
    assert _restarts([getattr(new, "core", new).bank], m) > 0 or m == 1


BATCH = 4


@pytest.mark.parametrize("k, m", LEARNER_DIMS)
def test_batched_learner_matches_lone_learners(k, m):
    """B learners stepped as one batch against the same learners stepped
    alone, entry j on the seeded stream of seed 1000 k + m + j: each with a
    zero-mass type when k > 1 and firing restarts, and with its own prior.
    Both batched kinds run under one test id per (k, m)."""
    for kind in ("untruthful", "typewise"):
        _check_batch_against_lone_learners(kind, k, m)


def _check_batch_against_lone_learners(kind, k, m):
    rows, streams = zip(*(_seeded_stream(k, m, 1000 * k + m + j) for j in range(BATCH)))
    rows, streams = np.stack(rows), np.stack(streams, axis=1)        # (T, B, k, m)
    make = {"untruthful": lambda r: UntruthfulSwapLearner(r, m, LEARNER_ROUNDS),
            "typewise": lambda r: TypewiseSwapLearner(r, m)}[kind]
    batch, alone = make(rows), [make(row) for row in rows]
    stacked = RegretLedger.create(rows, m)
    ledgers = [RegretLedger.create(row, m) for row in rows]
    prev = None
    for u in streams:
        got = batch.step(prev)
        assert got.shape == (BATCH, k, m)
        for j, learner in enumerate(alone):
            want = learner.step(None if prev is None else prev[j])
            np.testing.assert_allclose(got[j], want, rtol=0, atol=1e-12)
            accumulate(ledgers[j], want, u[j])
        accumulate(stacked, got, u)
        prev = u
    for regret in (untruthful_regret, typewise_regret, external_regret):
        values = regret(stacked)
        assert values.shape == (BATCH,)
        for j, entry in enumerate(stacked.entries()):
            assert abs(values[j] - regret(ledgers[j])) <= 1e-9
            assert abs(regret(entry) - regret(ledgers[j])) <= 1e-9
    assert _restarts([getattr(batch, "core", batch).bank], m) > 0 or m == 1


def test_batched_fixed_point_sends_only_the_degenerate_entry_to_lstsq(monkeypatch):
    """One batch: positive transforms that converge after different numbers of
    sweeps, and a type swap whose power iteration oscillates until the
    plateau exit sends it, alone, to the least-squares solve.  Every entry
    gets what the unbatched reference fixed point gives it."""
    from commeq import learners, transforms
    rng = np.random.default_rng(29)
    k, m = 2, 2
    dense = [random_transform(rng, k, m).dense() for _ in range(3)]
    swap = transforms.deviation_to_transform(
        transforms.DeviationPair.create([1, 0], np.tile(np.arange(m), (k, 1))))
    dense.insert(2, swap.dense())
    dense = np.stack(dense)
    seeds = rng.dirichlet(np.ones(m), size=(len(dense), k)).reshape(len(dense), -1)
    solved = []

    def counting_solve(d, *blocks):
        solved.append(d.copy())
        return transforms._solve_fixed_point(d, *blocks)
    monkeypatch.setattr(learners, "_solve_fixed_point", counting_solve)
    got = learners._hot_fixed_points(dense, seeds, learners.LEARNER_FP_TOL, k)
    assert len(solved) == 1 and np.array_equal(solved[0], dense[2])
    for b in range(len(dense)):
        want = oracles_hot_fixed_point(dense[b], seeds[b], learners.LEARNER_FP_TOL, (k, m))
        np.testing.assert_allclose(got[b], want, rtol=0, atol=1e-12)
    its = [transforms._power_fixed_point(d[None], s[None], learners.LEARNER_FP_TOL,
                                         learners.LEARNER_FP_CAP)[2]
           for d, s in zip(dense, seeds)]
    assert len(set(its)) > 2                    # the entries stopped at different sweeps
    x, res, sweeps = transforms._power_fixed_point(dense, seeds, learners.LEARNER_FP_TOL,
                                                   learners.LEARNER_FP_CAP)
    assert sweeps == max(its) and isinstance(sweeps, int)
    assert (res <= learners.LEARNER_FP_TOL).sum() == len(dense) - 1


def test_batched_fixed_point_raises_when_the_fallback_fails():
    from commeq import learners
    from commeq.errors import NoConvergence
    rng = np.random.default_rng(31)
    dense = np.stack([np.full((2, 2), 0.5), 2.0 * np.eye(2)])      # the second is no transform
    seeds = rng.dirichlet(np.ones(2), size=2)
    with pytest.raises(NoConvergence):
        learners._hot_fixed_points(dense, seeds, learners.LEARNER_FP_TOL, 1)


def _agrees_with_reference_learners(monkeypatch, game, kinds):
    """run_dynamics against reference learners stepped one by one; returns
    the kind and (B, K) prior shape of each group's learner, sorted."""
    config = DynamicsConfig(horizon=300, learners=kinds)
    fast = run_dynamics(game, config)
    batches = []

    def recorded(kind, cls):
        def make(rows, *args):
            batches.append((kind, np.shape(rows)))
            return cls(rows, *args)
        return make
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "UntruthfulSwapLearner",
                      recorded("untruthful", ReferenceUntruthfulLearner))
        patch.setattr(dynamics, "TypewiseSwapLearner",
                      recorded("typewise", ReferenceTypewiseLearner))
        slow = run_dynamics(game, config)
    assert abs(fast.certificate - slow.certificate) <= 1e-12
    np.testing.assert_allclose(fast.curve, slow.curve, rtol=0, atol=1e-9)
    for a, b in zip(fast.mixture.policies, slow.mixture.policies):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
    for led in fast.ledgers:
        assert isinstance(led.alg_reward, float) and led.cross.ndim == 4
    return sorted(batches)


@pytest.mark.parametrize("name", GAME_FIXTURES)
def test_dynamics_with_reference_untruthful_learner_on_fixtures(monkeypatch, name):
    """Grouped untruthful players, then grouped type-wise players, on every
    game fixture; then a mixed run in which each kind forms a batch of one."""
    game = fixture_game(name)
    same = game.num_types[0] == game.num_types[1] and game.num_actions[0] == game.num_actions[1]
    k0, k1 = game.num_types
    for kind in ("untruthful", "typewise"):
        want = [(kind, (2, k0))] if same else sorted([(kind, (1, k0)), (kind, (1, k1))])
        assert _agrees_with_reference_learners(monkeypatch, game, (kind,) * 2) == want
    assert _agrees_with_reference_learners(monkeypatch, game, ("untruthful", "typewise")) \
        == [("typewise", (1, k1)), ("untruthful", (1, k0))]


def test_untruthful_groups_need_equal_types_and_actions(monkeypatch):
    """Players 0 and 2 share (K, M) = (2, 2) and step as one batch; player 1
    has the same K but three actions and steps alone.  Type-wise players
    group the same way."""
    rng = np.random.default_rng(37)
    nt, na = (2, 2, 2), (2, 3, 2)
    prior = PriorModel.product([r / r.sum() for r in rng.random((3, 2)) + 0.1])
    payoffs = [rng.random(nt + na) for _ in nt]
    game = BayesianGame.create(_labels(nt, "t"), _labels(na, "a"), prior, payoffs)
    for kind in ("untruthful", "typewise"):
        assert _agrees_with_reference_learners(monkeypatch, game, kind) \
            == [(kind, (1, 2)), (kind, (2, 2))]


def test_adversary_regret_matches_reference_bit_for_bit(monkeypatch):
    inst = adversary.build_instance(4, 4000, 1)
    fast = adversary.run_experiment(inst, "untruthful")
    monkeypatch.setattr(adversary, "UntruthfulSwapLearner", ReferenceUntruthfulLearner)
    slow = adversary.run_experiment(inst, "untruthful")
    assert fast.to_json_dict() == slow.to_json_dict()


@pytest.mark.parametrize("kind", dynamics.LEARNER_KINDS)
def test_dynamics_with_reference_learners_agree(monkeypatch, kind):
    game = fixture_game("first_price_auction")
    config = DynamicsConfig(horizon=300, learners=kind)
    fast = run_dynamics(game, config)
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "UntruthfulSwapLearner", ReferenceUntruthfulLearner)
        patch.setattr(dynamics, "TypewiseSwapLearner", ReferenceTypewiseLearner)
        patch.setattr(dynamics, "StrategySwapLearner", ReferenceStrategyLearner)
        slow = run_dynamics(game, config)
    assert abs(fast.certificate - slow.certificate) <= 1e-12
    for a, b in zip(fast.mixture.policies, slow.mixture.policies):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
