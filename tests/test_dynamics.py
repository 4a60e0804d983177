import json

import numpy as np
import pytest

from commeq import dynamics
from commeq.dynamics import (DynamicsConfig, exact_reward, run_dynamics, sample_count,
                             sampled_reward, _round_rng)
from commeq.errors import BadInput, EnumerationTooLarge
from commeq import game as game_module
from commeq.game import BayesianGame, PriorModel, mixture_to_tabular, uniform_policy
from commeq.regret import untruthful_regret
from commeq.verifier import comm_eq_epsilon, strategy_representable

from .fixture_files import game as fixture_game
from .oracles import mixture, mixture_eval


def empirical_distribution(profiles):
    """Uniform-weight mixture of per-round product profiles."""
    return mixture(np.full(len(profiles), 1.0 / len(profiles)), profiles)


def test_exact_reward_single_player():
    prior = PriorModel.product([[0.25, 0.75]])
    v = np.array([[0.2, 0.9], [0.4, 0.1]])
    game = BayesianGame.create([["a", "b"]], [["l", "r"]], prior, [v])
    assert np.allclose(exact_reward(game, 0, [None]), v)


def test_exact_reward_deterministic_opponent():
    game = fixture_game("matching_game")
    prior = PriorModel.tabular(np.array([[1.0, 0.0], [0.0, 0.0]]))
    pointy = BayesianGame.create(game.type_labels, game.action_labels, prior,
                                 list(game.payoffs), game.payoff_scope)
    opp = np.array([[0.0, 1.0], [1.0, 0.0]])   # deterministic per type
    u = exact_reward(pointy, 0, [None, opp])
    # only the positive-mass type has a meaningful conditional
    for a in range(2):
        assert u[0, a] == pytest.approx(game.payoffs[0][0, 0, a, 1])


def test_exact_reward_hand_enumeration():
    game = fixture_game("matching_game")
    opp = uniform_policy(2, 2)
    u = exact_reward(game, 0, [None, opp])
    for th in range(2):
        for a in range(2):
            want = np.mean([game.payoffs[0][th, t2, a, a2]
                            for t2 in range(2) for a2 in range(2)])
            assert u[th, a] == pytest.approx(want)


def test_exact_reward_cap(monkeypatch):
    game = fixture_game("matching_game")
    monkeypatch.setattr(game_module, "DEFAULT_ENUMERATION_CAP", 3)
    with pytest.raises(EnumerationTooLarge):
        exact_reward(game, 0, [None, uniform_policy(2, 2)])


def test_sample_count_formula():
    assert sample_count(0.2, 0.1, 2, 100, 4) == 1937


def test_sampled_reward_constant_game_exact():
    prior = PriorModel.product([[0.5, 0.5], [0.5, 0.5]])
    payoffs = [np.full((2, 2, 2, 2), 0.3)] * 2
    game = BayesianGame.create([["a", "b"], ["a", "b"]], [["l", "r"], ["l", "r"]],
                               prior, payoffs)
    rng = _round_rng(0, 0, 1)
    u = sampled_reward(game, 0, [None, uniform_policy(2, 2)], 0.5, 0.1, rng, 10)
    assert np.allclose(u, 0.3)


def test_sampled_reward_concentrates():
    game = fixture_game("matching_game")
    opp = np.array([[0.8, 0.2], [0.3, 0.7]])
    exact = exact_reward(game, 0, [None, opp])
    eps, delta = 0.2, 0.05
    hits = 0
    trials = 200
    for rep in range(trials):
        rng = _round_rng(rep, 0, 1)
        approx = sampled_reward(game, 0, [None, opp], eps, delta, rng, 1)
        if np.abs(approx - exact).max() <= eps / 4:
            hits += 1
    assert hits / trials >= 0.95


class _RecordingRng:
    """A generator that logs the name of each method called on it and keeps
    the counts of its last multinomial draw."""

    def __init__(self, rng):
        self.rng, self.calls, self.counts = rng, [], None

    def __getattr__(self, name):
        self.calls.append(name)
        method = getattr(self.rng, name)
        if name != "multinomial":
            return method

        def multinomial(*args, **kwargs):
            self.counts = method(*args, **kwargs)
            return self.counts
        return multinomial


def test_sampled_cell_counts_have_multinomial_moments():
    """Over 2 000 (seed, player, round) streams on the auction, each cell's
    count over the sample budget S has mean q and variance q (1 - q) / S,
    both within 4 sigma; zero-probability cells are never drawn.  q is the
    conditional prior times the opponent's policy."""
    game = fixture_game("first_price_auction")
    opp = np.array([[0.6, 0.4, 0.0], [0.1, 0.3, 0.6]])
    eps, delta, horizon = 0.5, 0.1, 10
    s = sample_count(eps, delta, game.n, horizon, 6)
    q = (game.prior.conditional_matrix(0)[:, :, None] * opp).reshape(2, -1)
    streams = [(seed, 0, t) for seed in range(400) for t in range(1, 6)]
    freq = np.empty((len(streams),) + q.shape)
    for row, key in enumerate(streams):
        rng = _RecordingRng(_round_rng(*key))
        sampled_reward(game, 0, [None, opp], eps, delta, rng, horizon)
        freq[row] = rng.counts / s
    n = len(streams)
    var = q * (1 - q) / s
    assert np.all(np.abs(freq.mean(axis=0) - q) <= 4 * np.sqrt(var / n))
    live = var > 0
    kurtosis = (1 - 6 * q[live] * (1 - q[live])) / (s * q[live] * (1 - q[live]))
    sd_of_var = var[live] * np.sqrt(2 / (n - 1) + kurtosis / n)
    assert np.all(np.abs(freq.var(axis=0, ddof=1)[live] - var[live]) <= 4 * sd_of_var)
    assert np.all(freq[:, ~live] == 0)


def test_sampled_reward_makes_one_multinomial_draw():
    for name in ("first_price_auction", "guessing_game", "correlated_coarse_game"):
        game = fixture_game(name)
        policies = [np.full((k, m), 1.0 / m) for k, m in zip(game.num_types, game.num_actions)]
        for i in range(game.n):
            rng = _RecordingRng(_round_rng(3, i, 1))
            sampled_reward(game, i, policies, 0.2, 0.05, rng, 50)
            assert rng.calls == ["multinomial"], (name, i)
            assert rng.counts.shape[0] == game.num_types[i]


def test_sampled_reward_takes_rows_a_rounding_past_one():
    """Policy rows summing to 1 + 1e-12 (float drift of a learner's output),
    with the last action at 0, draw that action with probability 0 and trip
    none of the multinomial's checks."""
    for name in ("first_price_auction", "guessing_game", "correlated_coarse_game"):
        game = fixture_game(name)
        policies = []
        for k, m in zip(game.num_types, game.num_actions):
            row = np.append(np.full(m - 1, 1.0 / (m - 1)), 0.0) if m > 1 else np.ones(1)
            policies.append(np.tile(row * (1 + 1e-12), (k, 1)))
        for i, j in ((0, 1), (1, 0)):
            rng = _RecordingRng(_round_rng(4, i, 1))
            u = sampled_reward(game, i, policies, 0.2, 0.05, rng, 50)
            assert np.all(np.isfinite(u))
            last = rng.counts.reshape(-1, game.num_types[j], game.num_actions[j])[..., -1]
            assert game.num_actions[j] == 1 or not last.any(), (name, i)


def test_constant_payoff_game_zero_certificate():
    prior = PriorModel.product([[0.5, 0.5], [0.5, 0.5]])
    payoffs = [np.full((2, 2, 2, 2), 0.5)] * 2
    game = BayesianGame.create([["a", "b"], ["a", "b"]], [["l", "r"], ["l", "r"]],
                               prior, payoffs)
    res = run_dynamics(game, DynamicsConfig(horizon=50))
    assert res.certificate == pytest.approx(0.0, abs=1e-12)
    for led in res.ledgers:
        assert untruthful_regret(led) == pytest.approx(0.0, abs=1e-12)


def test_single_type_reduces_to_swap_dynamics():
    prior = PriorModel.product([[1.0], [1.0]])
    rng = np.random.default_rng(0)
    payoffs = [rng.random((1, 1, 2, 2)) for _ in range(2)]
    game = BayesianGame.create([["t"], ["t"]], [["l", "r"], ["l", "r"]],
                               prior, payoffs)
    res = run_dynamics(game, DynamicsConfig(horizon=500))
    assert res.certificate == pytest.approx(
        max(untruthful_regret(led) for led in res.ledgers) / 500)


def test_certificate_matches_verifier():
    game = fixture_game("matching_game")
    res = run_dynamics(game, DynamicsConfig(horizon=800, seed=5))
    cert = comm_eq_epsilon(game, res.mixture)
    assert abs(cert.epsilon - res.certificate) <= 1e-6


def test_mixture_is_representable():
    game = fixture_game("matching_game")
    res = run_dynamics(game, DynamicsConfig(horizon=60, seed=1))
    rep = strategy_representable(mixture_to_tabular(res.mixture))
    assert rep.feasible


def test_run_determinism_and_threads():
    game = fixture_game("matching_game")
    base = run_dynamics(game, DynamicsConfig(horizon=80, seed=9))
    again = run_dynamics(game, DynamicsConfig(horizon=80, seed=9))
    threaded = run_dynamics(game, DynamicsConfig(horizon=80, seed=9, threads=4))
    for a, b in [(base, again), (base, threaded)]:
        assert a.certificate == b.certificate
        assert np.array_equal(a.curve, b.curve)
        for pa, pb in zip(a.mixture.policies, b.mixture.policies):
            assert np.array_equal(pa, pb)


def count_pools(monkeypatch) -> list:
    """Make run_dynamics record the worker count of every pool it builds."""
    built = []

    class CountingPool(dynamics.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(dynamics, "ThreadPoolExecutor", CountingPool)
    return built


def test_only_sampled_rewards_build_a_thread_pool(monkeypatch):
    """Exact rewards run inline at any --threads; sampled ones use the pool
    only when some call covers POOL_MIN_CELLS cells, |Theta_i| x opponent
    cells, which no fixture game reaches at the default."""
    built = count_pools(monkeypatch)
    game = fixture_game("matching_game")
    exact = DynamicsConfig(horizon=5, threads=2)
    sampled = DynamicsConfig(horizon=5, threads=2, reward_mode="sampled",
                             epsilon=0.5, delta=0.2)
    run_dynamics(game, exact)
    run_dynamics(game, sampled)
    assert built == []
    monkeypatch.setattr(dynamics, "POOL_MIN_CELLS", 0)
    run_dynamics(game, exact)
    run_dynamics(game, DynamicsConfig(horizon=5, reward_mode="sampled",
                                      epsilon=0.5, delta=0.2))
    assert built == []
    run_dynamics(game, sampled)
    assert built == [2]
    # the largest call decides: on matching_game each player's 2 types face
    # 2 x 2 opponent cells (8); on guessing_game player 0's 3 types face
    # 1 x 4 (12) and player 1's one type 3 x 5 (15)
    for g, cells in [(game, 8), (fixture_game("guessing_game"), 15)]:
        built.clear()
        monkeypatch.setattr(dynamics, "POOL_MIN_CELLS", cells + 1)
        run_dynamics(g, sampled)
        assert built == []
        monkeypatch.setattr(dynamics, "POOL_MIN_CELLS", cells)
        run_dynamics(g, sampled)
        assert built == [2]


@pytest.mark.parametrize("name", ["guessing_game", "first_price_auction"])
def test_pooled_sampled_run_matches_inline_bit_for_bit(monkeypatch, name):
    built = count_pools(monkeypatch)
    game = fixture_game(name)
    config = dict(horizon=30, seed=3, reward_mode="sampled", epsilon=0.5, delta=0.2)
    inline = run_dynamics(game, DynamicsConfig(**config))
    monkeypatch.setattr(dynamics, "POOL_MIN_CELLS", 0)
    for threads in (2, 4):
        pooled = run_dynamics(game, DynamicsConfig(**config, threads=threads))
        assert pooled.certificate == inline.certificate
        assert pooled.untruthful == inline.untruthful
        assert np.array_equal(pooled.curve, inline.curve)
        for a, b in zip(pooled.mixture.policies, inline.mixture.policies):
            assert np.array_equal(a, b)
        for a, b in zip(pooled.ledgers, inline.ledgers):
            assert np.array_equal(a.cross, b.cross)
            assert np.array_equal(a.alg_reward, b.alg_reward) and a.rounds == b.rounds
    assert built == [2, 4]


def test_sampled_run_determinism():
    game = fixture_game("matching_game")
    cfg = DynamicsConfig(horizon=30, seed=2, reward_mode="sampled",
                         epsilon=0.5, delta=0.2)
    a = run_dynamics(game, cfg)
    b = run_dynamics(game, cfg)
    c = run_dynamics(game, DynamicsConfig(horizon=30, seed=2, reward_mode="sampled",
                                          epsilon=0.5, delta=0.2,
                                          threads=4))
    assert a.certificate == b.certificate == c.certificate


def test_sampled_certificate_close_to_exact():
    game = fixture_game("matching_game")
    eps, delta = 0.4, 0.2
    exact = run_dynamics(game, DynamicsConfig(horizon=150, seed=0))
    good = 0
    reps = 50
    for rep in range(reps):
        out = run_dynamics(game, DynamicsConfig(
            horizon=150, seed=1000 + rep, reward_mode="sampled",
            epsilon=eps, delta=delta))
        if out.certificate <= exact.certificate + eps:
            good += 1
    assert good / reps >= 1 - delta


GAME_FIXTURES = ("correlated_coarse_game", "first_price_auction", "guessing_game",
                 "matching_game", "zero_payoff_game")


@pytest.mark.parametrize("name", GAME_FIXTURES)
def test_sampled_upper_bound_covers_exact_eps_of_own_mixture(name):
    """The exact eps of a sampled run's own play stays within its stated bound:
    the certificate plus eps/2 (each Monte-Carlo entry is within eps/4)."""
    game = fixture_game(name)
    for seed in (1, 2):
        result = run_dynamics(game, DynamicsConfig(horizon=60, seed=seed,
                                                   reward_mode="sampled"))
        assert result.sampling == (0.05, 0.95)
        bound = dynamics.sampling_fields(result)["epsilon_upper_bound"]
        assert bound == result.certificate + 0.05
        exact = comm_eq_epsilon(game, result.mixture).epsilon
        assert exact <= bound, (name, seed, exact)


def test_exact_runs_claim_no_sampling_slack():
    result = run_dynamics(fixture_game("matching_game"), DynamicsConfig(horizon=20))
    assert result.sampling is None
    assert dynamics.sampling_fields(result) == {}


def test_empirical_distribution_shapes():
    prof = [[uniform_policy(2, 2), uniform_policy(2, 2)]]
    mix1 = empirical_distribution(prof)
    assert mix1.num_components == 1
    mix2 = empirical_distribution(prof * 2)
    for theta in np.ndindex(2, 2):
        for act in np.ndindex(2, 2):
            assert mixture_eval(mix2, theta, act) == pytest.approx(
                mixture_eval(mix1, theta, act))


def test_empirical_three_round_average():
    rng = np.random.default_rng(3)
    profs = []
    for _ in range(3):
        p = rng.random((2, 2))
        q = rng.random((2, 2))
        profs.append([p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)])
    mix = empirical_distribution(profs)
    for theta in np.ndindex(2, 2):
        for act in np.ndindex(2, 2):
            want = np.mean([profs[t][0][theta[0], act[0]] * profs[t][1][theta[1], act[1]]
                            for t in range(3)])
            assert mixture_eval(mix, theta, act) == pytest.approx(want)


def test_strategy_swap_dynamics_traces():
    game = fixture_game("matching_game")
    cfg = DynamicsConfig(horizon=300, learners="strategy-swap", seed=4)
    res = run_dynamics(game, cfg)
    # each round's play is the type-wise marginal of the learner's sigma
    for p in res.mixture.policies:
        assert p.shape == (300, 2, 2)
        assert np.allclose(p.sum(axis=2), 1.0, atol=1e-8)
    assert res.certificate >= 0.0


def test_mixed_learner_kinds():
    game = fixture_game("matching_game")
    cfg = DynamicsConfig(horizon=120, learners=("untruthful", "typewise"),
                         seed=6)
    res = run_dynamics(game, cfg)
    cert = comm_eq_epsilon(game, res.mixture)
    assert abs(cert.epsilon - res.certificate) <= 1e-6


def test_curve_layout_and_bound_column():
    game = fixture_game("matching_game")
    res = run_dynamics(game, DynamicsConfig(horizon=40, seed=7))
    assert res.curve.shape == (40 * 2, 6)
    # ordering holds at every sampled t
    assert np.all(res.curve[:, 2] <= res.curve[:, 3] + 1e-12)
    assert np.all(res.curve[:, 3] <= res.curve[:, 4] + 1e-12)
    assert np.all(res.curve[:, 4] <= res.curve[:, 5] + 1e-12)


def test_bad_learner_kind():
    game = fixture_game("matching_game")
    with pytest.raises(BadInput):
        run_dynamics(game, DynamicsConfig(horizon=5, learners="nope"))


def test_equilibrium_json_bytes_equal_json_dump(tmp_path):
    """The writer goes through json.dumps (the C encoder) and must write the
    bytes json.dump (the pure-Python encoder) writes."""
    result = run_dynamics(fixture_game("matching_game"), DynamicsConfig(horizon=40))
    path = tmp_path / "equilibrium.json"
    dynamics.write_equilibrium_json(str(path), result)
    with open(tmp_path / "dumped.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dynamics.result_to_json_dict(result), fh, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()
