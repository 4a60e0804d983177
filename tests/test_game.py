import json
import tracemalloc

import numpy as np
import pytest

from commeq import game as game_module
from commeq.errors import BadInput, SupportTooLarge
from commeq.game import (BayesianGame, MixtureDistribution, PriorModel, StrategyDistribution, decode_strategy_profile,
                         game_from_json_dict, game_to_json_dict, mixture_to_tabular,
                         strategy_space_size, save_game, uniform_policy, validate_game)

from . import fixture_files
from .oracles import mixture, mixture_eval, reference_product_prior, strategy_to_mixture


def encode_strategy_profile(s, num_actions):
    """Mixed-radix index of a strategy profile; player 1's first type is the
    most significant digit."""
    idx = 0
    for i, si in enumerate(s):
        for a in si:
            idx = idx * num_actions[i] + int(a)
    return idx


def guessing_game_strategy_witness():
    """The four-profile strategy mixture realizing fixtures/guessing_pi.json."""
    num_types, num_actions = (3, 1), (5, 4)
    probs = np.zeros(4**1 * 5**3)
    rows = [
        ([0, 4, 2], [0]),   # player 2 plays "1"
        ([0, 4, 3], [1]),
        ([0, 1, 2], [2]),
        ([0, 1, 3], [3]),
    ]
    for r1, r2 in rows:
        idx = encode_strategy_profile([np.array(r1), np.array(r2)], num_actions)
        probs[idx] = 0.25
    return StrategyDistribution.create(num_types, num_actions, probs)


def small_game(payoff_value=0.5):
    prior = PriorModel.product([[0.5, 0.5], [0.5, 0.5]])
    payoffs = [np.full((2, 2, 2, 2), payoff_value) for _ in range(2)]
    return BayesianGame.create([["x", "y"], ["x", "y"]], [["l", "r"], ["l", "r"]],
                               prior, payoffs, "own-type")


def test_validate_ok():
    assert validate_game(small_game()).ok


def test_validate_payoff_out_of_range():
    game = small_game()
    bad = [p.copy() for p in game.payoffs]
    bad[0][0, 0, 0, 0] = 1.2
    game2 = BayesianGame(game.n, game.type_labels, game.action_labels,
                         game.prior, tuple(bad), "own-type")
    report = validate_game(game2)
    assert not report.ok
    assert any("payoff out of [0,1]" in v for v in report.violations)


def test_validate_prior_mass():
    with pytest.raises(BadInput, match="mass"):
        PriorModel.tabular(np.array([[0.49, 0.0], [0.0, 0.49]]))


def test_validate_reports_bad_prior_mass():
    # constructors validate on ingestion, but validate_game must still report
    # (never abort) when handed an inconsistent object
    import dataclasses
    prior = PriorModel.tabular(np.array([[0.5, 0.0], [0.0, 0.5]]))
    bad = dataclasses.replace(prior, table=np.array([[0.49, 0.0], [0.0, 0.49]]))
    game = BayesianGame.create([["a", "b"], ["a", "b"]], [["l"], ["l"]],
                               bad, [np.zeros((2, 2, 1, 1))] * 2)
    report = validate_game(game)
    assert not report.ok
    assert any("prior mass 0.98" in v for v in report.violations)


def test_validate_scope_mismatch():
    game = small_game()
    bad = [p.copy() for p in game.payoffs]
    bad[0][0, 1, 0, 0] = 0.9   # player 0's payoff now varies with player 1's type
    game2 = BayesianGame(game.n, game.type_labels, game.action_labels,
                         game.prior, tuple(bad), "own-type")
    assert not validate_game(game2).ok


def test_conditional_prior_product():
    prior = PriorModel.product([[0.5, 0.5], [0.3, 0.7]])
    game = BayesianGame.create([["a", "b"], ["a", "b"]], [["l"], ["l"]],
                               prior, [np.zeros((2, 2, 1, 1))] * 2)
    for theta in range(2):
        assert np.allclose(game.prior.conditional_matrix(0)[theta], [0.3, 0.7])


def test_conditional_prior_tabular_bayes():
    prior = PriorModel.tabular(np.array([[0.5, 0.0], [0.0, 0.5]]))
    game = BayesianGame.create([["a", "b"], ["a", "b"]], [["l"], ["l"]],
                               prior, [np.zeros((2, 2, 1, 1))] * 2)
    assert np.allclose(game.prior.conditional_matrix(0)[0], [1.0, 0.0])
    assert np.allclose(game.prior.conditional_matrix(0)[1], [0.0, 1.0])


def test_conditional_prior_zero_mass():
    # a zero-mass type's row is still a distribution: the others' marginals
    # under a product prior, uniform under a tabular one
    prior = PriorModel.product([[1.0, 0.0], [1.0]])
    game = BayesianGame.create([["a", "b"], ["a"]], [["l"], ["l"]],
                               prior, [np.zeros((2, 1, 1, 1))] * 2)
    assert np.array_equal(game.prior.conditional_matrix(0)[1], [1.0])
    tabular = PriorModel.tabular(np.array([[0.2, 0.8], [0.0, 0.0]]))
    assert np.array_equal(tabular.conditional_matrix(0)[1], [0.5, 0.5])


def test_conditional_prior_single_player():
    prior = PriorModel.product([[0.4, 0.6]])
    game = BayesianGame.create([["a", "b"]], [["l", "r"]], prior,
                               [np.zeros((2, 2))])
    assert np.allclose(game.prior.conditional_matrix(0)[0], [1.0])


def test_product_prior_tables_equal_the_outer_product_loops():
    """The Kronecker kernel gives the full table and the conditional rows bit
    for bit, on 300 random product priors of 1-4 players with 1-4 types."""
    rng = np.random.default_rng(12)
    for _ in range(300):
        rows = [rng.dirichlet(np.ones(k)) for k in rng.integers(1, 5, rng.integers(1, 5))]
        prior = PriorModel.product(rows)
        table, conditionals = reference_product_prior(prior.marginals)
        assert np.array_equal(prior.full_table(), table)
        assert prior.full_table().shape == table.shape
        for got, want in zip(prior.conditionals, conditionals, strict=True):
            assert got.shape == want.shape and np.array_equal(got, want)


def test_mixture_eval_uniform():
    mix = mixture([1.0], [[uniform_policy(2, 2), uniform_policy(2, 2)]])
    for theta in np.ndindex(2, 2):
        for act in np.ndindex(2, 2):
            assert mixture_eval(mix, theta, act) == pytest.approx(0.25)


def test_mixture_eval_point_masses():
    e0 = np.array([[1.0, 0.0]])
    e1 = np.array([[0.0, 1.0]])
    mix = mixture([0.5, 0.5], [[e0, e0], [e1, e1]])
    assert mixture_eval(mix, (0, 0), (0, 0)) == pytest.approx(0.5)
    assert mixture_eval(mix, (0, 0), (1, 1)) == pytest.approx(0.5)
    assert mixture_eval(mix, (0, 0), (0, 1)) == 0.0


def test_mixture_marginals_sum_to_one():
    rng = np.random.default_rng(0)
    profiles = []
    for _ in range(5):
        prof = []
        for k, m in [(2, 3), (3, 2)]:
            p = rng.random((k, m))
            prof.append(p / p.sum(axis=1, keepdims=True))
        profiles.append(prof)
    w = rng.random(5)
    mix = mixture(w / w.sum(), profiles)
    tab = mixture_to_tabular(mix)
    sums = tab.reshape(2 * 3, -1).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-9)
    for theta in np.ndindex(2, 3):
        for act in np.ndindex(3, 2):
            assert mixture_eval(mix, theta, act) == pytest.approx(tab[theta + act])


def _random_mixture(rng, num_types, num_actions, components):
    w = rng.random(components)
    policies = [rng.dirichlet(np.ones(m), size=(components, k))
                for k, m in zip(num_types, num_actions)]
    return MixtureDistribution.from_stacked(w / w.sum(), policies)


def test_mixture_to_tabular_blocks_add_as_one_sum(monkeypatch):
    """Blocks of 1, 3 and 7 components, each block's sum started from the sum
    so far, give bit for bit the table of one block of all components.  The
    tables have two cells or more: numpy sums a one-cell column pairwise, and
    a one-cell table takes 2^20 components per block."""
    rng = np.random.default_rng(30)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        nt, na = rng.integers(1, 4, n), rng.integers(1, 4, n)
        if nt.prod() * na.prod() < 2:
            na[0] = 2
        mix = _random_mixture(rng, nt, na, int(rng.integers(1, 41)))
        whole = mixture_to_tabular(mix)
        assert mix.num_components * whole.size <= game_module.CONTRACT_BLOCK_CELLS
        for per_block in (1, 3, 7):
            with monkeypatch.context() as patch:
                patch.setattr(game_module, "CONTRACT_BLOCK_CELLS", per_block * whole.size)
                assert np.array_equal(mixture_to_tabular(mix), whole)


def test_mixture_to_tabular_holds_one_block(monkeypatch):
    """200 components over 4096 cells: the product of all of them would take
    6.4 MB, one block of 4 takes 128 kB."""
    rng = np.random.default_rng(31)
    mix = _random_mixture(rng, (4, 4, 4), (4, 4, 4), 200)
    monkeypatch.setattr(game_module, "CONTRACT_BLOCK_CELLS", 2**14)
    tracemalloc.start()
    try:
        table = mixture_to_tabular(mix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (2**14 + table.size) * 8


def test_strategy_roundtrip_point_mass():
    sigma = StrategyDistribution.create((1, 1), (2, 2), [0, 0, 1, 0])
    mix = strategy_to_mixture(sigma)
    assert mix.num_components == 1
    s = decode_strategy_profile(2, (1, 1), (2, 2))
    assert mixture_eval(mix, (0, 0), (int(s[0][0]), int(s[1][0]))) == 1.0


def test_strategy_uniform_expansion():
    size = strategy_space_size((2, 1), (2, 2))   # 4 * 2 = 8... sanity below
    assert size == 8
    sigma = StrategyDistribution.create((2, 1), (2, 2), np.full(8, 1 / 8))
    mix = strategy_to_mixture(sigma)
    assert mix.num_components == 8
    assert np.allclose(mix.weights, 1 / 8)


def test_strategy_roundtrip_exhaustive():
    rng = np.random.default_rng(4)
    num_types, num_actions = (2, 1), (2, 3)
    size = strategy_space_size(num_types, num_actions)
    probs = rng.random(size)
    sigma = StrategyDistribution.create(num_types, num_actions, probs / probs.sum())
    mix = strategy_to_mixture(sigma)
    for theta in np.ndindex(*num_types):
        for act in np.ndindex(*num_actions):
            direct = 0.0
            for s in range(size):
                rows = decode_strategy_profile(s, num_types, num_actions)
                if all(rows[i][theta[i]] == act[i] for i in range(2)):
                    direct += sigma.probs[s]
            assert mixture_eval(mix, theta, act) == pytest.approx(direct, abs=1e-12)


def test_strategy_encoding_roundtrip():
    num_types, num_actions = (2, 3), (3, 2)
    for idx in range(strategy_space_size(num_types, num_actions)):
        rows = decode_strategy_profile(idx, num_types, num_actions)
        assert encode_strategy_profile(rows, num_actions) == idx


def test_strategy_cap():
    with pytest.raises(SupportTooLarge):
        StrategyDistribution.create((10, 10), (10, 10), np.zeros(4))


def test_guessing_witness_matches_distribution():
    sigma = guessing_game_strategy_witness()
    mix = strategy_to_mixture(sigma)
    pi = fixture_files.distribution("guessing_pi", "guessing_game")
    assert np.allclose(mixture_to_tabular(mix), pi, atol=1e-12)


def test_json_roundtrip():
    game = fixture_files.game("matching_game")
    doc = game_to_json_dict(game)
    back = game_from_json_dict(doc)
    assert back.type_labels == game.type_labels
    assert back.action_labels == game.action_labels
    for a, b in zip(back.payoffs, game.payoffs):
        assert np.array_equal(a, b)
    assert back.payoff_scope == game.payoff_scope


def test_json_roundtrip_tabular_prior():
    game = fixture_files.game("correlated_coarse_game")
    back = game_from_json_dict(game_to_json_dict(game))
    assert np.allclose(back.prior.table, game.prior.table)


@pytest.mark.parametrize("name", ["first_price_auction", "guessing_game"])
def test_save_game_bytes_equal_json_dump(tmp_path, name):
    """save_game goes through json.dumps (the C encoder) and must write the
    bytes json.dump (the pure-Python encoder) writes."""
    game = fixture_files.game(name)
    save_game(game, str(tmp_path / "saved.json"))
    with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
        json.dump(game_to_json_dict(game), fh, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()
