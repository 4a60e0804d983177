import numpy as np
import pytest

from commeq import verifier
from commeq.errors import BadInput, SupportTooLarge
from commeq.game import (BayesianGame, MixtureDistribution, PriorModel, StrategyDistribution,
                         expected_rewards, mixture_to_tabular)
from commeq.regret import RegretLedger
from commeq.verifier import (anf_bs_epsilon, bne_epsilon, coarse_epsilon,
                             comm_eq_epsilon, conditional_independence,
                             deviation_tensor, sfce_epsilon,
                             strategy_representable, typewise_product_gap)

from .fixture_files import distribution, game as fixture_game
from .oracles import enumerate_comm_gain, mixture, strategy_to_mixture


def random_mixture(rng, num_types, num_actions, components):
    profiles = []
    for _ in range(components):
        prof = []
        for k, m in zip(num_types, num_actions):
            p = rng.random((k, m))
            prof.append(p / p.sum(axis=1, keepdims=True))
        profiles.append(prof)
    w = rng.random(components)
    return mixture(w / w.sum(), profiles)


def random_game(rng, num_types, num_actions, tabular_prior=False):
    if tabular_prior:
        t = rng.random(num_types)
        prior = PriorModel.tabular(t / t.sum())
    else:
        rows = []
        for k in num_types:
            r = rng.random(k) + 0.05
            rows.append(r / r.sum())
        prior = PriorModel.product(rows)
    shape = tuple(num_types) + tuple(num_actions)
    payoffs = [rng.random(shape) for _ in num_types]
    types = [[str(j) for j in range(k)] for k in num_types]
    actions = [[str(j) for j in range(m)] for m in num_actions]
    return BayesianGame.create(types, actions, prior, payoffs)


def replay(ledger, psi, phi):
    """Deviation value minus truthful value of a concrete (psi, phi): true type
    theta reports psi[theta] and plays phi[theta][b] when recommended b."""
    k, m = ledger.cross.shape[0], ledger.cross.shape[3]
    value = sum(ledger.cross[th, psi[th], phi[th][b], b] for th in range(k) for b in range(m))
    return value - ledger.alg_reward


# ---------------------------------------------------------------------------
# deviation tensor

def test_tensor_single_player():
    rng = np.random.default_rng(0)
    game = random_game(rng, (2,), (3,))
    pi = rng.random((2, 3))
    pi /= pi.sum(axis=1, keepdims=True)
    ledger = deviation_tensor(game, 0, pi.reshape(2, 3))
    v = game.payoffs[0]
    rho = game.prior.marginals[0]
    for th in range(2):
        for tp in range(2):
            for b in range(3):
                for a in range(3):
                    assert ledger.cross[th, tp, a, b] == pytest.approx(
                        rho[th] * pi[tp, b] * v[th, a], abs=1e-12)
    want = sum(rho[th] * pi[th, a] * v[th, a] for th in range(2) for a in range(3))
    assert ledger.alg_reward == pytest.approx(want, abs=1e-12)


def test_tensor_zero_payoff_player():
    game = fixture_game("zero_payoff_game")
    pi = distribution("nonrepresentable_pi", "zero_payoff_game")
    ledger = deviation_tensor(game, 0, pi)
    assert np.all(ledger.cross == 0.0)


def test_tensor_mixture_equals_tabular():
    rng = np.random.default_rng(1)
    game = random_game(rng, (2, 2), (2, 3), tabular_prior=True)
    mix = random_mixture(rng, (2, 2), (2, 3), 7)
    tab = mixture_to_tabular(mix)
    for i in range(2):
        a = deviation_tensor(game, i, mix)
        b = deviation_tensor(game, i, tab)
        assert np.allclose(a.cross, b.cross, atol=1e-12)
        assert a.alg_reward == pytest.approx(b.alg_reward, abs=1e-12)


def test_guessing_game_truthful_value_half():
    ledger = deviation_tensor(fixture_game("guessing_game"), 0,
                              distribution("guessing_pi", "guessing_game"))
    assert ledger.alg_reward == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# communication-equilibrium certificates

def test_comm_matches_enumeration_small():
    rng = np.random.default_rng(2)
    for tabular_prior in (False, True):
        game = random_game(rng, (2, 2), (2, 2), tabular_prior=tabular_prior)
        mix = random_mixture(rng, (2, 2), (2, 2), 4)
        tab = mixture_to_tabular(mix)
        cert = comm_eq_epsilon(game, mix)
        for dev in cert.per_player:
            want = enumerate_comm_gain(game, tab, dev.player)
            assert dev.gain == pytest.approx(want, abs=1e-9)


def test_comm_witness_replay():
    rng = np.random.default_rng(3)
    game = random_game(rng, (2, 3), (2, 2))
    mix = random_mixture(rng, (2, 3), (2, 2), 5)
    cert = comm_eq_epsilon(game, mix)
    for dev in cert.per_player:
        ledger = deviation_tensor(game, dev.player, mix)
        assert replay(ledger, dev.witness["psi"], dev.witness["phi"]) == pytest.approx(
            dev.gain, abs=1e-9)


def test_guessing_game_is_comm_equilibrium():
    cert = comm_eq_epsilon(fixture_game("guessing_game"),
                           distribution("guessing_pi", "guessing_game"))
    assert cert.epsilon == pytest.approx(0.0, abs=1e-12)


def test_zero_game_everything_zero():
    game = fixture_game("zero_payoff_game")
    pi = distribution("nonrepresentable_pi", "zero_payoff_game")
    assert comm_eq_epsilon(game, pi).epsilon == 0.0
    assert anf_bs_epsilon(game, pi).epsilon == 0.0
    assert coarse_epsilon(game, pi, "coarse-bs").epsilon == 0.0


def test_anf_bs_below_comm():
    rng = np.random.default_rng(4)
    for _ in range(10):
        game = random_game(rng, (2, 2), (2, 2))
        mix = random_mixture(rng, (2, 2), (2, 2), 3)
        comm = comm_eq_epsilon(game, mix)
        anf = anf_bs_epsilon(game, mix)
        assert anf.epsilon <= comm.epsilon + 1e-12
        coarse = coarse_epsilon(game, mix, "coarse-bs")
        assert coarse.epsilon <= anf.epsilon + 1e-12


def test_comm_zero_and_representable_implies_anf_zero():
    game = fixture_game("guessing_game")
    pi = distribution("guessing_pi", "guessing_game")
    assert comm_eq_epsilon(game, pi).epsilon == pytest.approx(0.0, abs=1e-12)
    cert = anf_bs_epsilon(game, pi)
    assert cert.representable is True
    assert cert.epsilon == pytest.approx(0.0, abs=1e-12)


def test_anf_bs_sizes_the_lp_before_tabularizing(monkeypatch):
    """|S| = 2^14 is past DEFAULT_LP_CAP, yet a mixture of type-wise product
    policies is representable by construction: neither the table nor the LP
    is built."""
    rng = np.random.default_rng(21)
    game = random_game(rng, (14,), (2,))
    mix = random_mixture(rng, (14,), (2,), 4)

    def refuse(dist):
        raise AssertionError("the mixture was tabularized or sent to the LP")
    monkeypatch.setattr(verifier, "mixture_to_tabular", refuse)
    monkeypatch.setattr(verifier, "strategy_representable", refuse)
    cert = anf_bs_epsilon(game, mix)
    assert cert.representable is True and cert.to_json_dict()["representable"] is True


def test_anf_bs_leaves_a_tabular_distribution_past_the_lp_cap_unassessed():
    rng = np.random.default_rng(22)
    game = random_game(rng, (14,), (2,))
    pi = mixture_to_tabular(random_mixture(rng, (14,), (2,), 4))
    cert = anf_bs_epsilon(game, pi)
    assert cert.representable is None and cert.to_json_dict()["representable"] is None


def test_bne_never_runs_the_representability_lp(monkeypatch):
    def refuse(pi):
        raise AssertionError("bne ran the representability LP")
    monkeypatch.setattr(verifier, "strategy_representable", refuse)
    game = fixture_game("zero_payoff_game")
    cert = bne_epsilon(game, distribution("nonrepresentable_pi", "zero_payoff_game"))
    assert cert.representable is None and cert.product_gap > 0.2


@pytest.mark.parametrize("audit", [
    lambda game, dist: sfce_epsilon(game, dist),
    lambda game, dist: coarse_epsilon(game, dist, "sfcce"),
    lambda game, dist: coarse_epsilon(game, dist, "anfcce"),
], ids=["sfce", "sfcce", "anfcce"])
@pytest.mark.parametrize("kind", ["mixture", "tabular"])
def test_strategy_classes_refuse_a_typewise_distribution(audit, kind):
    """The strategy classes take a typed BadInput, not an AttributeError, for
    a distribution over (Theta..., A...)."""
    rng = np.random.default_rng(23)
    game = random_game(rng, (2, 2), (2, 2))
    mix = random_mixture(rng, (2, 2), (2, 2), 3)
    dist = mix if kind == "mixture" else mixture_to_tabular(mix)
    with pytest.raises(BadInput, match="needs a strategy distribution"):
        audit(game, dist)


def test_coarse_witness_replays_to_gain():
    rng = np.random.default_rng(9)
    game = random_game(rng, (2, 2), (2, 2))
    mix = random_mixture(rng, (2, 2), (2, 2), 3)
    cert = coarse_epsilon(game, mix, "coarse-bs")
    for dev in cert.per_player:
        ledger = deviation_tensor(game, dev.player, mix)
        diag = np.einsum("iiab->iba", ledger.cross)      # prior-weighted (theta, a', a)
        value = 0.0
        for theta, action in enumerate(dev.witness["per_type_action"]):
            if action is None:
                continue
            truthful_theta = sum(diag[theta, b, b] for b in range(diag.shape[1]))
            value += diag[theta, :, action].sum() - truthful_theta
        assert value == pytest.approx(dev.gain, abs=1e-9)


def unweighted_coarse_gains(game, i, mix):
    """coarse-bs gains and magnitudes the way they were computed before the
    deviation tensor became a ledger: from the unweighted tensor, with the
    prior weight applied to each difference, rho * (x - y)."""
    k, m = game.num_types[i], game.num_actions[i]
    others = [p for j, p in enumerate(mix.policies) if j != i]
    per_round = expected_rewards(game, i, others).reshape(-1, k * m)
    flat = (mix.weights[:, None] * per_round).T @ mix.policies[i].reshape(-1, k * m)
    diag = np.einsum("iiba->iba", flat.reshape(k, m, k, m).transpose(0, 2, 3, 1))
    rho = game.prior.marginals[i]
    truthful_by_type = np.einsum("ibb->ib", diag).sum(axis=1)
    gains = rho[:, None] * (diag.sum(axis=1) - truthful_by_type[:, None])
    magnitude = rho[:, None] * (np.abs(diag).sum(axis=1) + np.abs(truthful_by_type)[:, None])
    return gains, magnitude


def test_coarse_gains_agree_with_unweighted_formula_to_1e14_relative():
    """The ledger carries prior-weighted entries, so coarse-bs now subtracts
    rho x - rho y instead of weighting x - y: each gain moves by at most 1e-14
    of its magnitude, and every witness is the one the unweighted formula picks."""
    rng = np.random.default_rng(10)
    for case in range(40):
        nt = tuple(int(x) for x in rng.integers(1, 4, 2))
        na = tuple(int(x) for x in rng.integers(1, 7, 2))
        game = random_game(rng, nt, na, tabular_prior=case % 2 == 1)
        mix = random_mixture(rng, nt, na, int(rng.integers(1, 6)))
        cert = coarse_epsilon(game, mix, "coarse-bs")
        for dev in cert.per_player:
            gains, magnitude = unweighted_coarse_gains(game, dev.player, mix)
            want_gain, want_witness = verifier._joint_coarse(gains, magnitude)
            assert abs(dev.gain - want_gain) <= 1e-14 * float(magnitude.max(initial=0.0))
            assert dev.witness == want_witness


def test_coarse_epsilon_rejects_sfce():
    """sfce has one entry point, sfce_epsilon."""
    game = fixture_game("correlated_coarse_game")
    sigma = distribution("correlated_coarse_sigma", "correlated_coarse_game")
    with pytest.raises(BadInput):
        coarse_epsilon(game, sigma, "sfce")


def test_example_bayesian_solution_not_representable():
    game = fixture_game("zero_payoff_game")
    pi = distribution("nonrepresentable_pi", "zero_payoff_game")
    cert = anf_bs_epsilon(game, pi)
    assert cert.epsilon == 0.0
    assert cert.representable is False


def test_bne_dominant_strategy_game():
    prior = PriorModel.product([[0.5, 0.5], [0.5, 0.5]])
    v = np.zeros((2, 2, 2, 2))
    v[:, :, 0, :] = 1.0   # player 0's action 0 strictly dominant
    w = np.zeros((2, 2, 2, 2))
    w[:, :, :, 0] = 1.0
    game = BayesianGame.create([["a", "b"], ["a", "b"]], [["l", "r"], ["l", "r"]],
                               prior, [v, w], "own-type")
    pi = np.zeros((2, 2, 2, 2))
    pi[:, :, 0, 0] = 1.0
    cert = bne_epsilon(game, pi)
    assert cert.epsilon == pytest.approx(0.0, abs=1e-12)
    assert cert.product_gap <= 1e-12


def test_bne_product_gap_flags_correlation():
    gap = typewise_product_gap(distribution("nonrepresentable_pi", "zero_payoff_game"), 2)
    assert gap > 0.2


# ---------------------------------------------------------------------------
# coarse classes on strategy distributions

def test_correlated_fixture_sfcce_holds_anfcce_fails():
    game = fixture_game("correlated_coarse_game")
    sigma = distribution("correlated_coarse_sigma", "correlated_coarse_game")
    assert coarse_epsilon(game, sigma, "sfcce").epsilon == pytest.approx(0.0, abs=1e-12)
    cert = coarse_epsilon(game, sigma, "anfcce")
    assert cert.epsilon == pytest.approx(0.25, abs=1e-12)
    worst = max(cert.per_player, key=lambda d: d.gain)
    assert worst.player == 0
    assert worst.witness == {"per_type_action": [1, None]}


def test_anfcce_at_least_sfcce():
    rng = np.random.default_rng(5)
    for _ in range(8):
        game = random_game(rng, (2, 1), (2, 2), tabular_prior=True)
        probs = rng.random(4 * 2)
        sigma = StrategyDistribution.create((2, 1), (2, 2), probs / probs.sum())
        sf = coarse_epsilon(game, sigma, "sfcce")
        an = coarse_epsilon(game, sigma, "anfcce")
        assert an.epsilon >= sf.epsilon - 1e-12


def test_sfce_epsilon_zero_on_uniform_zero_game():
    game = fixture_game("zero_payoff_game")
    size = 4 * 4
    sigma = StrategyDistribution.create((2, 2), (2, 2), np.full(size, 1 / size))
    assert sfce_epsilon(game, sigma).epsilon == pytest.approx(0.0, abs=1e-12)


def test_sfce_detects_information_leak():
    # recommendations for unrealized types leak the opponent action, so
    # strategy swaps beat action swaps
    game = fixture_game("correlated_coarse_game")
    sigma = distribution("correlated_coarse_sigma", "correlated_coarse_game")
    cert = sfce_epsilon(game, sigma)
    assert cert.epsilon >= 0.25 - 1e-12


# ---------------------------------------------------------------------------
# representability

def test_nonrepresentable_certificate():
    rep = strategy_representable(distribution("nonrepresentable_pi", "zero_payoff_game"))
    assert not rep.feasible
    assert rep.infeasibility >= 1e-7
    assert rep.farkas is not None


def test_random_mixtures_always_feasible():
    rng = np.random.default_rng(6)
    for _ in range(20):
        mix = random_mixture(rng, (2, 2), (2, 2), int(rng.integers(1, 6)))
        rep = strategy_representable(mixture_to_tabular(mix))
        assert rep.feasible
        assert rep.marginal_error <= 1e-7


def test_feasible_witness_reproduces_marginals():
    pi = distribution("guessing_pi", "guessing_game")
    rep = strategy_representable(pi)
    assert rep.feasible
    back = mixture_to_tabular(strategy_to_mixture(rep.sigma))
    assert np.abs(back - pi).max() <= 1e-7


def test_representable_cap():
    with pytest.raises(SupportTooLarge):
        strategy_representable(np.full((3, 3, 3, 3, 3, 3), 1 / 27))


# ---------------------------------------------------------------------------
# conditional independence

def test_ci_holds_for_nonrepresentable_example():
    game = fixture_game("zero_payoff_game")
    pi = distribution("nonrepresentable_pi", "zero_payoff_game")
    ok, witness = conditional_independence(game.prior, pi)
    assert ok and witness is None


def test_ci_holds_for_representable():
    rng = np.random.default_rng(7)
    prior = PriorModel.tabular(np.array([[0.4, 0.1], [0.1, 0.4]]))
    for _ in range(5):
        mix = random_mixture(rng, (2, 2), (2, 2), 4)
        ok, _ = conditional_independence(prior, mixture_to_tabular(mix))
        assert ok


def test_ci_fails_when_action_copies_other_type():
    prior = PriorModel.tabular(np.array([[0.4, 0.1], [0.1, 0.4]]))
    pi = np.zeros((2, 2, 2, 2))
    for t1 in range(2):
        for t2 in range(2):
            pi[t1, t2, t2, 0] = 1.0   # player 0 plays the other's type
    ok, witness = conditional_independence(prior, pi)
    assert not ok
    assert witness[0] == 0


def nudge_one_ulp(values, rng):
    """Each entry moved one ulp (about 1e-16 relative) up or down at random."""
    return np.nextafter(values, np.where(rng.random(values.shape) < 0.5, -np.inf, np.inf))


def test_comm_witness_is_stable_under_float_dust(monkeypatch):
    """Policies that ignore the type make every report tie: psi is the lowest
    report under any one-ulp change of the gains, and the witness still
    replays to the gain."""
    game = fixture_game("first_price_auction")
    rng = np.random.default_rng(8)
    policies = [np.repeat(rng.dirichlet(np.ones(m), size=(4, 1)), k, axis=1)
                for k, m in zip(game.num_types, game.num_actions)]
    mix = MixtureDistribution.from_stacked(np.full(4, 0.25), policies)
    exact = verifier.deviation_tensor
    for seed in range(20):
        nudged = []

        def dusty(*args, rng=np.random.default_rng(seed)):
            ledger = exact(*args)
            nudged.append(RegretLedger(ledger.rho, nudge_one_ulp(ledger.cross, rng),
                                       ledger.alg_reward))
            return nudged[-1]
        monkeypatch.setattr(verifier, "deviation_tensor", dusty)
        cert = comm_eq_epsilon(game, mix)
        for dev, ledger in zip(cert.per_player, nudged):
            assert dev.witness["psi"] == [0] * game.num_types[dev.player]
            value = replay(ledger, dev.witness["psi"], dev.witness["phi"])
            assert abs(value - dev.gain) <= verifier.WITNESS_TOL


def tied_action_game(rng):
    """Two players, 2 types and 3 actions each; actions 0 and 1 pay the same
    and beat action 2, so every best action ties between 0 and 1."""
    nt, na = (2, 2), (3, 3)
    payoffs = []
    for i in range(2):
        v = rng.uniform(0.0, 0.5, nt + na)
        own = np.moveaxis(v, 2 + i, 0)                   # a view, own action first
        own[:2] = rng.uniform(0.5, 1.0, own.shape[1:])
        payoffs.append(v)
    prior = PriorModel.product([np.array([0.3, 0.7]), np.array([0.6, 0.4])])
    labels = [[f"t{i}{k}" for k in range(2)] for i in range(2)]
    actions = [[f"a{i}{m}" for m in range(3)] for i in range(2)]
    return BayesianGame.create(labels, actions, prior, payoffs)


def test_action_witnesses_are_stable_under_float_dust(monkeypatch):
    """Best actions tie between 0 and 1: under any one-ulp change of the gains,
    phi (comm, anf-bs) and per_type_action (coarse-bs) stay the lowest action,
    and the comm and anf-bs witnesses still replay to the gain."""
    rng = np.random.default_rng(9)
    game = tied_action_game(rng)
    mix = random_mixture(rng, game.num_types, game.num_actions, 4)
    exact = verifier.deviation_tensor
    for seed in range(20):
        nudged = []

        def dusty(*args, rng=np.random.default_rng(seed)):
            ledger = exact(*args)
            nudged.append(RegretLedger(ledger.rho, nudge_one_ulp(ledger.cross, rng),
                                       ledger.alg_reward))
            return nudged[-1]
        monkeypatch.setattr(verifier, "deviation_tensor", dusty)
        comm = comm_eq_epsilon(game, mix)
        anf = anf_bs_epsilon(game, mix)
        coarse = coarse_epsilon(game, mix, "coarse-bs")
        comm_ledgers, anf_ledgers = nudged[:2], nudged[2:4]
        for i in range(game.n):
            k, m = game.num_types[i], game.num_actions[i]
            for cert, ledgers, psi in ((comm, comm_ledgers, comm.per_player[i].witness["psi"]),
                                       (anf, anf_ledgers, list(range(k)))):
                dev = cert.per_player[i]
                assert dev.witness["phi"] == [[0] * m] * k
                value = replay(ledgers[i], psi, dev.witness["phi"])
                assert abs(value - dev.gain) <= verifier.WITNESS_TOL
            assert coarse.per_player[i].witness["per_type_action"] == [0] * k
