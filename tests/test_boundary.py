"""Invalid inputs end in a typed error with its exit code, never a traceback
or a confident number."""

import contextlib
import io
import json
import math
import os
import pathlib
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from commeq import cli, dynamics, errors, poa
from commeq import game as game_module
from commeq.adversary import STREAM_CAP, build_instance
from commeq.cli import main
from commeq.dynamics import SAMPLE_CAP, DynamicsConfig, run_dynamics, sample_count
from commeq.errors import (BadInput, CommeqError, EnumerationTooLarge, RewardOutOfRange,
                           SupportTooLarge)
from commeq.game import (SUM_TOL_DERIVED, BayesianGame, StrategyDistribution, PriorModel,
                         game_to_json_dict, load_game, save_game, validate_game)
from commeq.learners import (StrategySwapLearner, TypewiseSwapLearner, UntruthfulSwapLearner,
                             _DoublingBank)
from commeq.poa import SmoothnessSpec, check_smoothness
from commeq.regret import RegretLedger
from commeq.verifier import strategy_representable

from .fixture_files import FIXTURES, auction, auction_spec, distribution, game as fixture_game

MATCHING = os.path.join(FIXTURES, "matching_game.json")


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def uniform_mixture(game, components=3):
    return {"kind": "mixture", "weights": [1.0 / components] * components,
            "policies": [np.full((components, k, m), 1.0 / m).tolist()
                         for k, m in zip(game.num_types, game.num_actions)]}


def verify_exit(tmp_path, capsys, doc, game_path=MATCHING):
    code = main(["verify", game_path, write_json(tmp_path / "dist.json", doc), "--tol", "1"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_mixture_policy_of_wrong_shape_is_bad_input(tmp_path, capsys):
    doc = uniform_mixture(load_game(MATCHING))
    doc["policies"][1] = np.full((3, 1, 5), 0.2).tolist()
    code, err = verify_exit(tmp_path, capsys, doc)
    assert code == 1 and "shape" in err


def test_mixture_with_missing_player_is_bad_input(tmp_path, capsys):
    doc = uniform_mixture(load_game(MATCHING))
    doc["policies"] = doc["policies"][:1]
    assert verify_exit(tmp_path, capsys, doc)[0] == 1


def test_negative_mixture_policy_is_bad_input(tmp_path, capsys):
    doc = uniform_mixture(load_game(MATCHING))
    pol = np.array(doc["policies"][0])
    pol[0, 0] = [1.5, -0.5] + [0.0] * (pol.shape[2] - 2)
    doc["policies"][0] = pol.tolist()
    code, err = verify_exit(tmp_path, capsys, doc)
    assert code == 1 and "row-stochastic" in err


def test_mixture_rows_must_sum_to_one_within_derived_tolerance(tmp_path, capsys):
    game = load_game(MATCHING)
    doc = uniform_mixture(game)
    pol = np.array(doc["policies"][0])
    pol[1, 0, 0] += 10 * SUM_TOL_DERIVED
    doc["policies"][0] = pol.tolist()
    assert verify_exit(tmp_path, capsys, doc)[0] == 1
    pol[1, 0, 0] -= 10 * SUM_TOL_DERIVED - 1e-13   # the drift of a long run's output
    doc["policies"][0] = pol.tolist()
    assert verify_exit(tmp_path, capsys, doc)[0] == 0


def test_nan_mixture_policy_is_bad_input(tmp_path, capsys):
    doc = uniform_mixture(load_game(MATCHING))
    doc["policies"][0][0][0][0] = float("nan")
    assert verify_exit(tmp_path, capsys, doc)[0] == 1


def test_tabular_slices_must_be_distributions(tmp_path, capsys):
    game = load_game(MATCHING)
    shape = game.num_types + game.num_actions
    for values in (np.full(shape, 0.5), np.full(shape, np.nan)):
        code, err = verify_exit(tmp_path, capsys,
                                {"kind": "tabular", "values": values.reshape(-1).tolist()})
        assert code == 1 and "tabular" in err
    negative = np.zeros(shape)
    negative[..., 0, 0] = 1.5
    negative[..., 1, 1] = -0.5
    assert verify_exit(tmp_path, capsys, {"kind": "tabular",
                                          "values": negative.reshape(-1).tolist()})[0] == 1


def test_distribution_file_must_be_an_object(tmp_path, capsys):
    assert verify_exit(tmp_path, capsys, [1, 2, 3])[0] == 1


def test_prob_vectors_reject_nan_and_inf():
    for bad in (np.nan, np.inf):
        with pytest.raises(BadInput):
            PriorModel.product([[0.5, bad]])
        with pytest.raises(BadInput):
            StrategyDistribution.create((1,), (2,), [bad, 0.0])


def test_non_finite_payoff_is_reported_not_crashed(tmp_path, capsys):
    doc = game_to_json_dict(load_game(MATCHING))
    for bad in (float("nan"), float("inf"), float("-inf")):
        doc["payoffs"][0][0] = bad
        path = write_json(tmp_path / "game.json", doc)
        assert not validate_game(load_game(path)).ok
        code = main(["simulate", path, "-T", "3", "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1 and "payoff out of [0,1]" in err


@pytest.mark.parametrize("extra", [["--threads", "0"], ["--threads", "-3"],
                                   ["--reward", "sampled", "--eps", "0"],
                                   ["--reward", "sampled", "--eps", "-0.1"],
                                   ["--reward", "sampled", "--delta", "0"],
                                   ["--reward", "sampled", "--delta", "1"],
                                   ["--reward", "sampled", "--delta", "1e9"]])
def test_bad_run_config_is_bad_input(tmp_path, capsys, extra):
    code = main(["simulate", MATCHING, "-T", "3", "--out-dir", str(tmp_path / "o")] + extra)
    err = capsys.readouterr().err
    assert code == 1 and extra[-2].lstrip("-") in err


def test_run_dynamics_validates_threads():
    with pytest.raises(BadInput):
        run_dynamics(fixture_game("matching_game"), DynamicsConfig(horizon=2, threads=0))


def test_unexpected_exception_exits_3_on_one_line(tmp_path, capsys, monkeypatch):
    def broken(game, config):
        raise ValueError("boom\non two lines")
    monkeypatch.setattr(cli, "run_dynamics", broken)
    code = main(["simulate", MATCHING, "-T", "3", "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "internal error: ValueError: boom on two lines\n"


def test_check_smoothness_goes_through_the_checks():
    # the specs are built directly, past SmoothnessSpec.create's own checks
    game = auction()
    dev = auction_spec().deviation

    def check(target, mode, deviation):
        return check_smoothness(target, SmoothnessSpec(0.5, 1.0, mode, tuple(deviation)))

    with pytest.raises(BadInput):                         # mechanism mode, plain game
        check(game.base, "mechanism", dev)
    with pytest.raises(BadInput):
        check(game, "bogus", dev)
    with pytest.raises(BadInput):                         # misshapen deviation map
        check(game, "mechanism", [d[..., :1] for d in dev])
    with pytest.raises(BadInput):                         # action index out of range
        check(game, "mechanism", [d + 5 for d in dev])
    with pytest.raises(BadInput):
        check(game, "mechanism", dev[:1])


def test_poa_parses_the_game_file_once(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    game_path = os.path.join(FIXTURES, "first_price_auction.json")
    assert main(["simulate", game_path, "-T", "200", "--seed", "2", "--out-dir", str(out)]) == 0
    reads = []
    real = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: reads.append(path) or real(path))
    monkeypatch.setattr(cli, "load_game", None)           # would fail if called
    code = main(["poa", game_path, str(out / "equilibrium.json"),
                 os.path.join(FIXTURES, "auction_smoothness.json"), "--eps-tol", "1"])
    assert code == 0
    assert reads.count(game_path) == 1


def test_poa_quasilinear_block_missing_field_is_bad_input(tmp_path, capsys):
    game_path = os.path.join(FIXTURES, "first_price_auction.json")
    with open(game_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["quasilinear"]["payments"]
    path = write_json(tmp_path / "game.json", doc)
    code = main(["poa", path, os.path.join(FIXTURES, "guessing_pi.json"),
                 os.path.join(FIXTURES, "auction_smoothness.json")])
    err = capsys.readouterr().err
    assert code == 1 and "quasilinear" in err


@pytest.mark.parametrize("field, change", [("alloc_values", "drop"), ("payments", "add")])
def test_poa_quasilinear_block_needs_one_table_per_player(tmp_path, capsys, auction_run,
                                                         field, change):
    """One alloc_values table too few ended in an IndexError (exit 3); a third
    payments table was summed into the mechanism-mode smoothness term, where
    it let a lambda = 0.9 spec pass that fails on the auction."""
    with open(AUCTION, encoding="utf-8") as fh:
        doc = json.load(fh)
    tables = doc["quasilinear"][field]
    if change == "drop":
        tables.pop()
    else:
        tables.append([1 / 3] * 9)
    with open(AUCTION_SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["lambda"] = 0.9
    code = main(["poa", write_json(tmp_path / "game.json", doc), auction_run,
                 write_json(tmp_path / "spec.json", spec), "--eps-tol", "1"])
    err = capsys.readouterr().err
    assert code == 1 and "quasilinear" in err and "one per player" in err


def test_run_dynamics_rejects_unknown_reward_mode():
    with pytest.raises(BadInput, match="reward mode"):
        run_dynamics(fixture_game("matching_game"), DynamicsConfig(horizon=5, reward_mode="bogus"))


@pytest.mark.parametrize("field, value", [("lambda", float("nan")), ("lambda", float("inf")),
                                          ("mu", float("nan")), ("mu", float("inf"))])
def test_non_finite_smoothness_spec_is_bad_input(tmp_path, capsys, field, value):
    spec_path = os.path.join(FIXTURES, "auction_smoothness.json")
    with open(spec_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[field] = value
    with pytest.raises(BadInput):
        SmoothnessSpec.create(doc["lambda"], doc["mu"], doc["mode"], doc["deviation"])
    code = main(["poa", os.path.join(FIXTURES, "first_price_auction.json"),
                 os.path.join(FIXTURES, "guessing_pi.json"),
                 write_json(tmp_path / "spec.json", doc)])
    err = capsys.readouterr().err
    assert code == 1 and "lambda" in err


# (make learner, feed one reward, reward shape) for every reward entry point;
# "doubling" is a bank of one learner, "swap" a one-type type-wise learner
REWARD_FEEDS = {
    "doubling": (lambda: _DoublingBank((), 3, 1.0), "update", (3,)),
    "bank": (lambda: _DoublingBank((2,), 3, 1.0), "update", (3, 2)),
    "swap": (lambda: TypewiseSwapLearner([1.0], 3), "step", (1, 3)),
    "typewise": (lambda: TypewiseSwapLearner([0.001, 0.999], 3), "step", (2, 3)),
    "untruthful": (lambda: UntruthfulSwapLearner([0.5, 0.5], 3, 10), "step", (2, 3)),
    "strategy": (lambda: StrategySwapLearner(2, 3), "step", (2, 3)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1 + 1e-6, -1e-6])
@pytest.mark.parametrize("name", sorted(REWARD_FEEDS))
def test_learners_reject_non_finite_and_out_of_range_rewards(name, bad):
    make, method, shape = REWARD_FEEDS[name]
    learner = make()
    reward = np.full(shape, 0.25)
    reward.flat[-1] = bad
    with pytest.raises(RewardOutOfRange):
        getattr(learner, method)(reward)


BAD_PRIORS = {
    "untruthful-nan": lambda: UntruthfulSwapLearner([np.nan, 1.0], 2, 10),
    "untruthful-inf": lambda: UntruthfulSwapLearner([np.inf, 1.0], 2, 10),
    "untruthful-negative": lambda: UntruthfulSwapLearner([-0.5, 1.5], 2, 10),
    "untruthful-empty": lambda: UntruthfulSwapLearner([], 2, 10),
    "untruthful-3d": lambda: UntruthfulSwapLearner(np.full((1, 1, 2), 0.5), 2, 10),
    "untruthful-batch-nan": lambda: UntruthfulSwapLearner([[0.5, 0.5], [np.nan, 1]], 2, 10),
    "untruthful-batch-negative": lambda: UntruthfulSwapLearner([[0.5, 0.5], [1.5, -0.5]], 2, 1),
    "untruthful-empty-batch": lambda: UntruthfulSwapLearner(np.zeros((0, 2)), 2, 10),
    "typewise-nan": lambda: TypewiseSwapLearner([np.nan, 1.0], 2),
    "typewise-inf": lambda: TypewiseSwapLearner([1.0, -np.inf], 2),
    "typewise-negative": lambda: TypewiseSwapLearner([-0.5, 1.5], 2),
    "typewise-batch": lambda: TypewiseSwapLearner(np.full((1, 1, 2), 0.5), 2),
    "typewise-batch-nan": lambda: TypewiseSwapLearner([[0.5, 0.5], [np.nan, 1]], 2),
    "typewise-empty-batch": lambda: TypewiseSwapLearner(np.zeros((0, 2)), 2),
    "ledger-nan": lambda: RegretLedger.create([np.nan, 1.0], 2),
    "ledger-negative": lambda: RegretLedger.create([-0.5, 1.5], 2),
    "ledger-batch-inf": lambda: RegretLedger.create([[0.5, 0.5], [np.inf, 0.0]], 2),
    "ledger-empty-batch": lambda: RegretLedger.create(np.zeros((0, 2)), 2),
}


@pytest.mark.parametrize("name", sorted(BAD_PRIORS))
def test_learners_and_ledgers_reject_non_finite_and_negative_prior_rows(name):
    with pytest.raises(BadInput):
        BAD_PRIORS[name]()


# learner sizes that are not integers >= 1
BAD_SIZES = {
    "untruthful-no-actions": lambda: UntruthfulSwapLearner([1.0], 0, 10),
    "untruthful-fractional-actions": lambda: UntruthfulSwapLearner([1.0], 2.5, 10),
    "typewise-no-actions": lambda: TypewiseSwapLearner([1.0], 0),
    "typewise-fractional-actions": lambda: TypewiseSwapLearner([0.5, 0.5], 2.5),
    "strategy-no-actions": lambda: StrategySwapLearner(2, 0),
    "strategy-negative-actions": lambda: StrategySwapLearner(2, -1),
    "strategy-fractional-actions": lambda: StrategySwapLearner(2, 2.5),
    "strategy-no-types": lambda: StrategySwapLearner(0, 2),
    "strategy-fractional-types": lambda: StrategySwapLearner(1.5, 2),
}


@pytest.mark.parametrize("name", sorted(BAD_SIZES))
def test_learners_reject_sizes_that_are_not_positive_integers(name):
    with pytest.raises(BadInput, match="integer >= 1"):
        BAD_SIZES[name]()


@pytest.mark.parametrize("name", ["swap", "typewise"])
def test_swap_learners_reject_misshapen_rewards(name):
    make, method, shape = REWARD_FEEDS[name]
    learner = make()
    learner.step(None)
    with pytest.raises(BadInput):
        learner.step(np.full((2, 2), 0.25))


def test_huge_strategy_space_is_a_cap_error_not_a_crash(tmp_path, capsys):
    """2^15000 strategies: the caps fire before the size is multiplied out
    (printing it would pass Python's 4300-digit limit)."""
    k = 15000
    game = BayesianGame.create([[f"t{i}" for i in range(k)]], [["a", "b"]],
                               PriorModel.product([np.full(k, 1.0 / k)]), [np.zeros((k, 2))])
    save_game(game, str(tmp_path / "game.json"))
    code = main(["simulate", str(tmp_path / "game.json"), "--learner", "strategy-swap",
                 "-T", "2", "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and "cap" in err
    with pytest.raises(SupportTooLarge):
        StrategyDistribution.create((k,), (2,), [1.0])
    with pytest.raises(SupportTooLarge):
        strategy_representable(np.full((k, 2), 0.5 / k))


def _no_draws_and_little_memory(monkeypatch, run):
    """Run ``run()`` with every Monte-Carlo draw forbidden; return its result
    and the peak memory it traced."""
    def forbidden(*args, **kwargs):
        raise AssertionError("drew samples")
    monkeypatch.setattr(dynamics, "sampled_reward", forbidden)
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("eps, code, words", [("inf", 1, "finite eps"), ("nan", 1, "finite eps"),
                                              ("1e-200", 2, "cap"), ("1e-5", 2, "cap")])
def test_sampled_budget_is_checked_before_any_draw(tmp_path, capsys, monkeypatch,
                                                   eps, code, words):
    """A non-finite eps is bad input; an eps whose budget passes the sample
    cap (1e-200 squares to 0, 1e-5 asks for about 5e11 samples per entry) is
    a cap error.  Both fail before a sample is drawn or allocated."""
    got, peak = _no_draws_and_little_memory(monkeypatch, lambda: main(
        ["simulate", MATCHING, "-T", "3", "--reward", "sampled", "--eps", eps,
         "--out-dir", str(tmp_path / "o")]))
    err = capsys.readouterr().err
    assert got == code and words in err and peak < 2**22
    with pytest.raises(BadInput if code == 1 else SupportTooLarge):
        sample_count(float(eps), 0.05, 2, 3, 4)


def test_sample_cap_leaves_the_budgets_below_it_alone():
    count = sample_count(0.004, 0.05, 2, 3, 4)
    assert count == math.ceil(8.0 / 0.004**2 * math.log(2.0 * 2 * 3 * 4 / 0.05))
    assert SAMPLE_CAP / 4 < count <= SAMPLE_CAP


def test_adversary_stream_past_its_cap_is_a_cap_error(capsys):
    """B = 30 would ask for tens of GB of tables; the cap fires first."""
    tracemalloc.start()
    try:
        code = main(["adversary", "-B", "30", "-T", "30"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and "cap" in err and peak < 2**22
    with pytest.raises(EnumerationTooLarge):
        build_instance(10**6, 10**6, 0)


def _power_base(k, limit):
    """The largest m with m^k <= limit."""
    m = round(limit ** (1 / k))
    while m**k > limit:
        m -= 1
    while (m + 1)**k <= limit:
        m += 1
    return m


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(cap=st.sampled_from(["lp", "sample", "stream"]), over=st.booleans(), data=st.data())
def test_fuzz_near_the_caps(cap, over, data):
    """One past a cap, a command exits 2 before any large allocation; under
    it, the largest runs that fit the fuzz's time budget succeed.

    - DEFAULT_LP_CAP: ``representable`` on a one-player game with |A|^|Theta|
      strategies, the smallest power past 10^4 for the drawn |Theta|, or at
      most about 10^3 (the LP at 10^4 columns took 90 s on a shared 2-vCPU
      host).
    - SAMPLE_CAP: an eps one float below the one whose budget is exactly
      2^22 samples, or that eps itself (one multinomial draw costs about the
      same at any budget).
    - STREAM_CAP: ``adversary`` with the smallest T (a multiple of B) that
      puts T x 2^(B+1) past 2^24, or a stream of at most 2^13 cells.

    DEFAULT_ENUMERATION_CAP is left out: a game with 10^7 opponent cells
    holds at least 80 MB of payoffs."""
    with tempfile.TemporaryDirectory() as tmp:
        if cap == "lp":
            k = data.draw(st.sampled_from([2, 3, 4, 5, 6, 7, 9, 14] if over else [2, 3, 4, 6, 9]))
            m = _power_base(k, 10**4) + 1 if over else _power_base(k, 1000)
            game = write_json(pathlib.Path(tmp, "game.json"), {
                "players": 1, "types": [[f"t{i}" for i in range(k)]],
                "actions": [[f"a{j}" for j in range(m)]],
                "prior": {"kind": "product", "rows": [[1.0 / k] * k]},
                "payoffs": [[0.5] * (k * m)], "payoff_scope": "full"})
            values = np.random.default_rng(k).dirichlet(np.ones(m), size=k)
            dist = write_json(pathlib.Path(tmp, "pi.json"),
                              {"kind": "tabular", "values": values.reshape(-1).tolist()})
            argv = ["representable", game, dist]
        elif cap == "sample":
            # the budget on the matching game at T = 3 (2 players, 4 (type,
            # action) pairs, delta 0.05) is exactly SAMPLE_CAP at this eps
            eps = math.sqrt(8.0 * math.log(2.0 * 2 * 3 * 4 / 0.05) / SAMPLE_CAP)
            argv = ["simulate", MATCHING, "-T", "3", "--reward", "sampled",
                    "--eps", repr(math.nextafter(eps, 0) if over else eps),
                    "--out-dir", os.path.join(tmp, "out")]
        else:
            b = data.draw(st.integers(1, 8 if over else 6))
            t = (STREAM_CAP // 2 ** (b + 1) // b + 1) * b if over \
                else b * data.draw(st.integers(1, max(1, 2**13 // 2 ** (b + 1) // b)))
            argv = ["adversary", "-B", str(b), "-T", str(t)]
        err = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    if over:
        assert code == 2 and "cap" in err.getvalue() and peak < 2**22, (code, peak, argv)
    else:
        assert code == 0, (err.getvalue(), argv)


CAP_ENTRIES = ("comm_eq_epsilon", "sfce_epsilon", "sfcce", "anfcce", "strategy_representable",
               "strategy_regret", "StrategySwapLearner", "mixture_to_tabular",
               "StrategyDistribution")


@pytest.mark.parametrize("entry", CAP_ENTRIES)
def test_each_cap_is_read_when_its_entry_runs(entry, monkeypatch):
    """Every cap is a module constant that its entry reads on each call, so
    patching it moves the limit: an input exactly at the patched cap passes
    and one past it raises the cap's error through the public entry."""
    from commeq import learners, regret, verifier
    matching = fixture_game("matching_game")       # 2 players, 2 types, 2 actions each
    mix = game_module.MixtureDistribution.from_stacked([1.0], [np.full((1, 2, 2), 0.5)] * 2)
    coarse = fixture_game("correlated_coarse_game")
    sigma = distribution("correlated_coarse_sigma", "correlated_coarse_game")   # |S| = 16
    lp = (verifier, "DEFAULT_LP_CAP", 16, SupportTooLarge)
    module, name, size, error, call = {
        "comm_eq_epsilon": (game_module, "DEFAULT_ENUMERATION_CAP", 4, EnumerationTooLarge,
                            lambda: verifier.comm_eq_epsilon(matching, mix)),
        "sfce_epsilon": lp + (lambda: verifier.sfce_epsilon(coarse, sigma),),
        "sfcce": lp + (lambda: verifier.coarse_epsilon(coarse, sigma, "sfcce"),),
        "anfcce": lp + (lambda: verifier.coarse_epsilon(coarse, sigma, "anfcce"),),
        "strategy_representable": lp + (
            lambda: verifier.strategy_representable(np.full((2, 2, 2, 2), 0.25)),),
        "strategy_regret": (regret, "DEFAULT_LP_CAP", 4, SupportTooLarge,
                            lambda: regret.strategy_regret(np.full((3, 4), 0.25),
                                                           np.full((3, 2, 2), 0.5), [0.5, 0.5])),
        "StrategySwapLearner": (learners, "DEFAULT_STRATEGY_LEARNER_CAP", 8, SupportTooLarge,
                                lambda: learners.StrategySwapLearner(3, 2)),
        "mixture_to_tabular": (game_module, "TABULAR_CAP", 16, SupportTooLarge,
                               lambda: game_module.mixture_to_tabular(mix)),
        "StrategyDistribution": (game_module, "DEFAULT_STRATEGY_CAP", 16, SupportTooLarge,
                                 lambda: StrategyDistribution.create((2, 2), (2, 2),
                                                                     np.full(16, 1 / 16))),
    }[entry]
    monkeypatch.setattr(module, name, size)
    call()
    monkeypatch.setattr(module, name, size - 1)
    with pytest.raises(error, match="cap"):
        call()


def test_simulate_makes_its_out_dir_before_the_run(tmp_path, capsys, monkeypatch):
    """An --out-dir that cannot be made fails before any round is played."""
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")

    def forbidden(*args, **kwargs):
        raise AssertionError("ran the dynamics")
    monkeypatch.setattr(cli, "run_dynamics", forbidden)
    assert main(["simulate", MATCHING, "-T", "3", "--out-dir", str(taken)]) == 1
    assert "output directory" in capsys.readouterr().err


def test_negative_seed_runs_as_its_value_modulo_2_64(tmp_path, capsys):
    """adversary and simulate both take --seed -1 as the seed 2^64 - 1."""
    outputs = []
    for seed in ("-1", str(2**64 - 1)):
        assert main(["adversary", "-B", "2", "-T", "40", "--seed", seed]) == 0
        out = tmp_path / seed
        assert main(["simulate", MATCHING, "-T", "5", "--reward", "sampled", "--eps", "0.5",
                     "--seed", seed, "--out-dir", str(out)]) == 0
        outputs.append((capsys.readouterr().out.replace(str(out), "OUT"),
                        (out / "equilibrium.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert np.array_equal(build_instance(2, 40, -1).rewards,
                          build_instance(2, 40, 2**64 - 1).rewards)


BAD_ENTRIES = st.sampled_from([np.nan, np.inf, -np.inf, -0.5, -1e-6, 1 + 1e-6, 3.0])


def _entries(data, shape, top):
    """An array of ``shape`` in [0, top], with one entry from BAD_ENTRIES half the time."""
    size = int(np.prod(shape))
    out = np.array(data.draw(st.lists(st.floats(0, top), min_size=size, max_size=size)))
    if size and data.draw(st.booleans()):
        out[data.draw(st.integers(0, size - 1))] = data.draw(BAD_ENTRIES)
    return out.reshape(shape)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(kind=st.sampled_from(["untruthful", "typewise", "strategy"]),
       prior_shape=st.lists(st.integers(0, 3), max_size=3).map(tuple),
       num_types=st.integers(-1, 4), num_actions=st.sampled_from([-1, 0, 1.5, 1, 2, 3, 4]),
       data=st.data())
def test_fuzz_learner_boundary(kind, prior_shape, num_types, num_actions, data):
    """Every learner call on arbitrary priors, sizes and rewards either
    returns policies or raises a CommeqError."""
    prior = _entries(data, prior_shape, 1.0)
    try:
        if kind == "strategy":
            learner = StrategySwapLearner(num_types, num_actions)
        elif kind == "typewise":
            learner = TypewiseSwapLearner(prior, num_actions)
        else:
            learner = UntruthfulSwapLearner(prior, num_actions, 10)
    except CommeqError:
        return
    out = learner.step(None)
    shape = (num_types, num_actions) if kind == "strategy" else out.shape
    for _ in range(3):
        fed = data.draw(st.sampled_from([shape, shape, shape, shape[1:], shape + (1,),
                                         shape[:-1] + (shape[-1] + 1,)]))
        try:
            out = learner.step(_entries(data, fed, 1.0))
        except CommeqError:
            continue
        rows = out if kind == "strategy" else out.reshape(-1, num_actions)
        assert np.isfinite(out).all() and np.allclose(rows.sum(axis=-1), 1.0)


# the README's exit-code table; a new error class without an entry fails
EXIT_CODES = {
    "BadInput": 1, "NotStochastic": 1, "RewardOutOfRange": 1,
    "BadDims": 1, "AssumptionViolated": 1,
    "SupportTooLarge": 2, "EnumerationTooLarge": 2,
    "NotAnEquilibrium": 4,
    "AuditError": 3, "NoConvergence": 3, "NotValidOnX": 3, "NotShiftable": 3,
    "NumericallyAmbiguous": 3,
}


def _error_classes(cls=errors.CommeqError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda c: c.__name__)
def test_every_error_class_has_its_exit_code(cls, capsys, monkeypatch):
    exc = cls(7, 0.5) if cls is errors.NoConvergence else cls("boom")

    def raising(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_adversary", raising)
    code = main(["adversary"])
    err = capsys.readouterr().err
    assert code == EXIT_CODES[cls.__name__]
    prefix = "internal error: " if code == 3 else "error: "
    assert err == f"{prefix}{exc}\n"


AUCTION = os.path.join(FIXTURES, "first_price_auction.json")
AUCTION_SPEC = os.path.join(FIXTURES, "auction_smoothness.json")


@pytest.fixture(scope="module")
def auction_run(tmp_path_factory):
    """equilibrium.json of a T = 50 auction run, whose eps (about 0.1) is
    above poa's default tolerance."""
    out = tmp_path_factory.mktemp("auction")
    assert main(["simulate", AUCTION, "-T", "50", "--out-dir", str(out)]) == 0
    return str(out / "equilibrium.json")


@pytest.mark.parametrize("tol", ["nan", "-1", "-inf"])
def test_nan_or_negative_tolerance_is_bad_input(capsys, auction_run, tol):
    """A NaN tolerance made every eps > tol comparison false, so poa reported
    bound_satisfied on a run whose eps is far above the default tolerance."""
    assert main(["poa", AUCTION, auction_run, AUCTION_SPEC]) == 4
    capsys.readouterr()
    for argv in (["poa", AUCTION, auction_run, AUCTION_SPEC, f"--eps-tol={tol}"],
                 ["verify", AUCTION, auction_run, f"--tol={tol}"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and "tol" in captured.err and captured.out == ""


def test_poa_enumerates_smoothness_once(capsys, monkeypatch, auction_run):
    """poa prints the smoothness report its own check produced, so the
    enumeration runs once, whichever module's name a caller reaches it by."""
    calls = []
    real = poa.check_smoothness
    counted = lambda *args: calls.append(args) or real(*args)
    monkeypatch.setattr(poa, "check_smoothness", counted)
    monkeypatch.setattr(cli, "check_smoothness", counted)
    assert main(["poa", AUCTION, auction_run, AUCTION_SPEC, "--eps-tol", "1"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["smoothness"]["passed"] is True


def _matching_doc():
    with open(MATCHING, encoding="utf-8") as fh:
        return json.load(fh)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# (path into the matching game's document, malformed value)
MALFORMED_GAMES = {
    "prior-list": (("prior",), [1]),
    "prior-string": (("prior",), "product"),
    "players-string": (("players",), "x"),
    "types-int": (("types",), [3, 3]),
    "payoffs-wrong-length": (("payoffs", 0), [0.5] * 5),
    "tabular-prior-wrong-length": (("prior",), {"kind": "tabular", "table": [0.5, 0.5]}),
    "payoffs-non-numeric": (("payoffs", 0), ["a"] * 16),
    "product-rows-object": (("prior", "rows"), {"a": 1}),
    "payoffs-null": (("payoffs",), None),
    "payoffs-number": (("payoffs",), 3),
    "payoffs-huge-integer": (("payoffs", 0), [10**400] * 16),
    "prior-row-huge-integer": (("prior", "rows", 0), [10**400, 0]),
    "tabular-prior-huge-integer": (("prior",), {"kind": "tabular", "table": [10**400, 0, 0, 0]}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GAMES))
def test_malformed_game_file_is_bad_input(tmp_path, capsys, name):
    doc = _matching_doc()
    _set(doc, *MALFORMED_GAMES[name])
    path = write_json(tmp_path / "game.json", doc)
    assert main(["simulate", path, "-T", "3", "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("which", ["game", "distribution", "spec"])
def test_file_that_is_not_utf8_is_bad_input(tmp_path, capsys, auction_run, which):
    """Invalid UTF-8 used to end in an internal UnicodeDecodeError (exit 3)."""
    files = {"game": AUCTION, "distribution": auction_run, "spec": AUCTION_SPEC}
    with open(files[which], "rb") as fh:
        raw = fh.read()
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw[:20] + b"\xc3(" + raw[20:])
    files[which] = str(bad)
    argvs = [["poa", files["game"], files["distribution"], files["spec"], "--eps-tol", "1"]]
    if which != "spec":
        argvs.append(["verify", files["game"], files["distribution"], "--tol", "1"])
    if which == "game":
        argvs.append(["simulate", files["game"], "-T", "3", "--out-dir", str(tmp_path / "o")])
    for argv in argvs:
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")


def test_integer_past_the_digit_limit_is_bad_input(tmp_path, capsys):
    """Python will not parse an integer of more than 4300 digits; json.loads
    raised a plain ValueError (exit 3)."""
    text = json.dumps(_matching_doc()).replace('"players": 2', '"players": 2' + "0" * 5000)
    assert "0" * 5000 in text
    path = tmp_path / "game.json"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", str(path), "-T", "3", "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: Exceeds the limit")


@pytest.mark.parametrize("field", ["weights", "policies"])
def test_mixture_with_an_integer_past_the_float_range_is_bad_input(tmp_path, capsys, field):
    """A 400-digit integer used to end in an internal OverflowError (exit 3)."""
    doc = uniform_mixture(load_game(MATCHING))
    if field == "weights":
        doc["weights"][0] = 10**400
    else:
        doc["policies"][1][0][0][0] = 10**400
    code, err = verify_exit(tmp_path, capsys, doc)
    assert code == 1 and "int too large" in err


@pytest.mark.parametrize("path, value", [(("lambda",), 10**400), (("mu",), -10**400),
                                         (("deviation", 0, 0, 0, 0), 10**400)],
                         ids=["lambda", "mu", "deviation"])
def test_spec_with_an_integer_past_the_float_range_is_bad_input(tmp_path, capsys, auction_run,
                                                                path, value):
    with open(AUCTION_SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    _set(spec, path, value)
    code = main(["poa", AUCTION, auction_run, write_json(tmp_path / "spec.json", spec),
                 "--eps-tol", "1"])
    assert code == 1 and capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field", ["alloc_values", "payments"])
def test_quasilinear_block_with_an_integer_past_the_float_range_is_bad_input(
        tmp_path, capsys, auction_run, field):
    with open(AUCTION, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["quasilinear"][field][0] = 10**400
    code = main(["poa", write_json(tmp_path / "game.json", doc), auction_run, AUCTION_SPEC,
                 "--eps-tol", "1"])
    assert code == 1 and "quasilinear" in capsys.readouterr().err


def test_infinite_own_type_payoffs_are_reported_without_a_warning(tmp_path, capsys):
    """The own-type spread is not taken over payoffs already out of range,
    where inf - inf would warn before the error line."""
    doc = _matching_doc()
    assert doc["payoff_scope"] == "own-type"
    doc["payoffs"][0] = [math.inf] * 16
    path = write_json(tmp_path / "game.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", path, "-T", "3", "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_game_with_no_players_is_bad_input(tmp_path, capsys):
    doc = {"players": 0, "types": [], "actions": [], "payoffs": [],
           "prior": {"kind": "product", "rows": []}}
    path = write_json(tmp_path / "game.json", doc)
    assert main(["simulate", path, "-T", "3", "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(BadInput):
        BayesianGame.create([], [], PriorModel.product([]), [])


@pytest.mark.parametrize("path, value", [((), [1, 2]), (("deviation", 0, 0, 0, 0), 0.5),
                                         (("deviation", 0, 0, 0, 0), "x"), (("deviation",), 5)])
def test_malformed_smoothness_spec_is_bad_input(tmp_path, capsys, auction_run, path, value):
    """A spec that is not an object, or whose deviation entries are not
    integers (0.5 used to be truncated to action 0)."""
    with open(AUCTION_SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if path:
        _set(spec, path, value)
    else:
        spec = value
    code = main(["poa", AUCTION, auction_run, write_json(tmp_path / "spec.json", spec),
                 "--eps-tol", "1"])
    assert code == 1 and capsys.readouterr().err.startswith("error: ")


def test_output_paths_that_cannot_be_written_are_bad_input(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    assert main(["simulate", MATCHING, "-T", "3", "--out-dir", str(taken)]) == 1
    assert "output directory" in capsys.readouterr().err
    assert main(["adversary", "-B", "2", "-T", "10", "--stream-csv", str(tmp_path)]) == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("klass", ["comm", "anf-bs", "bne", "coarse-bs"])
def test_strategy_distribution_for_a_typewise_class_is_bad_input(capsys, klass):
    """Found by the CLI fuzz: a strategy distribution reached the deviation
    tensor, which failed converting it to an array (exit 3)."""
    code = main(["verify", os.path.join(FIXTURES, "correlated_coarse_game.json"),
                 os.path.join(FIXTURES, "correlated_coarse_sigma.json"), "--class", klass])
    assert code == 1 and "tabular or mixture" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI JSON fuzz: game, distribution and smoothness-spec documents, valid or
# broken in one place, through every command that reads them

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                 st.sampled_from([10**400, -10**400]),
                 st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=2),
                 st.lists(st.integers(-1, 3), max_size=3),
                 st.dictionaries(st.sampled_from(["kind", "rows", "table", "values"]),
                                 st.integers(0, 1), max_size=2))


def _paths(doc, prefix=()):
    """Every path into a JSON document, the root () first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _broken(data, doc):
    """``doc`` with one value (or the whole document) replaced by junk, one
    number made NaN, infinite or out of range, or one field dropped."""
    how = data.draw(st.sampled_from(["junk", "number", "drop"]))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(JUNK)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JUNK if how == "junk" else st.sampled_from(
            [math.nan, math.inf, -math.inf, -0.5, 1.5]))
    return doc


def _game_doc(rng, nt, na, own_type, tabular, mode):
    """A game document; an own-type game read in mechanism mode gets a valid
    quasilinear block: drawn payments, and alloc_values = payoff + payments."""
    n = len(nt)
    shape = tuple(nt) + tuple(na)
    payoffs, alloc_values, payments = [], [], []
    for i in range(n):
        v = rng.integers(0, 5, shape) / 4                     # ties are common
        if own_type:
            own = tuple(slice(None) if j == i else slice(0, 1) for j in range(n))
            if mode == "mechanism":
                pay = rng.integers(0, 3, tuple(na)) / 4
                alloc_values.append((v[own].reshape((nt[i],) + tuple(na)) + pay)
                                    .reshape(-1).tolist())
                payments.append(pay.reshape(-1).tolist())
            v = np.broadcast_to(v[own], shape)
        payoffs.append(v.reshape(-1).tolist())
    if tabular:
        table = rng.dirichlet(np.ones(math.prod(nt))).reshape(nt)
        i = int(rng.integers(n))
        if nt[i] > 1 and rng.random() < 0.5:                  # a zero-mass type
            table[(slice(None),) * i + (int(rng.integers(nt[i])),)] = 0.0
            table /= table.sum()
        prior = {"kind": "tabular", "table": table.reshape(-1).tolist()}
    else:
        prior = {"kind": "product", "rows": [rng.dirichlet(np.ones(k)).tolist() for k in nt]}
    doc = {"players": n, "types": [[f"t{k}" for k in range(k)] for k in nt],
           "actions": [[f"a{m}" for m in range(m)] for m in na], "prior": prior,
           "payoffs": payoffs, "payoff_scope": "own-type" if own_type else "full"}
    if alloc_values:
        doc["quasilinear"] = {"alloc_values": alloc_values, "payments": payments}
    return doc


def _break_quasilinear(data, block, how):
    """One table too few or too many, a table one number short, or a number
    that is text, in the alloc_values or the payments of ``block``."""
    tables = block[data.draw(st.sampled_from(["alloc_values", "payments"]))]
    if how == "few":
        tables.pop()
    elif how == "many":
        tables.append(tables[0])
    elif how == "shape":
        tables[0] = tables[0][:-1]
    else:
        tables[0] = ["x"] + tables[0][1:]


def _distribution_doc(rng, nt, na, kind):
    if kind == "tabular":
        values = rng.dirichlet(np.ones(math.prod(na)), size=math.prod(nt))
        return {"kind": "tabular", "values": values.reshape(-1).tolist()}
    if kind == "strategy":
        size = math.prod(m ** k for k, m in zip(nt, na))
        return {"kind": "strategy", "values": rng.dirichlet(np.ones(size)).tolist()}
    c = int(rng.integers(1, 4))
    doc = {"kind": "mixture", "weights": rng.dirichlet(np.ones(c)).tolist(),
           "policies": [rng.dirichlet(np.ones(m), size=(c, k)).tolist()
                        for k, m in zip(nt, na)]}
    return {"mixture": doc} if kind == "simulate-output" else doc


def _spec_doc(rng, nt, na, mode):
    return {"lambda": float(rng.choice([1e-3, 0.5])), "mu": float(rng.choice([0.0, 1e3])),
            "mode": mode, "deviation": [rng.integers(0, m, tuple(nt) + (m,)).tolist()
                                        for m in na]}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(nt=st.lists(st.integers(1, 2), min_size=1, max_size=2),
       na_seed=st.integers(0, 2**16), own_type=st.sampled_from([True, True, False]),
       tabular=st.sampled_from([True, False, False]),
       broken=st.sampled_from([None, None, "game.json", "dist.json", "spec.json"]),
       kind=st.sampled_from(["tabular", "mixture", "strategy", "simulate-output"]),
       command=st.sampled_from(["verify", "representable", "poa", "simulate"]),
       klass=st.sampled_from(["comm", "anf-bs", "bne", "coarse-bs", "sfce", "sfcce",
                              "anfcce"]),
       tol=st.sampled_from(["1e-9", "0.5", "2", "nan", "-1"]),
       mode=st.sampled_from(["game", "game", "mechanism", "mechanism"]),
       ql_broken=st.sampled_from([None, None, "few", "many", "shape", "text"]),
       learner=st.sampled_from(["untruthful", "typewise", "strategy-swap"]),
       eps=st.sampled_from([None, "0.5", "0.5", "1e-5", "nan"]),
       not_utf8=st.sampled_from([None] * 7 + ["game.json", "dist.json", "spec.json"]),
       chunk=st.sampled_from([3, 64, None]), data=st.data())
def test_fuzz_cli_json_documents(nt, na_seed, own_type, tabular, broken, kind, command, klass,
                                 tol, mode, ql_broken, learner, eps, not_utf8, chunk, data):
    """Whatever the documents hold, every command ends with exit 0, 1, 2 or 4
    and never in an internal error.  ``simulate`` runs exact rewards, or
    sampled ones (eps from ``eps``) that feed the documents to the multinomial
    draw.  ``ql_broken`` breaks a quasilinear block, the file ``not_utf8``
    gets a byte that is not UTF-8, and the reader reads ``chunk`` characters
    at a time (None: its own chunk size)."""
    rng = np.random.default_rng(na_seed)
    na = [int(m) for m in rng.integers(1, 4, len(nt))]
    docs = {"game.json": _game_doc(rng, nt, na, own_type, tabular, mode),
            "dist.json": _distribution_doc(rng, nt, na, kind),
            "spec.json": _spec_doc(rng, nt, na, mode)}
    if ql_broken and "quasilinear" in docs["game.json"]:
        _break_quasilinear(data, docs["game.json"]["quasilinear"], ql_broken)
    if broken:
        docs[broken] = _broken(data, docs[broken])
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            raw = json.dumps(doc).encode("utf-8")
            if name == not_utf8:
                at = data.draw(st.integers(0, len(raw)))
                raw = raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) \
                    + raw[at:]
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(raw)
        game, dist, spec = (os.path.join(tmp, name) for name in docs)
        argv = {"verify": ["verify", game, dist, "--class", klass, f"--tol={tol}"],
                "representable": ["representable", game, dist],
                "poa": ["poa", game, dist, spec, f"--eps-tol={tol}"],
                "simulate": ["simulate", game, "-T", "2", "--learner", learner,
                             "--out-dir", os.path.join(tmp, "out")]}[command]
        if command == "simulate" and eps is not None:
            argv += ["--reward", "sampled", f"--eps={eps}", "--delta", "0.2"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                mock.patch.object(game_module, "_READ_CHUNK", chunk or game_module._READ_CHUNK):
            code = main(argv)
    assert code in (0, 1, 2, 4), err.getvalue()
    assert not any(line.startswith("internal error:") for line in err.getvalue().splitlines())
    assert "Traceback" not in err.getvalue()
