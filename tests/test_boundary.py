"""Invalid inputs end in a typed error with its exit code, never a traceback
or a confident number."""

import json
import os

import numpy as np
import pytest

from commeq import cli, fixtures
from commeq.cli import main
from commeq.dynamics import DynamicsConfig, run_dynamics
from commeq.errors import BadInput
from commeq.game import (SUM_TOL_DERIVED, StrategyDistribution, PriorModel, game_to_json_dict,
                         load_game, validate_game)
from commeq.poa import SmoothnessSpec, smoothness_frontier

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
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
        run_dynamics(fixtures.matching_game(), DynamicsConfig(horizon=2, threads=0))


def test_unexpected_exception_exits_3_on_one_line(tmp_path, capsys, monkeypatch):
    def broken(game, config):
        raise ValueError("boom\non two lines")
    monkeypatch.setattr(cli, "run_dynamics", broken)
    code = main(["simulate", MATCHING, "-T", "3", "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "internal error: ValueError: boom on two lines\n"


def test_smoothness_frontier_goes_through_the_checks():
    auction = fixtures.first_price_auction()
    dev = fixtures.auction_halfvalue_spec().deviation
    with pytest.raises(BadInput):                         # mechanism mode, plain game
        smoothness_frontier(auction.base, dev, "mechanism", [0.0])
    with pytest.raises(BadInput):
        smoothness_frontier(auction, dev, "bogus", [0.0])
    with pytest.raises(BadInput):                         # misshapen deviation map
        smoothness_frontier(auction, [d[..., :1] for d in dev], "mechanism", [0.0])
    with pytest.raises(BadInput):                         # action index out of range
        smoothness_frontier(auction, [d + 5 for d in dev], "mechanism", [0.0])
    with pytest.raises(BadInput):
        smoothness_frontier(auction, dev[:1], "mechanism", [0.0])


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


def test_run_dynamics_rejects_unknown_reward_mode():
    with pytest.raises(BadInput, match="reward mode"):
        run_dynamics(fixtures.matching_game(), DynamicsConfig(horizon=5, reward_mode="bogus"))


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
