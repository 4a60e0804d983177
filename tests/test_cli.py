import json
import os
import subprocess
import sys

import pytest

from commeq.cli import main

from .fixture_files import FIXTURES


def fx(name):
    return os.path.join(FIXTURES, name)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", fx("matching_game.json"), "-T", "1000",
                 "--seed", "3", "--out-dir", str(out)])
    assert code == 0
    for name in ("regret.csv", "equilibrium.json", "certificate.txt"):
        assert (out / name).exists()
    lines = (out / "regret.csv").read_text().splitlines()
    assert lines[0] == "t,player,external,typewise,untruthful,bound"
    assert len(lines) == 1 + 1000 * 2
    doc = json.loads((out / "equilibrium.json").read_text())
    assert len(doc["mixture"]["weights"]) == 1000


def test_simulate_then_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", fx("matching_game.json"), "-T", "400",
                 "--seed", "1", "--out-dir", str(out)]) == 0
    sim = json.loads(capsys.readouterr().out)
    code = main(["verify", fx("matching_game.json"), str(out / "equilibrium.json"),
                 "--class", "comm", "--tol", "1"])
    assert code == 0
    cert = json.loads(capsys.readouterr().out)
    assert abs(cert["epsilon"] - sim["certificate"]) <= 1e-6


def test_malformed_json_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad), "-T", "5", "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_cap_exceeded_exit_2(tmp_path, capsys):
    # 24 types with 2 actions: |S_i| = 2^24 > any learner cap
    import numpy as np
    from commeq.game import BayesianGame, PriorModel, save_game
    k = 24
    prior = PriorModel.product([np.full(k, 1 / k), [1.0]])
    payoffs = [np.zeros((k, 1, 2, 2))] * 2
    game = BayesianGame.create([[str(i) for i in range(k)], ["t"]],
                               [["l", "r"], ["l", "r"]], prior, payoffs)
    path = tmp_path / "big.json"
    save_game(game, str(path))
    code = main(["simulate", str(path), "-T", "5", "--learner", "strategy-swap",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2


def test_verify_representable_infeasible_exit(capsys):
    code = main(["verify", fx("zero_payoff_game.json"), fx("nonrepresentable_pi.json"),
                 "--class", "representable"])
    assert code == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is False


def test_representable_subcommand_feasible(capsys):
    code = main(["representable", fx("guessing_game.json"), fx("guessing_pi.json")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True


def test_verify_zero_game_comm(capsys):
    code = main(["verify", fx("zero_payoff_game.json"), fx("nonrepresentable_pi.json"),
                 "--class", "comm", "--tol", "0"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["epsilon"] == 0.0


def test_verify_sigma_classes(capsys):
    assert main(["verify", fx("correlated_coarse_game.json"),
                 fx("correlated_coarse_sigma.json"), "--class", "sfcce",
                 "--tol", "1e-9"]) == 0
    capsys.readouterr()
    code = main(["verify", fx("correlated_coarse_game.json"),
                 fx("correlated_coarse_sigma.json"), "--class", "anfcce",
                 "--tol", "0.1"])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["epsilon"] == pytest.approx(0.25)


def test_verify_bne_on_simulate_output(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", fx("matching_game.json"), "-T", "100",
                 "--seed", "8", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    code = main(["verify", fx("matching_game.json"), str(out / "equilibrium.json"),
                 "--class", "bne", "--tol", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "product_gap" in doc   # mixtures of many rounds are rarely products


def test_adversary_reports_bound(capsys):
    code = main(["adversary", "-B", "2", "-T", "200", "--learner", "untruthful",
                 "--seed", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["untruthful_regret"] <= doc["upper_bound"]
    assert doc["edge_inequalities_hold"] is True


def test_adversary_stream_csv(tmp_path, capsys):
    path = tmp_path / "stream.csv"
    assert main(["adversary", "-B", "1", "-T", "4", "--learner", "type-blind",
                 "--stream-csv", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "t,theta,reward_a0"
    assert len(lines) == 1 + 4 * 4


def test_poa_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", fx("first_price_auction.json"), "-T", "2000",
                 "--seed", "0", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    code = main(["poa", fx("first_price_auction.json"), str(out / "equilibrium.json"),
                 fx("auction_smoothness.json"), "--eps-tol", "0.06"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["smoothness"]["passed"] is True
    assert doc["report"]["ratio"] >= 0.5 - doc["report"]["slack"]


def test_poa_missing_spec_file(capsys):
    assert main(["poa", fx("first_price_auction.json"), fx("guessing_pi.json"),
                 fx("does_not_exist.json")]) == 1


def test_byte_identical_reruns(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["simulate", fx("matching_game.json"), "-T", "150",
                     "--seed", "7", "--out-dir", str(out)]) == 0
        outs.append(out)
    for name in ("regret.csv", "equilibrium.json", "certificate.txt"):
        assert read(outs[0] / name) == read(outs[1] / name)


def test_byte_identical_with_threads(tmp_path):
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    assert main(["simulate", fx("matching_game.json"), "-T", "150",
                 "--seed", "7", "--out-dir", str(seq)]) == 0
    assert main(["simulate", fx("matching_game.json"), "-T", "150",
                 "--seed", "7", "--threads", "4", "--out-dir", str(par)]) == 0
    for name in ("regret.csv", "equilibrium.json", "certificate.txt"):
        assert read(seq / name) == read(par / name)


def test_sampled_mode_cli(tmp_path, capsys):
    out = tmp_path / "s"
    code = main(["simulate", fx("matching_game.json"), "-T", "40",
                 "--reward", "sampled", "--eps", "0.5", "--delta", "0.2",
                 "--seed", "2", "--out-dir", str(out)])
    assert code == 0


def test_sampled_certificate_states_its_slack(tmp_path, capsys):
    """Sampled runs add the slack, the confidence and the upper bound after the
    lines exact runs write; both files stay `key = value` lines."""
    docs = {}
    for mode in ("exact", "sampled"):
        out = tmp_path / mode
        code = main(["simulate", fx("matching_game.json"), "-T", "40", "--reward", mode,
                     "--eps", "0.5", "--delta", "0.2", "--seed", "2", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        text = (out / "certificate.txt").read_text().splitlines()
        docs[mode] = (doc, dict(line.split(" = ", 1) for line in text), [
            line.split(" = ")[0] for line in text])
    doc, lines, keys = docs["exact"]
    assert keys == ["epsilon", "worst_case_bound_at_T", "horizon"]
    assert sorted(doc) == ["certificate", "out_dir"]
    doc, lines, keys = docs["sampled"]
    assert keys == ["epsilon", "worst_case_bound_at_T", "horizon",
                    "sampling_slack", "confidence", "epsilon_upper_bound"]
    assert float(lines["sampling_slack"]) == doc["sampling_slack"] == 0.25
    assert float(lines["confidence"]) == doc["confidence"] == 0.8
    assert float(lines["epsilon_upper_bound"]) == doc["epsilon_upper_bound"] \
        == doc["certificate"] + 0.25


def test_python_dash_m_runs_the_cli(tmp_path):
    """``python -m commeq`` from a checkout, with only ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "commeq", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
    usage = run("--help")
    assert usage.returncode == 0 and "simulate" in usage.stdout
    out = tmp_path / "out"
    sim = run("simulate", fx("matching_game.json"), "-T", "20", "--out-dir", str(out))
    assert sim.returncode == 0, sim.stderr
    assert json.loads(sim.stdout)["out_dir"] == str(out)
    assert main(["simulate", fx("matching_game.json"), "-T", "20",
                 "--out-dir", str(tmp_path / "lib")]) == 0
    for name in ("regret.csv", "equilibrium.json", "certificate.txt"):
        assert read(out / name) == read(tmp_path / "lib" / name)
