"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from commeq.adversary import build_instance, check_instance, run_experiment
from commeq.dynamics import DynamicsConfig, run_dynamics
from commeq.game import decode_strategy_profile, mixture_to_tabular
from commeq.learners import UntruthfulSwapLearner
from commeq.poa import check_smoothness, poa_report
from commeq.regret import (RegretLedger, accumulate, block_rounds, external_regret,
                           strategy_regret, typewise_regret, untruthful_bound,
                           untruthful_regret)
from commeq.transforms import (fixed_point, linear_to_transform,
                               vertex_policies, deviation_to_transform,
                               DeviationPair)
from commeq.verifier import (anf_bs_epsilon, coarse_epsilon, comm_eq_epsilon,
                             strategy_representable)
from commeq.game import policy_violation

from . import fixture_files, oracles
from .oracles import apply_transform, random_transform, transform_membership_violation

REGRET_SUITE = [(4, 3, 10_000), (8, 2, 30_000)]
SEEDS = range(20)
STREAM_CHUNK = 1000


@pytest.fixture(scope="module")
def regret_suite_runs():
    """Shared by criteria 1, 2 and 8: 20 seeded i.i.d.-uniform streams per config.

    Each config's seeds run as one batched learner over a stacked ledger; the
    batch entries step exactly as lone learners would (tests/test_kernels.py
    checks that).  Each seed's stream is drawn in chunks of STREAM_CHUNK
    rounds, the same numbers one draw of the whole stream gives; a chunk is
    played, then folded into the ledger a block of rounds at a time.
    """
    runs = []
    start = time.time()
    for k, m, t_max in REGRET_SUITE:
        rho = np.full(k, 1.0 / k)
        rows = np.tile(rho, (len(SEEDS), 1))
        rngs = [np.random.default_rng(seed) for seed in SEEDS]
        learner = UntruthfulSwapLearner(rows, m, t_max)
        ledger = RegretLedger.create(rows, m)
        block = block_rounds(ledger)
        prev = None
        quarter_regret = None
        for t0 in range(0, t_max, STREAM_CHUNK):
            chunk = min(STREAM_CHUNK, t_max - t0)
            us = np.stack([rng.random((chunk, k, m)) for rng in rngs], axis=1)
            xs = np.empty(us.shape)
            for s in range(chunk):
                xs[s] = learner.step(prev)
                prev = us[s]
            for lo in range(0, chunk, block):
                hi = min(lo + block, chunk)
                ledger_rows = accumulate(ledger, xs[lo:hi], us[lo:hi])
                if t0 + lo < t_max // 4 <= t0 + hi:
                    quarter_regret = untruthful_regret(ledger_rows)[t_max // 4 - t0 - lo - 1]
        regret = untruthful_regret(ledger)
        for b, (seed, entry) in enumerate(zip(SEEDS, ledger.entries())):
            runs.append({
                "dims": (k, m, t_max),
                "seed": seed,
                "regret": float(regret[b]),
                "quarter_regret": float(quarter_regret[b]),
                "ledger": entry,
            })
    runs.append({"elapsed": time.time() - start})
    return runs


def test_criterion_01_regret_bound_suite(regret_suite_runs):
    elapsed = regret_suite_runs[-1]["elapsed"]
    worst_ratio = 0.0
    for run in regret_suite_runs[:-1]:
        k, m, t_max = run["dims"]
        bound = untruthful_bound(t_max, k, m)
        assert run["regret"] <= bound, (run["dims"], run["seed"])
        worst_ratio = max(worst_ratio, run["regret"] / bound)
    assert elapsed < 120.0
    print(f"\n[criterion 01] PASS regret <= bound on all 40 runs "
          f"(worst regret/bound {worst_ratio:.3f}, {elapsed:.0f}s)")


def test_criterion_02_sublinearity(regret_suite_runs):
    # per config, the seed-averaged regret: individual runs fluctuate with the
    # stream's own extreme-value noise, but the average shows the sqrt(T)
    # signature cleanly
    ratios = []
    for dims in REGRET_SUITE:
        runs = [r for r in regret_suite_runs[:-1] if r["dims"] == dims]
        t_max = dims[2]
        avg_full = np.mean([r["regret"] for r in runs]) / t_max
        avg_quarter = np.mean([r["quarter_regret"] for r in runs]) / (t_max // 4)
        assert avg_full <= 0.55 * avg_quarter, dims
        ratios.append(float(avg_full / avg_quarter))
    print(f"\n[criterion 02] PASS average regret at least ~halves when T quadruples "
          f"(config ratios {[round(r, 3) for r in ratios]} <= 0.55)")


def test_criterion_03_certificate_soundness():
    game = fixture_files.game("matching_game")
    result = run_dynamics(game, DynamicsConfig(horizon=50_000, seed=0))
    cert = comm_eq_epsilon(game, result.mixture)
    gap = abs(cert.epsilon - result.certificate)
    assert gap <= 1e-6
    print(f"\n[criterion 03] PASS |verifier eps - max regret/T| = {gap:.2e} <= 1e-6 "
          f"(eps {cert.epsilon:.5f} at T=5e4)")


def test_criterion_04_regret_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        t_max = int(rng.integers(1, 51))
        rho = rng.random(k) + 0.05
        rho /= rho.sum()
        xs = rng.random((t_max, k, m))
        xs /= xs.sum(axis=2, keepdims=True)
        us = rng.random((t_max, k, m))
        ledger = RegretLedger.create(rho, m)
        for t in range(t_max):
            accumulate(ledger, xs[t], us[t])
        for got, want in [
            (untruthful_regret(ledger), oracles.enumerate_untruthful(xs, us, rho)),
            (typewise_regret(ledger), oracles.enumerate_typewise(xs, us, rho)),
            (external_regret(ledger), oracles.enumerate_external(xs, us, rho)),
        ]:
            assert abs(got - want) <= 1e-9
            worst = max(worst, abs(got - want))
    # strategy swaps: tiny strategy sets so phi_SF enumerates
    for _ in range(100):
        k, m = [(1, 2), (1, 3), (2, 2)][int(rng.integers(0, 3))]
        t_max = int(rng.integers(1, 51))
        s = m ** k
        table = decode_strategy_profile(np.arange(s), (k,), (m,))[0]
        sigmas = rng.random((t_max, s))
        sigmas /= sigmas.sum(axis=1, keepdims=True)
        us = rng.random((t_max, k, m))
        rho = rng.random(k) + 0.05
        rho /= rho.sum()
        got = strategy_regret(sigmas, us, rho)
        want = oracles.enumerate_strategy(sigmas, us, rho, table)
        assert abs(got - want) <= 1e-9
        worst = max(worst, abs(got - want))
    print(f"\n[criterion 04] PASS ledger == enumeration oracle on 200 cases "
          f"(worst gap {worst:.2e} <= 1e-9)")


def test_criterion_05_fixed_point_suite():
    rng = np.random.default_rng(5)
    worst_res, worst_policy = 0.0, 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(2, 5))
        q = random_transform(rng, k, m, positive=True)
        x = fixed_point(q)
        worst_res = max(worst_res, float(np.abs(apply_transform(q, x) - x).max()))
        worst_policy = max(worst_policy, policy_violation(x))
    assert worst_res <= 1e-8
    assert worst_policy <= 1e-8
    print(f"\n[criterion 05] PASS 1000 fixed points: residual <= {worst_res:.2e}, "
          f"policy violation <= {worst_policy:.2e}")


def test_criterion_06_representability():
    rep = strategy_representable(
        fixture_files.distribution("nonrepresentable_pi", "zero_payoff_game"))
    assert not rep.feasible
    assert rep.infeasibility >= 1e-7    # Farkas inner product, verified inside
    rng = np.random.default_rng(6)
    shapes = [((2, 2), (2, 2)), ((2, 2), (3, 2)), ((2, 2), (4, 4)), ((3, 1), (2, 3))]
    worst = 0.0
    for case in range(100):
        nt, na = shapes[case % len(shapes)]
        profiles = []
        for _ in range(int(rng.integers(1, 7))):
            prof = []
            for k, m in zip(nt, na):
                p = rng.random((k, m))
                prof.append(p / p.sum(axis=1, keepdims=True))
            profiles.append(prof)
        w = rng.random(len(profiles))
        mix = oracles.mixture(w / w.sum(), profiles)
        out = strategy_representable(mixture_to_tabular(mix))
        assert out.feasible
        assert out.marginal_error <= 1e-7
        worst = max(worst, out.marginal_error)
    print(f"\n[criterion 06] PASS fixture infeasible with Farkas mass "
          f"{rep.infeasibility:.2f}; 100 mixtures feasible "
          f"(worst marginal error {worst:.2e} <= 1e-7)")


def test_criterion_07_linear_map_conversion():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        mats = []
        for _ in range(5):
            psi = rng.integers(0, k, k)
            phi = rng.integers(0, m, (k, m))
            mats.append(deviation_to_transform(DeviationPair.create(psi, phi)).dense())
        w = rng.random(5)
        w /= w.sum()
        mat = sum(wi * mi for wi, mi in zip(w, mats)).reshape(k, m, k, m)
        if k > 1:   # perturb by a valid per-row block shift
            row_t = int(rng.integers(0, k))
            row_a = int(rng.integers(0, m))
            shift = float(rng.random() * 0.3)
            cols = rng.permutation(k)
            mat[row_t, row_a, cols[0], :] += shift
            mat[row_t, row_a, cols[1], :] -= shift
        mat = mat.reshape(k * m, k * m)
        q = linear_to_transform(mat, k, m)
        assert transform_membership_violation(q) <= 1e-9
        for v in vertex_policies(k, m):
            gap = float(np.abs(apply_transform(q, v).reshape(-1) - mat @ v.reshape(-1)).max())
            assert gap <= 1e-9
            worst = max(worst, gap)
    print(f"\n[criterion 07] PASS 100 conversions in the polytope, vertex agreement "
          f"<= {worst:.2e} <= 1e-9")


def test_criterion_08_ordering_and_inclusion(regret_suite_runs):
    for run in regret_suite_runs[:-1]:
        led = run["ledger"]
        # 1e-9 slack: the three queries reduce thousands-scale sums in
        # different orders, so ~1e-12 association noise is expected
        assert external_regret(led) <= typewise_regret(led) + 1e-9
        assert typewise_regret(led) <= untruthful_regret(led) + 1e-9
    rng = np.random.default_rng(8)
    from .test_verifier import random_game, random_mixture
    for _ in range(20):
        game = random_game(rng, (2, 2), (2, 2), tabular_prior=bool(rng.integers(2)))
        mix = random_mixture(rng, (2, 2), (2, 2), int(rng.integers(1, 5)))
        comm = comm_eq_epsilon(game, mix)
        anf = anf_bs_epsilon(game, mix)
        assert anf.epsilon <= comm.epsilon + 1e-12
    game = fixture_files.game("correlated_coarse_game")
    sigma = fixture_files.distribution("correlated_coarse_sigma", "correlated_coarse_game")
    sfcce = coarse_epsilon(game, sigma, "sfcce").epsilon
    anfcce = coarse_epsilon(game, sigma, "anfcce").epsilon
    assert sfcce == pytest.approx(0.0, abs=1e-12)
    assert anfcce == pytest.approx(0.25, abs=1e-12)
    print("\n[criterion 08] PASS external <= typewise <= untruthful on all runs; "
          "anf-bs <= comm on 20 audits; coarse fixture: sfcce 0, anfcce 0.25")


def test_criterion_09_edge_type_diagnostics():
    worst_slack = np.inf
    for seed in range(10):
        inst = build_instance(3, 3000, seed=seed)
        check_instance(inst)
        res = run_experiment(inst, "untruthful")
        assert res.regret <= res.bound
        assert res.edge_inequalities_hold()
        worst_slack = min(worst_slack,
                          res.stay_mass_alpha0 - res.edge_lower_bound,
                          res.stay_mass_alpha1 - res.edge_lower_bound)
    print(f"\n[criterion 09] PASS both edge-type inequalities on 10 seeds "
          f"(tightest slack {worst_slack:.1f} rounds)")


def test_criterion_10_poa_end_to_end():
    start = time.time()
    auction = fixture_files.auction()
    spec = fixture_files.auction_spec()
    smooth = check_smoothness(auction, spec)
    assert smooth.passed
    bad = check_smoothness(auction, fixture_files.auction_spec(0.9))
    assert not bad.passed and bad.witness is not None
    result = run_dynamics(auction.base,
                          DynamicsConfig(horizon=80_000, seed=0))
    assert result.certificate <= 0.01
    report = poa_report(auction, result.mixture, spec, eps_tol=0.01)
    floor = 0.5 - 2 * report.epsilon / report.opt_welfare - 1e-9
    assert report.ratio >= floor
    assert report.bound_satisfied
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\n[criterion 10] PASS (1/2,1)-smooth, eps {report.epsilon:.4f} <= 0.01, "
          f"ratio {report.ratio:.3f} >= {floor:.3f} ({elapsed:.0f}s)")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    import os

    from commeq.cli import main
    fx = lambda name: os.path.join(fixture_files.FIXTURES, name)

    def run_stdout(argv):
        code = main(argv)
        return code, capsys.readouterr().out.encode()

    # simulate: identical reruns and threaded rerun, byte-for-byte files
    outputs = []
    for tag, extra in [("a", []), ("b", []), ("c", ["--threads", "4"])]:
        out = tmp_path / tag
        assert main(["simulate", fx("matching_game.json"), "-T", "120",
                     "--seed", "13", "--out-dir", str(out)] + extra) == 0
        capsys.readouterr()
        outputs.append({name: (out / name).read_bytes()
                        for name in ("regret.csv", "equilibrium.json", "certificate.txt")})
    assert outputs[0] == outputs[1] == outputs[2]

    eq_path = str(tmp_path / "a" / "equilibrium.json")
    commands = [
        ["verify", fx("matching_game.json"), eq_path, "--class", "comm", "--tol", "1"],
        ["verify", fx("zero_payoff_game.json"), fx("nonrepresentable_pi.json"),
         "--class", "representable"],
        ["representable", fx("guessing_game.json"), fx("guessing_pi.json")],
        ["adversary", "-B", "2", "-T", "100", "--learner", "untruthful", "--seed", "3"],
        ["verify", fx("correlated_coarse_game.json"),
         fx("correlated_coarse_sigma.json"), "--class", "sfcce", "--tol", "1e-9"],
    ]
    for argv in commands:
        first = run_stdout(argv)
        second = run_stdout(argv)
        assert first == second, argv
    print("\n[criterion 11] PASS byte-identical outputs across reruns and --threads 4")
