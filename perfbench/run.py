"""commeq benchmark: four seeded workloads driven through ``commeq.cli.main``.

    python3 perfbench/run.py --workload manyplayer-exact --seed 1 --seconds 16 --trace 0

Run from anywhere inside a checkout; it works from the checkout root and
builds nothing.  Set-up (a fresh interpreter that imports commeq and writes
the seeded inputs) runs several times.  Then whole units (one CLI call, or one
pass of the audit's commands) run back to back, closed loop with one caller,
until ``--seconds`` have passed.  A fixed reference load runs right before
and after each set-up and unit, and their times are scaled to the host speed
where that load takes ``REFERENCE_S``: ``setup_s`` and ``wall_s`` are the
medians of the scaled set-ups and units.  The raw times are printed beside
them.  Every operation's exit code, stdout and output files are checked, and
their sha256 digests must agree between units.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced units alternate and it reports the
per-layer metrics of ``perfbench/spans.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

WORK = ".perfbench_work"
FIX = inputs.FIXTURES
SETUP_REPS = 5           # set-up repetitions: at least this many,
SETUP_SECONDS = 2.0      # and more while they have taken less time than this
MIN_UNITS = 3
COMM_TOL = 1e-9

MANY_T = 300
AUCTION_T = 200
ADVERSARY_B = 4
ADVERSARY_T = 4000

# The reference load: a fixed mix of numpy gathers, sorts and elementwise
# arithmetic and an interpreted dict loop, on one thread and without BLAS, so
# nothing commeq sets at import can change its speed.  It runs right before
# and after every timed set-up and unit, and each is reported at the host
# speed where the mean of those two passes takes REFERENCE_S (close to the
# median pass on the 2-vCPU Xeon host of perfbench/baseline.json).
REFERENCE_S = 0.05
REFERENCE_PASSES = 50
_REF_V = np.random.default_rng([0, 3]).random(1 << 15)
_REF_IDX = np.random.default_rng([0, 4]).permutation(1 << 15)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "certificate_eps": "eps",
                    "peak_rss_mb": "MB"}


@dataclass
class Op:
    """One CLI call with its documented exit code and output checks."""

    label: str
    argv: list[str]
    code: int
    outputs: tuple[str, ...] = ()
    check: object = None          # callable(stdout_doc) -> list of problems


@dataclass
class Outcome:
    label: str
    doc: dict | None
    digests: dict
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# output checks

def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def simulate_checks(out_dir: str, horizon: int):
    def check(doc):
        problems = []
        eps = doc["certificate"]
        with open(os.path.join(out_dir, "certificate.txt")) as fh:
            lines = dict(line.rstrip("\n").split(" = ", 1) for line in fh)
        if float(lines["epsilon"]) != eps:
            problems.append(f"certificate.txt epsilon {lines['epsilon']} != stdout {eps!r}")
        if int(lines["horizon"]) != horizon:
            problems.append(f"certificate.txt horizon {lines['horizon']} != {horizon}")
        if not 0.0 <= eps <= float(lines["worst_case_bound_at_T"]):
            problems.append(f"certificate {eps!r} outside [0, worst_case_bound_at_T]")
        final = []
        with open(os.path.join(out_dir, "regret.csv")) as fh:
            header = fh.readline().strip().split(",")
            col = header.index("untruthful")
            for line in fh:
                row = line.split(",")
                if int(row[0]) == horizon:
                    final.append(float(row[col]))
        if not final or not _close(max(0.0, max(final) / horizon), eps, 1e-15 + 1e-12 * eps):
            problems.append(f"regret.csv final untruthful max / T != certificate {eps!r}")
        return problems
    return check


def expect_fields(**expected):
    def check(doc):
        return [f"{key} = {doc.get(key)!r}, expected {want!r}"
                for key, want in expected.items() if doc.get(key) != want]
    return check


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""

    def __init__(self, seed: int, inp: str, work: str):
        self.seed, self.inp, self.work = seed, inp, work

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def certificate(self, outcomes: list[Outcome]) -> float:
        raise NotImplementedError

    def final_op(self, outcomes: list[Outcome]) -> Op | None:
        """A check of the last unit's ``outcomes`` run once per run, after the timed units."""
        return None


class Simulate(Workload):
    game = ""
    horizon = 0
    extra: tuple[str, ...] = ()

    def ops(self):
        out = os.path.join(self.work, "out")
        argv = ["simulate", self.game, "--learner", "untruthful", "-T", str(self.horizon),
                *self.extra, "--seed", str(self.seed), "--out-dir", out]
        return [Op("simulate", argv, 0,
                   tuple(os.path.join(out, f) for f in
                         ("regret.csv", "equilibrium.json", "certificate.txt")),
                   simulate_checks(out, self.horizon))]

    def certificate(self, outcomes):
        return outcomes[0].doc["certificate"]

    def comm_tolerance(self, argv: list[str]) -> float:
        return COMM_TOL

    def final_op(self, outcomes):
        eps = self.certificate(outcomes)
        tol = self.comm_tolerance(self.ops()[0].argv)

        def check(doc):
            if _close(doc["epsilon"], eps, tol):
                return []
            return [f"verify --class comm gives {doc['epsilon']!r}, certificate {eps!r}"]
        eq = os.path.join(self.work, "out", "equilibrium.json")
        return Op("verify-comm", ["verify", self.game, eq, "--class", "comm", "--tol", "1"],
                  0, (), check)


class ManyplayerExact(Simulate):
    name = "manyplayer-exact"
    horizon = MANY_T
    extra = ("--reward", "exact")

    @property
    def game(self):
        return os.path.join(self.inp, "game.json")


class AuctionSampled(Simulate):
    name = "auction-sampled"
    horizon = AUCTION_T
    extra = ("--reward", "sampled", "--threads", "2")
    game = os.path.join(FIX, "first_price_auction.json")

    def comm_tolerance(self, argv):
        # the ledger sees Monte-Carlo rewards, each entry within --eps / 4 of the
        # exact one, so the exact eps may differ from the certificate by --eps / 2
        from commeq.cli import build_parser
        return build_parser().parse_args(argv).eps / 2


class AdversaryStream(Workload):
    name = "adversary-stream"

    def ops(self):
        argv = ["adversary", "-B", str(ADVERSARY_B), "-T", str(ADVERSARY_T),
                "--learner", "untruthful", "--seed", str(self.seed)]

        def check(doc):
            problems = expect_fields(learner="untruthful", horizon=ADVERSARY_T,
                                     num_types=2 ** (ADVERSARY_B + 1),
                                     edge_inequalities_hold=True)(doc)
            if not 0.0 <= doc["untruthful_regret"] <= doc["upper_bound"]:
                problems.append(f"regret {doc['untruthful_regret']!r} outside "
                                f"[0, upper_bound {doc['upper_bound']!r}]")
            return problems
        return [Op("adversary", argv, 0, (), check)]

    def certificate(self, outcomes):
        return outcomes[0].doc["untruthful_regret"] / ADVERSARY_T


class Audit(Workload):
    name = "audit"

    def ops(self):
        game = os.path.join(self.inp, "game.json")
        auction = os.path.join(FIX, "first_price_auction.json")
        eq = os.path.join(self.inp, "auction", "equilibrium.json")
        with open(os.path.join(self.inp, "auction", "certificate.txt")) as fh:
            cert = float(fh.readline().split(" = ")[1])
        corr_game = os.path.join(FIX, "correlated_coarse_game.json")
        sigma = os.path.join(FIX, "correlated_coarse_sigma.json")

        def comm(doc):
            return [] if doc["epsilon"] > 0 else ["random mixture certified with epsilon 0"]

        def anf_bs(doc):
            problems = expect_fields(representable=True)(doc)
            if doc["epsilon"] > cert + COMM_TOL:     # action swaps are a subset
                problems.append(f"anf-bs epsilon {doc['epsilon']!r} > comm {cert!r}")
            return problems

        def poa(doc):
            problems = []
            if not doc["smoothness"]["passed"] or not doc["report"]["bound_satisfied"]:
                problems.append("smoothness or POA bound not satisfied")
            if not _close(doc["report"]["epsilon"], cert, COMM_TOL):
                problems.append(f"poa epsilon {doc['report']['epsilon']!r} != {cert!r}")
            return problems

        def farkas(doc):
            problems = expect_fields(feasible=False)(doc)
            if not doc["infeasibility"] > 0:
                problems.append("no positive Farkas infeasibility mass")
            return problems

        def feasible(doc):
            problems = expect_fields(feasible=True)(doc)
            if not doc["marginal_error"] <= 1e-7:
                problems.append(f"marginal error {doc['marginal_error']!r}")
            return problems

        def sigma_eps(want):
            def check(doc):
                return [] if _close(doc["epsilon"], want, 1e-12) else \
                    [f"epsilon {doc['epsilon']!r}, expected {want!r}"]
            return check

        return [
            Op("verify-comm-mixture",
               ["verify", game, os.path.join(self.inp, "mixture.json"), "--class", "comm"],
               4, (), comm),
            Op("verify-anf-bs", ["verify", auction, eq, "--class", "anf-bs", "--tol", "1"],
               0, (), anf_bs),
            Op("poa", ["poa", auction, eq, os.path.join(FIX, "auction_smoothness.json"),
                       "--eps-tol", "0.1"], 0, (), poa),
            Op("representable-nonrep",
               ["representable", os.path.join(FIX, "zero_payoff_game.json"),
                os.path.join(FIX, "nonrepresentable_pi.json")], 4, (), farkas),
            Op("representable-guessing",
               ["representable", os.path.join(FIX, "guessing_game.json"),
                os.path.join(FIX, "guessing_pi.json")], 0, (), feasible),
            Op("verify-sfce", ["verify", corr_game, sigma, "--class", "sfce"],
               4, (), sigma_eps(0.25)),
            Op("verify-sfcce", ["verify", corr_game, sigma, "--class", "sfcce"],
               0, (), sigma_eps(0.0)),
            Op("verify-anfcce", ["verify", corr_game, sigma, "--class", "anfcce"],
               4, (), sigma_eps(0.25)),
        ]

    def certificate(self, outcomes):
        """The epsilon the audit's POA pass re-certifies for the auction run."""
        return next(o.doc["report"]["epsilon"] for o in outcomes if o.label == "poa")

    def final_op(self, outcomes):
        """The mixture's anf-bs eps, which may not exceed its comm eps.

        Communication deviations include the action swaps.  This call is
        several times dearer than the rest of the unit, so it runs once.
        """
        comm = next(o.doc["epsilon"] for o in outcomes if o.label == "verify-comm-mixture")

        def check(doc):
            if 0 < doc["epsilon"] <= comm + COMM_TOL:
                return []
            return [f"mixture anf-bs epsilon {doc['epsilon']!r} outside (0, comm {comm!r}]"]
        return Op("verify-anf-bs-mixture",
                  ["verify", os.path.join(self.inp, "game.json"),
                   os.path.join(self.inp, "mixture.json"), "--class", "anf-bs"], 4, (), check)


WORKLOADS = {w.name: w for w in (ManyplayerExact, AuctionSampled, AdversaryStream, Audit)}


# ---------------------------------------------------------------------------
# running

def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def reference_seconds() -> float:
    """Wall time of one pass of the reference load."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(REFERENCE_PASSES):
        acc += float(np.sort(_REF_V[_REF_IDX]).sum() + (np.exp(-_REF_V) * _REF_V).sum())
        counts: dict[int, int] = {}
        for i in range(4000):
            counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def against_reference(fn, refs: list[float]) -> tuple[float, object]:
    """Run ``fn()`` between two passes of the reference load; return its wall time and result.

    The times of the two passes are appended to ``refs``; see ``at_reference_speed``.
    """
    refs.append(reference_seconds())
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    refs.append(reference_seconds())
    return wall, result


def at_reference_speed(times: list[float], refs: list[float]) -> list[float]:
    """Scale each time by REFERENCE_S over the mean of the reference passes around it.

    Co-tenants on a shared host slow whole stretches of tens of seconds by up
    to 2x; the reference load slows with them, so the scaled times hold still.
    """
    return [t * 2.0 * REFERENCE_S / (refs[2 * i] + refs[2 * i + 1]) for i, t in enumerate(times)]


def run_op(cli, op: Op, tracer: Tracer | None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(op.argv)
            else:
                code = tracer.call("cli.main", cli.main, (op.argv,))
        except Exception as exc:              # a traceback is a failed operation
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def judge(op: Op, code: int, stdout: str, stderr: str) -> Outcome:
    digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    outcome = Outcome(op.label, None, digests)
    if code != op.code:
        outcome.problems.append(f"exit {code}, expected {op.code}: {stderr.strip()[:200]}")
        return outcome
    try:
        outcome.doc = json.loads(stdout)
        for path in op.outputs:
            digests[os.path.basename(path)] = sha256_file(path)
        if op.check is not None:
            outcome.problems.extend(op.check(outcome.doc))
    except Exception as exc:
        outcome.problems.append(f"{type(exc).__name__}: {exc}")
    return outcome


def run_unit(cli, ops: list[Op], tracer: Tracer | None) -> tuple[float, list[Outcome]]:
    """Time one unit; outputs are judged after the clock stops."""
    raw = []

    def body():
        for op in ops:
            raw.append(run_op(cli, op, tracer))
    t0 = time.perf_counter()
    if tracer is None:
        body()
    else:
        tracer.install()
        try:
            tracer.unit(body)
        finally:
            tracer.restore()
    wall = time.perf_counter() - t0
    return wall, [judge(op, *r) for op, r in zip(ops, raw)]


def set_up(name: str, seed: int, work: str, refs: list[float]) -> tuple[list[float], str, list[str]]:
    """Repeat the set-up in fresh interpreters; every repetition must write the same inputs."""
    times, digests = [], []
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        dest = os.path.join(work, f"setup{len(times)}")
        wall, _ = against_reference(lambda: subprocess.run(
            [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", name,
             "--seed", str(seed), "--dest", dest], check=True), refs)
        times.append(wall)
        digests.append({os.path.relpath(os.path.join(d, f), dest):
                        sha256_file(os.path.join(d, f))
                        for d, _, files in os.walk(dest) for f in files})
    for rep in range(1, len(times)):
        shutil.rmtree(os.path.join(work, f"setup{rep}"))
    problems = [] if all(d == digests[0] for d in digests) else \
        ["set-up wrote different inputs for the same seed"]
    return times, os.path.join(work, "setup0"), problems


class Ledger:
    """Operations attempted and failed, and the digests units must reproduce."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, dict] = {}

    def record(self, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            self.attempted += 1
            if o.digests != self.reference.setdefault(o.label, o.digests):
                o.problems.append("outputs differ from the first unit of this run")
            if o.problems:
                self.failed += 1
                print(f"FAILED {o.label}: {'; '.join(o.problems)}", file=sys.stderr)

    def record_problems(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED: {'; '.join(problems)}", file=sys.stderr)


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return "none (fewer than 11 samples)"
    return f"p{100.0 * (n - 10) / n:.1f} = {sorted(samples)[n - 11]!r} s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    os.chdir(ROOT)
    cli = inputs.import_commeq()
    if not os.path.isdir(FIX):
        raise SystemExit(f"perfbench: no {FIX}/ directory in {ROOT}")

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ledger = Ledger()
    setup_refs: list[float] = []
    setup_times, inp, problems = set_up(args.workload, args.seed, work, setup_refs)
    ledger.record_problems(problems)
    workload = WORKLOADS[args.workload](args.seed, inp, work)
    ops = workload.ops()

    _, outcomes = run_unit(cli, ops, None)          # warm-up, checked but not timed
    ledger.record(outcomes)
    tracer = Tracer() if args.trace else None
    walls, unit_refs, traced = [], [], []
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or len(walls) < MIN_UNITS or \
            (tracer is not None and len(traced) < MIN_UNITS):
        _, (wall, outcomes) = against_reference(lambda: run_unit(cli, ops, None), unit_refs)
        walls.append(wall)
        ledger.record(outcomes)
        if tracer is not None:
            wall, outcomes = run_unit(cli, ops, tracer)
            traced.append(wall)
            ledger.record(outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        eps = workload.certificate(outcomes)
        final = workload.final_op(outcomes)
    except (TypeError, KeyError, StopIteration):
        raise SystemExit("perfbench: the last unit gave no certificate; see the failures above")
    if final is not None:
        ledger.record([judge(final, *run_op(cli, final, None))])

    setup_scaled = at_reference_speed(setup_times, setup_refs)
    walls_scaled = at_reference_speed(walls, unit_refs)
    print(f"# {args.workload} seed {args.seed}: {len(walls)} untraced units, median "
          f"{statistics.median(walls)!r} s, {tail_percentile(walls)}; at reference speed "
          f"median {statistics.median(walls_scaled)!r} s, {tail_percentile(walls_scaled)}")
    print(f"# set-up {', '.join(f'{t:.3f}' for t in setup_times)} s; units "
          f"{', '.join(f'{t:.3f}' for t in walls)} s; reference passes "
          f"{', '.join(f'{t:.4f}' for t in setup_refs + unit_refs)} s")
    print("# digests " + json.dumps(ledger.reference, sort_keys=True))
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": statistics.median(walls_scaled),
            "certificate_eps": eps,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        tracer.dump(os.path.join(work, "spans.jsonl"))
        values = tracer.metrics()
        # untraced and traced units alternate, so pairing neighbours cancels slow drift
        values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, walls))
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix.startswith("us_"):
        return "us"
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
