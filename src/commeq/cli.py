"""Command-line front end.

Exit codes: 0 success, 1 bad input, 2 cap exceeded, 3 internal invariant
failure, 4 verification threshold not met.  All randomness funnels through
--seed (default 0); identical flags and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import adversary as adv
from .dynamics import (DynamicsConfig, run_dynamics, sampling_fields,
                       write_certificate_txt, write_equilibrium_json, write_regret_csv)
from .errors import (BadInput, CommeqError, EnumerationTooLarge, NotAnEquilibrium,
                     SupportTooLarge)
from .game import (SUM_TOL_DERIVED, BayesianGame, MixtureDistribution,
                   StrategyDistribution, check_policy, game_from_json_dict, load_game,
                   load_json as _load_json, mixture_to_tabular, validate_game)
from .poa import QuasilinearGame, SmoothnessSpec, check_smoothness, poa_report
from .verifier import (anf_bs_epsilon, bne_epsilon, coarse_epsilon,
                       comm_eq_epsilon, sfce_epsilon, strategy_representable)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_CAP = 2
EXIT_INTERNAL = 3
EXIT_NOT_VERIFIED = 4


def load_distribution(path: str, game: BayesianGame):
    """Load a play distribution: tabular, mixture, strategy, or a simulate output.

    Tabular slices and mixture policy rows must be probability vectors within
    SUM_TOL_DERIVED, the drift a long simulate run's own output carries.
    """
    doc = _load_json(path)
    if isinstance(doc, dict) and "mixture" in doc and "kind" not in doc:  # equilibrium.json
        doc = doc["mixture"]
    if not isinstance(doc, dict):
        raise BadInput(f"{path}: a distribution file holds a JSON object")
    kind = doc.get("kind")
    nt, na = game.num_types, game.num_actions
    try:
        if kind == "tabular":
            arr = np.asarray(doc["values"], dtype=float).reshape(nt + na)
            check_policy(arr.reshape(int(np.prod(nt)), -1), SUM_TOL_DERIVED,
                         f"{path}: tabular distribution")
            return arr
        if kind == "mixture":
            weights = np.asarray(doc["weights"], dtype=float)
            policies = [np.asarray(p, dtype=float) for p in doc["policies"]]
            if weights.ndim != 1 or len(policies) != game.n:
                raise BadInput(f"{path}: a mixture needs a weight vector and {game.n} policies")
            for i, p in enumerate(policies):
                want = (weights.size, nt[i], na[i])
                if p.shape != want:
                    raise BadInput(f"{path}: policy of player {i} has shape {p.shape}, want {want}")
                check_policy(p.reshape(-1, na[i]), SUM_TOL_DERIVED,
                             f"{path}: mixture policy of player {i}")
            return MixtureDistribution.from_stacked(weights, policies)
        if kind == "strategy":
            return StrategyDistribution.create(nt, na, np.asarray(doc["values"], dtype=float))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadInput(f"{path}: distribution does not fit the game: {exc}") from exc
    raise BadInput(f"{path}: unknown distribution kind {kind!r}")


def _checked_game(path: str, game: BayesianGame) -> BayesianGame:
    report = validate_game(game)
    if not report.ok:
        raise BadInput(f"{path}: " + "; ".join(report.violations))
    return game


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    game = _checked_game(args.game, load_game(args.game))
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise BadInput(f"cannot make output directory {args.out_dir}: {exc}") from exc
    config = DynamicsConfig(
        horizon=args.T,
        learners=args.learner,
        reward_mode=args.reward,
        epsilon=args.eps,
        delta=args.delta,
        seed=args.seed,
        threads=args.threads,
    )
    result = run_dynamics(game, config)
    write_regret_csv(os.path.join(args.out_dir, "regret.csv"), result.curve)
    write_equilibrium_json(os.path.join(args.out_dir, "equilibrium.json"), result)
    write_certificate_txt(os.path.join(args.out_dir, "certificate.txt"), result, game)
    _print_json({"certificate": result.certificate, "out_dir": args.out_dir,
                 **sampling_fields(result)})
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.klass != "representable" and not args.tol >= 0:     # NaN fails too
        raise BadInput(f"--tol must be a number >= 0, not {args.tol!r}")
    game = _checked_game(args.game, load_game(args.game))
    dist = load_distribution(args.distribution, game)
    if args.klass == "representable":
        pi = mixture_to_tabular(dist) if isinstance(dist, MixtureDistribution) \
            else _require_tabular(dist, "representable")
        rep = strategy_representable(pi)
        _print_json({"class": "representable", "feasible": rep.feasible,
                     "marginal_error": rep.marginal_error if rep.feasible else None,
                     "infeasibility": rep.infeasibility})
        return EXIT_OK if rep.feasible else EXIT_NOT_VERIFIED
    if args.klass == "comm":
        cert = comm_eq_epsilon(game, dist)
    elif args.klass == "anf-bs":
        cert = anf_bs_epsilon(game, dist)
    elif args.klass == "bne":
        cert = bne_epsilon(game, dist)
    elif args.klass == "coarse-bs":
        cert = coarse_epsilon(game, dist, "coarse-bs")
    elif args.klass == "sfce":
        cert = sfce_epsilon(game, dist)
    else:  # sfcce | anfcce
        cert = coarse_epsilon(game, dist, args.klass)
    _print_json(cert.to_json_dict())
    return EXIT_OK if cert.epsilon <= args.tol else EXIT_NOT_VERIFIED


def _require_tabular(dist, what: str) -> np.ndarray:
    if isinstance(dist, StrategyDistribution):
        raise BadInput(f"{what} needs a tabular or mixture distribution")
    return np.asarray(dist, dtype=float)


def cmd_representable(args) -> int:
    args.klass = "representable"
    return cmd_verify(args)


def cmd_adversary(args) -> int:
    inst = adv.build_instance(args.B, args.T, args.seed)
    adv.check_instance(inst)
    if args.stream_csv:
        adv.write_stream_csv(args.stream_csv, inst)
    result = adv.run_experiment(inst, args.learner)
    _print_json(result.to_json_dict())
    return EXIT_OK


def cmd_poa(args) -> int:
    doc = _load_json(args.game)
    game = _checked_game(args.game, game_from_json_dict(doc))
    spec_doc = _load_json(args.spec)
    try:
        spec = SmoothnessSpec.create(spec_doc["lambda"], spec_doc["mu"],
                                     spec_doc["mode"], spec_doc["deviation"])
    except (KeyError, TypeError) as exc:     # TypeError: the spec is not an object
        raise BadInput(f"{args.spec}: a smoothness spec is an object with lambda, mu,"
                       f" mode and deviation; {exc!r}") from exc
    target = game
    if spec.mode == "mechanism":
        try:
            ql = doc["quasilinear"]
            target = QuasilinearGame.create(game, ql["alloc_values"], ql["payments"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BadInput(f"mechanism mode needs a 'quasilinear' block with alloc_values"
                           f" and payments that fit the game: {exc}") from exc
    dist = load_distribution(args.distribution, game)
    report = poa_report(target, dist, spec, eps_tol=args.eps_tol)
    _print_json({"smoothness": report.smoothness.to_json_dict(),
                 "report": report.to_json_dict()})
    return EXIT_OK if report.bound_satisfied else EXIT_NOT_VERIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commeq",
        description="Approximate communication equilibria of finite Bayesian games: "
                    "simulate no-regret dynamics, verify distributions, stress "
                    "learners, and report price-of-anarchy bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run uncoupled no-regret dynamics")
    sim.add_argument("game")
    sim.add_argument("--learner", default="untruthful",
                     choices=["untruthful", "typewise", "strategy-swap"])
    sim.add_argument("-T", type=int, default=1000)
    sim.add_argument("--reward", default="exact", choices=["exact", "sampled"])
    sim.add_argument("--eps", type=float, default=0.1)
    sim.add_argument("--delta", type=float, default=0.05)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--threads", type=int, default=1, metavar="N",
                     help="N threads for --reward sampled, used once an oracle call covers "
                          "dynamics.POOL_MIN_CELLS (type, opponent cell) pairs; same outputs")
    sim.add_argument("--out-dir", default="out")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="audit a distribution against an equilibrium class")
    ver.add_argument("game")
    ver.add_argument("distribution")
    ver.add_argument("--class", dest="klass", default="comm",
                     choices=["comm", "anf-bs", "bne", "coarse-bs", "sfce",
                              "sfcce", "anfcce", "representable"])
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser("representable", help="strategy-representability feasibility")
    rep.add_argument("game")
    rep.add_argument("distribution")
    rep.set_defaults(func=cmd_representable)

    ad = sub.add_parser("adversary", help="lower-bound stress instance experiment")
    ad.add_argument("-B", type=int, default=3)
    ad.add_argument("-T", type=int, default=3000)
    ad.add_argument("--learner", default="untruthful", choices=list(adv.LEARNERS))
    ad.add_argument("--seed", type=int, default=0)
    ad.add_argument("--stream-csv", default=None)
    ad.set_defaults(func=cmd_adversary)

    po = sub.add_parser("poa", help="price-of-anarchy report for a verified distribution")
    po.add_argument("game")
    po.add_argument("distribution")
    po.add_argument("spec")
    po.add_argument("--eps-tol", type=float, default=0.01)
    po.set_defaults(func=cmd_poa)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (SupportTooLarge, EnumerationTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NotAnEquilibrium as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_VERIFIED
    except Exception as exc:  # invariant failures (AuditError, ...) and any bug
        detail = str(exc) if isinstance(exc, CommeqError) else f"{type(exc).__name__}: {exc}"
        print("internal error: " + " ".join(detail.split()), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
