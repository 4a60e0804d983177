"""Seeded inputs for the benchmark workloads.

Every input is a function of the workload seed: the same seed writes the same
bytes.  Run as a script, this module is one set-up repetition: it imports
commeq, writes the workload's inputs into a directory and, for the audit,
simulates the auction equilibrium the audit verifies.

    python3 perfbench/inputs.py --workload audit --seed 3 --dest .perfbench_work/audit/setup0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = "fixtures"            # relative to the checkout root

# The many-player game: 6 players, 2 types and 4 actions each, so every
# player faces (2 * 4) ** 5 = 32 768 opponent cells.
MANY_PLAYERS = 6
MANY_TYPES = 2
MANY_ACTIONS = 4
AUDIT_MIXTURE_COMPONENTS = 200
AUDIT_AUCTION_T = 2000


def import_commeq():
    """Import commeq from this checkout's ``src``, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "commeq", "cli.py")):
        raise SystemExit(f"perfbench: no commeq sources under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import commeq.cli
    if not os.path.abspath(commeq.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported commeq from {commeq.cli.__file__}, not {src}")
    return commeq.cli


def manyplayer_game_doc(seed: int) -> dict:
    """A uniform-payoff game with full scope and a product prior, relabelled by the seed.

    The payoffs and prior are drawn once from a fixed key; the seed permutes
    the player order and every player's type and action orders.  Each seed
    thus writes a different file holding the same game up to names, so the
    oracle work per round is alike across seeds and so is the certified eps
    (independent random games gave certificates spreading by about 40% of
    their median across seeds).
    """
    n, k, m = MANY_PLAYERS, MANY_TYPES, MANY_ACTIONS
    base = np.random.default_rng([0, 1])
    rows = [r / r.sum() for r in base.uniform(0.5, 1.5, size=(n, k))]
    payoffs = [base.random((k,) * n + (m,) * n) for _ in range(n)]
    rng = np.random.default_rng([seed, 1])
    players = rng.permutation(n)            # new player j is base player players[j]
    types = [rng.permutation(k) for _ in range(n)]
    actions = [rng.permutation(m) for _ in range(n)]
    relabelled = []
    for j in range(n):
        v = payoffs[players[j]].transpose(list(players) + [n + p for p in players])
        for q in range(n):
            v = np.take(np.take(v, types[q], axis=q), actions[q], axis=n + q)
        relabelled.append(v.reshape(-1).tolist())
    return {
        "players": n,
        "types": [[f"t{i}{j}" for j in range(k)] for i in range(n)],
        "actions": [[f"a{i}{j}" for j in range(m)] for i in range(n)],
        "prior": {"kind": "product", "rows": [rows[players[j]][types[j]].tolist()
                                              for j in range(n)]},
        "payoffs": relabelled,
        "payoff_scope": "full",
    }


def mixture_doc(seed: int, components: int = AUDIT_MIXTURE_COMPONENTS) -> dict:
    """A random mixture of product profiles over the many-player game."""
    rng = np.random.default_rng([seed, 2])
    w = rng.uniform(0.5, 1.5, size=components)
    policies = []
    for _ in range(MANY_PLAYERS):
        p = rng.uniform(0.05, 1.0, size=(components, MANY_TYPES, MANY_ACTIONS))
        policies.append((p / p.sum(axis=2, keepdims=True)).tolist())
    return {"kind": "mixture", "weights": (w / w.sum()).tolist(), "policies": policies}


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def make_inputs(workload: str, seed: int, dest: str) -> None:
    """Write the inputs ``workload`` reads into ``dest``."""
    cli = import_commeq()
    os.makedirs(dest, exist_ok=True)
    if workload in ("manyplayer-exact", "audit"):
        write_json(os.path.join(dest, "game.json"), manyplayer_game_doc(seed))
    if workload == "audit":
        write_json(os.path.join(dest, "mixture.json"), mixture_doc(seed))
        argv = ["simulate", os.path.join(FIXTURES, "first_price_auction.json"),
                "-T", str(AUDIT_AUCTION_T), "--seed", str(seed),
                "--out-dir", os.path.join(dest, "auction")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"perfbench: set-up simulate exited {code}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dest", required=True)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    make_inputs(args.workload, args.seed, args.dest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
