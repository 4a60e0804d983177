"""Conditional-smoothness verification and price-of-anarchy reporting.

Both operations require a product prior and own-type payoffs.  The welfare
bounds proved for exact equilibria degrade gracefully for the approximate
equilibria finite runs produce: each player's incentive constraint is off by
at most the certificate epsilon, which perturbs the welfare chain by at most
n * epsilon, and the asserted ratio subtracts exactly that slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolated, BadInput, NotAnEquilibrium
from .game import BayesianGame, MixtureDistribution, mixture_to_tabular
from .verifier import comm_eq_epsilon

SMOOTHNESS_TOL = 1e-9


@dataclass(frozen=True)
class SmoothnessSpec:
    lam: float
    mu: float
    mode: str                          # "game" | "mechanism"
    deviation: tuple[np.ndarray, ...]  # per player: (*num_types, A_i) action indices

    @staticmethod
    def create(lam: float, mu: float, mode: str, deviation) -> SmoothnessSpec:
        try:
            lam, mu = float(lam), float(mu)
        except (TypeError, ValueError) as exc:
            raise BadInput(f"lambda and mu must be numbers: {exc}") from exc
        if not (0 < lam < math.inf and 0 <= mu < math.inf):    # NaN fails too
            raise BadInput("need finite lambda > 0 and mu >= 0")
        if mode not in ("game", "mechanism"):
            raise BadInput(f"unknown smoothness mode {mode!r}")
        return SmoothnessSpec(lam, mu, mode, tuple(np.asarray(d, dtype=np.int64) for d in deviation))


@dataclass(frozen=True)
class QuasilinearGame:
    """A game whose payoffs split as valuation-of-allocation minus payment.

    ``alloc_values[i]`` has shape (|Theta_i|, *num_actions) and composes the
    valuation with the allocation rule; ``payments[i]`` has shape
    (*num_actions) and never sees types.
    """

    base: BayesianGame
    alloc_values: tuple[np.ndarray, ...]
    payments: tuple[np.ndarray, ...]

    @staticmethod
    def create(base: BayesianGame, alloc_values, payments) -> QuasilinearGame:
        na = base.num_actions
        av = tuple(np.asarray(v, dtype=float).reshape((base.num_types[i],) + na)
                   for i, v in enumerate(alloc_values))
        pay = tuple(np.asarray(p, dtype=float).reshape(na) for p in payments)
        qg = QuasilinearGame(base, av, pay)
        problems = validate_quasilinear(qg)
        if problems:
            raise BadInput("; ".join(problems))
        return qg

    def welfare(self) -> np.ndarray:
        """Allocation welfare sum_i v_i^+(theta_i; f_i(a)) over (Theta..., A...)."""
        return _welfare(self, "mechanism")


def validate_quasilinear(qg: QuasilinearGame) -> list[str]:
    problems = []
    base = qg.base
    if base.payoff_scope != "own-type":
        problems.append("quasilinear games need payoff_scope=own-type")
    for i in range(base.n):
        recomposed = qg.alloc_values[i] - qg.payments[i][None]
        view = _own_type_payoff(base, i)
        gap = float(np.abs(recomposed - view).max())
        if gap > 1e-12:
            problems.append(f"player {i}: v+ - v- misses the payoff tensor by {gap:.3e}")
        if view.min() < -1e-12:
            problems.append(f"player {i}: payoff can go negative (withdrawal violated)")
    return problems


def _own_type_payoff(game: BayesianGame, i: int) -> np.ndarray:
    """v_i as (|Theta_i|, *num_actions), valid under own-type scope."""
    idx = [0] * game.n
    idx[i] = slice(None)
    return game.payoffs[i][tuple(idx)]


def _base(game) -> BayesianGame:
    return game.base if isinstance(game, QuasilinearGame) else game


def _welfare(game, mode: str) -> np.ndarray:
    """sum_i x_i(theta_i; a) over (Theta..., A...), where x_i is the allocation
    value v_i^+ in mechanism mode and the payoff v_i in game mode."""
    base = _base(game)
    n, nt, na = base.n, base.num_types, base.num_actions
    out = np.zeros(nt + na)
    for i in range(n):
        part = game.alloc_values[i] if mode == "mechanism" else _own_type_payoff(base, i)
        shape = [1] * n
        shape[i] = nt[i]
        out += part.reshape(tuple(shape) + na)
    return out


def _require_assumptions(game: BayesianGame) -> None:
    if game.prior.kind != "product":
        raise AssumptionViolated("POA analysis needs a product prior")
    if game.payoff_scope != "own-type":
        raise AssumptionViolated("POA analysis needs own-type payoffs")


@dataclass(frozen=True)
class SmoothnessReport:
    passed: bool
    min_slack: float
    witness: tuple | None          # (theta_profile, action_profile) when failing

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "min_slack": self.min_slack,
                "witness": None if self.witness is None else
                [list(self.witness[0]), list(self.witness[1])]}


def _smoothness_terms(game, deviation, mode: str):
    """The smoothness inequality's terms, checked, as (lhs, against, opt) over
    (Theta..., A...): lhs[theta, a] = sum_i v_i(theta_i; a*_i(theta, a_i), a_-i),
    against is the welfare (game mode) or total payment (mechanism mode) that mu
    multiplies, and opt[theta, .] = max_a' welfare[theta, a'].  Cell (theta, a)
    is smooth when lhs - lambda * opt + mu * against >= 0.
    """
    base = _base(game)
    _require_assumptions(base)
    if mode not in ("game", "mechanism"):
        raise BadInput(f"unknown smoothness mode {mode!r}")
    if mode == "mechanism" and not isinstance(game, QuasilinearGame):
        raise BadInput("mechanism-mode smoothness needs a QuasilinearGame")
    n, nt, na = base.n, base.num_types, base.num_actions
    dev = [np.asarray(d) for d in deviation]
    if len(dev) != n:
        raise BadInput(f"need a deviation map per player, got {len(dev)}")
    for i, d in enumerate(dev):
        if d.shape != nt + (na[i],) or not np.isin(d, np.arange(na[i])).all():
            raise BadInput(f"deviation map of player {i} must have shape {nt + (na[i],)}"
                           f" and entries in [0, {na[i]})")
    grid = np.ix_(*(np.arange(k) for k in nt + na))
    lhs = np.zeros(nt + na)
    for i in range(n):
        act = list(grid[n:])
        act[i] = dev[i].astype(np.int64)[grid[:n] + (grid[n + i],)]
        lhs = lhs + _own_type_payoff(base, i)[(grid[i],) + tuple(act)]
    welfare = _welfare(game, mode)
    against = np.broadcast_to(sum(game.payments), nt + na) if mode == "mechanism" else welfare
    opt = welfare.reshape(nt + (-1,)).max(axis=-1)
    return lhs, against, np.broadcast_to(opt.reshape(nt + (1,) * n), nt + na)


def check_smoothness(game, spec: SmoothnessSpec) -> SmoothnessReport:
    """Full enumeration of the conditional-smoothness inequality over (theta, a)."""
    lhs, against, opt = _smoothness_terms(game, spec.deviation, spec.mode)
    slack = lhs - spec.lam * opt + spec.mu * against
    cell = np.unravel_index(int(np.argmin(slack)), slack.shape)   # first in C order
    min_slack = float(slack[cell])
    passed = min_slack >= -SMOOTHNESS_TOL
    n = slack.ndim // 2
    witness = (tuple(int(x) for x in cell[:n]), tuple(int(x) for x in cell[n:]))
    return SmoothnessReport(passed, min_slack, None if passed else witness)


def smoothness_frontier(game, deviation, mode: str, mu_grid) -> list[dict]:
    """Largest feasible lambda per mu over the same enumeration as
    check_smoothness; reporting convenience only."""
    lhs, against, opt = _smoothness_terms(game, deviation, mode)
    live = opt > 0
    return [{"mu": float(mu), "max_lambda": float(
                ((lhs[live] + float(mu) * against[live]) / opt[live]).min(initial=np.inf))}
            for mu in mu_grid]


@dataclass(frozen=True)
class PoaReport:
    eq_welfare: float
    opt_welfare: float
    ratio: float
    bound: float
    slack: float
    bound_satisfied: bool
    epsilon: float
    mode: str

    def to_json_dict(self) -> dict:
        return {
            "eq_welfare": self.eq_welfare,
            "opt_welfare": self.opt_welfare,
            "ratio": self.ratio,
            "bound": self.bound,
            "slack": self.slack,
            "bound_satisfied": self.bound_satisfied,
            "epsilon": self.epsilon,
            "mode": self.mode,
        }


def poa_report(game, dist, spec: SmoothnessSpec, eps_tol: float = 0.01) -> PoaReport:
    """Welfare ratio of a verified approximate equilibrium against the smooth bound.

    Raises NotAnEquilibrium when the verifier's communication-equilibrium
    epsilon exceeds ``eps_tol``, and refuses smoothness specs that fail
    enumeration.  A zero optimal welfare reports ratio 1 by convention.
    """
    smooth = check_smoothness(game, spec)
    if not smooth.passed:
        raise BadInput(f"smoothness spec fails at {smooth.witness} "
                       f"with slack {smooth.min_slack:.3e}")
    base = _base(game)
    cert = comm_eq_epsilon(base, dist)
    if cert.epsilon > eps_tol:
        raise NotAnEquilibrium(f"measured epsilon {cert.epsilon:.4g} > tolerance {eps_tol:.4g}")

    n, na = base.n, base.num_actions
    welfare = _welfare(game, spec.mode)
    pi = mixture_to_tabular(dist) if isinstance(dist, MixtureDistribution) \
        else np.asarray(dist, dtype=float)
    prior = base.prior.full_table()
    flat_a = int(np.prod(na))
    eq_welfare = float((prior.reshape(-1) *
                        np.einsum("ta,ta->t", pi.reshape(-1, flat_a),
                                  welfare.reshape(-1, flat_a))).sum())
    opt_welfare = float((prior.reshape(-1) * welfare.reshape(-1, flat_a).max(axis=1)).sum())
    ratio = 1.0 if opt_welfare <= 0 else eq_welfare / opt_welfare
    bound = spec.lam / (1.0 + spec.mu) if spec.mode == "game" \
        else spec.lam / max(1.0, spec.mu)
    slack = (n * cert.epsilon / opt_welfare if opt_welfare > 0 else 0.0) + 1e-9
    return PoaReport(eq_welfare, opt_welfare, ratio, bound, slack,
                     ratio >= bound - slack, cert.epsilon, spec.mode)
