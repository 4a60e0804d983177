"""Finite Bayesian games: types, actions, priors, payoffs, and play distributions.

Types and actions are referenced by (player, ordinal) index pairs everywhere;
the string labels only exist at the JSON boundary.  Probability vectors must
sum to one within ``SUM_TOL_INGEST`` when supplied by the user; quantities we
derive are only held to ``SUM_TOL_DERIVED``.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInput, EnumerationTooLarge, SupportTooLarge, ZeroMassType

SUM_TOL_INGEST = 1e-12
SUM_TOL_DERIVED = 1e-9

DEFAULT_STRATEGY_CAP = 10**6

# partial-sum cells expected_rewards holds per block of mixture components (8 MB)
CONTRACT_BLOCK_CELLS = 2**20


def _check_prob_vector(v: np.ndarray, what: str, tol: float = SUM_TOL_INGEST) -> None:
    if not np.isfinite(v).all():
        raise BadInput(f"{what} has a non-finite entry")
    if np.any(v < 0):
        raise BadInput(f"{what} has a negative entry")
    if abs(float(v.sum()) - 1.0) > tol:
        raise BadInput(f"{what} has mass {float(v.sum())!r} != 1")


@dataclass(frozen=True)
class PriorModel:
    """Common prior over type profiles, either a product or an explicit table.

    Marginals and (for tabular priors) all conditionals are precomputed at
    construction; they are queried every round of the dynamics.
    """

    kind: str                      # "product" | "tabular"
    num_types: tuple[int, ...]
    marginals: tuple[np.ndarray, ...]
    table: np.ndarray | None = None            # shape num_types, tabular only
    conditionals: tuple[np.ndarray, ...] = ()  # per player: (|Theta_i|, |Theta_-i|)

    @staticmethod
    def product(rows: list[np.ndarray] | list[list[float]]) -> PriorModel:
        marg = tuple(np.asarray(r, dtype=float) for r in rows)
        for i, m in enumerate(marg):
            if m.ndim != 1 or m.size == 0:
                raise BadInput(f"prior row for player {i} is not a non-empty vector")
            _check_prob_vector(m, f"prior marginal of player {i}")
        num_types = tuple(m.size for m in marg)
        conds = tuple(_product_conditionals(marg, i) for i in range(len(marg)))
        return PriorModel("product", num_types, marg, None, conds)

    @staticmethod
    def tabular(table: np.ndarray, num_types: tuple[int, ...] | None = None) -> PriorModel:
        tab = np.asarray(table, dtype=float)
        if num_types is not None:
            tab = tab.reshape(num_types)
        num_types = tab.shape
        _check_prob_vector(tab.reshape(-1), "tabular prior")
        marg = []
        for i in range(tab.ndim):
            axes = tuple(j for j in range(tab.ndim) if j != i)
            marg.append(tab.sum(axis=axes) if axes else tab.copy())
        conds = tuple(_tabular_conditionals(tab, m, i) for i, m in enumerate(marg))
        return PriorModel("tabular", num_types, tuple(marg), tab, conds)

    @property
    def n(self) -> int:
        return len(self.num_types)

    def conditional_matrix(self, i: int) -> np.ndarray:
        """Rows of rho|theta_i over flattened Theta_{-i}, one per theta_i.

        Zero-mass types get a uniform row so downstream expectations stay
        well defined; their values never reach any prior-weighted quantity.
        """
        return self.conditionals[i]

    def full_table(self) -> np.ndarray:
        if self.table is not None:
            return self.table
        out = np.array(1.0)
        for m in self.marginals:
            out = np.multiply.outer(out, m)
        return out.reshape(self.num_types)


def _product_conditionals(marginals, i) -> np.ndarray:
    others = [m for j, m in enumerate(marginals) if j != i]
    row = np.array([1.0])
    for m in others:
        row = np.multiply.outer(row, m).reshape(-1)
    return np.tile(row, (marginals[i].size, 1))


def _tabular_conditionals(table: np.ndarray, marginal: np.ndarray, i: int) -> np.ndarray:
    moved = np.moveaxis(table, i, 0).reshape(table.shape[i], -1)
    out = np.empty_like(moved)
    for k in range(moved.shape[0]):
        if marginal[k] > 0:
            out[k] = moved[k] / marginal[k]
        else:
            out[k] = 1.0 / moved.shape[1]
    return out


@dataclass(frozen=True)
class BayesianGame:
    """A finite Bayesian game with tabular payoffs in [0, 1].

    ``payoffs[i]`` has shape ``(*num_types, *num_actions)`` with player 1's
    axes outermost.  ``payoff_scope`` is "own-type" when v_i depends on
    theta_i only (required by the POA module) and "full" otherwise.
    """

    n: int
    type_labels: tuple[tuple[str, ...], ...]
    action_labels: tuple[tuple[str, ...], ...]
    prior: PriorModel
    payoffs: tuple[np.ndarray, ...]
    payoff_scope: str = "full"
    _flat_payoffs: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def create(type_labels, action_labels, prior: PriorModel, payoffs,
               payoff_scope: str = "full") -> BayesianGame:
        tl = tuple(tuple(str(x) for x in labels) for labels in type_labels)
        al = tuple(tuple(str(x) for x in labels) for labels in action_labels)
        n = len(tl)
        if len(al) != n or prior.n != n:
            raise BadInput("player counts of types, actions and prior disagree")
        if any(len(x) == 0 for x in tl) or any(len(x) == 0 for x in al):
            raise BadInput("every player needs at least one type and one action")
        shape = tuple(len(x) for x in tl) + tuple(len(x) for x in al)
        ps = tuple(np.asarray(p, dtype=float).reshape(shape) for p in payoffs)
        return BayesianGame(n, tl, al, prior, ps, payoff_scope)

    @property
    def num_types(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.type_labels)

    @property
    def num_actions(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.action_labels)

    def payoff_from_own_view(self, i: int) -> np.ndarray:
        """Payoff of player i reshaped to (|Theta_i|, |A_i|, |Theta_-i|, |A_-i|)."""
        cached = self._flat_payoffs.get(("own-view", i))
        if cached is not None:
            return cached
        nt, na = self.num_types, self.num_actions
        v = np.moveaxis(self.payoffs[i], i, 0)
        v = np.moveaxis(v, self.n + i, self.n)  # action axis of i right after types
        ot = int(np.prod([nt[j] for j in range(self.n) if j != i], initial=1))
        oa = int(np.prod([na[j] for j in range(self.n) if j != i], initial=1))
        out = np.ascontiguousarray(v.reshape(nt[i], ot, na[i], oa).transpose(0, 2, 1, 3))
        # stored as (|Theta_i|, |A_i|, |Theta_-i|, |A_-i|)
        self._flat_payoffs[("own-view", i)] = out
        return out

    def reward_matrix(self, i: int, cap: int | None = None) -> np.ndarray:
        """rho(theta_-i | theta_i) * v_i as a (|Theta_i||A_i|, prod_j!=i |Theta_j||A_j|) matrix.

        Rows are (theta_i, a_i); columns interleave (theta_j, a_j) over the
        opponents in player order, so the opponent weight of a column is the
        Kronecker product of the flattened opponent policies.  The column count
        is checked against ``cap`` before anything is built.
        """
        out = self._flat_payoffs.get(("reward", i))
        others = [j for j in range(self.n) if j != i]
        cells = out.shape[1] if out is not None else math.prod(
            len(self.type_labels[j]) * len(self.action_labels[j]) for j in others)
        if cap is not None and cells > cap:
            raise EnumerationTooLarge(f"{cells} opponent cells exceed cap {cap}")
        if out is None:
            nt, na = self.num_types, self.num_actions
            out = np.ascontiguousarray(self.payoffs[i].transpose(reward_axes(self.n, i)))
            out *= self.prior.conditional_matrix(i).reshape(
                (nt[i], 1) + tuple(d for j in others for d in (nt[j], 1)))
            out = out.reshape(nt[i] * na[i], cells)
            self._flat_payoffs[("reward", i)] = out
        return out


def reward_axes(n: int, i: int) -> list[int]:
    """Axes of a (Theta..., A...) array in reward-matrix order: (theta_i, a_i),
    then (theta_j, a_j) for every opponent j in player order."""
    return [ax for j in [i] + [j for j in range(n) if j != i] for ax in (j, n + j)]


def tabulate_payoff_oracle(fn, num_types, num_actions, n_players: int) -> np.ndarray:
    """Materialize a payoff oracle v(theta; a) into a tensor, clamping float dust.

    Values outside [0,1] by at most 1e-9 are clamped with a warning; anything
    further out is an error.
    """
    shape = tuple(num_types) + tuple(num_actions)
    out = np.empty(shape, dtype=float)
    for idx in np.ndindex(*shape):
        theta, act = idx[:n_players], idx[n_players:]
        out[idx] = fn(theta, act)
    low, high = out.min(), out.max()
    if low < -1e-9 or high > 1 + 1e-9:
        raise BadInput(f"oracle payoff outside [0,1]: range [{low}, {high}]")
    if low < 0 or high > 1:
        warnings.warn("payoff oracle returned values outside [0,1] by <= 1e-9; clamped")
        out = np.clip(out, 0.0, 1.0)
    return out


# ---------------------------------------------------------------------------
# policies and distributions

def uniform_policy(num_types: int, num_actions: int) -> np.ndarray:
    return np.full((num_types, num_actions), 1.0 / num_actions)


def policy_violation(x: np.ndarray, tol: float = SUM_TOL_INGEST) -> float:
    """Largest violation of the type-wise policy invariants (0 when valid, inf
    when an entry is not finite)."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        return np.inf
    neg = max(0.0, float(-x.min(initial=0.0)))
    rows = float(np.abs(x.sum(axis=1) - 1.0).max(initial=0.0))
    return max(neg, rows)


def check_policy(x: np.ndarray, tol: float = SUM_TOL_INGEST, what: str = "policy") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise BadInput(f"{what} must be a (types x actions) matrix")
    v = policy_violation(x, tol)
    if v > tol:
        raise BadInput(f"{what} violates row-stochasticity by {v:.3e}")
    return x


@dataclass(frozen=True)
class MixtureDistribution:
    """Weighted finite mixture of type-wise product policy profiles.

    ``policies[i]`` stacks player i's per-component policy as an array of
    shape (T, |Theta_i|, |A_i|).  Any distribution of this form is
    strategy-representable by construction.
    """

    weights: np.ndarray
    policies: tuple[np.ndarray, ...]

    @staticmethod
    def create(weights, profiles) -> MixtureDistribution:
        """Build from per-component profiles: profiles[t][i] = policy of player i."""
        w = np.asarray(weights, dtype=float)
        _check_prob_vector(w, "mixture weights")
        n = len(profiles[0])
        stacked = []
        for i in range(n):
            arr = np.stack([np.asarray(p[i], dtype=float) for p in profiles])
            for t in range(arr.shape[0]):
                check_policy(arr[t], what=f"component {t} policy of player {i}")
            stacked.append(arr)
        return MixtureDistribution(w, tuple(stacked))

    @staticmethod
    def from_stacked(weights: np.ndarray, policies: list[np.ndarray]) -> MixtureDistribution:
        w = np.asarray(weights, dtype=float)
        _check_prob_vector(w, "mixture weights")
        return MixtureDistribution(w, tuple(np.asarray(p, dtype=float) for p in policies))

    @property
    def n(self) -> int:
        return len(self.policies)

    @property
    def num_components(self) -> int:
        return int(self.weights.size)

    def component(self, t: int) -> list[np.ndarray]:
        return [p[t] for p in self.policies]


def mixture_eval(mix: MixtureDistribution, theta: tuple[int, ...], action: tuple[int, ...]) -> float:
    """pi(theta; a) = sum_t w_t prod_i pi_i^t(theta_i; a_i)."""
    acc = mix.weights.copy()
    for i in range(mix.n):
        acc *= mix.policies[i][:, theta[i], action[i]]
    return float(acc.sum())


def policy_product(lead: np.ndarray, policies) -> np.ndarray:
    """Kronecker product of stacked (C, K_j, M_j) policies onto a (C, R, Q) lead.

    out[c, (r, theta_1, ...), (q, a_1, ...)] = lead[c, r, q] * prod_j p_j[c, theta_j, a_j],
    multiplied in the order the policies are given.
    """
    acc = lead
    for p in policies:
        acc = acc[:, :, None, :, None] * p[:, None, :, None, :]
        acc = acc.reshape(acc.shape[0], acc.shape[1] * acc.shape[2], -1)
    return acc


def expected_rewards(game: BayesianGame, i: int, opponents, cap: int | None = None) -> np.ndarray:
    """Expected reward of each (theta_i, a_i) against stacked opponent policies.

    ``opponents`` holds the (C, K_j, M_j) policies of every j != i in player
    order; the result is (C, K_i, M_i), or (1, K_i, M_i) for a one-player game.
    Opponents are summed out of ``game.reward_matrix(i)`` one at a time, first
    opponent first, so every step reads long contiguous rows and the opponent
    table is never built.  Components go in blocks whose partial sums hold
    about CONTRACT_BLOCK_CELLS cells.
    """
    w = game.reward_matrix(i, cap)
    shape = (len(game.type_labels[i]), len(game.action_labels[i]))
    flat = [np.asarray(p, dtype=float).reshape(len(p), -1) for p in opponents]
    if not flat:
        return w.reshape((1,) + shape)
    rows, comps, first = w.shape[0], flat[0].shape[0], flat[0].shape[1]
    block = max(1, CONTRACT_BLOCK_CELLS * first // w.size)
    out = np.empty((comps, rows))
    for lo in range(0, comps, block):
        acc = flat[0][lo:lo + block] @ w.reshape(rows, first, -1)     # (rows, b, rest)
        for f in flat[1:]:
            fb = f[lo:lo + block, None, :]
            acc = (fb @ acc.reshape(rows, len(fb), fb.shape[2], -1))[:, :, 0]
        out[lo:lo + block] = acc.reshape(rows, -1).T
    return out.reshape((comps,) + shape)


def mixture_to_tabular(mix: MixtureDistribution, cap: int = 10**6) -> np.ndarray:
    """Flatten a mixture to an explicit array over (Theta..., A...)."""
    nt = tuple(p.shape[1] for p in mix.policies)
    na = tuple(p.shape[2] for p in mix.policies)
    cells = int(np.prod(nt)) * int(np.prod(na))
    if cells > cap:
        raise SupportTooLarge(f"tabularization needs {cells} cells > cap {cap}")
    return policy_product(mix.weights.reshape(-1, 1, 1), mix.policies).sum(axis=0).reshape(nt + na)


# ---------------------------------------------------------------------------
# strategy distributions (tiny games only)

def strategy_space_size(num_types, num_actions) -> int:
    size = 1
    for k, m in zip(num_types, num_actions):
        size *= m ** k
    return size


def encode_strategy_profile(s: list[np.ndarray], num_actions) -> int:
    """Mixed-radix index of a strategy profile; player 1's first type is the
    most significant digit."""
    idx = 0
    for i, si in enumerate(s):
        for a in si:
            idx = idx * num_actions[i] + int(a)
    return idx


def decode_strategy_profile(idx, num_types, num_actions) -> list[np.ndarray]:
    """Inverse of encode_strategy_profile: per player, the action of each type.
    An array of N indices decodes to per-player (N, |Theta_i|) action tables."""
    idx = np.asarray(idx, dtype=np.int64)
    digits = []
    for i in reversed(range(len(num_types))):
        row = np.empty(idx.shape + (num_types[i],), dtype=np.int64)
        for k in reversed(range(num_types[i])):
            row[..., k] = idx % num_actions[i]
            idx = idx // num_actions[i]
        digits.append(row)
    return list(reversed(digits))


@dataclass(frozen=True)
class StrategyDistribution:
    """Explicit sigma over the full strategy-profile set S = prod_i A_i^Theta_i."""

    num_types: tuple[int, ...]
    num_actions: tuple[int, ...]
    probs: np.ndarray

    @staticmethod
    def create(num_types, num_actions, probs, cap: int = DEFAULT_STRATEGY_CAP) -> StrategyDistribution:
        num_types = tuple(int(k) for k in num_types)
        num_actions = tuple(int(m) for m in num_actions)
        size = strategy_space_size(num_types, num_actions)
        if size > cap:
            raise SupportTooLarge(f"|S| = {size} exceeds cap {cap}")
        p = np.asarray(probs, dtype=float).reshape(-1)
        if p.size != size:
            raise BadInput(f"sigma has {p.size} entries, |S| = {size}")
        _check_prob_vector(p, "strategy distribution")
        return StrategyDistribution(num_types, num_actions, p)

    @property
    def size(self) -> int:
        return int(self.probs.size)


def strategy_to_mixture(sigma: StrategyDistribution) -> MixtureDistribution:
    """One deterministic product component per support profile, weight sigma(s)."""
    support = np.flatnonzero(sigma.probs)
    rows = decode_strategy_profile(support, sigma.num_types, sigma.num_actions)
    policies = [np.eye(m)[r] for r, m in zip(rows, sigma.num_actions)]
    return MixtureDistribution.from_stacked(sigma.probs[support], policies)


def strategy_table(num_types: int, num_actions: int) -> np.ndarray:
    """All of one player's strategies as an (|S_i|, |Theta_i|) action-index table."""
    rows = itertools.product(range(num_actions), repeat=num_types)
    return np.array(list(rows), dtype=np.int64)


# ---------------------------------------------------------------------------
# operations

def conditional_prior(game: BayesianGame, i: int, theta_i: int) -> np.ndarray:
    """rho | theta_i over flattened Theta_{-i}; errors on zero-mass types."""
    if game.prior.marginals[i][theta_i] <= 0.0:
        raise ZeroMassType(f"player {i} type {theta_i} has zero prior mass")
    return game.prior.conditional_matrix(i)[theta_i].copy()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_game(game: BayesianGame) -> ValidationReport:
    """Report every violated game invariant with coordinates; never raises."""
    bad: list[str] = []
    nt, na = game.num_types, game.num_actions
    for i, p in enumerate(game.payoffs):
        if p.shape != nt + na:
            bad.append(f"payoff tensor of player {i} has shape {p.shape}, want {nt + na}")
            continue
        if not (p.min() >= -SUM_TOL_INGEST and p.max() <= 1 + SUM_TOL_INGEST):  # NaN fails too
            where = np.unravel_index(int(np.argmax(np.maximum(p - 1, -p))), p.shape)
            theta = tuple(int(j) for j in where[:game.n])
            act = tuple(int(j) for j in where[game.n:])
            bad.append(f"payoff out of [0,1] at (i={i}, theta={theta}, a={act})"
                       f" value={float(p[where])!r}")
    prior = game.prior
    if prior.num_types != nt:
        bad.append(f"prior type dims {prior.num_types} != game type dims {nt}")
    if prior.kind == "tabular":
        mass = float(prior.table.sum())
        if abs(mass - 1.0) > SUM_TOL_INGEST:
            bad.append(f"prior mass {mass} != 1")
        # factorization rho(theta) = rho_i(theta_i) * (rho|theta_i)(theta_-i)
        for i in range(game.n):
            cond = prior.conditional_matrix(i)
            moved = np.moveaxis(prior.table, i, 0).reshape(nt[i], -1)
            recon = prior.marginals[i][:, None] * cond
            live = prior.marginals[i] > 0
            if np.abs(recon[live] - moved[live]).max(initial=0.0) > SUM_TOL_INGEST:
                bad.append(f"tabular conditional of player {i} fails factorization")
    else:
        for i, m in enumerate(prior.marginals):
            s = float(m.sum())
            if abs(s - 1.0) > SUM_TOL_INGEST:
                bad.append(f"prior marginal of player {i} has mass {s} != 1")
    if game.payoff_scope == "own-type":
        for i in range(game.n):
            v = game.payoff_from_own_view(i)  # (|T_i|, |A_i|, |T_-i|, |A_-i|)
            spread = float((v.max(axis=2) - v.min(axis=2)).max(initial=0.0))
            if spread > SUM_TOL_INGEST:
                bad.append(f"payoff_scope=own-type but v_{i} varies with theta_-i by {spread:.3e}")
    elif game.payoff_scope != "full":
        bad.append(f"unknown payoff_scope {game.payoff_scope!r}")
    return ValidationReport(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# JSON boundary

def game_to_json_dict(game: BayesianGame) -> dict:
    prior = game.prior
    if prior.kind == "product":
        pj = {"kind": "product", "rows": [m.tolist() for m in prior.marginals]}
    else:
        pj = {"kind": "tabular", "table": prior.table.reshape(-1).tolist()}
    return {
        "players": game.n,
        "types": [list(t) for t in game.type_labels],
        "actions": [list(a) for a in game.action_labels],
        "prior": pj,
        "payoffs": [p.reshape(-1).tolist() for p in game.payoffs],
        "payoff_scope": game.payoff_scope,
    }


def game_from_json_dict(doc: dict) -> BayesianGame:
    try:
        n = int(doc["players"])
        types = doc["types"]
        actions = doc["actions"]
        prior_doc = doc["prior"]
        payoffs = doc["payoffs"]
        scope = doc.get("payoff_scope", "full")
    except (KeyError, TypeError) as exc:
        raise BadInput(f"game file missing field: {exc}") from exc
    if len(types) != n or len(actions) != n or len(payoffs) != n:
        raise BadInput("game file: per-player lists disagree with player count")
    num_types = tuple(len(t) for t in types)
    if prior_doc.get("kind") == "product":
        prior = PriorModel.product(prior_doc["rows"])
    elif prior_doc.get("kind") == "tabular":
        prior = PriorModel.tabular(np.asarray(prior_doc["table"], dtype=float), num_types)
    else:
        raise BadInput(f"unknown prior kind {prior_doc.get('kind')!r}")
    return BayesianGame.create(types, actions, prior, payoffs, scope)


def load_game(path: str) -> BayesianGame:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BadInput(f"cannot read game file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadInput(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return game_from_json_dict(doc)


def save_game(game: BayesianGame, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_json_dict(game), fh, sort_keys=True)
        fh.write("\n")
