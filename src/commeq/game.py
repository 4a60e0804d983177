"""Finite Bayesian games: types, actions, priors, payoffs, and play distributions.

Types and actions are referenced by (player, ordinal) index pairs everywhere;
the string labels only exist at the JSON boundary.  Probability vectors must
sum to one within ``SUM_TOL_INGEST`` when supplied by the user; quantities we
derive are only held to ``SUM_TOL_DERIVED``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInput, EnumerationTooLarge, SupportTooLarge

SUM_TOL_INGEST = 1e-12
SUM_TOL_DERIVED = 1e-9

DEFAULT_STRATEGY_CAP = 10**6
# opponent (theta_j, a_j) cells of one reward matrix, checked by reward_matrix
DEFAULT_ENUMERATION_CAP = 10**7
# strategies an explicit strategy-set computation enumerates: |S| of the
# strategy classes and strategy regret, and the representability LP's columns
DEFAULT_LP_CAP = 10**4

# cells of the explicit (Theta..., A...) array mixture_to_tabular builds
TABULAR_CAP = 10**6

# partial-sum cells held per block of mixture components (8 MB)
CONTRACT_BLOCK_CELLS = 2**20


def _check_prob_vector(v: np.ndarray, what: str) -> None:
    if not np.isfinite(v).all():
        raise BadInput(f"{what} has a non-finite entry")
    if np.any(v < 0):
        raise BadInput(f"{what} has a negative entry")
    if abs(float(v.sum()) - 1.0) > SUM_TOL_INGEST:
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

        A zero-mass type's row is still a distribution (the others' marginals
        under a product prior, uniform under a tabular one), so downstream
        expectations stay well defined; its values never reach any
        prior-weighted quantity.
        """
        return self.conditionals[i]

    def full_table(self) -> np.ndarray:
        if self.table is not None:
            return self.table
        return policy_product(np.ones((1, 1, 1)),
                              [m[None, :, None] for m in self.marginals]).reshape(self.num_types)


def _product_conditionals(marginals, i) -> np.ndarray:
    """One row per type of player i: the product of the other marginals."""
    return policy_product(np.ones((1, marginals[i].size, 1)),
                          [m[None, :, None] for j, m in enumerate(marginals) if j != i]
                          ).reshape(marginals[i].size, -1)


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
        if n == 0:
            raise BadInput("a game needs at least one player")
        if len(al) != n or prior.n != n or len(payoffs) != n:
            raise BadInput("player counts of types, actions, prior and payoffs disagree")
        if any(len(x) == 0 for x in tl) or any(len(x) == 0 for x in al):
            raise BadInput("every player needs at least one type and one action")
        shape = tuple(len(x) for x in tl) + tuple(len(x) for x in al)
        try:
            ps = tuple(np.asarray(p, dtype=float).reshape(shape) for p in payoffs)
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadInput(f"each payoff table must hold {math.prod(shape)} numbers: {exc}") from exc
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

    def reward_matrix(self, i: int) -> np.ndarray:
        """rho(theta_-i | theta_i) * v_i as a (|Theta_i||A_i|, prod_j!=i |Theta_j||A_j|) matrix.

        Rows are (theta_i, a_i); columns interleave (theta_j, a_j) over the
        opponents in player order, so the opponent weight of a column is the
        Kronecker product of the flattened opponent policies.  The column count
        is checked against DEFAULT_ENUMERATION_CAP before anything is built.
        """
        out = self._flat_payoffs.get(("reward", i))
        others = [j for j in range(self.n) if j != i]
        cells = out.shape[1] if out is not None else math.prod(
            len(self.type_labels[j]) * len(self.action_labels[j]) for j in others)
        if cells > DEFAULT_ENUMERATION_CAP:
            raise EnumerationTooLarge(
                f"{cells} opponent cells exceed cap {DEFAULT_ENUMERATION_CAP}")
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


# ---------------------------------------------------------------------------
# policies and distributions

def uniform_policy(num_types: int, num_actions: int) -> np.ndarray:
    return np.full((num_types, num_actions), 1.0 / num_actions)


def prior_rows(prior_row) -> np.ndarray:
    """A (K,) prior row or a (B, K) stack of them, as floats; rejects empty,
    non-finite and negative rows."""
    rho = np.asarray(prior_row, dtype=float)
    if rho.ndim not in (1, 2) or rho.size == 0 \
            or not (np.isfinite(rho).all() and (rho >= 0).all()):
        raise BadInput("prior row must be a non-empty, finite, non-negative vector"
                       " or a stack of them")
    return rho


def policy_violation(x: np.ndarray) -> float:
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
    v = policy_violation(x)
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


def expected_rewards(game: BayesianGame, i: int, opponents) -> np.ndarray:
    """Expected reward of each (theta_i, a_i) against stacked opponent policies.

    ``opponents`` holds the (C, K_j, M_j) policies of every j != i in player
    order; the result is (C, K_i, M_i), or (1, K_i, M_i) for a one-player game.
    Opponents are summed out of ``game.reward_matrix(i)`` one at a time, first
    opponent first, so every step reads long contiguous rows and the opponent
    table is never built.  Components go in blocks whose partial sums hold
    about CONTRACT_BLOCK_CELLS cells.
    """
    w = game.reward_matrix(i)
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


def mixture_to_tabular(mix: MixtureDistribution) -> np.ndarray:
    """Flatten a mixture to an explicit array over (Theta..., A...)."""
    nt = tuple(p.shape[1] for p in mix.policies)
    na = tuple(p.shape[2] for p in mix.policies)
    cells = int(np.prod(nt)) * int(np.prod(na))
    if cells > TABULAR_CAP:
        raise SupportTooLarge(f"tabularization needs {cells} cells > cap {TABULAR_CAP}")
    block = max(1, CONTRACT_BLOCK_CELLS // cells)
    for lo in range(0, mix.num_components, block):
        part = policy_product(mix.weights[lo:lo + block].reshape(-1, 1, 1),
                              [p[lo:lo + block] for p in mix.policies])
        if lo:                      # each block's sum starts from the sum so
            part[0] += total        # far, so components add as in one sum
        total = part.sum(axis=0)
    return total.reshape(nt + na)


# ---------------------------------------------------------------------------
# strategy distributions (tiny games only)

def strategy_space_size(num_types, num_actions) -> int:
    size = 1
    for k, m in zip(num_types, num_actions):
        size *= m ** k
    return size


def strategy_space_size_under(num_types, num_actions, cap: int) -> int:
    """strategy_space_size, or SupportTooLarge once the product passes ``cap``.
    A factor |A_i|^|Theta_i| that alone must pass the cap is never multiplied
    out, so a huge space costs no huge integer (past 4300 digits Python will
    not even print one)."""
    size = 1
    for k, m in zip(num_types, num_actions):
        if abs(m) > 1 and k >= int(cap).bit_length():      # |m|^k >= 2^k > cap
            size = cap + 1
        else:
            size *= m ** k
        if size > cap:
            raise SupportTooLarge(f"|S| exceeds cap {cap}")
    return size


def decode_strategy_profile(idx, num_types, num_actions) -> list[np.ndarray]:
    """Per player, the action of each type in the strategy profile at mixed-radix
    index ``idx``; player 1's first type is the most significant digit.  An
    array of N indices decodes to per-player (N, |Theta_i|) action tables."""
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
    def create(num_types, num_actions, probs) -> StrategyDistribution:
        num_types = tuple(int(k) for k in num_types)
        num_actions = tuple(int(m) for m in num_actions)
        size = strategy_space_size_under(num_types, num_actions, DEFAULT_STRATEGY_CAP)
        p = np.asarray(probs, dtype=float).reshape(-1)
        if p.size != size:
            raise BadInput(f"sigma has {p.size} entries, |S| = {size}")
        _check_prob_vector(p, "strategy distribution")
        return StrategyDistribution(num_types, num_actions, p)

    @property
    def size(self) -> int:
        return int(self.probs.size)


# ---------------------------------------------------------------------------
# operations

@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_game(game: BayesianGame) -> ValidationReport:
    """Report every violated game invariant with coordinates; never raises."""
    bad: list[str] = []
    reported: set[int] = set()          # players with payoffs out of [0, 1]
    nt, na = game.num_types, game.num_actions
    for i, p in enumerate(game.payoffs):
        if p.shape != nt + na:
            bad.append(f"payoff tensor of player {i} has shape {p.shape}, want {nt + na}")
            continue
        if not (p.min() >= -SUM_TOL_INGEST and p.max() <= 1 + SUM_TOL_INGEST):  # NaN fails too
            reported.add(i)
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
            if i in reported:           # inf - inf in the spread would warn
                continue
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
        n, types, actions, prior_doc, payoffs = (
            doc[key] for key in ("players", "types", "actions", "prior", "payoffs"))
    except (KeyError, TypeError) as exc:
        raise BadInput(f"game file missing field: {exc}") from exc
    if not (type(n) is int and isinstance(types, list) and isinstance(actions, list)
            and len(types) == n and all(isinstance(x, list) for x in types + actions)
            and isinstance(payoffs, list)):
        raise BadInput("game file: players is an integer, types and actions hold one"
                       " list of labels per player, and payoffs is a list")
    kind = prior_doc.get("kind") if isinstance(prior_doc, dict) else None
    try:
        if kind == "product" and isinstance(prior_doc.get("rows"), list):
            prior = PriorModel.product(prior_doc["rows"])
        elif kind == "tabular":
            prior = PriorModel.tabular(np.asarray(prior_doc["table"], dtype=float),
                                       tuple(len(t) for t in types))
        else:
            raise BadInput("game file: the prior is a product one with a list of rows"
                           " or a tabular one with a table")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadInput(f"game file: prior does not fit the types: {exc!r}") from exc
    return BayesianGame.create(types, actions, prior, payoffs, doc.get("payoff_scope", "full"))


def open_output(path: str):
    """``path`` opened for writing text; a path that cannot be written is bad input."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise BadInput(f"cannot write {path}: {exc}") from exc


_SCAN = json.JSONDecoder().scan_once        # the stdlib's C scanner, as json.loads runs it
_WS = json.decoder.WHITESPACE.match
_READ_CHUNK = 2**20                         # characters load_json reads at a time


class _Window:
    """The text of an open file that has been read but not yet consumed.

    ``text`` starts where the consumed text ends; reading appends to it and
    ``drop`` consumes from its front.  A payoff table is read a chunk at a
    time; any other value is scanned once the window holds all of it, the
    window growing by as much again as it holds, so the text handed to the
    scanner stays linear in the file size."""

    def __init__(self, fh):
        self.fh, self.eof = fh, False
        # a file shorter than a chunk is read, and found to end, in one call
        # (a pipe's size reads 0, and its later reads take whole chunks)
        self.text = self._read(min(os.fstat(fh.fileno()).st_size + 1, _READ_CHUNK))

    def _read(self, size: int) -> str:
        more = self.fh.read(size)
        self.eof = len(more) < size
        return more

    def grow(self) -> None:
        """Read as much again as the window holds, and at least a chunk."""
        self.text += self._read(max(len(self.text), _READ_CHUNK))

    def drop(self, end: int) -> None:
        self.text = self.text[end:]

    def skip_ws(self, pos: int) -> int:
        """The first index at or after ``pos`` that is not whitespace, reading
        on as needed; len(text) at the end of the file."""
        pos = _WS(self.text, pos).end()
        while pos == len(self.text) and not self.eof:
            self.grow()
            pos = _WS(self.text, pos).end()
        return pos

    def value(self, pos: int):
        """(value, end) of the JSON value at ``pos``, scanned once the window
        holds all of it.  A failed scan of a container or string means that
        its closing character lies past the window, so the next scan waits
        for one; a number such as 1.5 may still run on as 1.5e3."""
        close = {"[": "]", "{": "}", '"': '"'}.get(self.text[pos:pos + 1])
        while True:
            held = len(self.text)
            try:
                value, end = _SCAN(self.text, pos)
                if close or self.eof or self.text[end:end + 1] not in ("", ".", "e", "E"):
                    return value, end
            except (ValueError, StopIteration):
                if self.eof:
                    raise
            self.grow()
            while close and not self.eof and self.text.find(close, held) < 0:
                self.grow()

    def table_end(self, pos: int) -> int | None:
        """The end of the array that starts at ``pos``: where the bracket depth
        returns to zero, the window reading a chunk at a time until it holds
        it.  None if a '"' lies in the array or the file ends in it."""
        pieces, piece, j, depth, end = [], self.text, pos, 0, None
        while True:
            k = piece.find("]", j)
            stop = len(piece) if k < 0 else k
            if piece.find('"', j, stop) >= 0:
                break
            depth += piece.count("[", j, stop)
            if k >= 0:
                depth, j = depth - 1, k + 1
                if depth == 0:
                    end = sum(map(len, pieces)) + j
                    break
            elif self.eof:
                break
            else:
                pieces.append(piece)
                piece, j = self._read(_READ_CHUNK), 0
        if pieces:
            pieces.append(piece)
            self.text = "".join(pieces)
        return end


def _as_table(table):
    """A payoff table as the float array BayesianGame.create makes of it; a
    table that does not convert stays as parsed."""
    try:
        return np.asarray(table, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return table


def _scan_tables(w: _Window) -> tuple[list, int]:
    """The elements of the top-level ``payoffs`` array that opens the window,
    each turned into a float array before the next one is read, and the index
    just past the array."""
    tables = []
    pos = w.skip_ws(1)
    if w.text[pos:pos + 1] == "]":
        return tables, pos + 1
    pos, sep = 0, ","
    while sep == ",":
        w.drop(pos + 1)
        pos = w.skip_ws(0)
        end = w.table_end(pos) if w.text[pos:pos + 1] == "[" else None
        if end is None:
            table, end = w.value(pos)
        else:
            table = _SCAN(w.text, pos)[0]
        w.drop(end)
        tables.append(_as_table(table))
        del table                   # the list goes before the next table is read
        pos = w.skip_ws(0)
        sep = w.text[pos:pos + 1]
    if sep != "]":
        raise ValueError("not an array")
    return tables, pos + 1


def _scan_document(fh) -> dict:
    """The top-level JSON object in the text file ``fh``, parsed like
    json.loads but for the ``payoffs`` array, whose tables are read and
    scanned one at a time.  Anything else raises ValueError or StopIteration."""
    w = _Window(fh)
    pairs = []
    pos = w.skip_ws(0)
    if w.text[pos:pos + 1] != "{":
        raise ValueError("not an object")
    sep = ","
    while sep == ",":
        w.drop(pos + 1)
        pos = w.skip_ws(0)
        if w.text[pos:pos + 1] != '"':
            raise ValueError("not a plain object")
        key, pos = w.value(pos)
        pos = w.skip_ws(pos)
        if w.text[pos:pos + 1] != ":":
            raise ValueError("no ':' after a key")
        pos = w.skip_ws(pos + 1)
        if key == "payoffs" and w.text[pos:pos + 1] == "[":
            w.drop(pos)
            value, pos = _scan_tables(w)
        else:
            value, pos = w.value(pos)
        pairs.append((key, value))
        pos = w.skip_ws(pos)
        sep = w.text[pos:pos + 1]
    if sep != "}" or w.skip_ws(pos + 1) != len(w.text):
        raise ValueError("not a single object")
    return dict(pairs)


def load_json(path: str):
    """The JSON document in the file at ``path``, as json.loads gives it, except
    that the tables of a top-level ``payoffs`` array arrive as float arrays.
    The file is read through a moving window, so ingest holds one table's
    text, its Python floats and the arrays built so far; a document the window
    cannot take is read whole and goes to json.loads."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _scan_document(fh)
    except (OSError, ValueError, StopIteration, RecursionError):
        pass                # out of the handler, so the partial tables are freed
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise BadInput(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise BadInput(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadInput(f"{path}: malformed JSON at line {exc.lineno} "
                       f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past Python's 4300-digit limit, or nesting too deep
        raise BadInput(f"{path}: {exc}") from exc


def load_game(path: str) -> BayesianGame:
    return game_from_json_dict(load_json(path))


def save_game(game: BayesianGame, path: str) -> None:
    # json.dumps runs the C encoder; json.dump to a file writes the same bytes
    # through the pure-Python one
    with open_output(path) as fh:
        fh.write(json.dumps(game_to_json_dict(game), sort_keys=True))
        fh.write("\n")
