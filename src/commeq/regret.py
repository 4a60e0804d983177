"""Exact post-hoc regret accounting from cumulative cross tensors.

The ledger stores C[theta, theta', a, a'] = sum_t rho(theta) u^t(theta, a)
x^t(theta', a'), from which every regret notion is an exact polynomial
reduction: the maxima over the doubly-exponential deviation sets decompose
per true type (and per recommended action), so no deviation is ever
materialized.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AuditError, BadInput, SupportTooLarge
from .game import DEFAULT_LP_CAP, decode_strategy_profile, prior_rows

NEGATIVE_REGRET_TOL = 1e-9
EPS = float(np.finfo(float).eps)
TIE_ULPS = 8
LEDGER_BLOCK_CELLS = 2**16       # cross cells in the rows of one accumulate block


class RegretLedger:
    """Cumulative cross tensors for one player; single-owner while accumulating.

    A stacked ledger holds B players' or runs' ledgers of equal (K, M) at
    once: ``rho`` is (B, K), ``cross`` (B, K, K, M, M) and ``alg_reward`` a
    (B,) array, and every regret below returns one value per entry.

    ``cross`` is a view of ``store``, which holds the tensor as (..., theta,
    a, theta', a'): a round's term is then one outer product of u(theta, a)
    and x(theta', a') over rows of length K M, and a reduction over the view
    walks memory, and so adds, in the same order as over a C-order ``cross``.
    """

    def __init__(self, rho: np.ndarray, cross: np.ndarray,
                 alg_reward: float | np.ndarray = 0.0, rounds: int = 0):
        self.rho = rho
        self.cross = cross
        self.alg_reward = alg_reward
        self.rounds = rounds

    @property
    def cross(self) -> np.ndarray:
        """C[..., theta, theta', a, a'], a view of ``store``."""
        return self.store.swapaxes(-3, -2)

    @cross.setter
    def cross(self, value) -> None:
        self.store = np.asarray(value, dtype=float).swapaxes(-3, -2)

    @staticmethod
    def create(prior_row, num_actions: int) -> RegretLedger:
        """One ledger for a (K,) prior row, a stacked one for (B, K) rows."""
        rho = prior_rows(prior_row)
        k, m = rho.shape[-1], int(num_actions)
        alg = np.zeros(rho.shape[:-1]) if rho.ndim > 1 else 0.0
        store = np.zeros(rho.shape[:-1] + (k, m, k, m))
        return RegretLedger(rho, store.swapaxes(-3, -2), alg)

    def copy(self) -> RegretLedger:
        alg = self.alg_reward.copy() if self.rho.ndim > 1 else self.alg_reward
        return RegretLedger(self.rho.copy(), self.store.copy().swapaxes(-3, -2), alg,
                            self.rounds)

    def entries(self) -> list[RegretLedger]:
        """The per-entry ledgers of a stacked ledger; each shares its cross tensor."""
        return [RegretLedger(row, cross, float(alg), self.rounds)
                for row, cross, alg in zip(self.rho, self.cross, self.alg_reward)]


def accumulate(ledger: RegretLedger, x_t: np.ndarray, u_t: np.ndarray) -> RegretLedger:
    """Fold one round's policy and reward ((B, K, M) when stacked), or a block
    of them on a leading axis, into the ledger's own arrays; return the ledger
    after each round, stacked on that axis with per-row round counts, each row
    bit for bit what adding one round at a time leaves."""
    shape = ledger.rho.shape + (ledger.store.shape[-1],)
    x, u = np.asarray(x_t, dtype=float), np.asarray(u_t, dtype=float)
    xs, us = (x[None], u[None]) if x.shape == shape else (x, u)
    if xs.shape[1:] != shape or us.shape != xs.shape or len(xs) == 0:
        raise BadInput(f"policy and reward must both have shape {shape}, or stack it")
    ubar = ledger.rho[..., None] * us
    rows = ubar[..., :, :, None, None] * xs[..., None, None, :, :]
    gains = (xs * ubar).sum(axis=(-2, -1))
    rows[0] += ledger.store
    gains[0] += ledger.alg_reward
    for r in range(1, len(rows)):   # as np.cumsum adds, but a vector add per row:
        rows[r] += rows[r - 1]      # cumsum down axis 0 takes ~4 ns a cell
    np.cumsum(gains, axis=0, out=gains)
    ledger.store[...] = rows[-1]
    if ledger.rho.ndim > 1:
        ledger.alg_reward[...] = gains[-1]
    else:
        ledger.alg_reward = float(gains[-1])
    rounds = ledger.rounds + np.arange(1, len(xs) + 1)
    ledger.rounds = int(rounds[-1])
    return RegretLedger(np.broadcast_to(ledger.rho, (len(xs),) + ledger.rho.shape),
                        rows.swapaxes(-3, -2), gains,
                        rounds.reshape((-1,) + (1,) * (ledger.rho.ndim - 1)))


def block_rounds(*ledgers: RegretLedger) -> int:
    """Rounds per accumulate block: at least one, and as many as keep every
    ledger's rows within LEDGER_BLOCK_CELLS cross cells."""
    return max(1, LEDGER_BLOCK_CELLS // max(ledger.store.size for ledger in ledgers))


def _drift(rounds, cells: int, scale):
    """Float drift of a difference of two sums of nonnegative terms, accumulated
    over ``rounds`` rounds into ``cells`` entries no larger than ``scale``.

    Recursive summation of n nonnegative terms is off by at most about
    n * eps/2 of its value (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4); a regret is negative only when its first sum is below
    the second, so both are at most ``scale`` there.
    """
    return (rounds + cells) * EPS * scale


def _ledger_drift(ledger: RegretLedger):
    """_drift per ledger entry: its rounds, its cells and its largest cumulative entry."""
    cells = ledger.store.reshape(ledger.rho.shape[:-1] + (-1,))
    scale = np.maximum(np.abs(ledger.alg_reward), np.abs(cells).max(axis=-1, initial=0.0))
    return _drift(ledger.rounds, math.prod(ledger.cross.shape[-4:]), scale)


def _checked(value, what: str, drift):
    """Reject a value below -max(NEGATIVE_REGRET_TOL, drift()), entry by entry
    when ``value`` is an array; ``drift`` is only called when some value is
    below -NEGATIVE_REGRET_TOL."""
    low = value < -NEGATIVE_REGRET_TOL
    if np.any(low) and np.any(low & (value < -drift())):
        raise AuditError(f"{what} is {np.min(value):.3e} < 0; "
                         "the identity deviation forbids this")
    return value


def _per_entry(value):
    """A float for one ledger, the (B,) array for a stacked one."""
    return value if isinstance(value, np.ndarray) else float(value)


def untruthful_regret(ledger: RegretLedger) -> float | np.ndarray:
    """Exact max over all (type misreport, action swap) pairs, by decomposition."""
    per_report = ledger.cross.max(axis=-2).sum(axis=-1)   # (K true, K reported)
    value = _per_entry(per_report.max(axis=-1).sum(axis=-1) - ledger.alg_reward)
    return _checked(value, "untruthful swap regret", lambda: _ledger_drift(ledger))


def typewise_regret(ledger: RegretLedger) -> float | np.ndarray:
    """Action swaps only (truthful reporting)."""
    diag = np.einsum("...iiab->...iab", ledger.cross)
    value = _per_entry(diag.max(axis=-2).sum(axis=(-2, -1)) - ledger.alg_reward)
    return _checked(value, "type-wise swap regret", lambda: _ledger_drift(ledger))


def external_regret(ledger: RegretLedger) -> float | np.ndarray:
    """Best fixed action per type.

    Unlike the swap families, the comparator class here does not contain the
    algorithm's own randomized play, so small negative values are legitimate
    and returned as-is.
    """
    diag = np.einsum("...iiab->...iab", ledger.cross)
    return _per_entry(diag.sum(axis=-1).max(axis=-1).sum(axis=-1) - ledger.alg_reward)


def first_near_max(values: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    """Along the last axis, the lowest index whose value is at least the
    maximum minus TIE_ULPS ulps of the largest ``magnitude`` (the summed
    absolute terms behind each value) on that axis.  A plain argmax flips
    between entries that tie up to float dust whenever a summation order
    changes."""
    slack = TIE_ULPS * EPS * magnitude.max(axis=-1, keepdims=True)
    return (values >= values.max(axis=-1, keepdims=True) - slack).argmax(axis=-1)


def untruthful_witness(ledger: RegretLedger) -> tuple[np.ndarray, np.ndarray, float]:
    """An argmax deviation (psi, phi) achieving the untruthful swap regret,
    up to float dust.

    Reports and actions both break ties toward the lowest ordinal within
    float dust (``first_near_max``).  A run's cross entries are sums of
    nonnegative terms, so each is its own magnitude; the absolute values only
    matter for a verifier ledger built from a distribution with negative dust.
    """
    best = ledger.cross.max(axis=2)                      # (K, K', M_a')
    per_report = best.sum(axis=2)                        # (K, K')
    psi = first_near_max(per_report, np.abs(best).sum(axis=2))
    k = psi.size
    chosen = ledger.cross[np.arange(k), psi].transpose(0, 2, 1)     # (K, M_a', M_a)
    phi = first_near_max(chosen, np.abs(chosen))
    value = float(per_report.max(axis=1).sum()) - ledger.alg_reward
    return psi, phi, value


def strategy_regret(sigmas, rewards, prior_row) -> float:
    """Exact strategy swap regret of a played trace of strategy distributions.

    ``sigmas`` is (T, |S|) over the mixed-radix strategy set, ``rewards`` is
    (T, K, M).  The max over all strategy swaps decomposes per (recommended
    strategy, type), so it costs |S| K M, not |S|^|S|.
    """
    sig = np.asarray(sigmas, dtype=float)
    u = np.asarray(rewards, dtype=float)
    rho = np.asarray(prior_row, dtype=float)
    t, s = sig.shape
    k, m = u.shape[1], u.shape[2]
    if s > DEFAULT_LP_CAP:
        raise SupportTooLarge(f"|S| = {s} exceeds cap {DEFAULT_LP_CAP}")
    if u.shape[0] != t or m ** k != s or rho.size != k:
        raise BadInput("trace shapes disagree")
    table = decode_strategy_profile(np.arange(s), (k,), (m,))[0]
    cum = np.einsum("ts,tka->ska", sig, u)
    deviation = float((rho[None, :] * cum.max(axis=2)).sum())
    played = u[:, np.arange(k)[None, :], table]         # (T, S, K)
    achieved = float(np.einsum("ts,k,tsk->", sig, rho, played))
    return _checked(deviation - achieved, "strategy swap regret",
                    lambda: _drift(t, cum.size, max(abs(deviation), abs(achieved))))


def untruthful_bound(t, num_types: int, num_actions: int) -> float | np.ndarray:
    """The proved worst-case growth of the untruthful-swap learner's regret,
    with natural-log constants, at a horizon ``t`` or an array of them."""
    k, m, t = num_types, num_actions, np.asarray(t)
    term_actions = 6.0 * np.sqrt(t * m * math.log(m)) + 2.0 * m * math.log(m)
    return _per_entry(np.sqrt(0.5 * t * math.log(k)) + term_actions)
