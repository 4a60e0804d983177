"""Exact post-hoc regret accounting from cumulative cross tensors.

The ledger stores C[theta, theta', a, a'] = sum_t rho(theta) u^t(theta, a)
x^t(theta', a'), from which every regret notion is an exact polynomial
reduction: the maxima over the doubly-exponential deviation sets decompose
per true type (and per recommended action), so no deviation is ever
materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AuditError, BadInput, SupportTooLarge

NEGATIVE_REGRET_TOL = 1e-9
EPS = float(np.finfo(float).eps)


@dataclass
class RegretLedger:
    """Cumulative cross tensors for one player; single-owner while accumulating."""

    rho: np.ndarray
    cross: np.ndarray           # (K, K, M, M)
    alg_reward: float = 0.0
    rounds: int = 0

    @staticmethod
    def create(prior_row, num_actions: int) -> RegretLedger:
        rho = np.asarray(prior_row, dtype=float)
        k, m = rho.size, int(num_actions)
        return RegretLedger(rho, np.zeros((k, k, m, m)))

    def copy(self) -> RegretLedger:
        return RegretLedger(self.rho.copy(), self.cross.copy(), self.alg_reward, self.rounds)


def accumulate(ledger: RegretLedger, x_t: np.ndarray, u_t: np.ndarray) -> RegretLedger:
    """Fold one round's policy and reward into the ledger."""
    k, m = ledger.cross.shape[0], ledger.cross.shape[2]
    x = np.asarray(x_t, dtype=float)
    u = np.asarray(u_t, dtype=float)
    if x.shape != (k, m) or u.shape != (k, m):
        raise BadInput(f"policy and reward must both have shape {(k, m)}")
    ubar = ledger.rho[:, None] * u
    ledger.cross += ubar[:, None, :, None] * x[None, :, None, :]
    ledger.alg_reward += float((x * ubar).sum())
    ledger.rounds += 1
    return ledger


def _drift(rounds: int, cells: int, scale: float) -> float:
    """Float drift of a difference of two sums of nonnegative terms, accumulated
    over ``rounds`` rounds into ``cells`` entries no larger than ``scale``.

    Recursive summation of n nonnegative terms is off by at most about
    n * eps/2 of its value (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4); a regret is negative only when its first sum is below
    the second, so both are at most ``scale`` there.
    """
    return (rounds + cells) * EPS * scale


def _ledger_drift(ledger: RegretLedger) -> float:
    """_drift for a ledger: its rounds, its cells and its largest cumulative entry."""
    scale = max(abs(ledger.alg_reward), float(np.abs(ledger.cross).max(initial=0.0)))
    return _drift(ledger.rounds, ledger.cross.size, scale)


def _checked(value: float, what: str, drift) -> float:
    """Reject a value below -max(NEGATIVE_REGRET_TOL, drift()); ``drift`` is
    only called for values below -NEGATIVE_REGRET_TOL."""
    if value < -NEGATIVE_REGRET_TOL and value < -drift():
        raise AuditError(f"{what} is {value:.3e} < 0; the identity deviation forbids this")
    return value


def untruthful_regret(ledger: RegretLedger) -> float:
    """Exact max over all (type misreport, action swap) pairs, by decomposition."""
    per_report = ledger.cross.max(axis=2).sum(axis=2)   # (K true, K reported)
    value = float(per_report.max(axis=1).sum()) - ledger.alg_reward
    return _checked(value, "untruthful swap regret", lambda: _ledger_drift(ledger))


def typewise_regret(ledger: RegretLedger) -> float:
    """Action swaps only (truthful reporting)."""
    diag = np.einsum("iiab->iab", ledger.cross)
    value = float(diag.max(axis=1).sum()) - ledger.alg_reward
    return _checked(value, "type-wise swap regret", lambda: _ledger_drift(ledger))


def external_regret(ledger: RegretLedger) -> float:
    """Best fixed action per type.

    Unlike the swap families, the comparator class here does not contain the
    algorithm's own randomized play, so small negative values are legitimate
    and returned as-is.
    """
    diag = np.einsum("iiab->iab", ledger.cross)
    return float(diag.sum(axis=2).max(axis=1).sum()) - ledger.alg_reward


def untruthful_witness(ledger: RegretLedger) -> tuple[np.ndarray, np.ndarray, float]:
    """An argmax deviation (psi, phi) achieving the untruthful swap regret.

    Ties break toward the lowest ordinal via first-occurrence argmax.
    """
    best_a = ledger.cross.argmax(axis=2)                # (K, K', M_a')
    per_report = ledger.cross.max(axis=2).sum(axis=2)   # (K, K')
    psi = per_report.argmax(axis=1)
    k = psi.size
    phi = best_a[np.arange(k), psi, :]
    value = float(per_report.max(axis=1).sum()) - ledger.alg_reward
    return psi, phi, value


def ledger_diagonal_gap(ledger: RegretLedger) -> float:
    """|G - sum_{theta,a} C(theta,theta,a,a)|; an exact identity up to float dust."""
    diag = np.einsum("iiaa->", ledger.cross)
    return abs(float(diag) - ledger.alg_reward)


def audit_ledger(ledger: RegretLedger, tol: float = 1e-9) -> None:
    """Check the diagonal identity within ``tol`` or the ledger's float drift."""
    gap = ledger_diagonal_gap(ledger)
    if gap > tol and gap > _ledger_drift(ledger):
        raise AuditError(f"ledger diagonal identity off by {gap:.3e}")
    if ledger.cross.min() < -tol:
        raise AuditError("negative cross-tensor entry")


def strategy_regret(sigmas, rewards, prior_row, cap: int = 10**4) -> float:
    """Exact strategy swap regret of a played trace of strategy distributions.

    ``sigmas`` is (T, |S|) over the mixed-radix strategy set, ``rewards`` is
    (T, K, M).  The max over all strategy swaps decomposes per (recommended
    strategy, type), so it costs |S| K M, not |S|^|S|.
    """
    from .game import strategy_table

    sig = np.asarray(sigmas, dtype=float)
    u = np.asarray(rewards, dtype=float)
    rho = np.asarray(prior_row, dtype=float)
    t, s = sig.shape
    k, m = u.shape[1], u.shape[2]
    if s > cap:
        raise SupportTooLarge(f"|S| = {s} exceeds cap {cap}")
    if u.shape[0] != t or m ** k != s or rho.size != k:
        raise BadInput("trace shapes disagree")
    table = strategy_table(k, m)
    cum = np.einsum("ts,tka->ska", sig, u)
    deviation = float((rho[None, :] * cum.max(axis=2)).sum())
    played = u[:, np.arange(k)[None, :], table]         # (T, S, K)
    achieved = float(np.einsum("ts,k,tsk->", sig, rho, played))
    return _checked(deviation - achieved, "strategy swap regret",
                    lambda: _drift(t, cum.size, max(abs(deviation), abs(achieved))))


def untruthful_bound(t: int, num_types: int, num_actions: int) -> float:
    """The proved worst-case growth of the untruthful-swap learner's regret,
    with natural-log constants."""
    k, m = num_types, num_actions
    term_types = math.sqrt(0.5 * t * math.log(k)) if k > 1 else 0.0
    if m > 1:
        term_actions = 6.0 * math.sqrt(t * m * math.log(m)) + 2.0 * m * math.log(m)
    else:
        term_actions = 0.0
    return term_types + term_actions
