"""Exact equilibrium auditing of play distributions.

Deviation gains for every equilibrium class are computed from one exact
tensor per player: G[theta, theta', a', a] is the expected payoff of
reporting theta', receiving recommendation a', and playing a, when the true
type is theta.  All incentive maxima then decompose per true type and per
recommended action, mirroring the regret ledger, so certificates are
polynomial to produce and carry replayable witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AuditError, BadInput, SupportTooLarge
from .game import (BayesianGame, MixtureDistribution, StrategyDistribution,
                   decode_strategy_profile, expected_rewards, mixture_to_tabular, reward_axes,
                   strategy_space_size)
from .simplexlp import solve_equality_feasibility

DEFAULT_LP_CAP = 10**4
DEFAULT_ENUM_CAP = 10**7
WITNESS_TOL = 1e-9

EQ_CLASSES = ("comm", "anf-bs", "bne", "coarse-bs", "sfce", "sfcce", "anfcce")


@dataclass(frozen=True)
class DeviationGainTensor:
    """G[theta, theta', a', a] plus the truthful value for one player."""

    player: int
    gains: np.ndarray        # (K, K, M, M)
    truthful: float

    def replay(self, psi, phi) -> float:
        """Deviation value minus truthful value for a concrete (psi, phi)."""
        k, m = self.gains.shape[0], self.gains.shape[2]
        psi = np.asarray(psi, dtype=np.int64)
        phi = np.asarray(phi, dtype=np.int64)
        value = 0.0
        for theta in range(k):
            for b in range(m):
                value += self.gains[theta, psi[theta], b, phi[theta, b]]
        return value - self.truthful


@dataclass(frozen=True)
class PlayerDeviation:
    player: int
    gain: float              # signed best-deviation advantage
    witness: dict


@dataclass(frozen=True)
class EquilibriumCertificate:
    klass: str
    epsilon: float           # max_i max(0, gain_i)
    per_player: tuple[PlayerDeviation, ...]
    representable: bool | None = None    # None = not assessed
    product_gap: float | None = None     # bne only

    def to_json_dict(self) -> dict:
        return {
            "class": self.klass,
            "epsilon": self.epsilon,
            "per_player": [
                {"player": d.player, "gain": d.gain, "witness": d.witness}
                for d in self.per_player
            ],
            "representable": self.representable,
            **({"product_gap": self.product_gap} if self.product_gap is not None else {}),
        }


def deviation_tensor(game: BayesianGame, i: int, dist,
                     cap: int = DEFAULT_ENUM_CAP) -> DeviationGainTensor:
    """Exact deviation-gain tensor, contracted against ``game.reward_matrix(i)``.

    ``dist`` is a mixture or an explicit array over (Theta..., A...).
    """
    nt, na = game.num_types, game.num_actions
    k, m = nt[i], na[i]
    if isinstance(dist, MixtureDistribution):
        others = [p for j, p in enumerate(dist.policies) if j != i]
        per_round = expected_rewards(game, i, others, cap).reshape(-1, k * m)
        flat = (dist.weights[:, None] * per_round).T @ dist.policies[i].reshape(-1, k * m)
    else:
        w = game.reward_matrix(i, cap)
        pi = np.asarray(dist, dtype=float)
        if pi.shape != nt + na:
            raise BadInput(f"tabular distribution must have shape {nt + na}")
        flat = w @ pi.transpose(reward_axes(game.n, i)).reshape(k * m, -1).T
    gains = flat.reshape(k, m, k, m).transpose(0, 2, 3, 1)    # flat is ((theta, a), (theta', b))
    rho = game.prior.marginals[i]
    truthful = float((rho * np.einsum("iibb->ib", gains).sum(axis=1)).sum())
    return DeviationGainTensor(i, gains, truthful)


def _certify(klass, gains_witnesses, representable=None, product_gap=None):
    eps = max(max(0.0, d.gain) for d in gains_witnesses)
    return EquilibriumCertificate(klass, eps, tuple(gains_witnesses),
                                  representable, product_gap)


def comm_eq_epsilon(game: BayesianGame, dist, cap: int = DEFAULT_ENUM_CAP
                    ) -> EquilibriumCertificate:
    """Best (type misreport, action swap) advantage per player, clamped at 0."""
    devs = []
    for i in range(game.n):
        tensor = deviation_tensor(game, i, dist, cap)
        rho = game.prior.marginals[i]
        weighted = rho[:, None, None, None] * tensor.gains
        per_report = weighted.max(axis=3).sum(axis=2)     # (K, K')
        psi = per_report.argmax(axis=1)
        k = psi.size
        phi = weighted.argmax(axis=3)[np.arange(k), psi, :]
        gain = float(per_report.max(axis=1).sum()) - tensor.truthful
        devs.append(PlayerDeviation(i, gain, {"psi": psi.tolist(), "phi": phi.tolist()}))
    return _certify("comm", devs)


def anf_bs_epsilon(game: BayesianGame, dist, cap: int = DEFAULT_ENUM_CAP,
                   check_representability: bool = True,
                   lp_cap: int = DEFAULT_LP_CAP) -> EquilibriumCertificate:
    """Action-swap-only advantage (truthful reporting pinned).

    The certificate additionally records strategy representability when the
    game is small enough for the feasibility LP: with zero gain it separates
    plain Bayesian solutions from distributions a strategy mediator realizes.
    """
    devs = []
    for i in range(game.n):
        tensor = deviation_tensor(game, i, dist, cap)
        rho = game.prior.marginals[i]
        diag = np.einsum("iiba->iba", tensor.gains)       # (K, M_b, M_a)
        weighted = rho[:, None, None] * diag
        phi = weighted.argmax(axis=2)
        gain = float(weighted.max(axis=2).sum()) - tensor.truthful
        devs.append(PlayerDeviation(i, gain, {"phi": phi.tolist()}))
    representable = None
    if check_representability:
        try:
            rep = strategy_representable(_to_tabular(game, dist), cap=lp_cap)
            representable = rep.feasible
        except SupportTooLarge:
            representable = None
    return _certify("anf-bs", devs, representable)


def bne_epsilon(game: BayesianGame, dist, cap: int = DEFAULT_ENUM_CAP
                ) -> EquilibriumCertificate:
    """Bayes Nash check in the agent normal form: action-swap gains plus a
    type-wise-product test on the distribution itself."""
    base = anf_bs_epsilon(game, dist, cap, check_representability=False)
    gap = typewise_product_gap(_to_tabular(game, dist), game.n)
    return EquilibriumCertificate("bne", base.epsilon, base.per_player,
                                  None, gap)


def typewise_product_gap(pi: np.ndarray, n: int) -> float:
    """Max deviation of pi from any type-wise product distribution."""
    nt, na = pi.shape[:n], pi.shape[n:]
    gap = 0.0
    factors = []
    for i in range(n):
        # candidate per-(type) action marginal, averaged over opponent profiles
        axes_t = tuple(j for j in range(n) if j != i)
        axes_a = tuple(n + j for j in range(n) if j != i)
        marg = pi.sum(axis=axes_a)                        # (*types, A_i)
        marg_i = np.moveaxis(marg, i, 0).reshape(nt[i], -1, na[i])
        mean = marg_i.mean(axis=1)
        gap = max(gap, float(np.abs(marg_i - mean[:, None, :]).max()))
        factors.append(mean)
    recon = np.ones(())
    for i in range(n):
        recon = np.multiply.outer(recon, factors[i])      # types and actions interleaved
    order = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    recon = recon.transpose(order)
    gap = max(gap, float(np.abs(recon - pi).max()))
    return gap


def coarse_epsilon(game: BayesianGame, dist, klass: str,
                   cap: int = DEFAULT_ENUM_CAP,
                   strategy_cap: int = DEFAULT_LP_CAP) -> EquilibriumCertificate:
    """Coarse classes: fixed deviations that ignore the recommendation.

    "coarse-bs" audits a type-wise distribution; "sfcce" and "anfcce" audit an
    explicit strategy distribution.
    """
    if klass == "coarse-bs":
        devs = []
        for i in range(game.n):
            tensor = deviation_tensor(game, i, dist, cap)
            rho = game.prior.marginals[i]
            diag = np.einsum("iiba->iba", tensor.gains)
            dev_value = diag.sum(axis=1)                   # (K, M_dev)
            truthful_by_type = np.einsum("ibb->ib", diag).sum(axis=1)
            gains = rho[:, None] * (dev_value - truthful_by_type[:, None])
            devs.append(PlayerDeviation(i, *_joint_coarse(gains)))
        return _certify("coarse-bs", devs)
    if klass not in ("sfcce", "anfcce", "sfce"):
        raise BadInput(f"unknown coarse class {klass!r}")
    if not isinstance(dist, StrategyDistribution):
        raise BadInput(f"class {klass!r} audits an explicit strategy distribution")
    return _sigma_epsilon(game, dist, klass, strategy_cap)


def sfce_epsilon(game: BayesianGame, sigma: StrategyDistribution,
                 strategy_cap: int = DEFAULT_LP_CAP) -> EquilibriumCertificate:
    """Full strategy-swap deviations on a strategy distribution (tiny games)."""
    return _sigma_epsilon(game, sigma, "sfce", strategy_cap)


def _sigma_epsilon(game: BayesianGame, sigma: StrategyDistribution, klass: str,
                   cap: int) -> EquilibriumCertificate:
    """Strategy-space classes as per-type reductions of one tensor per player.

    R[t, theta_i, a_i] is the prior-weighted payoff of type theta_i playing a_i
    against support profile t's opponents.  A deviation strategy's value is a
    sum of one R entry per type, so every maximum over S_i is taken type by
    type, and the first maximiser per type is the first maximiser in S_i.
    """
    if sigma.size > cap:
        raise SupportTooLarge(f"|S| = {sigma.size} exceeds cap {cap}")
    if sigma.num_types != game.num_types or sigma.num_actions != game.num_actions:
        raise BadInput("strategy distribution dims disagree with the game")
    support = np.flatnonzero(sigma.probs)
    w = sigma.probs[support]
    rows = decode_strategy_profile(support, sigma.num_types, sigma.num_actions)
    devs = []
    for i in range(game.n):
        r = _strategy_class_tensor(game, i, rows)            # (T, K, M)
        t_idx, k_idx = np.ogrid[:r.shape[0], :r.shape[1]]
        followed = r[t_idx, k_idx, rows[i]]                  # (T, K)
        if klass == "anfcce":
            gains = np.tensordot(w, r - followed[:, :, None], 1)
            devs.append(PlayerDeviation(i, *_joint_coarse(gains)))
            continue
        # sfce swaps each recommended strategy for its own best strategy;
        # sfcce is the same with all of sigma as one group
        recs, group = np.unique(rows[i], axis=0, return_inverse=True)
        group = group.reshape(-1) if klass == "sfce" else np.zeros_like(support)
        total = np.zeros((group.max() + 1,) + r.shape[1:])
        np.add.at(total, group, w[:, None, None] * r)
        gains = total.max(axis=2).sum(axis=1) - np.bincount(group, w * followed.sum(axis=1))
        best = total.argmax(axis=2)
        if klass == "sfcce":
            devs.append(PlayerDeviation(i, float(gains[0]), {"strategy": best[0].tolist()}))
        else:
            swap = {str(rec.tolist()): b.tolist() for rec, b in zip(recs, best)
                    if not np.array_equal(rec, b)}
            devs.append(PlayerDeviation(i, float(gains.sum()), {"swap": swap}))
    return _certify(klass, devs)


def _strategy_class_tensor(game: BayesianGame, i: int, rows) -> np.ndarray:
    """R[t, theta_i, a_i] = sum_{theta_-i} rho(theta) v_i(theta; a_i, s_-i^t(theta_-i))."""
    opp = np.zeros((rows[i].shape[0], 1), dtype=np.int64)   # flat A_-i index per (t, theta_-i)
    for j in range(game.n):
        if j != i:
            opp = (opp[:, :, None] * game.num_actions[j] + rows[j][:, None, :]).reshape(
                opp.shape[0], -1)
    v = game.payoff_from_own_view(i)                          # (K, M, O, P)
    played = v[:, :, np.arange(opp.shape[1]), opp]            # (K, M, T, O)
    joint = np.moveaxis(game.prior.full_table(), i, 0).reshape(v.shape[0], 1, 1, -1)
    return (joint * played).sum(axis=3).transpose(2, 0, 1)


def _joint_coarse(gains: np.ndarray) -> tuple[float, dict]:
    """Aggregate per-(type, fixed action) gains into a joint coarse deviation.

    The deviator picks, per type, either a fixed action or following along, so
    the total advantage sums each type's positive part; this is what makes the
    per-type coarse class at least as demanding as full-strategy deviations.
    """
    best = gains.max(axis=1)
    choice = gains.argmax(axis=1)
    witness = {"per_type_action": [int(choice[t]) if best[t] > 0 else None
                                   for t in range(gains.shape[0])]}
    return float(np.maximum(best, 0.0).sum()), witness


# ---------------------------------------------------------------------------
# strategy representability

@dataclass(frozen=True)
class RepresentabilityResult:
    feasible: bool
    sigma: StrategyDistribution | None
    farkas: np.ndarray | None
    marginal_error: float     # feasible: max marginal reproduction error
    infeasibility: float      # infeasible: certified violation mass


def strategy_representable(pi: np.ndarray, cap: int = DEFAULT_LP_CAP
                           ) -> RepresentabilityResult:
    """Linear feasibility: is pi the type-profile-wise push-forward of some
    distribution over full strategy profiles?

    ``pi`` is an explicit array over (Theta..., A...).  Feasible outcomes
    carry a witness sigma; infeasible ones carry a Farkas row separating pi
    from every representable distribution.
    """
    pi = np.asarray(pi, dtype=float)
    n = pi.ndim // 2
    nt, na = pi.shape[:n], pi.shape[n:]
    size = strategy_space_size(nt, na)
    if size > cap:
        raise SupportTooLarge(f"|S| = {size} exceeds cap {cap}")
    a_mat = np.vstack([_profile_matrix(nt, na), np.ones((1, size))])
    b = np.concatenate([pi.reshape(-1), [1.0]])
    res = solve_equality_feasibility(a_mat, b)
    if res.feasible:
        sigma = StrategyDistribution.create(nt, na, res.x / res.x.sum(), cap=max(cap, size))
        err = float(np.abs(a_mat[:-1] @ sigma.probs - pi.reshape(-1)).max())
        if err > 1e-7:
            raise AuditError(f"feasible witness reproduces marginals only to {err:.3e}")
        return RepresentabilityResult(True, sigma, None, err, 0.0)
    farkas = res.farkas
    certified = float(farkas @ b)
    worst_col = float((farkas @ a_mat).max())
    if certified < 1e-7 or worst_col > 1e-9:
        raise AuditError("Farkas certificate failed verification")
    return RepresentabilityResult(False, None, farkas, np.inf, certified)


def _profile_matrix(nt, na) -> np.ndarray:
    """(|Theta| |A|, |S|) 0/1 matrix: column s has a one at (theta, s(theta)) per theta."""
    size = strategy_space_size(nt, na)
    rows = decode_strategy_profile(np.arange(size), nt, na)
    thetas = np.unravel_index(np.arange(int(np.prod(nt))), nt)
    a_idx = 0
    for j, r in enumerate(rows):
        a_idx = a_idx * na[j] + r[:, thetas[j]]               # (|S|, |Theta|)
    out = np.zeros((thetas[0].size * int(np.prod(na)), size))
    out[np.arange(thetas[0].size) * int(np.prod(na)) + a_idx, np.arange(size)[:, None]] = 1.0
    return out


def _to_tabular(game: BayesianGame, dist) -> np.ndarray:
    if isinstance(dist, MixtureDistribution):
        return mixture_to_tabular(dist)
    return np.asarray(dist, dtype=float)


# ---------------------------------------------------------------------------
# conditional independence

def conditional_independence(prior, pi: np.ndarray, tol: float = 1e-9):
    """Check that each player's action is conditionally independent of the
    others' types given their own type.

    Returns (True, None) or (False, (player, theta_profile, action)) with the
    worst-violating coordinate.
    """
    pi = np.asarray(pi, dtype=float)
    n = pi.ndim // 2
    nt, na = pi.shape[:n], pi.shape[n:]
    joint = prior.full_table().reshape(nt + (1,) * n) * pi
    worst = (0.0, None)
    for i in range(n):
        axes_a = tuple(n + j for j in range(n) if j != i)
        ta = joint.sum(axis=axes_a)                    # (*types, A_i)
        ta = np.moveaxis(ta, i, 0)
        ta = np.moveaxis(ta, ta.ndim - 1, 1)           # (T_i, A_i, *T_-i)
        flat = ta.reshape(nt[i], na[i], -1)
        rho_i = prior.marginals[i]
        for theta in range(nt[i]):
            if rho_i[theta] <= 0:
                continue
            m = flat[theta] / rho_i[theta]             # Pr(a_i, theta_-i | theta_i)
            gap = np.abs(m - m.sum(axis=1, keepdims=True) * m.sum(axis=0, keepdims=True))
            g = float(gap.max())
            if g > worst[0]:
                a_i, o = np.unravel_index(int(gap.argmax()), gap.shape)
                other_dims = [nt[j] for j in range(n) if j != i]
                others = np.unravel_index(o, other_dims) if other_dims else ()
                profile = list(others)
                profile.insert(i, theta)
                worst = (g, (i, tuple(int(x) for x in profile), int(a_i)))
    if worst[0] > tol:
        return False, worst[1]
    return True, None
