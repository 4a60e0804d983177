"""Exact equilibrium auditing of play distributions.

Deviation gains for every type-wise equilibrium class come from one ledger
per player: ``deviation_tensor`` builds player i's ``RegretLedger`` from the
distribution alone.  Its cross[theta, theta', a, a'] is the prior-weighted
expected payoff to true type theta of playing a when the report theta' is
recommended a', and its alg_reward is the truthful value.  The ledger's
untruthful witness and type-wise regret are the comm and anf-bs gains, so the
verifier shares every max-decomposition and tie rule with the regret audit
of a run while building its tensor from the mixture, not from the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AuditError, BadInput, SupportTooLarge
from .game import (DEFAULT_LP_CAP, BayesianGame, MixtureDistribution, StrategyDistribution,
                   decode_strategy_profile, expected_rewards, mixture_to_tabular,
                   policy_product, reward_axes, strategy_space_size, strategy_space_size_under)
from .regret import RegretLedger, first_near_max, typewise_regret, untruthful_witness
from .simplexlp import solve_equality_feasibility

WITNESS_TOL = 1e-9
INDEPENDENCE_TOL = 1e-9          # conditional_independence: largest gap that passes


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


def deviation_tensor(game: BayesianGame, i: int, dist) -> RegretLedger:
    """Player i's deviation ledger, contracted against ``game.reward_matrix(i)``.

    ``dist`` is a mixture or an explicit array over (Theta..., A...).
    """
    nt, na = game.num_types, game.num_actions
    k, m = nt[i], na[i]
    if isinstance(dist, MixtureDistribution):
        others = [p for j, p in enumerate(dist.policies) if j != i]
        per_round = expected_rewards(game, i, others).reshape(-1, k * m)
        flat = (dist.weights[:, None] * per_round).T @ dist.policies[i].reshape(-1, k * m)
    elif isinstance(dist, StrategyDistribution):
        raise BadInput("type-wise classes audit a tabular or mixture distribution")
    else:
        w = game.reward_matrix(i)
        pi = np.asarray(dist, dtype=float)
        if pi.shape != nt + na:
            raise BadInput(f"tabular distribution must have shape {nt + na}")
        flat = w @ pi.transpose(reward_axes(game.n, i)).reshape(k * m, -1).T
    gains = flat.reshape(k, m, k, m)       # ((theta, a), (theta', a')): the ledger's store
    rho = game.prior.marginals[i]
    truthful = float((rho * np.einsum("iaia->ia", gains).sum(axis=1)).sum())
    return RegretLedger(rho, (rho[:, None, None, None] * gains).swapaxes(1, 2), truthful)


def _certify(klass, gains_witnesses, representable=None, product_gap=None):
    eps = max(max(0.0, d.gain) for d in gains_witnesses)
    return EquilibriumCertificate(klass, eps, tuple(gains_witnesses), representable, product_gap)


def comm_eq_epsilon(game: BayesianGame, dist) -> EquilibriumCertificate:
    """Best (type misreport, action swap) advantage per player, clamped at 0."""
    devs = []
    for i in range(game.n):
        psi, phi, gain = untruthful_witness(deviation_tensor(game, i, dist))
        devs.append(PlayerDeviation(i, gain, {"psi": psi.tolist(), "phi": phi.tolist()}))
    return _certify("comm", devs)


def _action_swaps(game: BayesianGame, dist) -> list[PlayerDeviation]:
    """Per player, the best action-swap advantage with truthful reports."""
    devs = []
    for i in range(game.n):
        ledger = deviation_tensor(game, i, dist)
        diag = np.einsum("iiab->iba", ledger.cross)        # (K, M_rec, M_played)
        phi = first_near_max(diag, np.abs(diag))
        devs.append(PlayerDeviation(i, typewise_regret(ledger), {"phi": phi.tolist()}))
    return devs


def anf_bs_epsilon(game: BayesianGame, dist) -> EquilibriumCertificate:
    """Action-swap-only advantage (truthful reporting pinned).

    The certificate also records strategy representability, which with zero
    gain separates plain Bayesian solutions from distributions a strategy
    mediator realizes.  A mixture is representable by construction; a tabular
    distribution goes to the feasibility LP, and is not assessed (None) when
    |S| passes DEFAULT_LP_CAP.
    """
    devs = _action_swaps(game, dist)
    if isinstance(dist, MixtureDistribution):
        representable = True
    else:
        try:
            representable = strategy_representable(dist).feasible
        except SupportTooLarge:
            representable = None
    return _certify("anf-bs", devs, representable)


def bne_epsilon(game: BayesianGame, dist) -> EquilibriumCertificate:
    """Bayes Nash check in the agent normal form: action-swap gains plus a
    type-wise-product test on the distribution itself."""
    devs = _action_swaps(game, dist)
    pi = mixture_to_tabular(dist) if isinstance(dist, MixtureDistribution) \
        else np.asarray(dist, dtype=float)
    return _certify("bne", devs, product_gap=typewise_product_gap(pi, game.n))


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
    recon = policy_product(np.ones((1, 1, 1)), [f[None] for f in factors]).reshape(pi.shape)
    gap = max(gap, float(np.abs(recon - pi).max()))
    return gap


def coarse_epsilon(game: BayesianGame, dist, klass: str) -> EquilibriumCertificate:
    """Coarse classes: fixed deviations that ignore the recommendation.

    "coarse-bs" audits a type-wise distribution; "sfcce" and "anfcce" audit an
    explicit strategy distribution.
    """
    if klass == "coarse-bs":
        devs = []
        for i in range(game.n):
            diag = np.einsum("iiab->iba", deviation_tensor(game, i, dist).cross)
            truthful_by_type = np.einsum("ibb->ib", diag).sum(axis=1)
            gains = diag.sum(axis=1) - truthful_by_type[:, None]     # (K, M_dev)
            magnitude = np.abs(diag).sum(axis=1) + np.abs(truthful_by_type)[:, None]
            devs.append(PlayerDeviation(i, *_joint_coarse(gains, magnitude)))
        return _certify("coarse-bs", devs)
    if klass not in ("sfcce", "anfcce"):
        raise BadInput(f"unknown coarse class {klass!r}")
    return _sigma_epsilon(game, dist, klass)


def sfce_epsilon(game: BayesianGame, sigma: StrategyDistribution) -> EquilibriumCertificate:
    """Full strategy-swap deviations on a strategy distribution (tiny games)."""
    return _sigma_epsilon(game, sigma, "sfce")


def _sigma_epsilon(game: BayesianGame, sigma: StrategyDistribution,
                   klass: str) -> EquilibriumCertificate:
    """Strategy-space classes as per-type reductions of one tensor per player.

    R[t, theta_i, a_i] is the prior-weighted payoff of type theta_i playing a_i
    against support profile t's opponents.  A deviation strategy's value is a
    sum of one R entry per type, so every maximum over S_i is taken type by
    type, and the first maximiser per type is the first maximiser in S_i.
    """
    if not isinstance(sigma, StrategyDistribution):
        raise BadInput(f"class {klass} needs a strategy distribution file")
    if sigma.size > DEFAULT_LP_CAP:
        raise SupportTooLarge(f"|S| = {sigma.size} exceeds cap {DEFAULT_LP_CAP}")
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
            magnitude = np.tensordot(w, np.abs(r) + np.abs(followed)[:, :, None], 1)
            devs.append(PlayerDeviation(i, *_joint_coarse(gains, magnitude)))
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
    """R[t, theta_i, a_i] = sum_{theta_-i} rho(theta) v_i(theta; a_i, s_-i^t(theta_-i)):
    the exact reward against support profile t's opponents, each strategy as a
    one-hot type-wise policy, weighted by rho_i.  The support axis has length
    one in a one-player game, where no profile moves the reward."""
    opponents = [np.eye(game.num_actions[j])[rows[j]] for j in range(game.n) if j != i]
    return game.prior.marginals[i][:, None] * expected_rewards(game, i, opponents)


def _joint_coarse(gains: np.ndarray, magnitude: np.ndarray) -> tuple[float, dict]:
    """Aggregate per-(type, fixed action) gains into a joint coarse deviation.

    The deviator picks, per type, either a fixed action or following along, so
    the total advantage sums each type's positive part; this is what makes the
    per-type coarse class at least as demanding as full-strategy deviations.
    Each type's action is the lowest within float dust of its best
    (``magnitude`` bounds the summed absolute terms behind each gain).
    """
    best = gains.max(axis=1)
    choice = first_near_max(gains, magnitude)
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


def strategy_representable(pi: np.ndarray) -> RepresentabilityResult:
    """Linear feasibility: is pi the type-profile-wise push-forward of some
    distribution over full strategy profiles?

    ``pi`` is an explicit array over (Theta..., A...).  Feasible outcomes
    carry a witness sigma; infeasible ones carry a Farkas row separating pi
    from every representable distribution.  The LP's |S| columns are checked
    against DEFAULT_LP_CAP.
    """
    pi = np.asarray(pi, dtype=float)
    n = pi.ndim // 2
    nt, na = pi.shape[:n], pi.shape[n:]
    size = strategy_space_size_under(nt, na, DEFAULT_LP_CAP)
    a_mat = np.vstack([_profile_matrix(nt, na), np.ones((1, size))])
    b = np.concatenate([pi.reshape(-1), [1.0]])
    res = solve_equality_feasibility(a_mat, b)
    if res.feasible:
        sigma = StrategyDistribution.create(nt, na, res.x / res.x.sum())
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


# ---------------------------------------------------------------------------
# conditional independence

def conditional_independence(prior, pi: np.ndarray):
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
    if worst[0] > INDEPENDENCE_TOL:
        return False, worst[1]
    return True, None
