"""Independent brute-force oracles the tests check the library against.

Everything here enumerates deviation maps explicitly or replays definitions
with straight-line loops; nothing imports the decompositions under test.  The
last section holds pointwise evaluations, random members and invariant checks
that the tests use and the package itself never calls.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def raw_cross_tensor(xs, us, rho):
    """C[theta, theta', a, a'] accumulated with plain loops over the trace."""
    t_max, k, m = us.shape
    c = np.zeros((k, k, m, m))
    g = 0.0
    for t in range(t_max):
        for th in range(k):
            for tp in range(k):
                for a in range(m):
                    for ap in range(m):
                        c[th, tp, a, ap] += rho[th] * us[t, th, a] * xs[t, tp, ap]
        g += float((rho[:, None] * us[t] * xs[t]).sum())
    return c, g


class ReferenceLedger:
    """The regret ledger as it was laid out before its long-axis store: a
    plain C-order C[..., theta, theta', a, a'], accumulated and reduced with
    the same numpy calls on that layout; (B, K) prior rows stack B ledgers."""

    def __init__(self, rho, num_actions):
        self.rho = np.asarray(rho, dtype=float)
        k, m = self.rho.shape[-1], num_actions
        self.cross = np.zeros(self.rho.shape[:-1] + (k, k, m, m))
        self.alg_reward = np.zeros(self.rho.shape[:-1]) if self.rho.ndim > 1 else 0.0

    def accumulate(self, x, u):
        ubar = self.rho[..., None] * u
        self.cross += ubar[..., :, None, :, None] * x[..., None, :, None, :]
        gain = (x * ubar).sum(axis=(-2, -1))
        self.alg_reward += gain if self.rho.ndim > 1 else float(gain)

    def untruthful(self):
        per_report = self.cross.max(axis=-2).sum(axis=-1)
        return per_report.max(axis=-1).sum(axis=-1) - self.alg_reward

    def typewise(self):
        diag = np.einsum("...iiab->...iab", self.cross)
        return diag.max(axis=-2).sum(axis=(-2, -1)) - self.alg_reward

    def external(self):
        diag = np.einsum("...iiab->...iab", self.cross)
        return diag.sum(axis=-1).max(axis=-1).sum(axis=-1) - self.alg_reward

    def witness(self):
        """(psi, phi, value) of one ledger; ties go to the lowest index within
        8 ulps of the largest entry."""
        def first_near_max(values):
            slack = 8 * np.finfo(float).eps * values.max(axis=-1, keepdims=True)
            return (values >= values.max(axis=-1, keepdims=True) - slack).argmax(axis=-1)
        per_report = self.cross.max(axis=2).sum(axis=2)
        psi = first_near_max(per_report)
        phi = first_near_max(self.cross[np.arange(psi.size), psi].transpose(0, 2, 1))
        return psi, phi, float(per_report.max(axis=1).sum()) - self.alg_reward


def all_phi_maps(k, m):
    """Every action swap as an (N, k, m) index array."""
    return np.array(list(itertools.product(range(m), repeat=k * m)),
                    dtype=np.int64).reshape(-1, k, m)


def enumerate_untruthful(xs, us, rho):
    """max over every (psi, phi) pair, evaluated on the raw cross tensor."""
    _, k, m = us.shape
    c, g = raw_cross_tensor(xs, us, rho)
    phis = all_phi_maps(k, m)
    theta_idx = np.arange(k)[None, :, None]
    ap_idx = np.arange(m)[None, None, :]
    best = -np.inf
    for psi in itertools.product(range(k), repeat=k):
        sel = c[np.arange(k), list(psi)]            # (k, m_a, m_a')
        sel = sel.transpose(0, 2, 1)                # (k, a', a)
        vals = sel[theta_idx, ap_idx, phis]         # vals[n, th, ap] = sel[th, ap, phi_n(th, ap)]
        best = max(best, float(vals.sum(axis=(1, 2)).max()))
    return best - g


def enumerate_typewise(xs, us, rho):
    _, k, m = us.shape
    c, g = raw_cross_tensor(xs, us, rho)
    phis = all_phi_maps(k, m)
    sel = c[np.arange(k), np.arange(k)].transpose(0, 2, 1)   # (k, a', a)
    theta_idx = np.arange(k)[None, :, None]
    ap_idx = np.arange(m)[None, None, :]
    vals = sel[theta_idx, ap_idx, phis]
    return float(vals.sum(axis=(1, 2)).max()) - g


def enumerate_external(xs, us, rho):
    t_max, k, m = us.shape
    best = 0.0
    for th in range(k):
        totals = np.zeros(m)
        for t in range(t_max):
            totals += rho[th] * us[t, th]
        best += totals.max()
    g = sum(float((rho[:, None] * us[t] * xs[t]).sum()) for t in range(t_max))
    return best - g


def enumerate_strategy(sigmas, us, rho, table):
    """max over every strategy swap phi_SF: S -> S."""
    t_max, s = np.asarray(sigmas).shape
    k, m = us.shape[1], us.shape[2]
    cum = np.zeros((s, k, m))
    for t in range(t_max):
        cum += np.asarray(sigmas)[t][:, None, None] * us[t][None, :, :]
    achieved = 0.0
    for t in range(t_max):
        for si in range(s):
            for th in range(k):
                achieved += rho[th] * sigmas[t][si] * us[t, th, table[si, th]]
    best = -np.inf
    for targets in itertools.product(range(s), repeat=s):
        val = 0.0
        for si, tgt in enumerate(targets):
            for th in range(k):
                val += rho[th] * cum[si, th, table[tgt, th]]
        best = max(best, val)
    return best - achieved


def enumerate_comm_gain(game, pi_tab, i):
    """Best (psi, phi) deviation advantage by direct expectation over profiles."""
    nt, na = game.num_types, game.num_actions
    prior = game.prior.full_table()
    k, m = nt[i], na[i]
    truthful = 0.0
    for theta in np.ndindex(*nt):
        for act in np.ndindex(*na):
            truthful += prior[theta] * pi_tab[theta + act] * game.payoffs[i][theta + act]
    best = -np.inf
    for psi in itertools.product(range(k), repeat=k):
        for phi_flat in itertools.product(range(m), repeat=k * m):
            phi = np.array(phi_flat).reshape(k, m)
            val = 0.0
            for theta in np.ndindex(*nt):
                rep = list(theta)
                rep[i] = psi[theta[i]]
                for act in np.ndindex(*na):
                    played = list(act)
                    played[i] = phi[theta[i], act[i]]
                    val += (prior[theta] * pi_tab[tuple(rep) + act]
                            * game.payoffs[i][theta + tuple(played)])
            best = max(best, val - truthful)
    return float(best)


# ---------------------------------------------------------------------------
# straight-line reference of the untruthful-swap learner

def reference_untruthful_trace(rho, num_actions, horizon, rewards):
    """Plain-loop replay of the untruthful-swap learner, solving each round's
    fixed point by full eigendecomposition."""
    k, m = len(rho), num_actions
    eta_type = math.sqrt(8 * math.log(k) / horizon) if k > 1 else 0.0
    logw = np.zeros((k, k))
    logy = np.zeros((k, k, m, m))
    budget = np.full((k, k, m), math.log(m))
    eta_y = np.ones((k, k, m))
    cum = np.zeros((k, k, m, m))
    x = np.full((k, m), 1.0 / m)
    y = np.full((k, k, m, m), 1.0 / m)
    trace = []
    for t in range(horizon):
        if t > 0:
            u = rewards[t - 1]
            for th in range(k):
                if rho[th] <= 0:
                    continue
                for tp in range(k):
                    for ap in range(m):
                        vec = np.array([x[tp, ap] * rho[th] * u[th, a] for a in range(m)])
                        rn = vec / rho[th]
                        logy[th, tp, ap] += eta_y[th, tp, ap] * rn
                        cum[th, tp, ap] += rn
                        if cum[th, tp, ap].max() > budget[th, tp, ap]:
                            budget[th, tp, ap] *= 2
                            eta_y[th, tp, ap] = math.sqrt(math.log(m) / budget[th, tp, ap])
                            logy[th, tp, ap] = 0.0
                            cum[th, tp, ap] = 0.0
                if k > 1:
                    for tp in range(k):
                        z = sum(y[th, tp, ap, a] * x[tp, ap] * rho[th] * u[th, a]
                                for ap in range(m) for a in range(m))
                        logw[th, tp] += eta_type * z / rho[th]
        w = np.exp(logw - logw.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        y = np.exp(logy - logy.max(axis=3, keepdims=True))
        y /= y.sum(axis=3, keepdims=True)
        dense = np.zeros((k * m, k * m))
        for th in range(k):
            for a in range(m):
                for tp in range(k):
                    for ap in range(m):
                        dense[th * m + a, tp * m + ap] = w[th, tp] * y[th, tp, ap, a]
        vals, vecs = np.linalg.eig(dense)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        v = np.real(vecs[:, idx])
        v = v * (k / v.sum())
        x = v.reshape(k, m)
        trace.append(x.copy())
    return trace


# ---------------------------------------------------------------------------
# straight-line references of the strategy-space classes, the smoothness
# enumeration and the representability matrix

def _payoff_under_profile(game, rows, i, override_row=None, override_action=None):
    """v_i(theta; s(theta)) over all theta, optionally overriding player i's play."""
    grids = np.ix_(*(np.arange(k) for k in game.num_types))
    actions = []
    for j in range(game.n):
        if j == i and override_action is not None:
            actions.append(np.broadcast_to(np.int64(override_action), ()))
        elif j == i and override_row is not None:
            actions.append(override_row[grids[j]])
        else:
            actions.append(rows[j][grids[j]])
    return game.payoffs[i][tuple(grids) + tuple(actions)]


def _type_mask(game, i, theta):
    shape = [1] * game.n
    shape[i] = game.num_types[i]
    mask = np.zeros(game.num_types[i])
    mask[theta] = 1.0
    return mask.reshape(shape)


def _strategy_table(k, m):
    return np.array(list(itertools.product(range(m), repeat=k)), dtype=np.int64)


def _decode(idx, num_types, num_actions):
    digits = []
    for i in reversed(range(len(num_types))):
        row = np.empty(num_types[i], dtype=np.int64)
        for k in reversed(range(num_types[i])):
            row[k] = idx % num_actions[i]
            idx //= num_actions[i]
        digits.append(row)
    return list(reversed(digits))


def reference_sigma_classes(game, probs, klass):
    """Per player (gain, witness) of sfce / sfcce / anfcce by looping over the
    support and over every deviation strategy of S_i."""
    prior_table = game.prior.full_table()
    support = np.flatnonzero(probs)
    profiles = [_decode(int(s), game.num_types, game.num_actions) for s in support]
    out = []
    for i in range(game.n):
        nt_i, na_i = game.num_types[i], game.num_actions[i]
        table_i = _strategy_table(nt_i, na_i)
        played = [_payoff_under_profile(game, rows, i) for rows in profiles]
        truthful = sum(float(w * (prior_table * grid).sum())
                       for w, grid in zip(probs[support], played))
        if klass == "sfcce":
            best_gain, best_s = -np.inf, 0
            for sp in range(table_i.shape[0]):
                value = 0.0
                for w, rows in zip(probs[support], profiles):
                    grid = _payoff_under_profile(game, rows, i, override_row=table_i[sp])
                    value += float(w * (prior_table * grid).sum())
                if value - truthful > best_gain:
                    best_gain, best_s = value - truthful, sp
            out.append((best_gain, {"strategy": table_i[best_s].tolist()}))
        elif klass == "anfcce":
            gains = np.full((nt_i, na_i), -np.inf)
            for theta in range(nt_i):
                mask = _type_mask(game, i, theta)
                for a_dev in range(na_i):
                    value = 0.0
                    for w, rows, grid in zip(probs[support], profiles, played):
                        dev = _payoff_under_profile(game, rows, i, override_action=a_dev)
                        value += float(w * (prior_table * mask * (dev - grid)).sum())
                    gains[theta, a_dev] = value
            best = gains.max(axis=1)
            choice = gains.argmax(axis=1)
            out.append((float(np.maximum(best, 0.0).sum()),
                        {"per_type_action": [int(choice[t]) if best[t] > 0 else None
                                             for t in range(nt_i)]}))
        else:
            gain_total, witness = 0.0, {}
            for rec in range(table_i.shape[0]):
                members = [t for t, rows in enumerate(profiles)
                           if np.array_equal(rows[i], table_i[rec])]
                if not members:
                    continue
                base = sum(float(probs[support][t] * (prior_table * played[t]).sum())
                           for t in members)
                best, best_s = -np.inf, rec
                for sp in range(table_i.shape[0]):
                    value = 0.0
                    for t in members:
                        grid = _payoff_under_profile(game, profiles[t], i,
                                                     override_row=table_i[sp])
                        value += float(probs[support][t] * (prior_table * grid).sum())
                    if value > best:
                        best, best_s = value, sp
                gain_total += best - base
                if best_s != rec:
                    witness[str(table_i[rec].tolist())] = table_i[best_s].tolist()
            out.append((gain_total, {"swap": witness}))
    return out


def _smoothness_cells(game, deviation, mode):
    """Yield (theta, act, lhs, against, opt) for every cell, by plain loops."""
    base = getattr(game, "base", game)
    n, nt, na = base.n, base.num_types, base.num_actions
    own = []
    for i in range(n):
        idx = [0] * n
        idx[i] = slice(None)
        own.append(base.payoffs[i][tuple(idx)])
    welfare = np.zeros(nt + na)
    parts = game.alloc_values if mode == "mechanism" else own
    for theta in np.ndindex(*nt):
        for act in np.ndindex(*na):
            welfare[theta + act] = sum(float(parts[i][(theta[i],) + act]) for i in range(n))
    charge = np.zeros(na)
    if mode == "mechanism":
        for p in game.payments:
            charge += p
    opt = welfare.reshape(nt + (-1,)).max(axis=-1)
    for theta in np.ndindex(*nt):
        for act in np.ndindex(*na):
            lhs = 0.0
            for i in range(n):
                dev = list(act)
                dev[i] = int(deviation[i][theta + (act[i],)])
                lhs += float(own[i][(theta[i],) + tuple(dev)])
            against = float(charge[act]) if mode == "mechanism" else float(welfare[theta + act])
            yield theta, act, lhs, against, float(opt[theta])


def reference_smoothness(game, spec):
    """(min_slack, first witness in C order) of the smoothness inequality."""
    min_slack, witness = np.inf, None
    for theta, act, lhs, against, opt in _smoothness_cells(game, spec.deviation, spec.mode):
        slack = lhs - spec.lam * opt + spec.mu * against
        if slack < min_slack:
            min_slack, witness = slack, (theta, act)
    return float(min_slack), witness


def reference_representability_matrix(nt, na):
    """One column per strategy profile, a one per type profile at the cell it plays."""
    n = len(nt)
    n_act = int(np.prod(na))
    size = int(np.prod([m ** k for k, m in zip(nt, na)]))
    a_mat = np.zeros((int(np.prod(nt)) * n_act, size))
    for s in range(size):
        rows = _decode(s, nt, na)
        for flat_theta, theta in enumerate(np.ndindex(*nt)):
            a_idx = 0
            for j in range(n):
                a_idx = a_idx * na[j] + int(rows[j][theta[j]])
            a_mat[flat_theta * n_act + a_idx, s] = 1.0
    return a_mat


def reference_product_prior(marginals):
    """A product prior's full table and per-player conditional rows, each an
    outer product of the marginals taken one at a time in player order."""
    table = np.array(1.0)
    for m in marginals:
        table = np.multiply.outer(table, m)
    conditionals = []
    for i in range(len(marginals)):
        row = np.array([1.0])
        for j, m in enumerate(marginals):
            if j != i:
                row = np.multiply.outer(row, m).reshape(-1)
        conditionals.append(np.tile(row, (marginals[i].size, 1)))
    return table.reshape(tuple(m.size for m in marginals)), conditionals


def _opponent_table(policies):
    """Stacked Kronecker product: out[c, (theta_j...), (a_j...)] = prod_j p_j[c, theta_j, a_j]."""
    acc = np.ones((policies[0].shape[0] if policies else 1, 1, 1))
    for p in policies:
        acc = acc[:, :, None, :, None] * p[:, None, :, None, :]
        acc = acc.reshape(acc.shape[0], acc.shape[1] * acc.shape[2], -1)
    return acc


def reference_exact_reward(game, i, policies, cap=10**7):
    """The exact reward oracle as one einsum over the full opponent table."""
    from commeq.errors import EnumerationTooLarge

    nt, na = game.num_types, game.num_actions
    cells = math.prod(nt[j] * na[j] for j in range(game.n) if j != i)
    if cells > cap:
        raise EnumerationTooLarge(f"{cells} opponent cells exceed cap {cap}")
    opp = _opponent_table([np.asarray(policies[j], dtype=float)[None]
                           for j in range(game.n) if j != i])[0]
    cond = game.prior.conditional_matrix(i)
    v = game.payoff_from_own_view(i)    # (K_i, M_i, T_-i, A_-i)
    return np.einsum("io,op,iaop->ia", cond, opp, v, optimize=True)


def reference_sampled_reward(game, i, policies, epsilon, delta, rng, horizon):
    """The Monte-Carlo reward oracle entry by entry: the mass an inverse-CDF
    draw gives each action, the cell distribution q per type, one multinomial
    draw of every type's cell counts, and the count-weighted payoff sums of
    one type at a time."""
    from commeq.dynamics import sample_count

    nt, na = game.num_types, game.num_actions
    max_ta = max(k * m for k, m in zip(nt, na))
    n_samples = sample_count(epsilon, delta, game.n, horizon, max_ta)
    draws = []
    for j in range(game.n):
        if j == i:
            continue
        pj = np.asarray(policies[j], dtype=float)
        mass = np.empty_like(pj)
        for theta in range(pj.shape[0]):
            cdf, below = 0.0, 0.0
            for b in range(pj.shape[1] - 1):
                cdf += pj[theta, b]
                step = min(max(cdf, 0.0), 1.0)      # P(u <= cdf), u uniform in [0, 1)
                mass[theta, b] = step - below
                below = step
            mass[theta, -1] = 1.0 - below
        draws.append(mass[None])
    table = _opponent_table(draws)[0]
    cond = game.prior.conditional_matrix(i)
    q = np.empty((nt[i],) + table.shape)
    for theta in range(nt[i]):
        for tau in range(table.shape[0]):
            for alpha in range(table.shape[1]):
                q[theta, tau, alpha] = cond[theta, tau] * table[tau, alpha]
    q = q.reshape(nt[i], -1)
    for theta in range(nt[i]):
        q[theta] = q[theta] / q[theta].sum()
    counts = rng.multinomial(n_samples, q).astype(float)
    v = game.payoff_from_own_view(i).reshape(nt[i], na[i], -1)
    out = np.empty((nt[i], na[i]))
    for theta in range(nt[i]):
        out[theta] = np.einsum("ac,c->a", v[theta], counts[theta]) / n_samples
    return out


def reference_deviation_gains(game, i, dist):
    """G[theta, theta', a', a] by einsum over the full opponent table (mixtures)
    or the reshaped distribution (tabular arrays)."""
    from commeq.game import MixtureDistribution

    nt, na = game.num_types, game.num_actions
    cond = game.prior.conditional_matrix(i)
    v = game.payoff_from_own_view(i)         # (K, M, O, P)
    if isinstance(dist, MixtureDistribution):
        opp = _opponent_table([p for j, p in enumerate(dist.policies) if j != i])
        opp = np.broadcast_to(opp, (dist.num_components,) + opp.shape[1:])
        per_round = np.einsum("io,top,iaop->tia", cond, opp, v, optimize=True)
        return np.einsum("t,tjb,tia->ijba", dist.weights, dist.policies[i], per_round,
                         optimize=True)
    pi = np.moveaxis(np.moveaxis(np.asarray(dist, dtype=float), i, 0), game.n + i, game.n)
    pi = pi.reshape(nt[i], v.shape[2], na[i], v.shape[3])   # (K_j', O, M_b, P)
    return np.einsum("io,jobp,iaop->ijba", cond, pi, v, optimize=True)


# ---------------------------------------------------------------------------
# the learners with their doubling bank laid out decision axis last (weights
# and rewards shape + (d,)), the reference for the library's decision-axis-
# first bank, each stepping one learner at a time with its own copy of the
# unbatched warm-started fixed point below


def _reference_power_fixed_point(dense, seed, tol, cap):
    x = seed
    best = np.inf
    last_check = np.inf
    for it in range(1, cap + 1):
        qx = dense @ x
        res = float(np.abs(qx - x).max())
        if res <= tol:
            return x, res, it
        if res < best:
            best = res
        if it % 100 == 0:
            if best > 0.9 * last_check:  # plateau: not even 10% progress in 100 steps
                return qx, res, it
            last_check = best
        x = qx
    return x, best, cap


def reference_power_fixed_points(dense, seed, tol, cap):
    """The per-sweep power iteration entry by entry on a (B, n, n) stack:
    (B, n) iterates, (B,) residuals and the sweep at which the last entry
    stopped."""
    runs = [_reference_power_fixed_point(d, s, tol, cap) for d, s in zip(dense, seed)]
    return (np.stack([r[0] for r in runs]), np.array([r[1] for r in runs]),
            max(r[2] for r in runs))


def _reference_solve_fixed_point(dense, k, m):
    d = k * m
    norm_rows = np.zeros((k, d))
    for theta in range(k):
        norm_rows[theta, theta * m:(theta + 1) * m] = 1.0
    a = np.vstack([dense - np.eye(d), norm_rows])
    b = np.concatenate([np.zeros(d), np.ones(k)])
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    res = float(np.abs(dense @ x - x).max())
    res = max(res, float(np.abs(norm_rows @ x - 1.0).max()))
    return x, res


def _hot_fixed_point(dense, seed, tol, norm_blocks):
    """Fixed point for the learner loop: warm-started power iteration with a
    least-squares fallback for degenerate (non-positive) matrices."""
    from commeq.errors import NoConvergence
    from commeq.learners import LEARNER_FP_CAP
    x, res, its = _reference_power_fixed_point(dense, seed, tol, LEARNER_FP_CAP)
    if res <= tol:
        return x
    x2, res2 = _reference_solve_fixed_point(dense, *norm_blocks)
    if res2 <= tol and x2.min() >= -tol:
        return np.clip(x2, 0.0, None)
    raise NoConvergence(its, min(res, res2))


def _softmax_last(logw):
    z = logw - logw.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


class ReferenceBank:
    """Doubling-trick MWU learners indexed by ``shape``, rewards ``shape + (d,)``."""

    def __init__(self, shape, d, ranges):
        self.d = d
        self.ranges = np.broadcast_to(np.asarray(ranges, dtype=float), shape).copy()
        self.live = self.ranges > 0
        self.logw = np.zeros(shape + (d,))
        self.epoch_cum = np.zeros(shape + (d,))
        self.budget = np.full(shape, math.log(d) if d > 1 else 0.0)
        self.eta = np.ones(shape) if d > 1 else np.zeros(shape)

    def decisions(self):
        return _softmax_last(self.logw)

    def update(self, rewards):
        if self.d <= 1:
            return
        rn = np.where(self.live[..., None], rewards, 0.0)
        rn = np.divide(rn, self.ranges[..., None], out=rn, where=self.live[..., None])
        self.logw += self.eta[..., None] * rn
        self.epoch_cum += rn
        burst = self.epoch_cum.max(axis=-1) > self.budget
        if burst.any():
            self.budget[burst] *= 2.0
            self.eta[burst] = np.sqrt(math.log(self.d) / self.budget[burst])
            self.logw[burst] = 0.0
            self.epoch_cum[burst] = 0.0


class ReferenceUntruthfulLearner:
    """One learner for a (K,) prior row; (B, K) rows step B of them one by one."""

    def __new__(cls, prior_row, num_actions, horizon):
        if np.ndim(prior_row) == 2:
            return ReferenceLearnerStack([cls(row, num_actions, horizon) for row in prior_row])
        return super().__new__(cls)

    def __init__(self, prior_row, num_actions, horizon):
        from commeq.learners import LEARNER_FP_TOL, fixed_rate_eta
        self.rho = np.asarray(prior_row, dtype=float)
        self.K, self.M = self.rho.size, num_actions
        self.fp_tol = LEARNER_FP_TOL
        self.eta_type = fixed_rate_eta(self.K, horizon)
        self.logw = np.zeros((self.K, self.K))
        self.bank = ReferenceBank((self.K, self.K, self.M), self.M, self.rho[:, None, None])
        self.y = self.bank.decisions()        # (K, K, M_a', M_a)
        self.x = np.full((self.K, self.M), 1.0 / self.M)

    def step(self, prev_reward=None):
        if prev_reward is not None:
            ubar = self.rho[:, None] * np.asarray(prev_reward, dtype=float)
            split = self.x[None, :, :, None] * ubar[:, None, None, :]
            self.bank.update(split)
            z = (self.y * split).sum(axis=(2, 3))
            if self.K > 1:
                zn = np.where(self.rho[:, None] > 0, z, 0.0)
                zn = np.divide(zn, self.rho[:, None], out=zn, where=self.rho[:, None] > 0)
                self.logw += self.eta_type * zn
        w = _softmax_last(self.logw)
        self.y = self.bank.decisions()
        q4 = w[:, None, :, None] * self.y.transpose(0, 3, 1, 2)
        dense = q4.reshape(self.K * self.M, self.K * self.M)
        x = _hot_fixed_point(dense, self.x.reshape(-1), self.fp_tol, (self.K, self.M))
        self.x = x.reshape(self.K, self.M)
        return self.x.copy()


class ReferenceLearnerStack:
    """Independent learners fed and read as one (B, ...) stack."""

    def __init__(self, learners):
        self.learners = learners

    def step(self, prev_reward=None):
        prev = [None] * len(self.learners) if prev_reward is None else prev_reward
        return np.stack([lr.step(u) for lr, u in zip(self.learners, prev)])


class ReferenceSwapLearner:
    def __init__(self, num_actions, reward_range=1.0):
        from commeq.learners import LEARNER_FP_TOL
        self.M, self.fp_tol = num_actions, LEARNER_FP_TOL
        self.bank = ReferenceBank((1, 1, self.M), self.M,
                                  np.asarray([reward_range])[:, None, None])
        self.p = np.full(self.M, 1.0 / self.M)

    def step(self, prev_reward=None):
        if prev_reward is not None:
            u = np.asarray(prev_reward, dtype=float)
            self.bank.update(self.p[None, None, :, None] * u[None, None, None, :])
        y = self.bank.decisions()
        dense = (1.0 * y.transpose(0, 3, 1, 2)).reshape(self.M, self.M)
        self.p = _hot_fixed_point(dense, self.p, self.fp_tol, (1, self.M))
        return self.p.copy()


class ReferenceTypewiseLearner:
    """One swap learner per type for a (K,) prior row; (B, K) rows step B
    type-wise learners one by one."""

    def __new__(cls, prior_row, num_actions):
        if np.ndim(prior_row) == 2:
            return ReferenceLearnerStack([cls(row, num_actions) for row in prior_row])
        return super().__new__(cls)

    def __init__(self, prior_row, num_actions):
        self.rho = np.asarray(prior_row, dtype=float)
        self.per_type = [ReferenceSwapLearner(num_actions, float(r)) for r in self.rho]

    def step(self, prev_reward=None):
        rows = []
        for theta, learner in enumerate(self.per_type):
            fed = None
            if prev_reward is not None:
                fed = self.rho[theta] * np.asarray(prev_reward[theta], dtype=float)
            rows.append(learner.step(fed))
        return np.stack(rows)


class ReferenceStrategyLearner:
    def __init__(self, num_types, num_actions, cap=4096):
        from commeq.learners import LEARNER_FP_TOL
        self.K, self.M, self.fp_tol = num_types, num_actions, LEARNER_FP_TOL
        self.S = self.M ** self.K
        self.table = _strategy_table(self.K, self.M)
        self.bank = ReferenceBank((self.S, self.K), self.M, np.ones((self.S, self.K)))
        self.sigma = np.full(self.S, 1.0 / self.S)

    def step(self, prev_reward=None):
        if prev_reward is not None:
            u = np.asarray(prev_reward, dtype=float)
            self.bank.update(self.sigma[:, None, None] * u[None, :, :])
        z = self.bank.decisions()                       # (S, K, M)
        p = np.ones((self.S, self.S))
        for theta in range(self.K):
            p *= z[:, theta, self.table[:, theta]].T
        self.sigma = _hot_fixed_point(p, self.sigma, self.fp_tol, (1, self.S))
        return self.sigma.copy()

    def policy_marginal(self):
        out = np.zeros((self.K, self.M))
        for theta in range(self.K):
            np.add.at(out[theta], self.table[:, theta], self.sigma)
        return out


# ---------------------------------------------------------------------------
# pointwise evaluations, random members and invariant checks


def mixture_eval(mix, theta, action):
    """pi(theta; a) = sum_t w_t prod_i pi_i^t(theta_i; a_i)."""
    acc = mix.weights.copy()
    for i in range(mix.n):
        acc *= mix.policies[i][:, theta[i], action[i]]
    return float(acc.sum())


def strategy_to_mixture(sigma):
    """One deterministic product component per support profile, weight sigma(s)."""
    from commeq.game import MixtureDistribution, decode_strategy_profile
    support = np.flatnonzero(sigma.probs)
    rows = decode_strategy_profile(support, sigma.num_types, sigma.num_actions)
    policies = [np.eye(m)[r] for r, m in zip(rows, sigma.num_actions)]
    return MixtureDistribution.from_stacked(sigma.probs[support], policies)


def mixture(weights, profiles):
    """A mixture from per-component profiles, profiles[t][i] = the policy of
    player i, each component policy checked as a policy."""
    from commeq.game import MixtureDistribution, check_policy
    stacked = []
    for i in range(len(profiles[0])):
        arr = np.stack([np.asarray(p[i], dtype=float) for p in profiles])
        for t in range(arr.shape[0]):
            check_policy(arr[t], what=f"component {t} policy of player {i}")
        stacked.append(arr)
    return MixtureDistribution.from_stacked(weights, stacked)


def random_transform(rng, num_types, num_actions, positive=True):
    """A random interior member; with positive=True every dense entry is > 0."""
    from commeq.transforms import SwapTransform
    w = rng.random((num_types, num_types)) + (0.05 if positive else 0.0)
    w /= w.sum(axis=1, keepdims=True)
    y = rng.random((num_types, num_types, num_actions, num_actions)) + (0.05 if positive else 0.0)
    y /= y.sum(axis=3, keepdims=True)
    return SwapTransform(w, y)


def apply_transform(q, x):
    """Dense multiplication of a (K, M) policy; returns a (K, M) policy."""
    k, m = q.num_types, q.num_actions
    return (q.dense() @ x.reshape(k * m)).reshape(k, m)


def transform_membership_violation(q):
    """Largest violation of the polytope membership conditions (0 when valid)."""
    neg = max(0.0, -float(q.W.min()), -float(q.blocks.min()))
    w_rows = float(np.abs(q.W.sum(axis=1) - 1.0).max())
    cols = float(np.abs(q.blocks.sum(axis=3) - 1.0).max())
    # dense column sums within each block must reproduce W exactly
    k, m = q.num_types, q.num_actions
    dense = q.dense().reshape(k, m, k, m)
    wsums = dense.sum(axis=1)
    spread = float(np.abs(wsums - q.W[:, :, None]).max())
    return max(neg, w_rows, cols, spread)


def ledger_diagonal_gap(ledger):
    """|G - sum_{theta,a} C(theta,theta,a,a)|; an exact identity up to float dust."""
    diag = np.einsum("iiaa->", ledger.cross)
    return abs(float(diag) - ledger.alg_reward)


def audit_ledger(ledger, tol=1e-9):
    """Check the diagonal identity within ``tol`` or the ledger's float drift."""
    from commeq.errors import AuditError
    from commeq.regret import _ledger_drift
    gap = ledger_diagonal_gap(ledger)
    if gap > tol and gap > _ledger_drift(ledger):
        raise AuditError(f"ledger diagonal identity off by {gap:.3e}")
    if ledger.cross.min() < -tol:
        raise AuditError("negative cross-tensor entry")
