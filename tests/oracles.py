"""Independent brute-force oracles the tests check the library against.

Everything here enumerates deviation maps explicitly or replays definitions
with straight-line loops; nothing imports the decompositions under test.
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


def reference_max_lambda(game, deviation, mode, mu):
    best = np.inf
    for _, _, lhs, against, opt in _smoothness_cells(game, deviation, mode):
        if opt > 0:
            best = min(best, (lhs + mu * against) / opt)
    return float(best)


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
