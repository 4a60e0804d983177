"""The swap-transform polytope for one player's policy space.

A transform couples a row-stochastic type mixer W with one action
distribution per (source type, reported type, recommended action).  Its dense
form acts linearly on policy matrices flattened type-major, maps the policy
space into itself, and always has a fixed point there; the 0/1 members are
exactly the pure (type misreport, action swap) deviations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, NoConvergence, NotShiftable, NotStochastic, NotValidOnX
from .game import SUM_TOL_INGEST, uniform_policy

FIXED_POINT_TOL = 1e-10
FIXED_POINT_CAP = 100_000
PLATEAU_STRIDE = 100             # power-iteration steps between plateau checks
SWEEP_BLOCK = 8                  # steps between residual checks, on transforms
SWEEP_BLOCK_CELLS = 128 * 128    # of at most this many cells
VERTEX_CHECK_CAP = 4096
VALIDITY_TOL = 1e-9              # linear_to_transform: slack of an image of a vertex policy


@dataclass(frozen=True)
class DeviationPair:
    """A pure deviation: psi misreports the type, phi swaps the action.

    ``phi[theta, a_recommended]`` is the action actually played.
    """

    psi: np.ndarray   # (|Theta|,) type indices
    phi: np.ndarray   # (|Theta|, |A|) action indices

    @staticmethod
    def create(psi, phi) -> DeviationPair:
        psi = np.asarray(psi, dtype=np.int64)
        phi = np.asarray(phi, dtype=np.int64)
        k = psi.size
        if phi.ndim != 2 or phi.shape[0] != k:
            raise BadInput("phi must be a (types x actions) index table")
        if psi.min(initial=0) < 0 or psi.max(initial=0) >= k:
            raise BadInput("psi is not a total map over the type set")
        if phi.min(initial=0) < 0 or phi.max(initial=0) >= phi.shape[1]:
            raise BadInput("phi is not a total map into the action set")
        return DeviationPair(psi, phi)

    @staticmethod
    def identity(num_types: int, num_actions: int) -> DeviationPair:
        return DeviationPair(np.arange(num_types),
                             np.tile(np.arange(num_actions), (num_types, 1)))


@dataclass(frozen=True)
class SwapTransform:
    """A polytope member: type mixer W plus per-(theta, theta', a') action columns.

    ``blocks[theta, theta', a', :]`` is a distribution over played actions a;
    the dense entry is Q((theta,a),(theta',a')) = W(theta,theta') *
    blocks[theta,theta',a',a].
    """

    W: np.ndarray        # (K, K) row-stochastic
    blocks: np.ndarray   # (K, K, M, M), last axis a distribution

    @property
    def num_types(self) -> int:
        return self.W.shape[0]

    @property
    def num_actions(self) -> int:
        return self.blocks.shape[2]

    def dense(self) -> np.ndarray:
        k, m = self.num_types, self.num_actions
        q4 = self.W[:, None, :, None] * self.blocks.transpose(0, 3, 1, 2)
        return q4.reshape(k * m, k * m)


def assemble_transform(w: np.ndarray, y: np.ndarray) -> SwapTransform:
    """Assemble from per-type report mixes w[theta] and columns y[theta,theta',a'].

    Raises NotStochastic if any input row fails the probability checks.
    """
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise BadInput("w must be square (types x types)")
    k = w.shape[0]
    if y.shape[:2] != (k, k) or y.ndim != 4 or y.shape[2] != y.shape[3]:
        raise BadInput(f"y must have shape (K, K, M, M), got {y.shape}")
    if w.min() < 0 or np.abs(w.sum(axis=1) - 1.0).max() > SUM_TOL_INGEST:
        raise NotStochastic("some w row is not a probability vector")
    if y.min() < 0 or np.abs(y.sum(axis=3) - 1.0).max() > SUM_TOL_INGEST:
        raise NotStochastic("some y column is not a probability vector")
    return SwapTransform(w.copy(), y.copy())


def deviation_to_transform(dev: DeviationPair) -> SwapTransform:
    """The 0/1 vertex with Q((theta,a),(theta',a')) = 1 iff theta' = psi(theta)
    and a = phi(theta, a')."""
    k, m = dev.phi.shape
    w = np.zeros((k, k))
    w[np.arange(k), dev.psi] = 1.0
    y = np.zeros((k, k, m, m))
    for theta in range(k):
        for ap in range(m):
            y[theta, :, ap, dev.phi[theta, ap]] = 1.0
    return SwapTransform(w, y)


def _power_fixed_point(dense: np.ndarray, seed: np.ndarray, tol: float,
                       cap: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Iterate x <- Qx on a stack of B transforms until every entry's residual
    drops below tol or plateaus.

    ``dense`` is (B, n, n) and ``seed`` (B, n).  Each entry stops at the
    sweep where it would stop alone: at the iterate whose residual reached
    tol, or at the next one on a plateau (not even 10% progress in
    PLATEAU_STRIDE sweeps); at the cap it keeps its last iterate and its best
    residual.  Returns (x, residual, sweeps): the (B, n) iterates, their (B,)
    residuals and the sweep at which the last entry stopped.  The caller
    decides what a bad residual means.  No renormalization is needed: Q maps
    the policy space into itself.

    The live entries sweep SWEEP_BLOCK times into one buffer, and one
    subtract, abs and max give the block's residuals, on which the per-sweep
    rule is replayed; so an entry may be swept past the iterate it returns.
    Transforms of more than SWEEP_BLOCK_CELLS cells check every sweep, as a
    sweep there costs far more than its check.
    """
    out, residual = np.empty(seed.shape), np.empty(len(seed))
    best = [math.inf] * len(seed)           # per entry: lowest residual so far,
    last_check = [math.inf] * len(seed)     # and its value at the last plateau check
    live, x = np.arange(len(seed)), seed
    block = SWEEP_BLOCK if dense[0].size <= SWEEP_BLOCK_CELLS else 1
    swept = stopped = 0
    while True:
        k = min(block, cap - swept)
        xs = np.empty((k + 1,) + x.shape)                # (sweeps, live entries, n)
        xs[0] = x
        # one live entry sweeps as a plain mat-vec, several as one stacked
        # matmul: the same bits, but the mat-vec costs less per call
        q, xv, product = (dense[0], xs[:, 0], np.dot) if len(live) == 1 else \
            (dense, xs[..., None], np.matmul)
        for j in range(k):
            product(q, xv[j], out=xv[j + 1])
        diff = xs[1:] - xs[:-1]
        res = np.abs(diff, out=diff).max(axis=2).T.tolist()   # per live entry, per sweep
        keep = []
        for pos, b in enumerate(live.tolist()):
            for j, worst in enumerate(res[pos]):
                it = swept + j + 1
                if worst <= tol:
                    at = j                  # converged: the iterate it swept
                    break
                best[b] = min(best[b], worst)
                if it % PLATEAU_STRIDE == 0:
                    if best[b] > 0.9 * last_check[b]:
                        at = j + 1          # stalled: the iterate it produced
                        break
                    last_check[b] = best[b]
            else:
                keep.append(pos)
                continue
            out[b], residual[b], stopped = xs[at, pos], worst, max(stopped, it)
        swept += k
        if not keep:
            return out, residual, stopped
        if len(keep) < len(live):
            live, dense, x = live[keep], dense[keep], xs[k, keep]
        else:
            x = xs[k]
        if swept == cap:
            out[live], residual[live] = x, [best[b] for b in live.tolist()]
            return out, residual, cap


def _fixed_points(dense: np.ndarray, seed: np.ndarray, tol: float, cap: int,
                  num_types: int, power=None, solve=None) -> np.ndarray:
    """Per-entry policies x with ||Qx - x||_inf <= tol for a stack of dense
    transforms ``dense`` (B, n, n), from ``seed`` (B, n).

    Power iteration from the seed; an entry that plateaus or reaches ``cap``
    falls through, alone, to a least-squares solve of (Q - I)x = 0 with the
    per-type normalization rows appended.  Callers may pass ``power`` and
    ``solve`` as bound in their own module, so that whatever wraps those
    names there (a tracing wrapper, say) sees the calls.
    """
    x, res, its = (power or _power_fixed_point)(dense, seed, tol, cap)
    if its < PLATEAU_STRIDE and its < cap:  # no entry could have stalled or hit the cap
        return x
    for b in np.flatnonzero(~(res <= tol)):
        x2, res2 = (solve or _solve_fixed_point)(dense[b], num_types,
                                                 dense.shape[-1] // num_types)
        if not (res2 <= tol and x2.min() >= -tol):
            raise NoConvergence(its, min(float(res[b]), res2))
        x[b] = np.clip(x2, 0.0, None)
    return x


def fixed_point(q: SwapTransform, seed_policy: np.ndarray | None = None) -> np.ndarray:
    """A policy x with ||Qx - x||_inf <= FIXED_POINT_TOL.

    Power iteration from the seed (uniform by default); for strictly positive
    transforms the normalized fixed direction is unique and iteration
    converges.  Degenerate transforms (permutations and other boundary cases)
    fall through to a least-squares solve of (Q - I)x = 0 with the per-type
    normalization rows appended.  Ties among multiple fixed points resolve to
    whatever the seeded iteration or the solver reaches; uniqueness is only
    guaranteed for positive transforms.
    """
    k, m = q.num_types, q.num_actions
    seed = uniform_policy(k, m) if seed_policy is None else np.asarray(seed_policy, dtype=float)
    x = _fixed_points(q.dense()[None], seed.reshape(1, k * m), FIXED_POINT_TOL,
                      FIXED_POINT_CAP, k)
    return x.reshape(k, m)


def _solve_fixed_point(dense: np.ndarray, k: int, m: int) -> tuple[np.ndarray, float]:
    """Least-squares fixed point of one dense transform with its k per-type
    normalization rows appended; returns (x, residual)."""
    d = k * m
    norm_rows = np.repeat(np.eye(k), m, axis=1)
    a = np.vstack([dense - np.eye(d), norm_rows])
    b = np.concatenate([np.zeros(d), np.ones(k)])
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    res = float(np.abs(dense @ x - x).max())
    res = max(res, float(np.abs(norm_rows @ x - 1.0).max()))
    return x, res


def vertex_policies(num_types: int, num_actions: int):
    """Iterate all |A|^|Theta| deterministic policies."""
    for assignment in itertools.product(range(num_actions), repeat=num_types):
        x = np.zeros((num_types, num_actions))
        x[np.arange(num_types), assignment] = 1.0
        yield x


def linear_to_transform(m: np.ndarray, num_types: int, num_actions: int) -> SwapTransform:
    """Convert any linear map that is valid on the policy space into a member
    of the transform polytope acting identically on that space.

    Validity is checked on every vertex policy when |A|^|Theta| is within
    VERTEX_CHECK_CAP, on that many sampled vertices otherwise.  The
    conversion shifts each row by per-block constants summing to zero,
    absorbing the slack into the last type's block; by construction this
    never changes Mx for row-stochastic x.
    """
    k, mm = num_types, num_actions
    d = k * mm
    mat = np.asarray(m, dtype=float)
    if mat.shape != (d, d):
        raise BadInput(f"matrix must be {d}x{d}, got {mat.shape}")

    n_vertices = mm ** k
    if n_vertices <= VERTEX_CHECK_CAP:
        vertices = vertex_policies(k, mm)
    else:
        rng = np.random.default_rng(0)
        def _sampled():
            for _ in range(VERTEX_CHECK_CAP):
                assignment = rng.integers(0, mm, size=k)
                x = np.zeros((k, mm))
                x[np.arange(k), assignment] = 1.0
                yield x
        vertices = _sampled()
    for x in vertices:
        y = (mat @ x.reshape(d)).reshape(k, mm)
        if y.min() < -VALIDITY_TOL or np.abs(y.sum(axis=1) - 1.0).max() > VALIDITY_TOL:
            raise NotValidOnX("map sends a vertex policy outside the policy space")

    m4 = mat.reshape(k, mm, k, mm)
    # block-column sums must be constant across a'; W is that constant
    col_sums = m4.sum(axis=1)                      # (K_theta, K_theta', M_a')
    if float((col_sums.max(axis=2) - col_sums.min(axis=2)).max()) > 1e-7:
        raise NotValidOnX("block column sums vary with the recommended action")

    shifted = m4.copy()
    theta_star = k - 1                              # last type absorbs the slack
    row_mins = m4.min(axis=3)                       # (K, M, K) min over a'
    for theta in range(k):
        for a in range(mm):
            shifts = -row_mins[theta, a].copy()
            shifts[theta_star] = row_mins[theta, a].sum() - row_mins[theta, a, theta_star]
            shifted[theta, a] += shifts[:, None]
    if shifted.min() < -1e-9 or shifted.max() > 1 + 1e-9:
        raise NotShiftable("shifted entries escaped [0,1]; this is a bug, not bad input")
    shifted = np.clip(shifted, 0.0, 1.0)

    w = shifted.sum(axis=1)[:, :, 0]                # (K, K), constant over a'
    blocks = np.empty((k, k, mm, mm))
    for theta in range(k):
        for tp in range(k):
            if w[theta, tp] > 1e-12:
                blocks[theta, tp] = shifted[theta, :, tp, :].T / w[theta, tp]
            else:
                blocks[theta, tp] = 1.0 / mm        # weightless block: any column works
    blocks /= blocks.sum(axis=3, keepdims=True)     # absorb clipping dust
    w = np.clip(w, 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    return SwapTransform(w, blocks)
