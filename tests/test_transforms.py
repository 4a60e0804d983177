import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commeq.errors import NotStochastic, NotValidOnX
from commeq.game import policy_violation, uniform_policy
from commeq.transforms import (DeviationPair, SwapTransform, assemble_transform,
                               deviation_to_transform, fixed_point,
                               linear_to_transform, vertex_policies)

from .oracles import apply_transform, random_transform, transform_membership_violation


def test_identity_deviation_is_identity_matrix():
    q = deviation_to_transform(DeviationPair.identity(2, 3))
    assert np.array_equal(q.dense(), np.eye(6))


def test_constant_action_map():
    phi = np.zeros((1, 2), dtype=np.int64)   # both actions -> first action
    q = deviation_to_transform(DeviationPair.create([0], phi))
    assert np.array_equal(q.dense(), np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_type_swap_is_block_permutation():
    q = deviation_to_transform(DeviationPair.create([1, 0], np.tile(np.arange(2), (2, 1))))
    expect = np.zeros((4, 4))
    expect[0:2, 2:4] = np.eye(2)
    expect[2:4, 0:2] = np.eye(2)
    assert np.array_equal(q.dense(), expect)


def test_deviation_vertices_are_binary_with_exact_membership():
    rng = np.random.default_rng(0)
    for _ in range(20):
        psi = rng.integers(0, 3, 3)
        phi = rng.integers(0, 2, (3, 2))
        q = deviation_to_transform(DeviationPair.create(psi, phi))
        d = q.dense()
        assert set(np.unique(d)) <= {0.0, 1.0}
        assert transform_membership_violation(q) == 0.0


def test_assemble_uniform():
    k, m = 2, 3
    w = np.full((k, k), 0.5)
    y = np.full((k, k, m, m), 1 / 3)
    q = assemble_transform(w, y)
    assert np.allclose(q.dense(), 1.0 / (k * m))


def test_assemble_rejects_bad_rows():
    with pytest.raises(NotStochastic):
        assemble_transform(np.array([[0.5, 0.4], [0.5, 0.5]]), np.full((2, 2, 2, 2), 0.5))
    with pytest.raises(NotStochastic):
        bad_y = np.full((2, 2, 2, 2), 0.5)
        bad_y[0, 0, 0] = [0.9, 0.2]
        assemble_transform(np.full((2, 2), 0.5), bad_y)


def test_assemble_point_mass_equals_deviation():
    psi = np.array([1, 0])
    phi = np.array([[1, 1], [0, 1]])
    w = np.zeros((2, 2))
    w[np.arange(2), psi] = 1.0
    y = np.zeros((2, 2, 2, 2))
    for th in range(2):
        for ap in range(2):
            y[th, :, ap, phi[th, ap]] = 1.0
    assert np.array_equal(assemble_transform(w, y).dense(),
                          deviation_to_transform(DeviationPair.create(psi, phi)).dense())


def test_assemble_mix_of_two_action_swaps():
    # shared type map, two different action swaps mixed 50/50
    psi = np.array([1, 0])
    phi1 = np.array([[0, 0], [1, 0]])
    phi2 = np.array([[1, 1], [0, 1]])
    w = np.zeros((2, 2))
    w[np.arange(2), psi] = 1.0
    y = np.zeros((2, 2, 2, 2))
    for th in range(2):
        for ap in range(2):
            y[th, :, ap, phi1[th, ap]] += 0.5
            y[th, :, ap, phi2[th, ap]] += 0.5
    q1 = deviation_to_transform(DeviationPair.create(psi, phi1)).dense()
    q2 = deviation_to_transform(DeviationPair.create(psi, phi2)).dense()
    assert np.allclose(assemble_transform(w, y).dense(), 0.5 * (q1 + q2), atol=1e-15)


def test_fixed_point_identity_returns_seed():
    q = deviation_to_transform(DeviationPair.identity(2, 2))
    seed = np.array([[0.7, 0.3], [0.2, 0.8]])
    assert np.array_equal(fixed_point(q, seed_policy=seed), seed)


def test_fixed_point_uniform_transform():
    k, m = 2, 3
    q = assemble_transform(np.full((k, k), 0.5), np.full((k, k, m, m), 1 / 3))
    assert np.allclose(fixed_point(q), uniform_policy(k, m))


def test_fixed_point_two_action_linear_system():
    blocks = np.zeros((1, 1, 2, 2))
    blocks[0, 0, 0] = [0.5, 0.5]
    blocks[0, 0, 1] = [1.0, 0.0]
    q = SwapTransform(np.ones((1, 1)), blocks)
    assert np.allclose(q.dense(), [[0.5, 1.0], [0.5, 0.0]])
    assert np.allclose(fixed_point(q), [[2 / 3, 1 / 3]], atol=1e-9)


def test_fixed_point_permutation_fallback():
    q = deviation_to_transform(DeviationPair.create([1, 0], np.tile(np.arange(2), (2, 1))))
    seed = np.array([[0.9, 0.1], [0.3, 0.7]])
    x = fixed_point(q, seed_policy=seed)
    assert np.abs(apply_transform(q, x) - x).max() <= 1e-10
    assert policy_violation(x) <= 1e-9


def test_membership_closure_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        q = random_transform(rng, k, m)
        x = rng.random((k, m))
        x /= x.sum(axis=1, keepdims=True)
        y = apply_transform(q, x)
        assert policy_violation(y) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 3))
def test_fixed_point_residual_property(seed, k, m):
    rng = np.random.default_rng(seed)
    q = random_transform(rng, k, m)
    x = fixed_point(q)
    assert np.abs(apply_transform(q, x) - x).max() <= 1e-10
    assert policy_violation(x) <= 1e-9


def _random_deviation_mix(rng, k, m, count=5):
    mats, qs = [], []
    for _ in range(count):
        psi = rng.integers(0, k, k)
        phi = rng.integers(0, m, (k, m))
        qs.append(deviation_to_transform(DeviationPair.create(psi, phi)))
        mats.append(qs[-1].dense())
    w = rng.random(count)
    w /= w.sum()
    return sum(wi * mi for wi, mi in zip(w, mats))


def test_linear_to_transform_on_member():
    rng = np.random.default_rng(2)
    q = random_transform(rng, 2, 2)
    out = linear_to_transform(q.dense(), 2, 2)
    for v in vertex_policies(2, 2):
        assert np.abs(apply_transform(out, v) - apply_transform(q, v)).max() <= 1e-9


def test_linear_to_transform_convex_combination():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        mat = _random_deviation_mix(rng, k, m)
        out = linear_to_transform(mat, k, m)
        assert transform_membership_violation(out) <= 1e-9
        for v in vertex_policies(k, m):
            got = apply_transform(out, v).reshape(-1)
            want = mat @ v.reshape(-1)
            assert np.abs(got - want).max() <= 1e-9


def test_linear_to_transform_repairs_row_shift():
    rng = np.random.default_rng(7)
    k, m = 2, 2
    base = _random_deviation_mix(rng, k, m)
    shifted = base.reshape(k, m, k, m).copy()
    shifted[0, 0, 0, :] += 0.2     # push one block of row (0,0) up ...
    shifted[0, 0, 1, :] -= 0.2     # ... and the other down: Mx unchanged on X
    mat = shifted.reshape(k * m, k * m)
    out = linear_to_transform(mat, k, m)
    assert transform_membership_violation(out) <= 1e-9
    assert out.dense().min() >= 0.0 and out.dense().max() <= 1.0
    for v in vertex_policies(k, m):
        assert np.abs(apply_transform(out, v).reshape(-1) - mat @ v.reshape(-1)).max() <= 1e-9


def test_linear_to_transform_interior_agreement():
    rng = np.random.default_rng(9)
    mat = _random_deviation_mix(rng, 2, 3)
    out = linear_to_transform(mat, 2, 3)
    for _ in range(100):
        x = rng.random((2, 3))
        x /= x.sum(axis=1, keepdims=True)
        assert np.abs(apply_transform(out, x).reshape(-1) - mat @ x.reshape(-1)).max() <= 1e-9


def test_linear_to_transform_rejects_invalid():
    mat = np.eye(4)
    mat[0, 0] = 2.0   # doubles mass of one action: leaves the policy space
    with pytest.raises(NotValidOnX):
        linear_to_transform(mat, 2, 2)
