import numpy as np
import pytest

from ein3.einstein import _complement_onb, _signatures
from ein3.linalg import (
    GeometryError,
    Subspace,
    projective_normalize,
)

from references import inner, intersect


def span(*vectors):
    return Subspace(np.column_stack(vectors))


def test_inner_hyperbolic_pair():
    # derived by evaluating the fixed Gram matrix of the model space
    assert inner([0, 0, 0, 1, 0], [0, 0, 0, 0, 1]) == -0.5


def test_inner_bilinear_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u, v, w = rng.normal(size=(3, 5))
        a, b = rng.normal(size=2)
        lhs = inner(a * u + b * v, w)
        rhs = a * inner(u, w) + b * inner(v, w)
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-12 * scale
        assert abs(inner(u, v) - inner(v, u)) <= 1e-12 * max(1.0, abs(inner(u, v)))


def test_signature_examples():
    assert _signatures(np.eye(5)) == (3, 2, 0)
    null_line = span([0, 0, 0, 1, 0])
    assert _signatures(null_line.onb) == (0, 0, 1)
    # diagonalizing the 2x2 restricted Gram of this pair gives one +, one -
    sub = span([1, 0, 0, 0, 0], [0, 0, 0, 1, 1])
    assert _signatures(sub.onb) == (1, 1, 0)


def test_signature_additivity_nondegenerate():
    rng = np.random.default_rng(1)
    for _ in range(50):
        sub = Subspace(rng.normal(size=(5, 2)))
        p, q, z = _signatures(sub.onb)
        if z > 0:
            continue
        pc, qc, zc = _signatures(_complement_onb(sub.onb))
        assert (p + pc, q + qc, zc) == (3, 2, 0)


def test_orthogonal_complement():
    assert _complement_onb(np.eye(5)).shape == (5, 0)
    v = np.array([1.0, 2.0, 0.5, 0.3, -1.0])
    perp = _complement_onb(span(v).onb)
    assert perp.shape == (5, 4)
    again = Subspace(_complement_onb(perp))
    assert again == span(v)
    # a null line is inside its own complement
    null = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    assert abs(inner(null, null)) < 1e-12
    assert Subspace(_complement_onb(span(null).onb)).contains_vector(null)


def test_intersect_examples():
    e = np.eye(4)
    s = Subspace(e[:, :2])
    assert intersect(s, s) == s
    t = Subspace(e[:, 2:])
    assert intersect(s, t).dim == 0
    a = Subspace(e[:, :2])
    b = Subspace(e[:, 1:3])
    assert intersect(a, b) == span(e[:, 1])


def test_intersect_dimension_formula():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = Subspace(rng.normal(size=(5, rng.integers(1, 4))))
        b = Subspace(rng.normal(size=(5, rng.integers(1, 4))))
        meet = intersect(a, b)
        join = np.linalg.matrix_rank(np.hstack([a.onb, b.onb]))
        assert meet.dim + join == a.dim + b.dim


def test_projective_normalize():
    assert np.allclose(projective_normalize([0, 0, 2, 0, 0]), [0, 0, 1, 0, 0])
    assert np.allclose(projective_normalize([-3, 0, 0, 0, 0]), [1, 0, 0, 0, 0])
    assert np.allclose(projective_normalize([1, -2, 0, 0, 0]), [-0.5, 1, 0, 0, 0])


def test_projective_normalize_idempotent_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.normal(size=5)
        lam = rng.normal()
        if abs(lam) < 1e-6:
            continue
        n = projective_normalize(v)
        assert np.allclose(projective_normalize(n), n)
        assert np.allclose(projective_normalize(lam * v), n)


def test_validation_errors():
    with pytest.raises(GeometryError):
        projective_normalize([0.0, 0.0])
    with pytest.raises(GeometryError):
        Subspace(np.column_stack([np.ones(4), np.ones(4)]))  # rank deficient
