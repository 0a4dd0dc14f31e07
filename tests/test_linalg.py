import numpy as np
import pytest

from ein3.einstein import _complement_onb, _signatures
from ein3.linalg import (
    EPS_RANK,
    GeometryError,
    _orthonormal_columns,
    _same_spans,
    projective_normalize,
)

from references import inner, intersect


def span(*vectors):
    """Orthonormal basis of the span of the vectors."""
    return _orthonormal_columns(np.column_stack(vectors), EPS_RANK)


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
    assert _signatures(span([0, 0, 0, 1, 0])) == (0, 0, 1)  # a null line
    # diagonalizing the 2x2 restricted Gram of this pair gives one +, one -
    assert _signatures(span([1, 0, 0, 0, 0], [0, 0, 0, 1, 1])) == (1, 1, 0)


def test_signature_additivity_nondegenerate():
    rng = np.random.default_rng(1)
    for _ in range(50):
        onb = _orthonormal_columns(rng.normal(size=(5, 2)), EPS_RANK)
        p, q, z = _signatures(onb)
        if z > 0:
            continue
        pc, qc, zc = _signatures(_complement_onb(onb))
        assert (p + pc, q + qc, zc) == (3, 2, 0)


def test_orthogonal_complement():
    assert _complement_onb(np.eye(5)).shape == (5, 0)
    v = np.array([1.0, 2.0, 0.5, 0.3, -1.0])
    perp = _complement_onb(span(v))
    assert perp.shape == (5, 4)
    assert _same_spans(_complement_onb(perp), span(v))
    # a null line is inside its own complement
    null = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    assert abs(inner(null, null)) < 1e-12
    comp = _complement_onb(span(null))
    assert np.linalg.norm(null - comp @ (comp.T @ null)) <= EPS_RANK * np.linalg.norm(null)


def test_intersect_examples():
    e = np.eye(4)
    assert _same_spans(intersect(e[:, :2], e[:, :2]), e[:, :2])
    assert intersect(e[:, :2], e[:, 2:]).shape[1] == 0
    assert _same_spans(intersect(e[:, :2], e[:, 1:3]), span(e[:, 1]))


def test_intersect_dimension_formula():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = _orthonormal_columns(rng.normal(size=(5, rng.integers(1, 4))), EPS_RANK)
        b = _orthonormal_columns(rng.normal(size=(5, rng.integers(1, 4))), EPS_RANK)
        join = np.linalg.matrix_rank(np.hstack([a, b]))
        assert intersect(a, b).shape[1] + join == a.shape[1] + b.shape[1]


def _same_spans_by_rank(a, b):
    """Span equality of two orthonormal 2-frames by the rank of [A | B]."""
    return bool(np.linalg.matrix_rank(np.hstack([a, b]), tol=EPS_RANK) == 2)


def test_same_spans_matches_the_rank_reference():
    rng = np.random.default_rng(4)
    pairs = []
    for _ in range(50):
        a = _orthonormal_columns(rng.normal(size=(4, 2)), EPS_RANK)
        t = rng.uniform(0.1, 3.0)
        rotation = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        pairs += [(a, _orthonormal_columns(b, EPS_RANK)) for b in (
            rng.normal(size=(4, 2)),                                 # random
            a @ rotation,                                            # same span
            np.column_stack([rng.normal(size=4), a @ rng.normal(size=2)]),  # one shared line
            a + 1e-12 * rng.normal(size=(4, 2)),                     # within the tolerance
            a + 1e-6 * rng.normal(size=(4, 2)))]                     # off it
    # two bases whose first columns are the same line, passed as they are
    pairs.append((np.eye(4)[:, [0, 1]], np.eye(4)[:, [0, 2]]))
    want = [_same_spans_by_rank(a, b) for a, b in pairs]
    assert [bool(_same_spans(a, b)) for a, b in pairs] == want
    # one stacked call decides every pair
    assert _same_spans(*(np.array(x) for x in zip(*pairs))).tolist() == want
    assert want[1::5] == [True] * 50 and want[3::5] == [True] * 50
    assert not any(want[0::5] + want[2::5] + want[4::5])


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
        span(np.ones(4), np.ones(4))  # rank deficient
