import numpy as np
import pytest

from ein3 import einstein as E
from ein3.linalg import GeometryError, _raise_first

from references import (classify_point, classify_tori, eta, inner, minkowski_embed,
                        torus_normal)


def random_null_vector(rng):
    # solve the form along the last coordinate: Q = x^2 + y^2 - z^2 - u v
    while True:
        x, y, z, u = rng.normal(size=4)
        if abs(u) > 1e-3:
            return np.array([x, y, z, u, (x * x + y * y - z * z) / u])


def test_minkowski_embed_values():
    assert np.allclose(minkowski_embed([0, 0, 0]).rep, [0, 0, 0, 0, 1])
    assert np.allclose(minkowski_embed([1, 0, 0]).rep, [1, 0, 0, 1, 1])
    assert np.allclose(minkowski_embed([0, 0, 1]).rep, [0, 0, 1, -1, 1])


def test_minkowski_embed_null_and_injective():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = minkowski_embed(rng.normal(size=3) * 3)
        _, [(not_null, _)] = E._null_points(p.rep)
        assert not not_null
    for _ in range(50):
        a, b = rng.normal(size=(2, 3))
        if np.linalg.norm(a - b) < 1e-6:
            continue
        assert minkowski_embed(a) != minkowski_embed(b)


def test_improper_point():
    p_inf = E.EinPoint([0, 0, 0, 1, 0])
    assert np.allclose(p_inf.rep, [0, 0, 0, 1, 0])
    assert abs(inner(p_inf.rep, p_inf.rep)) == 0.0
    origin = minkowski_embed([0, 0, 0])
    assert inner(p_inf.rep, origin.rep) == -0.5
    assert not E.incident(p_inf, origin)


def test_incident():
    p = minkowski_embed([0.3, -1.2, 0.7])
    assert E.incident(p, p)
    assert not E.incident(minkowski_embed([0, 0, 0]), E.EinPoint([0, 0, 0, 1, 0]))
    a = E.EinPoint([1, 0, 1, 0, 0])
    b = E.EinPoint([0, 1, 1, 0, 0])
    assert inner(a.rep, b.rep) == -1.0
    assert not E.incident(a, b)


def test_classify_point_examples():
    p0 = minkowski_embed([0, 0, 0])
    pinf = E.EinPoint([0, 0, 0, 1, 0])
    assert classify_point(minkowski_embed([0, 0, 1]), p0, pinf) is E.CausalType.TIMELIKE
    assert classify_point(minkowski_embed([1, 0, 0]), p0, pinf) is E.CausalType.SPACELIKE
    assert classify_point(minkowski_embed([1, 0, 1]), p0, pinf) is E.CausalType.LIGHTLIKE


def test_classify_point_rejects_bad_configurations():
    p0 = minkowski_embed([0, 0, 0])
    pinf = E.EinPoint([0, 0, 0, 1, 0])
    with pytest.raises(GeometryError):
        classify_point(p0, p0, pinf)
    # a point incident to p_infinity is outside the Minkowski patch
    outside = E.EinPoint([1, 0, 1, 5, 0])
    with pytest.raises(GeometryError):
        classify_point(outside, p0, pinf)
    with pytest.raises(GeometryError):
        classify_point(minkowski_embed([1, 1, 1]), p0,
                       minkowski_embed([1, 0, 1]))  # incident references


def _eta(t1, t2):
    return E.classify_torus_pair(t1, t2).eta


def test_eta_examples():
    t1 = E.EinsteinTorus([1, 0, 0, 0, 0])
    assert eta(t1, t1) == 1.0
    t2 = E.EinsteinTorus([0, 1, 0, 0, 0])
    assert eta(t1, t2) == 0.0
    t3 = E.EinsteinTorus([2, 0, 0, 3, 1])
    assert inner(t3.normal, t3.normal) == pytest.approx(1.0)
    assert eta(t1, t3) == pytest.approx(2.0)


def test_eta_sign_invariant():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=5)
        if inner(v, v) < 1e-3:
            continue
        w = rng.normal(size=5)
        if inner(w, w) < 1e-3:
            continue
        t1, t1m = E.EinsteinTorus(v), E.EinsteinTorus(-v)
        t2 = E.EinsteinTorus(w)
        assert _eta(t1, t2) == pytest.approx(_eta(t1m, t2))
        assert _eta(t1, t2) == pytest.approx(_eta(t2, t1))


def test_classify_torus_pair_examples():
    t1 = E.EinsteinTorus([1, 0, 0, 0, 0])
    timelike = E.classify_torus_pair(t1, E.EinsteinTorus([0, 1, 0, 0, 0]))
    assert timelike.kind is E.IntersectionKind.TIMELIKE_CIRCLE
    assert E._carrier_signatures(*timelike.normals) == (1, 2, 0)

    spacelike = E.classify_torus_pair(t1, E.EinsteinTorus([2, 0, 0, 3, 1]))
    assert spacelike.kind is E.IntersectionKind.SPACELIKE_CIRCLE
    assert spacelike.eta == pytest.approx(2.0)
    assert E._carrier_signatures(*spacelike.normals) == (2, 1, 0)

    degenerate = E.classify_torus_pair(t1, E.EinsteinTorus([1, 0, 0, 1, 0]))
    assert degenerate.kind is E.IntersectionKind.PHOTON_PAIR
    assert E._carrier_signatures(*degenerate.normals) == (1, 1, 1)

    equal = E.classify_torus_pair(t1, E.EinsteinTorus([-1, 0, 0, 0, 0]))
    assert equal.kind is E.IntersectionKind.EQUAL
    assert equal.normals is None


@pytest.mark.parametrize("r", [6.0, 8.0, 10.0])
def test_photon_pairs_of_large_normals_read_past_the_rounding_of_eta(r):
    # s1 is orthogonal to the null vector e4, so eta = 1 exactly; at r = 10
    # eta's rounding (eta - 1 = 3.5e-8) passes eps = 1e-9
    s1 = np.array([np.cosh(r), 0.0, np.sinh(r), 0.0, 0.0])
    t1, t2 = E.EinsteinTorus(s1), E.EinsteinTorus(s1 + np.eye(5)[3])
    assert E.classify_torus_pair(t1, t2).kind is E.IntersectionKind.PHOTON_PAIR
    assert classify_tori(t1, t2).kind is E.IntersectionKind.PHOTON_PAIR


def test_reflect():
    rng = np.random.default_rng(3)
    s = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(E.reflect(s, s), -s)
    w = np.array([0.0, 1.0, 0.5, 0.2, -0.1])
    assert abs(inner(s, w)) == 0.0
    assert np.allclose(E.reflect(s, w), w)
    for _ in range(100):
        v = rng.normal(size=5)
        s2 = rng.normal(size=5)
        if abs(inner(s2, s2)) < 1e-3:
            continue
        assert np.allclose(E.reflect(s2, E.reflect(s2, v)), v, atol=1e-12)
    null = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    with pytest.raises(GeometryError):
        E.reflect(null, v)


def test_triple_lightcone_empty():
    p0 = minkowski_embed([0, 0, 0])
    pinf = E.EinPoint([0, 0, 0, 1, 0])
    assert E.triple_lightcone_empty(minkowski_embed([0, 0, 1]), p0, pinf)
    assert not E.triple_lightcone_empty(minkowski_embed([1, 0, 0]), p0, pinf)
    assert not E.triple_lightcone_empty(minkowski_embed([1, 0, 1]), p0, pinf)


def test_triple_lightcone_matches_classify():
    rng = np.random.default_rng(5)
    p0 = minkowski_embed([0, 0, 0])
    pinf = E.EinPoint([0, 0, 0, 1, 0])
    checked = 0
    while checked < 200:
        p = E.EinPoint(random_null_vector(rng))
        if p == p0 or p == pinf or E.incident(p, pinf):
            continue
        checked += 1
        timelike = classify_point(p, p0, pinf) is E.CausalType.TIMELIKE
        assert E.triple_lightcone_empty(p, p0, pinf) == timelike


# distinct tori whose unit normals, of entries ~1e4, are allclose (an rtol
# of 1e-5 on each entry): eta = 0.9975, a timelike circle
_APART = ([1e4, 1e4, 14142.135588375611, 0, 0], [10000.05, 9999.95, 14142.135588552388, 0, 0])


def test_tori_of_allclose_large_normals_are_distinct():
    t1, t2 = map(E.EinsteinTorus, _APART)
    assert np.allclose(t1.normal, t2.normal, atol=10 * E.EPS_ALG)
    assert t1 != t2
    cls = E.classify_torus_pair(t1, t2)
    assert cls.kind is E.IntersectionKind.TIMELIKE_CIRCLE
    assert cls.eta == pytest.approx(0.99750000297, abs=1e-10)
    assert E._carrier_signatures(*cls.normals) == (1, 2, 0)
    # eta of equal normals this large rounds off 1 by ~4e-8: still equal
    rescaled = E.EinsteinTorus(-3.0 * np.array(_APART[0]))
    assert abs(eta(t1, rescaled) - 1.0) > 10 * E.EPS_ALG
    assert t1 == t1 and t1 == rescaled
    assert E.classify_torus_pair(t1, rescaled).kind is E.IntersectionKind.EQUAL


def _torus_rows():
    """Normals at scales e^-20 to e^20, and crafted rows: zero, timelike,
    Q(s)/|s|^2 just below and above 1e-9, and ties in the largest |entry|."""
    rng = np.random.default_rng(53)
    rows = rng.normal(size=(3000, 5)) * np.exp(rng.uniform(-20.0, 20.0, size=(3000, 1)))
    z = [np.sqrt((1 - r) / (1 + r)) for r in (0.9e-9, 1.1e-9)]  # Q(s)/|s|^2 = r
    crafted = [[0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [1, 0, z[0], 0, 0], [1, 0, z[1], 0, 0],
               [1, 0, 0, 0, -1], [-1, 0, 0, 0, 1], [0, -2, 0, 2, 0], [3, -3, 0, 0, 0],
               [1, 0, 0, 0, 0], [1, 0, 0, 1, 0], *_APART]
    return np.concatenate([rows, np.array(crafted, float)])


def test_torus_kernels_match_the_scalar_route():
    # the stacked kernels against `EinsteinTorus` and `classify_torus_pair`
    # as they were written one torus and one pair at a time: the unit
    # normals and eta bit for bit, the kinds at eps 1e-9 and at
    # torus-trichotomy's 1e-6, and each error message
    rows = _torus_rows()
    units, checks = E._torus_normals(rows)
    tori = []
    for i, row in enumerate(rows):
        try:
            want = torus_normal(row)
        except GeometryError as error:
            with pytest.raises(GeometryError) as got:
                _raise_first(checks, i)
            assert str(got.value) == str(error)
            continue
        _raise_first(checks, i)
        tori.append(E.EinsteinTorus(row))
        assert np.array_equal(units[i], want) and np.array_equal(tori[-1].normal, want)
    assert min(len(tori), len(rows) - len(tori)) > 500
    e0, e3 = E.EinsteinTorus([1, 0, 0, 0, 0]), E.EinsteinTorus([1, 0, 0, 1, 0])
    boost = E.EinsteinTorus([np.cosh(4.5e-4), 0, np.sinh(4.5e-4), 0, 0])  # eta - 1 = 1e-7
    pairs = list(zip(tori[::2], tori[1::2])) + [(t, t) for t in tori[-8:]] + [
        (e0, e3), (e0, E.EinsteinTorus([-2, 0, 0, 0, 0])), (tori[-2], tori[-1]),
        (tori[-2], E.EinsteinTorus(-3.0 * np.array(_APART[0]))), (e0, boost)]
    rows = [np.array([t.normal for t in pair]) for pair in zip(*pairs)]
    for eps in (E.EPS_ALG, 1e-6):
        index, etas = E._torus_kinds(*rows, eps)
        kinds = []
        for (t1, t2), i, e in zip(pairs, index.tolist(), etas.tolist()):
            want = classify_tori(t1, t2, eps)
            got = E.classify_torus_pair(t1, t2, eps)
            assert E._KINDS[i] is got.kind is want.kind
            assert e == got.eta == want.eta
            kinds.append(want.kind)
        assert set(kinds) == set(E.IntersectionKind)
        assert kinds[-1] is (E.IntersectionKind.SPACELIKE_CIRCLE if eps == E.EPS_ALG
                             else E.IntersectionKind.PHOTON_PAIR)


def test_classify_torus_pair_takes_no_svd(monkeypatch):
    rng = np.random.default_rng(3)
    normals = [([1, 0, 0, 0, 0], [0, 1, 0, 0, 0]), ([1, 0, 0, 0, 0], [2, 0, 0, 3, 1]),
               ([1, 0, 0, 0, 0], [1, 0, 0, 1, 0])]
    normals += [tuple(0.1 * rng.normal(size=(2, 5)) + [[1, 0, 0, 0, 0]]) for _ in range(20)]
    pairs = [(E.EinsteinTorus(s1), E.EinsteinTorus(s2)) for s1, s2 in normals]

    def fail(*args, **kwargs):
        raise AssertionError("took an SVD")

    with monkeypatch.context() as no_svd:
        no_svd.setattr(np.linalg, "svd", fail)
        classes = [E.classify_torus_pair(t1, t2) for t1, t2 in pairs]
        assert [c.kind for c in classes[:3]] == [
            E.IntersectionKind.TIMELIKE_CIRCLE, E.IntersectionKind.SPACELIKE_CIRCLE,
            E.IntersectionKind.PHOTON_PAIR]
        for c, (t1, t2) in zip(classes, pairs):
            assert c.eta == eta(t1, t2)


def test_torus_and_point_equality_match_allclose():
    rng = np.random.default_rng(4)
    tol = 10 * E.EPS_ALG
    decided = {True: 0, False: 0}
    for _ in range(2000):
        s = 0.1 * rng.normal(size=5) + [1, 0, 0, 0, 0]
        t = E.EinsteinTorus(s)
        bound = tol + 1e-5 * np.abs(t.normal)
        other = E.EinsteinTorus(t.normal + rng.choice([-1, 1], 5) * bound * rng.uniform(0, 1.2, 5))
        assert (t == other) == np.allclose(t.normal, other.normal, atol=tol)
        decided[t == other] += 1
        p = minkowski_embed(rng.normal(size=3))
        q = E.EinPoint(p.rep)
        q.rep = p.rep + rng.choice([-1, 1], 5) * (tol + 1e-5 * np.abs(p.rep)) * rng.uniform(0, 1.2, 5)
        assert (p == q) == np.allclose(p.rep, q.rep, atol=tol)
        decided[p == q] += 1
    assert min(decided.values()) > 500


def test_torus_normal_test_does_not_depend_on_scale():
    # spacelike means Q(s) > eps |s|^2: a rescaled unit normal is the same
    # torus at every scale, and a normal with Q(s) / |s|^2 <= 1e-9 raises
    # at every scale
    rng = np.random.default_rng(31)
    units = [E.EinsteinTorus(s).normal for s in rng.normal(size=(20, 5))
             if s @ E.GRAM @ s > 0.1] + [np.eye(5)[0]]
    assert len(units) > 5
    for unit in units:
        torus = E.EinsteinTorus(unit)
        for scale in 10.0 ** np.arange(-8, 9):
            assert E.EinsteinTorus(scale * unit) == torus
            assert E.EinsteinTorus(-scale * unit) == torus
    assert E.EinsteinTorus([1e-5, 0, 0, 0, 0]) == E.EinsteinTorus([1, 0, 0, 0, 0])
    for ratio in (0.9e-9, 1e-12, 0.0, -1e-9, -0.5):
        # x^2 - z^2 = ratio (x^2 + z^2)
        s = np.array([1.0, 0.0, np.sqrt((1 - ratio) / (1 + ratio)), 0.0, 0.0])
        assert (s @ E.GRAM @ s) / (s @ s) <= 1e-9
        for scale in 10.0 ** np.arange(-8, 9, 4):
            with pytest.raises(GeometryError, match="normal must be spacelike"):
                E.EinsteinTorus(scale * s)


def test_torus_normal_takes_every_scale_without_overflow():
    import warnings

    rng = np.random.default_rng(47)
    normals = [s for s in rng.normal(size=(20, 5)) if s @ E.GRAM @ s > 0.1]
    normals += [np.array([1.0, 0, 0, 0, 0]), np.array([0, 0, 0, 1.0, -1.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in normals:
            torus = E.EinsteinTorus(s)
            for k in range(-300, 301):
                assert E.EinsteinTorus(10.0 ** k * s) == torus
            # a power of two is exact: the bits are those of s's unit normal
            for e in (-1000, -1, 1, 1000):
                assert np.array_equal(E.EinsteinTorus(np.ldexp(s, e)).normal, torus.normal)
    assert E.EinsteinTorus([1e200, 0, 0, 0, 0]) == E.EinsteinTorus([1, 0, 0, 0, 0])
    assert E.EinsteinTorus([0, 0, 0, 1e200, -1e200]) == E.EinsteinTorus([0, 0, 0, 1, -1])
    with pytest.raises(GeometryError, match="normal must be spacelike"):
        E.EinsteinTorus([0, 0, 1e200, 0, 0])
