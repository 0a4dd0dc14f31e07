import numpy as np
import pytest

from ein3 import einstein as E
from ein3.linalg import GeometryError, Subspace

W = E.model_space()


def random_null_vector(rng):
    # solve the form along the last coordinate: Q = x^2 + y^2 - z^2 - u v
    while True:
        x, y, z, u = rng.normal(size=4)
        if abs(u) > 1e-3:
            return np.array([x, y, z, u, (x * x + y * y - z * z) / u])


def test_minkowski_embed_values():
    assert np.allclose(E.minkowski_embed([0, 0, 0]).rep, [0, 0, 0, 0, 1])
    assert np.allclose(E.minkowski_embed([1, 0, 0]).rep, [1, 0, 0, 1, 1])
    assert np.allclose(E.minkowski_embed([0, 0, 1]).rep, [0, 0, 1, -1, 1])


def test_minkowski_embed_null_and_injective():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = E.minkowski_embed(rng.normal(size=3) * 3)
        assert W.is_null(p.rep)
    for _ in range(50):
        a, b = rng.normal(size=(2, 3))
        if np.linalg.norm(a - b) < 1e-6:
            continue
        assert E.minkowski_embed(a) != E.minkowski_embed(b)


def test_improper_point():
    p_inf = E.improper_point()
    assert np.allclose(p_inf.rep, [0, 0, 0, 1, 0])
    assert abs(E.inner(p_inf.rep, p_inf.rep)) == 0.0
    origin = E.minkowski_embed([0, 0, 0])
    assert E.inner(p_inf.rep, origin.rep) == -0.5
    assert not E.incident(p_inf, origin)


def test_incident():
    p = E.minkowski_embed([0.3, -1.2, 0.7])
    assert E.incident(p, p)
    assert not E.incident(E.minkowski_embed([0, 0, 0]), E.improper_point())
    a = E.EinPoint([1, 0, 1, 0, 0])
    b = E.EinPoint([0, 1, 1, 0, 0])
    assert E.inner(a.rep, b.rep) == -1.0
    assert not E.incident(a, b)


def test_light_cone():
    rng = np.random.default_rng(1)
    p = E.EinPoint(random_null_vector(rng))
    cone = E.light_cone(p)
    assert cone.dim == 4
    assert cone.contains_vector(p.rep)
    cone_inf = E.light_cone(E.improper_point())
    # (0,0,0,1,0)-orthogonality kills the last coordinate
    assert cone_inf == Subspace(np.eye(5)[:, :4])
    for _ in range(50):
        q = E.EinPoint(random_null_vector(rng))
        assert E.incident(p, q) == cone.contains_vector(q.rep, eps=1e-8)


def test_classify_point_examples():
    p0 = E.minkowski_embed([0, 0, 0])
    pinf = E.improper_point()
    assert E.classify_point(E.minkowski_embed([0, 0, 1]), p0, pinf) is E.CausalType.TIMELIKE
    assert E.classify_point(E.minkowski_embed([1, 0, 0]), p0, pinf) is E.CausalType.SPACELIKE
    assert E.classify_point(E.minkowski_embed([1, 0, 1]), p0, pinf) is E.CausalType.LIGHTLIKE


def test_classify_point_rejects_bad_configurations():
    p0 = E.minkowski_embed([0, 0, 0])
    pinf = E.improper_point()
    with pytest.raises(GeometryError):
        E.classify_point(p0, p0, pinf)
    # a point incident to p_infinity is outside the Minkowski patch
    outside = E.EinPoint([1, 0, 1, 5, 0])
    with pytest.raises(GeometryError):
        E.classify_point(outside, p0, pinf)
    with pytest.raises(GeometryError):
        E.classify_point(E.minkowski_embed([1, 1, 1]), p0,
                         E.minkowski_embed([1, 0, 1]))  # incident references


def test_eta_examples():
    t1 = E.EinsteinTorus([1, 0, 0, 0, 0])
    assert E.eta(t1, t1) == 1.0
    t2 = E.EinsteinTorus([0, 1, 0, 0, 0])
    assert E.eta(t1, t2) == 0.0
    t3 = E.EinsteinTorus([2, 0, 0, 3, 1])
    assert E.inner(t3.normal, t3.normal) == pytest.approx(1.0)
    assert E.eta(t1, t3) == pytest.approx(2.0)


def test_eta_sign_invariant():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=5)
        if E.inner(v, v) < 1e-3:
            continue
        w = rng.normal(size=5)
        if E.inner(w, w) < 1e-3:
            continue
        t1, t1m = E.EinsteinTorus(v), E.EinsteinTorus(-v)
        t2 = E.EinsteinTorus(w)
        assert E.eta(t1, t2) == pytest.approx(E.eta(t1m, t2))
        assert E.eta(t1, t2) == pytest.approx(E.eta(t2, t1))


def test_classify_torus_pair_examples():
    t1 = E.EinsteinTorus([1, 0, 0, 0, 0])
    timelike = E.classify_torus_pair(t1, E.EinsteinTorus([0, 1, 0, 0, 0]))
    assert timelike.kind is E.IntersectionKind.TIMELIKE_CIRCLE
    assert W.signature(timelike.carrier) == (1, 2, 0)

    spacelike = E.classify_torus_pair(t1, E.EinsteinTorus([2, 0, 0, 3, 1]))
    assert spacelike.kind is E.IntersectionKind.SPACELIKE_CIRCLE
    assert spacelike.eta == pytest.approx(2.0)
    assert W.signature(spacelike.carrier) == (2, 1, 0)

    degenerate = E.classify_torus_pair(t1, E.EinsteinTorus([1, 0, 0, 1, 0]))
    assert degenerate.kind is E.IntersectionKind.PHOTON_PAIR
    assert W.signature(degenerate.carrier) == (1, 1, 1)

    equal = E.classify_torus_pair(t1, E.EinsteinTorus([-1, 0, 0, 0, 0]))
    assert equal.kind is E.IntersectionKind.EQUAL
    assert equal.carrier is None


def test_photon_pair_from_degenerate():
    t1 = E.EinsteinTorus([1, 0, 0, 0, 0])
    t2 = E.EinsteinTorus([1, 0, 0, 1, 0])
    carrier = E.classify_torus_pair(t1, t2).carrier
    ph1, ph2 = E.photon_pair_from_degenerate(carrier)
    for ph in (ph1, ph2):
        assert W.signature(ph.plane) == (0, 0, 2)
        assert carrier.contains(ph.plane)
    from ein3.linalg import intersect
    radical = intersect(ph1.plane, ph2.plane)
    assert radical.dim == 1
    # the radical of this carrier is the null direction orthogonal to both normals
    assert abs(W.inner(radical.onb[:, 0], radical.onb[:, 0])) < 1e-12
    # explicit diag(1,-1,0) example: carrier span{e_y, e_z, e_u}
    explicit = Subspace(np.eye(5)[:, 1:4])
    q1, q2 = E.photon_pair_from_degenerate(explicit)
    expected = [Subspace.span([0, 1, 1, 0, 0], [0, 0, 0, 1, 0]),
                Subspace.span([0, 1, -1, 0, 0], [0, 0, 0, 1, 0])]
    # compare as unordered spans
    assert any(q1.plane == s for s in expected)
    assert any(q2.plane == s for s in expected)
    assert not q1.plane == q2.plane

    with pytest.raises(GeometryError):
        E.photon_pair_from_degenerate(Subspace(np.eye(5)[:, :3]))


def test_reflect():
    rng = np.random.default_rng(3)
    s = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(E.reflect(s, s), -s)
    w = np.array([0.0, 1.0, 0.5, 0.2, -0.1])
    assert abs(E.inner(s, w)) == 0.0
    assert np.allclose(E.reflect(s, w), w)
    for _ in range(100):
        v = rng.normal(size=5)
        s2 = rng.normal(size=5)
        if abs(E.inner(s2, s2)) < 1e-3:
            continue
        assert np.allclose(E.reflect(s2, E.reflect(s2, v)), v, atol=1e-12)
    null = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    with pytest.raises(GeometryError):
        E.reflect(null, v)


def test_composition_eigenvalues():
    s1 = np.array([1.0, 0, 0, 0, 0])
    # product 0: double eigenvalue -1
    lam = E.composition_eigenvalues(s1, np.array([0.0, 1, 0, 0, 0]))
    assert np.allclose(lam, (-1, -1))
    # product 1: double eigenvalue 1
    lam = E.composition_eigenvalues(s1, np.array([1.0, 0, 0, 1, 0]))
    assert np.allclose(lam, (1, 1))
    # product 2: 7 +/- 4 sqrt(3), checked against the direct 2x2 eigensolve
    s2 = np.array([2.0, 0, 0, 3, 1])
    lam = sorted(E.composition_eigenvalues(s1, s2), key=lambda z: z.real)
    assert lam[1] == pytest.approx(7 + 4 * np.sqrt(3))
    assert lam[0] == pytest.approx(7 - 4 * np.sqrt(3))
    direct = sorted(np.linalg.eigvals(E.composition_matrix(s1, s2)).real)
    assert np.allclose([z.real for z in lam], direct, atol=1e-9)


def test_composition_eigenvalue_type_matches_intersection():
    rng = np.random.default_rng(4)
    for _ in range(100):
        v, w = rng.normal(size=(2, 5))
        if E.inner(v, v) < 1e-2 or E.inner(w, w) < 1e-2:
            continue
        t1, t2 = E.EinsteinTorus(v), E.EinsteinTorus(w)
        if t1 == t2:
            continue
        cls = E.classify_torus_pair(t1, t2)
        if abs(cls.eta - 1.0) < 1e-6:
            continue
        l1, l2 = E.composition_eigenvalues(t1.normal, t2.normal)
        assert abs(l1 * l2 - 1.0) < 1e-9
        direct = np.linalg.eigvals(E.composition_matrix(t1.normal, t2.normal))
        assert np.allclose(sorted(np.real(direct)), sorted([l1.real, l2.real]), atol=1e-9)
        if cls.kind is E.IntersectionKind.SPACELIKE_CIRCLE:
            assert abs(l1.imag) < 1e-9 and abs(l1.real - l2.real) > 1e-9
        else:
            assert abs(l1.imag) > 1e-9
            assert abs(abs(l1) - 1.0) < 1e-9


def test_triple_lightcone_empty():
    p0 = E.minkowski_embed([0, 0, 0])
    pinf = E.improper_point()
    assert E.triple_lightcone_empty(E.minkowski_embed([0, 0, 1]), p0, pinf)
    assert not E.triple_lightcone_empty(E.minkowski_embed([1, 0, 0]), p0, pinf)
    assert not E.triple_lightcone_empty(E.minkowski_embed([1, 0, 1]), p0, pinf)


def test_triple_lightcone_matches_classify():
    rng = np.random.default_rng(5)
    p0 = E.minkowski_embed([0, 0, 0])
    pinf = E.improper_point()
    checked = 0
    while checked < 200:
        p = E.EinPoint(random_null_vector(rng))
        if p == p0 or p == pinf or E.incident(p, pinf):
            continue
        checked += 1
        timelike = E.classify_point(p, p0, pinf) is E.CausalType.TIMELIKE
        assert E.triple_lightcone_empty(p, p0, pinf) == timelike


def test_carrier_is_built_on_first_read(monkeypatch):
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
            assert c.eta == E.eta(t1, t2)
    for c, (t1, t2) in zip(classes, pairs):
        direct = W.orthogonal_complement(Subspace.span(t1.normal, t2.normal))
        assert np.array_equal(c.carrier.onb, direct.onb)
        assert c.carrier is c.carrier
    t1 = pairs[0][0]
    assert E.classify_torus_pair(t1, E.EinsteinTorus(-2 * t1.normal)).carrier is None


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
        p = E.minkowski_embed(rng.normal(size=3))
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
