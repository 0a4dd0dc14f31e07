import numpy as np
import pytest
from scipy.linalg import expm

from ein3 import ads as A
from ein3 import crooked as C
from ein3.linalg import GeometryError, _raise_first
from ein3.sampling import make_rng
from ein3.symplectic import Plane2

from draws import disjoint_ads_pair, random_ads_config
from references import omega0

SP = A.ads_space()


def random_sl2(rng, scale=1.0):
    x = rng.normal(size=(2, 2)) * scale
    return expm(x - 0.5 * np.trace(x) * np.eye(2))


def embed(f):
    """The Lagrangian graph plane of an element f of SL(V0): columns
    (x; f x) over the standard basis of V0."""
    return Plane2(SP, np.vstack([np.eye(2), A.as_sl2(f)]))


def involution(l):
    """Image of a plane under the involution induced by I (+) -I."""
    return Plane2(l.space, np.diag([1.0, 1.0, -1.0, -1.0]) @ l.basis)


def test_embed():
    plane = embed(np.eye(2))
    assert np.allclose(plane.basis, np.vstack([np.eye(2), np.eye(2)]))
    assert plane.is_lagrangian
    rng = make_rng(0)
    for _ in range(30):
        f = random_sl2(rng)
        assert embed(f).is_lagrangian
    with pytest.raises(GeometryError):
        embed(np.diag([2.0, 1.0]))


def test_embed_equivariance():
    rng = make_rng(1)
    for _ in range(30):
        f, a_mat, b_mat = (random_sl2(rng) for _ in range(3))
        lhs = embed(a_mat @ f @ np.linalg.inv(b_mat))
        # (A, B) acts on graphs through the symplectic matrix B (+) A
        action = np.block([[b_mat, np.zeros((2, 2))], [np.zeros((2, 2)), a_mat]])
        rhs = Plane2(SP, action @ embed(f).basis)
        assert lhs == rhs


def test_involution():
    plane = involution(embed(np.eye(2)))
    assert plane == Plane2(SP, np.vstack([np.eye(2), -np.eye(2)]))
    rng = make_rng(2)
    for _ in range(30):
        p = embed(random_sl2(rng))
        assert involution(involution(p)) == p
        # graphs of unimodular maps are never fixed
        assert not involution(p) == p


def test_ads_quadrilateral_structure():
    plane = A.AdsCrookedPlane(np.eye(2), [1, 0], [0, 1])
    quad = A.ads_quadrilateral(plane)
    for value in C._product_residuals(quad.gram.tolist()):
        assert abs(value) < 1e-12
    surf = C.CrookedSurface(quad)
    # the photon set is invariant under the involution
    inv = np.diag([1.0, 1.0, -1.0, -1.0])
    photons = [quad.u_plus, quad.u_minus, quad.v_plus, quad.v_minus]
    for ph in photons:
        image = inv @ ph
        assert any(
            abs(abs(image @ other)
                - np.linalg.norm(image) * np.linalg.norm(other)) < 1e-9
            for other in photons)
    # the wing vertices are fixed by the involution (boundary points) while
    # the base and its antipode are swapped
    assert involution(surf.p_plus) == surf.p_plus
    assert involution(surf.p_minus) == surf.p_minus
    assert involution(surf.p_inf) == surf.p_zero
    assert surf.p_inf == embed(np.eye(2))
    with pytest.raises(GeometryError):
        A.ads_quadrilateral(A.AdsCrookedPlane(np.eye(2), [1, 0], [2, 1e-12]))


def test_ads_quadrilateral_based_at_f():
    rng = make_rng(3)
    f = random_sl2(rng)
    plane = A.AdsCrookedPlane(f, [1, 0], [0, 1])
    quad = A.ads_quadrilateral(plane)
    for value in C._product_residuals(quad.gram.tolist()):
        assert abs(value) < 1e-10
    assert C.CrookedSurface(quad).p_inf == embed(f)


def test_ads_disjoint_identity_fails():
    p1 = A.AdsCrookedPlane(np.eye(2), [1, 0], [0, 1])
    p2 = A.AdsCrookedPlane(np.eye(2), [1, 1], [1, -1])
    assert not A.ads_disjoint(p1, p2)
    assert not A.dgk_criterion(p1, p2)
    margins = A.ads_margins(p1, p2)
    assert all(abs(v) < 1e-12 for v in margins.values())


def test_ads_disjoint_agrees_with_full_criterion():
    # a hyperbolic relative base with directions funneled into its
    # contracting cone gives a separated pair
    rng = make_rng(4)
    agreements = 0
    disjoint_seen = 0
    for _ in range(200):
        a, b, ap, bp = (rng.normal(size=2) for _ in range(4))
        try:
            p1 = A.AdsCrookedPlane(np.eye(2), a, b)
            p2 = A.AdsCrookedPlane(random_sl2(rng), ap, bp)
            margins = A.ads_margins(p1, p2)
        except GeometryError:
            continue
        if min(abs(v) for v in margins.values()) < 1e-6:
            continue
        four = A.ads_disjoint(p1, p2)
        sixteen = C.surfaces_disjoint(
            C.CrookedSurface(A.ads_quadrilateral(p1)),
            C.CrookedSurface(A.ads_quadrilateral(p2)))
        assert four == sixteen == A.dgk_criterion(p1, p2)
        agreements += 1
        disjoint_seen += four
    assert agreements > 100
    assert disjoint_seen > 0


def test_ads_disjoint_scale_invariance():
    rng = make_rng(5)
    p1 = A.AdsCrookedPlane(np.eye(2), [1, 0], [0, 1])
    base = random_sl2(rng)
    p2 = A.AdsCrookedPlane(base, [1.0, 0.4], [0.2, -1.0])
    verdict = A.ads_disjoint(p1, p2)
    for lam in (0.01, -3.0, 17.0):
        scaled = A.AdsCrookedPlane(base, lam * np.array([1.0, 0.4]), [0.2, -1.0])
        assert A.ads_disjoint(p1, scaled) == verdict


def test_general_base_pairs_reduce_by_left_translation():
    rng = make_rng(6)
    for _ in range(20):
        g, f = random_sl2(rng), random_sl2(rng)
        a, b, ap, bp = (rng.normal(size=2) for _ in range(4))
        try:
            pair1 = (A.AdsCrookedPlane(g, a, b), A.AdsCrookedPlane(g @ f, ap, bp))
            pair2 = (A.AdsCrookedPlane(np.eye(2), a, b), A.AdsCrookedPlane(f, ap, bp))
            m1 = A.ads_margins(*pair1)
            m2 = A.ads_margins(*pair2)
        except GeometryError:
            continue
        for key in m1:
            assert m1[key] == pytest.approx(m2[key], abs=1e-9)


def test_boundary_lift():
    assert np.array_equal(A.boundary_lift([1, 0]), [[0, -1], [0, 0]])
    rng = make_rng(7)
    for _ in range(50):
        a = rng.normal(size=2)
        if np.linalg.norm(a) < 1e-3:
            continue
        lift = A.boundary_lift(a)
        assert abs(np.trace(lift)) < 1e-12
        assert abs(A.killing(lift, lift)) < 1e-12 * max(1.0, np.abs(lift).max() ** 2)
        assert A.is_upper_null(lift)
        g = random_sl2(rng)
        assert np.allclose(A.boundary_lift(g @ a),
                           g @ lift @ np.linalg.inv(g), atol=1e-12 * max(
                               1.0, float(np.abs(g @ lift).max())))
    with pytest.raises(GeometryError):
        A.boundary_lift([0, 0])


def test_killing():
    x = A.boundary_lift([1, 0])
    y = A.boundary_lift([0, 1])
    assert A.killing(x, y) == -1.0  # matches omega0 = 1
    rng = make_rng(8)
    for _ in range(200):
        a, b = rng.normal(size=(2, 2))
        lhs = omega0(a, b) ** 2
        rhs = -A.killing(A.boundary_lift(a), A.boundary_lift(b)) \
            if np.linalg.norm(a) > 0 and np.linalg.norm(b) > 0 else lhs
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)


def test_lift_and_trace_form_checks_flag_their_row():
    # the scalar raises are the one-row calls of the stacked checks
    with pytest.raises(GeometryError, match="cannot lift the zero vector"):
        A.boundary_lift([0.0, 0.0])
    with pytest.raises(GeometryError, match="killing expects traceless 2x2 matrices"):
        A.killing(np.eye(2), A.boundary_lift([1.0, 0.0]))
    rows = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])
    lifts, [(zero, _)] = A._boundary_lifts(rows)
    assert zero.tolist() == [False, True, False]
    assert np.array_equal(lifts[2], A.boundary_lift(rows[2]))
    traced = lifts.copy()
    traced[2] += np.eye(2)
    k, [(bad, _)] = A._killing_rows(lifts, traced)
    assert bad.tolist() == [False, False, True]
    assert k[0] == A.killing(lifts[0], lifts[0])


def _first_error(call):
    try:
        call()
    except GeometryError as error:
        return str(error)


def test_plane_check_rows_raise_as_the_constructors():
    # pairs of planes (I, a, b), (f, a', b'), crafted to fail a check each
    # (row 7 two, the base's first), raise through the stacked checks what
    # building both `AdsCrookedPlane`s raises first
    rng = make_rng(5)
    units = rng.normal(size=(8, 2, 2, 2))
    bases = np.stack([np.broadcast_to(np.eye(2), (8, 2, 2)),
                      [random_sl2(rng) for _ in range(8)]], 1)
    units[1, 0, 1] = 2.0 * units[1, 0, 0]  # dependent directions, the first plane
    units[[2, 7], 1, 1] = -3.0 * units[[2, 7], 1, 0]  # and the second
    bases[[3, 7], 1] *= 1.5  # det 2.25
    bases[4, 1] = [[1e200, 0.0], [0.0, 1e-200]]
    bases[5, 1, 0, 0] = np.inf
    units[6, 1, 0, 1] = np.nan
    checks = A._plane_check_rows(bases, units)
    got = [_first_error(lambda: [_raise_first(checks, (i, j)) for j in range(2)])
           for i in range(8)]
    want = [_first_error(lambda: [A.AdsCrookedPlane(m, *d) for m, d in zip(b, u)])
            for b, u in zip(bases, units)]
    assert got == want
    assert want[0] is None and want[1] == want[2] == "direction vectors must be independent"
    assert all(want[i].startswith("matrix must have determinant 1, got ") for i in (3, 7))
    assert want[4:7] == ["entries up to 1e+200 are too large to test det = 1",
                         "an AdS point needs finite entries", "vector has non-finite entries"]


def test_horocycle_distance():
    xi1 = A.boundary_lift(np.array([1.0, 0.0]))
    xi2 = A.boundary_lift(np.array([0.0, 1.0]))
    assert A.killing(xi1, xi2) == -1.0
    h1 = A.Horocycle(xi1, 1.0)
    assert A.horocycle_distance(h1, A.Horocycle(xi2, 0.5)) == 0.0  # K = -2rr'
    # K = -8 r r' = -4: arccosh(-(-4 - 1/4)/2) = arccosh(17/8)
    h2 = A.Horocycle(4.0 * xi2, 0.5)
    assert A.horocycle_distance(h1, h2) == pytest.approx(np.arccosh(17 / 8))
    # monotone decreasing in r on the valid range
    dists = [A.horocycle_distance(A.Horocycle(xi1, r), A.Horocycle(4.0 * xi2, 1.0))
             for r in np.linspace(0.05, 2.0, 30)]
    assert all(d1 >= d2 - 1e-12 for d1, d2 in zip(dists, dists[1:]))
    with pytest.raises(GeometryError):
        A.horocycle_distance(h1, A.Horocycle(xi1, 1.0))  # same ideal point
    with pytest.raises(GeometryError):
        A.Horocycle(xi1, -1.0)
    with pytest.raises(GeometryError):
        A.Horocycle(-xi1, 1.0)  # lower half of the null cone


def test_dgk_identity_and_coincident_endpoints():
    p1 = A.AdsCrookedPlane(np.eye(2), [1, 0], [0, 1])
    p2 = A.AdsCrookedPlane(np.eye(2), [1, 1], [1, -1])
    assert not A.dgk_criterion(p1, p2)
    # coincident endpoints are reported and never disjoint
    p3 = A.AdsCrookedPlane(random_sl2(make_rng(9)), [1, 0], [1, 1])
    margins, coincident = A.dgk_margins(p1, p3)
    assert coincident
    assert not A.dgk_criterion(p1, p3)


def test_dgk_concrete_hyperbolic():
    # hyperbolic relative base with axis spanned by the lifted directions
    f = np.diag([3.0, 1.0 / 3.0])
    p1 = A.AdsCrookedPlane(np.eye(2), [1, 0], [0, 1])
    p2 = A.AdsCrookedPlane(f, [1, 1], [1, -1])
    four = A.ads_disjoint(p1, p2)
    dgk = A.dgk_criterion(p1, p2)
    sixteen = C.surfaces_disjoint(
        C.CrookedSurface(A.ads_quadrilateral(p1)),
        C.CrookedSurface(A.ads_quadrilateral(p2)))
    assert four == dgk == sixteen
    assert four is False  # the expansion grows two of the products


def reference_config(p1, p2):
    f = np.linalg.solve(p1.base, p2.base)
    unit = lambda v: v / np.linalg.norm(v)
    return f, unit(p1.a), unit(p1.b), unit(p2.a), unit(p2.b)


def reference_ads_margins(p1, p2):
    """ads_margins one omega0 at a time."""
    f, a, b, ap, bp = reference_config(p1, p2)
    w = omega0
    return {
        "a'-b": w(ap, b) ** 2 - w(f @ ap, b) ** 2,
        "a'-a": w(ap, a) ** 2 - w(f @ ap, a) ** 2,
        "b'-b": w(bp, b) ** 2 - w(f @ bp, b) ** 2,
        "b'-a": w(bp, a) ** 2 - w(f @ bp, a) ** 2,
    }


def reference_dgk_margins(p1, p2):
    """dgk_margins one boundary lift and trace form at a time."""
    f, a, b, ap, bp = reference_config(p1, p2)
    f_inv = np.linalg.inv(f)
    lifts1 = {"a": A.boundary_lift(a), "b": A.boundary_lift(b)}
    lifts2 = {"a'": A.boundary_lift(ap), "b'": A.boundary_lift(bp)}
    margins, coincident = {}, []
    for n2, xi2 in lifts2.items():
        moved = f @ xi2 @ f_inv
        for n1, xi1 in lifts1.items():
            key = f"{n2}-{n1}"
            margins[key] = A.killing(xi1, moved) - A.killing(xi1, xi2)
            if A.killing(xi1, xi2) > -A.EPS_ALG:
                coincident.append(key)
    return margins, coincident


def test_ads_and_dgk_margins_match_the_scalar_reference():
    rng = make_rng(30)
    disjoint = 0
    pairs = [random_ads_config(rng) for _ in range(200)]
    pairs += [disjoint_ads_pair(rng) for _ in range(50)]
    # coincident endpoints: a direction of the second plane repeats one of the first
    pairs += [(A.AdsCrookedPlane(np.eye(2), [1, 0], [0, 1]),
               A.AdsCrookedPlane(random_sl2(rng), [2, 0], [1, 1])) for _ in range(5)]
    for p1, p2 in pairs:
        f = np.linalg.solve(p1.base, p2.base)
        scale = max(1.0, np.linalg.norm(f) * np.linalg.norm(np.linalg.inv(f)))
        margins, ref = A.ads_margins(p1, p2), reference_ads_margins(p1, p2)
        assert list(margins) == list(ref)
        for key in ref:
            assert abs(margins[key] - ref[key]) <= 1e-12 * scale
        assert A.ads_disjoint(p1, p2) == all(v > A.EPS_ALG for v in ref.values())
        (dgk, coincident), (dgk_ref, coincident_ref) = (
            A.dgk_margins(p1, p2), reference_dgk_margins(p1, p2))
        assert list(dgk) == list(dgk_ref)
        assert coincident == coincident_ref
        for key in dgk_ref:
            assert abs(dgk[key] - dgk_ref[key]) <= 1e-12 * scale
        assert A.dgk_criterion(p1, p2) == (
            not coincident_ref and all(v > A.EPS_ALG for v in dgk_ref.values()))
        disjoint += A.ads_disjoint(p1, p2)
    assert disjoint >= 50


def _seeded_ads_pairs(n=520):
    """Alternating `random_ads_config` and `disjoint_ads_pair` draws."""
    rng = make_rng(31)
    return [disjoint_ads_pair(rng) if k % 2 else random_ads_config(rng) for k in range(n)]


def test_stacked_ads_kernels_equal_the_per_pair_calls():
    # the suite reads a block of pairs through one call of each stacked
    # kernel; row k must be the per-pair value bit for bit
    pairs = _seeded_ads_pairs()
    base1, y, base2, x = (np.array(a) for a in zip(*(A._pair_arrays(p1, p2) for p1, p2 in pairs)))
    margins = A._margin_array(base1, y, base2, x)
    dgk, k_fixed = A._dgk_array(base1, y, base2, x)
    passes = A._dgk_passes(dgk, k_fixed, A.EPS_ALG).all(axis=(1, 2))
    rows = A._quad_rows(np.array([p.base for p in np.ravel(pairs)]),
                        np.array([p.a for p in np.ravel(pairs)]),
                        np.array([p.b for p in np.ravel(pairs)]))
    verdicts = set()
    for k, (p1, p2) in enumerate(pairs):
        assert margins[k].ravel().tolist() == list(A.ads_margins(p1, p2).values())
        want, coincident = A.dgk_margins(p1, p2)
        assert dgk[k].ravel().tolist() == list(want.values())
        assert coincident == []
        assert passes[k] == A.dgk_criterion(p1, p2) == A.ads_disjoint(p1, p2)
        for row, plane in zip(rows[2 * k:2 * k + 2], (p1, p2)):
            assert np.array_equal(row.T, A.ads_quadrilateral(plane).columns)
        verdicts.add(bool(passes[k]))
    assert verdicts == {False, True}


def _parent_report_margins(c1, c2):
    """The sixteen margins as `disjointness_report` took them before the
    pair shared one product: one omega-product per direction."""
    out = []
    for surface, other in ((c1, c2), (c2, c1)):
        m1, m2 = C._margins(other.quad.columns.T, other.space, surface)
        out += list(zip(m1.tolist(), m2.tolist()))
    return out


def test_one_product_sixteen_margins_equal_the_per_direction_products():
    pairs = [(C.CrookedSurface(A.ads_quadrilateral(p1)), C.CrookedSurface(A.ads_quadrilateral(p2)))
             for p1, p2 in _seeded_ads_pairs()]
    columns = np.array([[c1.quad.columns, c2.quad.columns] for c1, c2 in pairs])
    m1, m2 = C._sixteen_margins(columns, SP.matrix)
    sixteen = C._avoids(m1, m2, C.EPS_ALG).all(axis=(1, 2))
    for k, (c1, c2) in enumerate(pairs):
        want = _parent_report_margins(c1, c2)
        report = C.disjointness_report(c1, c2)
        assert [(t.wing_plus_margin, t.wing_minus_margin) for t in report] == want
        assert list(zip(m1[k].ravel().tolist(), m2[k].ravel().tolist())) == want
        assert sixteen[k] == C.surfaces_disjoint(c1, c2) == all(t.passed for t in report)
