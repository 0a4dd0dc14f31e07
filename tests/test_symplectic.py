import numpy as np
import pytest

from ein3 import ads as A
from ein3 import symplectic as S
from ein3.linalg import GeometryError
from ein3.sampling import make_rng

from draws import random_lagrangian, random_nondegenerate_plane, random_splitting
from references import bivector_to_plane, inner, omega, plane_intersection_dim

SP = S.standard_space()
E4 = np.eye(4)


def plane(*cols):
    return S.Plane2(SP, np.column_stack(cols))


P13 = plane(E4[:, 0], E4[:, 2])
P24 = plane(E4[:, 1], E4[:, 3])
L12 = plane(E4[:, 0], E4[:, 1])
L34 = plane(E4[:, 2], E4[:, 3])


def test_wedge_product_examples():
    b13 = SP.plucker(P13)
    assert SP.wedge(b13, b13) == 0.0
    assert SP.wedge(b13, SP.plucker(P24)) == -1.0
    assert SP.wedge(SP.omega_star, SP.omega_star) == pytest.approx(-2.0, abs=1e-12)


def test_bivector_product_is_the_hodge_sign_row_over_the_volume():
    # e_ij ^ e_kl = sign(i, j, k, l) e1234, and vol = vol_coeff e1234
    for matrix in (S.STANDARD_OMEGA, A.OMEGA_ADS, 2.5 * S.STANDARD_OMEGA):
        space = S.SympSpace(matrix)
        signs = [[round(np.linalg.det(E4[[*p, *q]])) if not set(p) & set(q) else 0
                  for q in S.PAIRS] for p in S.PAIRS]
        assert np.array_equal(space._gram, np.array(signs) / space.vol_coeff)


def test_omega_star():
    # solved from the six defining equations
    b13 = SP.plucker(P13)
    b12 = SP.plucker(L12)
    expected = -(b13 + SP.plucker(P24))
    assert np.allclose(SP.omega_star, expected)
    assert SP.wedge(SP.omega_star, b13) == pytest.approx(1.0)
    assert SP.wedge(SP.omega_star, b12) == pytest.approx(0.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u, v = rng.normal(size=(2, 4))
        biv = SP.plucker(S.Plane2.span(SP, u, v))
        assert SP.wedge(SP.omega_star, biv) == pytest.approx(omega(SP, u, v))


def test_plucker():
    b = SP.plucker(P13)
    assert np.allclose(b, [0, 1, 0, 0, 0, 0])
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = S.Plane2(SP, rng.normal(size=(4, 2)))
        biv = SP.plucker(p)
        assert abs(SP.wedge(biv, biv)) < 1e-9 * float(biv @ biv)
        lam = rng.uniform(0.5, 2.0)
        assert np.allclose(SP.plucker(S.Plane2(SP, p.basis * lam)), lam * lam * biv)
    with pytest.raises(GeometryError, match="plucker expects a Plane2"):
        SP.plucker(np.column_stack([E4[:, 0], E4[:, 0]]))


def test_plucker_rejects_raw_arrays_and_trusts_built_planes():
    rng = np.random.default_rng(5)
    rank_one = np.outer(rng.normal(size=4), [1.0, -2.0])
    with pytest.raises(GeometryError, match="plucker expects a Plane2"):
        SP.plucker(rank_one)
    with pytest.raises(GeometryError, match="rank 1 < 2"):
        S.Plane2(SP, rank_one)
    # the rank check of Plane2 is stricter than matrix_rank: this basis
    # passes matrix_rank but is no plane
    nearly = np.column_stack([E4[:, 0], E4[:, 0] + 1e-12 * E4[:, 1]])
    assert np.linalg.matrix_rank(nearly) == 2
    with pytest.raises(GeometryError, match="rank 1 < 2"):
        S.Plane2(SP, nearly)
    planes = ([S.Plane2(SP, rng.normal(size=(4, 2))) for _ in range(3)]
              + [S.Plane2.span(SP, rng.normal(size=4), rng.normal(size=4))])
    for p in planes:  # the stored basis, not the orthonormalized one
        assert np.array_equal(SP.plucker(p), S.plucker_rows(p.basis[:, 0], p.basis[:, 1]))


@pytest.mark.parametrize("basis", [E4[:, :3], E4[:3, :2], np.full((4, 2), np.nan)],
                         ids=["4x3", "3x2", "nan"])
def test_plucker_rejects_a_raw_array_that_is_not_a_finite_4x2(basis):
    with pytest.raises(GeometryError, match="plucker expects a Plane2"):
        SP.plucker(basis)


def test_lagrangians_map_to_null_kernel_lines():
    rng = make_rng(2)
    for _ in range(50):
        l = random_lagrangian(SP, rng)
        biv = SP.plucker(l)
        nb = float(biv @ biv)
        assert abs(SP.wedge(SP.omega_star, biv)) < 1e-9 * np.sqrt(nb)
        assert abs(SP.wedge(biv, biv)) < 1e-9 * nb
        assert SP.in_kernel(biv)
        # and conversely: null kernel bivectors come from Lagrangian planes
        assert bivector_to_plane(SP, biv).is_lagrangian


def test_null_kernel_bivectors_are_lagrangian():
    # independently generated null vectors of the kernel (solving the
    # quadratic along random kernel lines) come from Lagrangian planes
    rng = np.random.default_rng(15)
    found = 0
    while found < 50:
        w1, w2 = rng.normal(size=(2, 6))
        for w in (w1, w2):
            w -= (w @ SP._omega_fun) / (SP.omega_star @ SP._omega_fun) * SP.omega_star
        a = SP.wedge(w2, w2)
        b = 2 * SP.wedge(w1, w2)
        c = SP.wedge(w1, w1)
        disc = b * b - 4 * a * c
        if disc <= 1e-9 or abs(a) < 1e-9:
            continue
        t = (-b + np.sqrt(disc)) / (2 * a)
        null = w1 + t * w2
        assert abs(SP.wedge(null, null)) < 1e-8 * float(null @ null)
        assert SP.in_kernel(null)
        plane = bivector_to_plane(SP, null, eps=1e-7)
        assert plane.is_lagrangian
        found += 1


def test_bivector_to_plane():
    b13 = SP.plucker(P13)
    assert bivector_to_plane(SP, b13) == P13
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = S.Plane2(SP, rng.normal(size=(4, 2)))
        biv = SP.plucker(p)
        back = SP.plucker(bivector_to_plane(SP, biv))
        cos = abs(back @ biv) / (np.linalg.norm(back) * np.linalg.norm(biv))
        assert cos == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(GeometryError):
        bivector_to_plane(SP, SP.omega_star)  # omega*.omega* = -2, not decomposable


def test_transverse():
    assert not SP.transverse(P13, P13)
    assert SP.transverse(L12, L34)
    assert not SP.transverse(L12, plane(E4[:, 1], E4[:, 2]))


def test_transverse_agrees_with_intersection_dim():
    rng = np.random.default_rng(4)
    for k in range(200):
        if k % 2 == 0:
            p = S.Plane2(SP, rng.normal(size=(4, 2)))
            q = S.Plane2(SP, rng.normal(size=(4, 2)))
        else:
            shared = rng.normal(size=4)
            p = S.Plane2(SP, np.column_stack([shared, rng.normal(size=4)]))
            q = S.Plane2(SP, np.column_stack([shared, rng.normal(size=4)]))
        assert SP.transverse(p, q) == (plane_intersection_dim(p, q) == 0)


def test_reflect_omega_star():
    rng = np.random.default_rng(5)
    # fixes the kernel of omega pointwise
    b = rng.normal(size=6)
    b -= (b @ SP._omega_fun) / (SP.omega_star @ SP._omega_fun) * SP.omega_star
    assert np.allclose(SP.reflect_omega_star(b), b)
    assert np.allclose(SP.reflect_omega_star(SP.omega_star), -SP.omega_star)
    refl = SP.reflect_omega_star(SP.plucker(P13))
    b24 = SP.plucker(P24)
    cos = abs(refl @ b24) / (np.linalg.norm(refl) * np.linalg.norm(b24))
    assert cos == pytest.approx(1.0, abs=1e-12)
    for _ in range(50):
        c = rng.normal(size=6)
        assert np.allclose(SP.reflect_omega_star(SP.reflect_omega_star(c)), c)
    # a stack is reflected row by row, each row as b + wedge(b, omega*) omega*
    rows = rng.normal(size=(50, 6))
    assert np.array_equal(SP.reflect_omega_star(rows),
                          [c + SP.wedge(c, SP.omega_star) * SP.omega_star for c in rows])


def test_symplectic_complement():
    assert S.symplectic_complement(SP, P13) == P24
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = S.Plane2(SP, rng.normal(size=(4, 2)))
        if p.is_lagrangian:
            continue
        comp = S.symplectic_complement(SP, p)
        assert S.symplectic_complement(SP, comp) == p
        for i in range(2):
            for j in range(2):
                assert abs(omega(SP, p.onb[:, i], comp.onb[:, j])) < 1e-9
    with pytest.warns(UserWarning):
        self_comp = S.symplectic_complement(SP, L12)
    assert self_comp == L12


def test_maslov_examples():
    pp = plane(E4[:, 0] + E4[:, 2], E4[:, 1] + E4[:, 3])
    pm = plane(E4[:, 0] + E4[:, 2], E4[:, 1] - E4[:, 3])
    assert S.maslov(SP, L12, pp, L34) == 2
    assert S.maslov(SP, L12, pm, L34) == 0
    assert S.maslov(SP, L34, pp, L12) == -S.maslov(SP, L12, pp, L34)
    with pytest.raises(GeometryError):
        S.maslov(SP, L12, L12, L34)  # not transverse
    with pytest.raises(GeometryError):
        S.maslov(SP, L12, pp, P13)  # not Lagrangian


# rows (u+, u-, v+, v-) of a valid lightlike quadrilateral of cond(Q) 1.9e6, a
# draw of a symplectic generator of scale 8 (`oracle._random_rows`)
_STIFF_QUAD = [
    ["0x1.b8a312e9edfdfp+7", "-0x1.59f2589f89cc5p+7", "-0x1.f976fef135855p+7", "0x1.91e6bd9ae1f21p+9"],
    ["0x1.34eeacd6b36e9p+6", "-0x1.428a4ae6022e3p+5", "-0x1.4d6f047e1bde1p+6", "0x1.840d0d687db98p+7"],
    ["-0x1.07ba2c9d7c138p+8", "0x1.86c3527e6735ap+6", "0x1.126052d18e878p+8", "-0x1.e9d2b73029f45p+8"],
    ["-0x1.839826600f05cp+7", "0x1.4c55632caa204p+7", "0x1.c3d364891d4fcp+7", "-0x1.7fcb5279f68dap+9"]]


def test_maslov_reads_transversality_by_the_rank_rule():
    # P0 and P_inf of a valid surface: [P0 | P_inf] has det 2.4e-10, below
    # EPS_RANK, where an absolute det test read them as meeting, but least
    # singular value 8.0e-7, so rank 4 by `_singular`'s rule; `maslov` of a
    # stem point between them is -2, and the closed-form singular values of
    # `_frame_pair_values` are the SVD's
    from ein3 import crooked as C
    from ein3.linalg import EPS_RANK, _frame_pair_values, _intersection_dims
    from ein3.oracle import _stem_generators

    rows = np.array([[float.fromhex(x) for x in row] for row in _STIFF_QUAD])
    surface = C.CrookedSurface(C.LightlikeQuadrilateral(SP, *rows))
    p0, pinf = surface.p_zero.onb, surface.p_inf.onb
    want = np.linalg.svd(np.hstack([p0, pinf]), compute_uv=False)
    assert abs(np.linalg.det(np.hstack([p0, pinf]))) < EPS_RANK < 1e-7 < want[-1] < 1e-6
    values, rank = _frame_pair_values(p0, pinf, EPS_RANK)
    assert rank == 4 and _intersection_dims(p0, pinf) == 0
    assert np.allclose(values, want, rtol=1e-6, atol=0.0)
    stem = plane(*_stem_generators(surface.quad.columns, 1, 0.7, 0.8))
    assert S.maslov(SP, surface.p_zero, stem, surface.p_inf) == -2


def test_maslov_antisymmetric_random():
    rng = make_rng(7)
    count = 0
    while count < 50:
        l, p, lp = (random_lagrangian(SP, rng) for _ in range(3))
        try:
            m = S.maslov(SP, l, p, lp)
        except GeometryError:
            continue
        count += 1
        assert S.maslov(SP, lp, p, l) == -m
        assert m in (-2, 0, 2)


def test_mu():
    m = S.mu(SP, P13)
    assert np.allclose(m, [0, 0.5, 0, 0, -0.5, 0])
    assert SP.wedge(m, m) == pytest.approx(0.5)
    assert SP.wedge(m, SP.omega_star) == pytest.approx(0.0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        s = random_nondegenerate_plane(SP, rng)
        ms = S.mu(SP, s)
        assert SP.wedge(ms, ms) == pytest.approx(0.5)
        assert abs(SP.wedge(ms, SP.omega_star)) < 1e-9
        comp = S.symplectic_complement(SP, s)
        # mu is blind to taking the complement
        assert np.allclose(S.mu(SP, comp), ms, atol=1e-9) or \
            np.allclose(S.mu(SP, comp), -ms, atol=1e-9)
    with pytest.raises(GeometryError):
        S.mu(SP, L12)


def test_lagrangian_in_torus_matches_model():
    rng = make_rng(10)
    hits = 0
    for _ in range(100):
        split = random_splitting(SP, rng)
        l = random_lagrangian(SP, rng)
        member = not SP.transverse(l, split.s)
        # model check: the point is orthogonal to the torus normal
        point = SP.to_einstein(SP.plucker(l))
        normal = S.torus_from_plane(SP, split.s).normal
        val = inner(point / np.linalg.norm(point), normal)
        if member:
            hits += 1
            assert abs(val) < 1e-7
        else:
            assert abs(val) > 1e-12


def test_graph_and_det():
    split = S.Splitting(SP, P13, P24)
    assert S.graph(SP, np.zeros((2, 2)), split) == P13
    lagr = S.graph(SP, np.diag([-1.0, 1.0]), split)  # det -1
    assert lagr.is_lagrangian
    assert not S.graph(SP, np.eye(2), split).is_lagrangian
    assert S.det_omega(np.eye(2)) == 1.0
    assert S.det_omega([[1, 2], [3, 4]]) == -2.0
    rng = np.random.default_rng(11)
    for _ in range(50):
        f = rng.normal(size=(2, 2))
        a1, a2 = split.s_basis[:, 0], split.s_basis[:, 1]
        fa1 = split.s_perp_basis @ f[:, 0]
        fa2 = split.s_perp_basis @ f[:, 1]
        assert omega(SP, fa1, fa2) == pytest.approx(
            S.det_omega(f) * omega(SP, a1, a2))


def test_adjugate():
    assert np.array_equal(S.adjugate(np.array([[1., 2.], [3., 4.]])),
                          [[4., -2.], [-3., 1.]])
    assert np.array_equal(S.adjugate(np.eye(2)), np.eye(2))
    rng = np.random.default_rng(12)
    for _ in range(100):
        f = rng.normal(size=(2, 2))
        assert np.allclose(S.adjugate(S.adjugate(f)), f)
        assert np.allclose(S.adjugate(f) @ f, S.det_omega(f) * np.eye(2),
                           atol=1e-12)
        if abs(S.det_omega(f)) > 1e-6:
            assert np.allclose(S.adjugate(f),
                               S.det_omega(f) * np.linalg.inv(f), atol=1e-9)


def test_eta_from_det():
    assert S.eta_from_det(np.eye(2)) == 0.0
    assert S.eta_from_det(np.zeros((2, 2))) == 1.0
    f = np.diag([3.0, 1.0])
    assert S.eta_from_det(f) == pytest.approx(0.5)
    with pytest.raises(GeometryError):
        S.eta_from_det(np.diag([-1.0, 1.0]))


def test_eta_from_det_where_det_overflows():
    # |eta - 1| <= 2 / |Det f|, so eta rounds to 1.0 where Det(f) overflows,
    # one f or elementwise over a stack, with no warning; a NaN Det(f) (inf
    # - inf) is undefined, as -1 is
    assert S.eta_from_det(np.diag([1e160, 1e160])) == 1.0
    assert S.eta_from_det(np.stack([np.eye(2), np.diag([1e160, 1e160])])).tolist() == [0.0, 1.0]
    with pytest.raises(GeometryError):
        S.eta_from_det(np.full((2, 2), 1e200))


def test_bridge_isometry():
    rng = np.random.default_rng(14)
    for space in (SP, S.SympSpace(np.array([[0., 1, 0, 0], [-1, 0, 0, 0],
                                            [0, 0, 0, -1], [0, 0, 1, 0]]))):
        for _ in range(50):
            b1, b2 = rng.normal(size=(2, 6))
            for b in (b1, b2):
                b -= (b @ space._omega_fun) / (space.omega_star @ space._omega_fun) \
                    * space.omega_star
            lhs = space.wedge(b1, b2)
            rhs = inner(space.to_einstein(b1), space.to_einstein(b2))
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert np.allclose(space.bridge[1] @ space.to_einstein(b1), b1,
                               atol=1e-10)
