import collections
import functools
import itertools
import re

import numpy as np
import pytest

from ein3 import crooked as C
from ein3 import symplectic as S
from ein3.linalg import EPS_ALG, EPS_RANK, GeometryError, _raise_first
from ein3.oracle import _second_generators, _stem_generators, _wing_generators
from ein3.sampling import make_rng, sample_surface

from draws import (disjoint_ads_pair, photon_draws, random_ads_config, random_lagrangian,
                   random_quadrilateral, random_symplectic, stem_crossing_pairs)
from references import intersect, min_gap, omega, photon_crossing_oracle

SP = S.standard_space()
E4 = np.eye(4)


def wing_point(surface, sign, theta, phi):
    """Single wing Lagrangian as a plane: the photon at theta of the wing of
    the given sign and the generator at pencil angle phi through it."""
    x, w = _wing_generators(surface.quad.columns, sign, np.array([theta]), np.array([phi]))
    return S.Plane2.span(surface.space, x[0], w[0])


def stem_point(surface, theta1, theta2, component=+1):
    """Single stem Lagrangian as a plane (see `oracle._stem_generators`)."""
    w, wp = _stem_generators(surface.quad.columns, component, theta1, theta2)
    return S.Plane2.span(surface.space, w, wp)


def stem_contains(surface, l, eps=EPS_ALG):
    """Whether a Lagrangian lies on the (open) stem: the stem mask of the
    membership rule."""
    return C._regions_of(surface, l, eps)[2]


@pytest.fixture
def quad():
    return C.LightlikeQuadrilateral(SP, E4[:, 0], E4[:, 1], E4[:, 3], E4[:, 2])


@pytest.fixture
def surface(quad):
    return C.CrookedSurface(quad)


def lagrangian_through(x, seed=0):
    """Some Lagrangian plane containing the vector x."""
    rng = make_rng(seed)
    base = SP.matrix @ x
    while True:
        r = rng.normal(size=4)
        w = r - (r @ base) / (base @ base) * base
        if np.linalg.matrix_rank(np.column_stack([x, w])) == 2:
            return S.Plane2.span(SP, x, w)


def test_quad_new_canonical(quad):
    for value in C._product_residuals(quad.gram.tolist()):
        assert abs(value) < 1e-12


def test_quad_new_rejects_wrong_pairing():
    with pytest.raises(GeometryError):
        C.LightlikeQuadrilateral(SP, E4[:, 0], E4[:, 1], E4[:, 2], E4[:, 3])


def test_quad_new_scaling(quad):
    scaled = C.LightlikeQuadrilateral(
        SP, 2 * quad.u_plus, quad.u_minus, quad.v_plus, 0.5 * quad.v_minus)
    for value in C._product_residuals(scaled.gram.tolist()):
        assert abs(value) < 1e-12


def test_surface_vertices(surface):
    for vertex in (surface.p_zero, surface.p_inf, surface.p_plus, surface.p_minus):
        assert vertex.is_lagrangian
    assert not surface.stem1.is_lagrangian
    assert not surface.stem2.is_lagrangian
    for i in range(2):
        for j in range(2):
            assert abs(omega(SP, surface.stem1.onb[:, i], surface.stem2.onb[:, j])) < 1e-12


def test_wing_contains_examples(surface):
    q = surface.quad
    l_u = lagrangian_through(q.u_plus)
    assert C._regions_of(surface, l_u, EPS_ALG)[0]  # boundary photon, ts = 0
    l_mix = lagrangian_through(q.u_plus - q.v_plus)
    assert not C._regions_of(surface, l_mix, EPS_ALG)[0]  # ts = -1
    l_minus = lagrangian_through(q.u_minus - q.v_minus)
    assert C._regions_of(surface, l_minus, EPS_ALG)[1]  # ts = -1 <= 0
    # the vertex belongs to its wing
    assert C._regions_of(surface, surface.p_plus, EPS_ALG)[0]
    assert C._regions_of(surface, surface.p_minus, EPS_ALG)[1]


def test_stem_contains_examples(surface):
    q = surface.quad
    inside = S.Plane2.span(SP, q.u_plus + q.v_minus, q.u_minus + q.v_plus)
    assert stem_contains(surface, inside)
    assert S.maslov(SP, surface.p_zero, inside, surface.p_inf) == -2
    assert not stem_contains(surface, surface.p_zero)
    assert not stem_contains(surface, surface.p_plus)


def test_stem_contains_honours_eps(surface):
    # a symplectic perturbation of size ~1e-6 moves a stem point off both
    # stem planes: off the stem at the default eps, on it at eps = 1e-3
    g = random_symplectic(SP, make_rng(4), scale=1e-6)
    assert 1e-7 < np.abs(g - E4).max() < 1e-5
    moved = S.Plane2(SP, g @ stem_point(surface, 0.7, 0.8, +1).basis)
    assert moved.is_lagrangian
    assert not stem_contains(surface, moved)
    assert stem_contains(surface, moved, eps=1e-3)


def test_wing_contains_honours_eps(surface):
    # the same 1e-6 symplectic perturbation moves a wing point off its wing
    # at the default eps; at eps = 1e-3 it is on it again
    g = random_symplectic(SP, make_rng(4), scale=1e-6)
    for sign, region in ((+1, C.SurfaceRegion.WING_PLUS), (-1, C.SurfaceRegion.WING_MINUS)):
        moved = S.Plane2(SP, g @ wing_point(surface, sign, 0.7, 0.8).basis)
        assert moved.is_lagrangian
        assert not C._regions_of(surface, moved, EPS_ALG)[(1 - sign) // 2]
        assert C.surface_contains(surface, moved) is None
        assert C._regions_of(surface, moved, 1e-3)[(1 - sign) // 2]
        assert C.surface_contains(surface, moved, eps=1e-3) is region


def test_surface_contains(surface):
    assert C.surface_contains(surface, surface.p_plus) is C.SurfaceRegion.WING_PLUS
    q = surface.quad
    inside = S.Plane2.span(SP, q.u_plus + q.v_minus, q.u_minus + q.v_plus)
    assert C.surface_contains(surface, inside) is C.SurfaceRegion.STEM
    # stem members are not wing members
    rng = make_rng(1)
    for _ in range(20):
        pt = stem_point(surface, rng.uniform(0.1, 1.4), rng.uniform(0.1, 1.4),
                        +1 if rng.uniform() < 0.5 else -1)
        assert C.surface_contains(surface, pt) is C.SurfaceRegion.STEM
        assert not C._regions_of(surface, pt, EPS_ALG)[0]
        assert not C._regions_of(surface, pt, EPS_ALG)[1]
    # a spacelike-position Lagrangian misses the surface
    absent = 0
    for k in range(200):
        l = random_lagrangian(SP, rng)
        try:
            m = S.maslov(SP, surface.p_zero, l, surface.p_inf)
        except GeometryError:
            continue
        if m == 0 and C.surface_contains(surface, l) is None:
            absent += 1
    assert absent > 0


def test_photon_disjoint_examples(surface):
    q = surface.quad
    assert not C.photon_disjoint(q.u_plus, surface)  # edge photon touches
    p = np.array([1.0, 1.0, -1.0, 1.0])
    m1, m2 = C.photon_margins(p, surface)
    assert m1 > 0 and m2 < 0
    assert C.photon_disjoint(p, surface)
    assert photon_crossing_oracle(p, surface) is None
    p2 = E4[:, 0] + E4[:, 2]
    m1, m2 = C.photon_margins(p2, surface)
    assert abs(m1) < 1e-12  # first product vanishes
    assert not C.photon_disjoint(p2, surface)


def test_photon_disjoint_scale_invariant(surface):
    rng = make_rng(2)
    for _ in range(50):
        p = rng.normal(size=4)
        lam = rng.uniform(0.1, 10) * (1 if rng.uniform() < 0.5 else -1)
        assert C.photon_disjoint(p, surface) == C.photon_disjoint(lam * p, surface)
        m = C.photon_margins(p, surface)
        m_scaled = C.photon_margins(lam * p, surface)
        assert m[0] == pytest.approx(m_scaled[0])
        assert m[1] == pytest.approx(m_scaled[1])


def test_find_crossing_lagrangian(surface):
    rng = make_rng(3)
    found_any = 0
    for _ in range(100):
        p = rng.normal(size=4)
        witness = C.find_crossing_lagrangian(p, surface)
        if C.photon_disjoint(p, surface):
            assert witness is None
            continue
        found_any += 1
        assert witness is not None
        assert witness.is_lagrangian
        # the witness contains the photon and lies on the surface
        unit = p / np.linalg.norm(p)
        assert np.linalg.norm(unit - witness.onb @ (witness.onb.T @ unit)) <= 1e-9
        assert C.surface_contains(surface, witness) is not None
    assert found_any > 10


def test_surfaces_disjoint_self(surface):
    assert not C.surfaces_disjoint(surface, surface)
    report = C.disjointness_report(surface, surface)
    assert len(report) == 8
    assert any(not t.passed for t in report)


def test_surfaces_disjoint_shared_photon(surface):
    # symplectic map fixing the edge photon u+ = e1: shear e2 -> e2 + e4 is
    # symplectic for the standard form
    g = np.eye(4)
    g[3, 1] = 1.0
    assert np.allclose(g.T @ SP.matrix @ g, SP.matrix)
    q = surface.quad
    moved = C.CrookedSurface(
        C.LightlikeQuadrilateral(SP, *(g @ v for v in (q.u_plus, q.u_minus, q.v_plus, q.v_minus))))
    assert np.allclose(moved.quad.u_plus, surface.quad.u_plus)
    assert not C.surfaces_disjoint(surface, moved)


def test_surfaces_disjoint_separated_pair():
    from ein3 import ads
    rng = make_rng(4)
    p1, p2 = disjoint_ads_pair(rng)
    c1 = C.CrookedSurface(ads.ads_quadrilateral(p1))
    c2 = C.CrookedSurface(ads.ads_quadrilateral(p2))
    assert C.surfaces_disjoint(c1, c2)
    gap = min_gap(sample_surface(c1, 400, rng), sample_surface(c2, 400, rng))
    assert gap > 1e-3


def test_membership_invariant_under_representative_scaling(surface):
    rescaled = C.CrookedSurface(C.LightlikeQuadrilateral(
        SP, 2 * surface.quad.u_plus, surface.quad.u_minus,
        surface.quad.v_plus, 0.5 * surface.quad.v_minus))
    rng = make_rng(5)
    for _ in range(30):
        l = random_lagrangian(SP, rng)
        assert C.surface_contains(surface, l) == C.surface_contains(rescaled, l)
        p = rng.normal(size=4)
        assert C.photon_disjoint(p, surface) == C.photon_disjoint(p, rescaled)


def test_random_quadrilateral_surfaces(surface):
    rng = make_rng(6)
    for _ in range(10):
        quad = random_quadrilateral(SP, rng)
        surf = C.CrookedSurface(quad)
        # own corners are on the surface
        assert C.surface_contains(surf, surf.p_plus) is C.SurfaceRegion.WING_PLUS
        pt = wing_point(surf, -1, 0.3, 0.9)
        assert C._regions_of(surf, pt, EPS_ALG)[1]


def reference_margins(c1, c2):
    """The sixteen margins photon by photon, in the report's order: for each
    defining photon p of one surface, omega(p^, v+) omega(p^, u+) and
    omega(p^, v-) omega(p^, u-) against the other, with p^ = p / |p|."""
    out = []
    for surface, other in ((c1, c2), (c2, c1)):
        q, w = surface.quad, functools.partial(omega, surface.space)
        for key in C._QUAD_KEYS:
            p = getattr(other.quad, key)
            p = p / np.linalg.norm(p)
            out.append((w(p, q.v_plus) * w(p, q.u_plus),
                        w(p, q.v_minus) * w(p, q.u_minus),
                        max(1.0, np.linalg.norm(q.u_plus) * np.linalg.norm(q.v_plus)),
                        max(1.0, np.linalg.norm(q.u_minus) * np.linalg.norm(q.v_minus))))
    return out


def seeded_surface_pairs(n):
    """n random quadrilateral pairs in the standard space, then n AdS pairs
    (about half of them certified disjoint) carried into the AdS space."""
    from ein3 import ads
    rng = make_rng(21)
    for _ in range(n):
        yield (C.CrookedSurface(random_quadrilateral(SP, rng)),
               C.CrookedSurface(random_quadrilateral(SP, rng)))
    for k in range(n):
        p1, p2 = disjoint_ads_pair(rng) if k % 2 else random_ads_config(rng)
        yield (C.CrookedSurface(ads.ads_quadrilateral(p1)),
               C.CrookedSurface(ads.ads_quadrilateral(p2)))


def test_sixteen_margins_match_the_scalar_reference():
    disjoint = 0
    for c1, c2 in seeded_surface_pairs(150):
        report = C.disjointness_report(c1, c2)
        reference = reference_margins(c1, c2)
        assert [t.label for t in report] == [
            f"{key} {tag}" for tag in ("of C2 vs C1", "of C1 vs C2") for key in C._QUAD_KEYS]
        for test, (m1, m2, scale1, scale2) in zip(report, reference):
            assert abs(test.wing_plus_margin - m1) <= 1e-12 * scale1
            assert abs(test.wing_minus_margin - m2) <= 1e-12 * scale2
            assert test.passed == C._avoids(m1, m2, C.EPS_ALG)
        verdict = all(C._avoids(m1, m2, C.EPS_ALG) for m1, m2, _, _ in reference)
        assert C.surfaces_disjoint(c1, c2) == verdict
        disjoint += verdict
    assert disjoint > 20


def test_photon_margins_match_the_scalar_reference():
    rng = make_rng(22)
    for _ in range(200):
        surf = C.CrookedSurface(random_quadrilateral(SP, rng))
        p = rng.normal(size=4)
        q, w, u = surf.quad, functools.partial(omega, SP), p / np.linalg.norm(p)
        m1, m2 = C.photon_margins(p, surf)
        assert abs(m1 - w(u, q.v_plus) * w(u, q.u_plus)) <= 1e-12 * max(
            1.0, np.linalg.norm(q.u_plus) * np.linalg.norm(q.v_plus))
        assert abs(m2 - w(u, q.v_minus) * w(u, q.u_minus)) <= 1e-12 * max(
            1.0, np.linalg.norm(q.u_minus) * np.linalg.norm(q.v_minus))


def test_product_residuals_match_the_scalar_products():
    rng = make_rng(23)
    for _ in range(50):
        q = random_quadrilateral(SP, rng)
        w = functools.partial(omega, SP)
        reference = {
            "omega(u+, v-) - 1": w(q.u_plus, q.v_minus) - 1.0,
            "omega(u-, v+) - 1": w(q.u_minus, q.v_plus) - 1.0,
            "omega(u+, u-)": w(q.u_plus, q.u_minus),
            "omega(u+, v+)": w(q.u_plus, q.v_plus),
            "omega(u-, v-)": w(q.u_minus, q.v_minus),
            "omega(v+, v-)": w(q.v_plus, q.v_minus),
        }
        residuals = dict(zip(C._RESIDUAL_KEYS, C._product_residuals(q.gram.tolist())))
        assert list(residuals) == list(reference)
        scale = max(1.0, max(np.linalg.norm(v) for v in (q.u_plus, q.u_minus, q.v_plus,
                                                          q.v_minus)) ** 2)
        for key, value in reference.items():
            assert abs(residuals[key] - value) <= 1e-12 * scale


def test_surface_planes_equal_their_single_spans():
    rng = make_rng(24)
    for _ in range(30):
        surf = C.CrookedSurface(random_quadrilateral(SP, rng))
        q = surf.quad
        for plane, (u, v) in (
                (surf.p_zero, (q.v_plus, q.v_minus)), (surf.p_inf, (q.u_plus, q.u_minus)),
                (surf.p_plus, (q.u_plus, q.v_plus)), (surf.p_minus, (q.u_minus, q.v_minus)),
                (surf.stem1, (q.u_plus, q.v_minus)), (surf.stem2, (q.u_minus, q.v_plus))):
            single = S.Plane2.span(SP, u, v)
            assert np.array_equal(plane.onb, single.onb)
            assert np.array_equal(plane.basis, single.basis)
            assert plane.is_lagrangian is single.is_lagrangian


def test_surface_planes_carry_the_tags_checked_at_the_quadrilateral_eps():
    # P0 = span{v+, v-} has |omega| = 1e-7 on its orthonormal basis: a
    # vertex at eps 1e-6, which `Plane2` alone tags nondegenerate at EPS_ALG
    quad = C.LightlikeQuadrilateral(SP, E4[0], E4[1], E4[3], E4[2] + 1e-7 * E4[1], eps=1e-6)
    surface = C.CrookedSurface(quad)
    planes = [surface.p_zero, surface.p_inf, surface.p_plus, surface.p_minus,
              surface.stem1, surface.stem2]
    assert [plane.is_lagrangian for plane in planes] == [True] * 4 + [False] * 2
    assert not S.Plane2(SP, surface.p_zero.basis).is_lagrangian
    wing_plus, wing_minus = C.SurfaceRegion.WING_PLUS, C.SurfaceRegion.WING_MINUS
    assert [C.surface_contains(surface, vertex, eps=1e-6) for vertex in planes[:4]] == [
        wing_plus, wing_plus, wing_plus, wing_minus]


def test_surfaces_of_different_spaces_are_rejected(surface):
    from ein3 import ads
    other = C.CrookedSurface(ads.ads_quadrilateral(ads.AdsCrookedPlane(np.eye(2), [1, 0], [0, 1])))
    for c1, c2 in ((surface, other), (other, surface)):
        with pytest.raises(GeometryError, match="different symplectic spaces"):
            C.surfaces_disjoint(c1, c2)
        with pytest.raises(GeometryError, match="different symplectic spaces"):
            C.disjointness_report(c1, c2)


def reference_regions(surface, l, eps=C.EPS_ALG):
    """(wing+, wing-, stem) through subspace intersections: a wing line's
    photon coordinates (t, s) by least squares in (u, v), the stem by its
    stem lines, transversality to P0 and P_infinity and the Maslov index.
    Raises GeometryError where `maslov` does: a restricted form read as
    degenerate, or [P0 | P_infinity] of rank < 4 by the rank rule."""
    q = surface.quad
    regions = []
    for vertex, u, v, sign in ((surface.p_plus, q.u_plus, q.v_plus, +1),
                               (surface.p_minus, q.u_minus, q.v_minus, -1)):
        line = intersect(l.onb, vertex.onb, eps)
        if line.shape[1] == 1:
            t, s = np.linalg.lstsq(np.column_stack([u, v]), line[:, 0], rcond=None)[0]
            regions.append(sign * t * s >= -eps)
        else:
            regions.append(line.shape[1] == 2)
    regions.append(
        all(intersect(l.onb, stem.onb, eps).shape[1] >= 1
            for stem in (surface.stem1, surface.stem2))
        and SP.transverse(l, surface.p_zero, eps) and SP.transverse(l, surface.p_inf, eps)
        and abs(S.maslov(SP, surface.p_zero, l, surface.p_inf, eps)) == 2)
    return regions


def contact_planes(c_stem, c_wing):
    """L at the midpoint of every piece of both wings of c_wing, cut
    as `_stem_wing_contacts` cuts them: L = span{x1, x2} over the stem planes
    of c_stem, q < 0 pieces included."""
    columns = c_stem.quad.columns
    for sign in (+1, -1):
        ends, _ = _wing_generators(c_wing.quad.columns, sign, np.array([0.0, np.pi / 2]), 0.0)
        a, b = np.linalg.solve(columns, ends.T).T
        roots = np.arctan2(-a, b) % np.pi
        cuts = np.unique(np.concatenate([[0.0, np.pi / 2], roots[roots < np.pi / 2]]))
        for mid in (cuts[:-1] + cuts[1:]) / 2:
            k = np.cos(mid) * a + np.sin(mid) * b
            yield S.Plane2.span(SP, columns[:, [0, 3]] @ k[[0, 3]],
                                columns[:, [1, 2]] @ k[[1, 2]])


def photon_candidates(seed, trials=1000):
    """(surface, planes) for the suite_photon_avoidance draws of a seed: the
    four planes through p meeting P+, P-, S1, S2 (incidence det[p, w, a, b]
    = 0 on orthonormal bases), and the witness when the photon meets."""
    done, draws = 0, photon_draws(seed)
    while done < trials:
        p, surface = next(draws)
        p = p / np.linalg.norm(p)
        if min(map(abs, C.photon_margins(p, surface))) <= 1e-6:
            continue
        done += 1
        w1, w2 = _second_generators(SP, p)
        onbs = [plane.onb for plane in (surface.p_plus, surface.p_minus,
                                        surface.stem1, surface.stem2)]
        a, b = (np.linalg.det([np.column_stack([p, w, onb]) for onb in onbs])
                for w in (w1, w2))
        planes = [S.Plane2.span(SP, p, np.cos(t) * w1 + np.sin(t) * w2)
                  for t in np.arctan2(-a, b)]
        witness = C.find_crossing_lagrangian(p, surface)
        yield surface, planes + ([] if witness is None else [witness])


def stem_only_candidates(seed, trials=200):
    """(surface, planes) for the suite_stem_only draws of a seed: every
    contact piece midpoint in both orders, against both surfaces."""
    for c1, c2, _shared in stem_crossing_pairs(SP, make_rng([seed, 8]), trials):
        for c_stem, c_wing in ((c1, c2), (c2, c1)):
            planes = list(contact_planes(c_stem, c_wing))
            yield c_stem, planes
            yield c_wing, planes


def random_surface_candidates(seed, surfaces=50):
    """(surface, planes) for random surfaces: their vertices, wing and stem
    points, and random Lagrangians."""
    rng = make_rng(seed)
    for _ in range(surfaces):
        surface = C.CrookedSurface(random_quadrilateral(SP, rng))
        planes = [surface.p_zero, surface.p_inf, surface.p_plus, surface.p_minus]
        for _ in range(4):
            theta, phi, theta2 = rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi), rng.uniform(0, np.pi / 2)
            planes += [wing_point(surface, +1, theta, phi), wing_point(surface, -1, theta, phi),
                       stem_point(surface, theta, theta2, +1 if phi < np.pi / 2 else -1),
                       random_lagrangian(SP, rng)]
        yield surface, planes


def compare_with_reference(groups):
    """(compared, reference raises, disagreements) over (surface, planes)
    groups, each group's planes in one `_quad_regions` call."""
    compared, raises, disagree = 0, 0, []
    for surface, planes in groups:
        got = np.stack(C._quad_regions(surface.quad.columns,
                                       np.stack([l.onb for l in planes]), C.EPS_ALG),
                       axis=1).tolist()
        for l, regions in zip(planes, got):
            try:
                want = reference_regions(surface, l)
            except GeometryError:
                raises += 1
                continue
            compared += 1
            if regions != want:
                disagree.append((surface, l, regions, want))
    return compared, raises, disagree


def test_regions_match_the_subspace_reference():
    compared, raises, disagree = compare_with_reference(itertools.chain(
        photon_candidates(1), stem_only_candidates(1), random_surface_candidates(25)))
    assert disagree == []
    assert compared > 10_000
    assert raises < 10


# the quadrilaterals Q = (u+, u-, v+, v-) of c1 and c2, row by row, of
# stem-only seed 1 pair 147 and seed 3 pair 14 as an earlier stem-point
# construction drew them, accepting c2 through the subspace route; c2's
# cond(Q) is 1.4e6 and 4.7e4
_MASLOV_THRESHOLD_CASES = [
    ([["0x1.d623ad3f72301p-1", "-0x1.c213b3830f471p-3", "-0x1.f100473f5b90ep-1", "0x1.01edb4ca734b8p-1"],
      ["0x1.38cd945357ff7p-1", "0x1.82b73e9b79993p-1", "0x1.816c738e81240p-3", "-0x1.ac47773d918afp-2"],
      ["-0x1.cdde589b13351p-1", "0x1.d013a0b297ae4p-5", "0x1.17ad04a9e30a0p-4", "0x1.19e6db0fbedd4p-1"],
      ["0x1.3b91adb173ba1p-6", "0x1.0d79c8e13d1b5p-2", "0x1.562b7cad19b3ep+0", "0x1.ac21b0adf1bacp-5"]],
     [["0x1.a616d6d83a99cp+6", "-0x1.0d79f6de8a283p+7", "-0x1.0c502cf1f60f5p+7", "0x1.a6fc66c6be1fap+6"],
      ["-0x1.14fa2a804e6eep+7", "0x1.f5c29a48a7411p+6", "0x1.f7820c63fe45bp+6", "-0x1.131124c00ea20p+7"],
      ["0x1.f8782df6492aep+8", "-0x1.1847df05af143p+9", "-0x1.17e118162864fp+9", "0x1.f77c790be396cp+8"],
      ["-0x1.7b07fdc6d8d94p+7", "0x1.d6aff5f3c6dd7p+7", "0x1.d4de9d1e2db4dp+7", "-0x1.7b902c1e0dc58p+7"]]),
    ([["0x1.2ae646f256dacp-1", "0x1.c32cdffad9e59p-2", "-0x1.6a0674d173f8ep-2", "-0x1.85463bd2b9197p-1"],
      ["0x1.3e55e023cef32p-4", "0x1.087e9c83278cep+1", "0x1.cd6e80b311459p-3", "-0x1.85cc3866e9e4cp+0"],
      ["0x1.02cb61c8dd5b4p-1", "0x1.1052c30a63514p-1", "-0x1.6874ec5b28c19p-2", "0x1.ff17acfe093a9p-1"],
      ["0x1.46a816d063829p-5", "-0x1.1cd4802923340p-4", "0x1.d7772f256e752p-2", "-0x1.6de20691ebc83p-2"]],
     [["-0x1.47d9a73270348p+6", "0x1.40d7d945314d8p+5", "-0x1.3bd68107072d2p+5", "0x1.458d20dd69fd8p+6"],
      ["-0x1.651f53980cec5p+5", "0x1.cd7c930288086p+6", "-0x1.ce41e14030f8ap+6", "0x1.5ad1870e934f3p+5"],
      ["0x1.75bcd5c36771fp+6", "0x1.99b4f709c7c9bp+4", "-0x1.abb877027da1bp+4", "-0x1.7626b4fd619cdp+6"],
      ["-0x1.7e7994cf205bap+5", "-0x1.d95ad27c66d72p+2", "0x1.fca28ba91fb92p+2", "0x1.7e670b53242c6p+5"]]),
]


def test_membership_answers_where_the_maslov_threshold_raised():
    # there L = span{x1, x2} of a q < 0 piece with c2 as the stem passes
    # both transversality tests, and the Maslov form's eigenvalue ~-6e-7
    # next to ~1e3 reads as zero
    for quads in _MASLOV_THRESHOLD_CASES:
        c1, c2 = (C.CrookedSurface(C.LightlikeQuadrilateral(
            SP, *np.array([[float.fromhex(x) for x in row] for row in q]).T))
            for q in quads)
        raised = 0
        for l in contact_planes(c2, c1):
            try:
                reference_regions(c2, l)
            except GeometryError:
                raised += 1
                assert C.surface_contains(c2, l) is None  # p01 p23 > 0: index 0
        assert raised


def plane_route(quad):
    """The surface checks through `Plane2`: the six planes, or the
    GeometryError the constructor raises for them."""
    planes = [S.Plane2(quad.space, b) for b in quad.columns.take(C._PLANE_ENTRIES)]
    for vertex, name in zip(planes[:4], ("P0", "Pinf", "P+", "P-")):
        if not vertex.is_lagrangian:
            raise GeometryError(f"vertex {name} is not Lagrangian")
    if planes[4].is_lagrangian or planes[5].is_lagrangian:
        raise GeometryError("stem planes must be nondegenerate")
    return planes


def outcome(build, quad):
    """(value, None) or (None, message) of build(quad)."""
    try:
        return build(quad), None
    except GeometryError as error:
        return None, str(error)


def test_surface_checks_match_the_plane_route():
    # random symplectic images of the canonical quadrilateral, the pair
    # (u+, v-) rescaled to (u+ / p, v- p), one column perturbed
    rng = make_rng(25)
    canonical = E4[:, [0, 1, 3, 2]]  # columns of the quadrilateral (e1, e2, e4, e3)
    counts = {"quad": 0, "accepted": 0, "rank": 0, "vertex": 0}
    for _ in range(2000):
        cols = random_symplectic(SP, rng) @ canonical
        p = 10.0 ** rng.uniform(-6, 6)
        cols *= [1 / p, 1, 1, p]
        j = rng.integers(4)
        cols[:, j] += 10.0 ** rng.uniform(-12, -6) * rng.normal(size=4) * np.linalg.norm(cols[:, j])
        try:
            quad = C.LightlikeQuadrilateral(SP, *cols.T)
        except GeometryError:
            counts["quad"] += 1
            continue
        want, want_message = outcome(plane_route, quad)
        surface, message = outcome(C.CrookedSurface, quad)
        assert message == want_message
        if message is not None:
            counts["rank" if message.startswith("basis") else "vertex"] += 1
            continue
        counts["accepted"] += 1
        for plane, reference in zip((surface.p_zero, surface.p_inf, surface.p_plus,
                                     surface.p_minus, surface.stem1, surface.stem2), want):
            assert np.array_equal(plane.onb, reference.onb)
            assert np.array_equal(plane.basis, reference.basis)
            assert plane.is_lagrangian is reference.is_lagrangian
    assert min(counts.values()) > 5, counts


_e1, _e2, _e3, _e4 = E4.T
_x = _e1 + 1e-9 * _e4


_RAISE_PATHS = [
    ((1e-3 * _e1, _e2, _e4 + 1e-7 * _e3, _e3 / 1e-3), "vertex P\\+ is not Lagrangian"),
    ((1e5 * _e1, _e2, _e4, 1e-5 * _e3 + 1e5 * _e1), "basis matrix has rank 1 < 2 column"),
    # u-, v+ span the omega-complement of S1 = span{u+, v-}; in this family
    # the stem tag reaches 1e-9 only where a vertex basis sits at the rank
    # threshold, so this case passes both rules at their rounding ties
    ((1 / 1e-9 * _e1, _e2 + _x, -3 * _e2 + (1 / 1e-9 - 3) * _x, _e2 + 1e-9 * _e3),
     "stem planes must be nondegenerate"),
]


@pytest.mark.parametrize("columns, message", _RAISE_PATHS, ids=["vertex", "rank", "stem"])
def test_surface_raise_paths(columns, message):
    quad = C.LightlikeQuadrilateral(SP, *columns)
    with pytest.raises(GeometryError, match=message):
        plane_route(quad)
    with pytest.raises(GeometryError, match=message):
        C.CrookedSurface(quad)


def test_rank_rule_floors_its_threshold_at_one():
    # P0 = span{v+, v-} has s0 = 1.4e-3 and s1 = 7.1e-11: above EPS_RANK s0,
    # below the floor EPS_RANK max(1, s0), so every route reads rank 1
    rows = np.array([E4[0], E4[1], 1e-3 * E4[2], 1e-3 * E4[2] + 1e-10 * E4[3]])
    s0, s1 = np.linalg.svd(rows[[2, 3]].T, compute_uv=False)
    assert EPS_RANK * s0 < s1 < EPS_RANK < s0 < 1.0
    message = "basis matrix has rank 1 < 2 column(s)"
    gram = rows @ SP.matrix @ rows.T
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        C._check_planes(rows.tolist(), gram.tolist(), EPS_ALG)
    rank = C._surface_check_rows(rows[None], gram[None], SP.vol_coeff, EPS_ALG)[2]
    assert rank[0].tolist() == [True] and rank[1](0) == message
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        S.Plane2(SP, rows[[2, 3]].T)


def test_predicate_path_builds_no_planes(monkeypatch):
    from ein3 import ads, linalg

    def fail(*args, **kwargs):
        raise AssertionError("built a plane")

    rng = make_rng(26)
    quads = [random_quadrilateral(SP, rng) for _ in range(20)]
    ads_pairs = [random_ads_config(rng) for _ in range(20)]
    with monkeypatch.context() as no_subspace:
        no_subspace.setattr(linalg, "_orthonormal_columns", fail)
        surfaces = [C.CrookedSurface(q) for q in quads]
        for c1, c2 in zip(surfaces, surfaces[1:]):
            C.surfaces_disjoint(c1, c2)
            C.photon_disjoint(rng.normal(size=4), c1)
        for p1, p2 in ads_pairs:
            ads.ads_disjoint(p1, p2)
            ads.dgk_criterion(p1, p2)
            C.surfaces_disjoint(C.CrookedSurface(ads.ads_quadrilateral(p1)),
                                C.CrookedSurface(ads.ads_quadrilateral(p2)))
    # the witness of a photon that misses the vertices is a new plane
    # through it, not one of the surface's
    witnesses = 0
    for surface in surfaces:
        p = rng.normal(size=4)
        witness = C.find_crossing_lagrangian(p, surface)
        if witness is not None:
            witnesses += 1
            assert C.surface_contains(surface, witness) is not None
        assert "_planes" not in vars(surface)
    assert witnesses > 5


def svd_route(quad):
    """The quadrilateral's basis check by LAPACK det, and the surface
    checks by one stacked SVD of the six bases, under the rank rule and
    tag of `Plane2`: None, or the GeometryError message."""
    if abs(np.linalg.det(quad.columns)) <= EPS_RANK:
        return "quadrilateral vectors do not form a basis"
    bases = quad.columns.take(C._PLANE_ENTRIES)
    s = np.linalg.svd(bases, compute_uv=False)
    nonzero = s > EPS_RANK * np.maximum(1.0, s[:, :1])
    if not nonzero.all():
        return f"basis matrix has rank {nonzero.sum(axis=1).min()} < 2 column(s)"
    omega = np.einsum("ki,ij,kj->k", bases[:, :, 0], SP.matrix, bases[:, :, 1])
    lagrangian = np.abs(omega) / (s[:, 0] * s[:, 1]) <= EPS_ALG
    for name, tag in zip(("P0", "Pinf", "P+", "P-"), lagrangian):
        if not tag:
            return f"vertex {name} is not Lagrangian"
    if lagrangian[4] or lagrangian[5]:
        return "stem planes must be nondegenerate"
    return None


def test_closed_form_checks_match_the_svd_route():
    # the family of test_surface_checks_match_the_plane_route, ten times
    # as long
    rng = make_rng(25)
    canonical = E4[:, [0, 1, 3, 2]]  # columns of the quadrilateral (e1, e2, e4, e3)
    counts = {"quad": 0, "accepted": 0, "rank": 0, "vertex": 0}
    for _ in range(20000):
        cols = random_symplectic(SP, rng) @ canonical
        p = 10.0 ** rng.uniform(-6, 6)
        cols *= [1 / p, 1, 1, p]
        j = rng.integers(4)
        cols[:, j] += 10.0 ** rng.uniform(-12, -6) * rng.normal(size=4) * np.linalg.norm(cols[:, j])
        try:
            quad = C.LightlikeQuadrilateral(SP, *cols.T)
        except GeometryError:
            counts["quad"] += 1
            continue
        message = outcome(C.CrookedSurface, quad)[1]
        assert message == svd_route(quad)
        counts["accepted" if message is None
               else "rank" if message.startswith("basis") else "vertex"] += 1
    assert min(counts.values()) > 50, counts


@pytest.mark.parametrize("p", [1e100, 1e160, 1e200, 1e-200])
def test_closed_form_checks_at_extreme_scales(p):
    # u+ p and v- / p keep every product exact; the SVD route finds rank 1
    # (the vertex P0 or P_infinity); no overflow, warning or other error
    quad = C.LightlikeQuadrilateral(SP, *(E4[:, [0, 1, 3, 2]] * [p, 1, 1, 1 / p]).T)
    assert svd_route(quad) == "basis matrix has rank 1 < 2 column(s)"
    with pytest.raises(GeometryError, match=r"^basis matrix has rank 1 < 2 column\(s\)$"):
        C.CrookedSurface(quad)


def kernel_and_scalar_messages(space, rows):
    """For a stack of quadrilateral rows (n, 4, 4), the message or None that
    one `_surface_check_rows` call raises row by row, and those of
    `_check_quadrilateral` then `_check_planes`, one row at a time."""
    grams = rows @ space.matrix @ rows.swapaxes(-1, -2)
    checks = C._surface_check_rows(rows, grams, space.vol_coeff, EPS_ALG)

    def scalar(k):
        C._check_quadrilateral(grams[k].tolist(), space.vol_coeff, EPS_ALG)
        C._check_planes(rows[k].tolist(), grams[k].tolist(), EPS_ALG)

    return ([outcome(lambda k: _raise_first(checks, k), k)[1] for k in range(len(rows))],
            [outcome(scalar, k)[1] for k in range(len(rows))])


def test_surface_check_rows_match_the_scalar_checks():
    # the family of test_closed_form_checks_match_the_svd_route in one
    # stacked call, failed products included, the rows of the raise paths
    # and the extreme scales, and one violated product per residual key
    rng = make_rng(25)
    canonical = E4[:, [0, 1, 3, 2]]  # columns of the quadrilateral (e1, e2, e4, e3)
    rows = []
    for _ in range(20000):
        cols = random_symplectic(SP, rng) @ canonical
        p = 10.0 ** rng.uniform(-6, 6)
        cols *= [1 / p, 1, 1, p]
        j = rng.integers(4)
        cols[:, j] += 10.0 ** rng.uniform(-12, -6) * rng.normal(size=4) * np.linalg.norm(cols[:, j])
        rows.append(cols.T)
    rows += [np.array(columns) for columns, _ in _RAISE_PATHS]
    rows += [(canonical * [p, 1, 1, 1 / p]).T for p in (1e100, 1e160, 1e200, 1e-200)]
    # row t += f row s moves exactly one product off, in _RESIDUAL_KEYS order
    for t, s, f in ((3, 3, 0.5), (2, 2, 0.5), (1, 3, 1e-3), (2, 3, 1e-3), (3, 2, 1e-3),
                    (3, 1, 1e-3)):
        rows.append(canonical.T.copy())
        rows[-1][t] += f * rows[-1][s]
    messages, want = kernel_and_scalar_messages(SP, np.array(rows))
    assert messages == want
    kinds = collections.Counter(m and m.split()[0] for m in messages[:20000])
    assert min(kinds[k] for k in (None, "quadrilateral", "basis", "vertex")) > 50, kinds
    assert [m.split()[0] for m in messages[20000:20007]] == [
        "vertex", "basis", "stem", "basis", "basis", "basis", "basis"]
    for key, message in zip(C._RESIDUAL_KEYS, messages[20007:]):
        assert message.startswith(f"quadrilateral products violated: {key} off by ")
        assert message.count(" off by ") == 1
    # a singular basis: the products hold at omega = 1e10 STANDARD_OMEGA
    assert kernel_and_scalar_messages(S.SympSpace(1e10 * S.STANDARD_OMEGA),
                                      1e-5 * canonical.T[None]) == (
        ["quadrilateral vectors do not form a basis"],) * 2


def test_basis_check_at_a_large_omega():
    # the products hold at omega = 1e10 STANDARD_OMEGA, and det Q = 1e-20
    big = S.SympSpace(1e10 * S.STANDARD_OMEGA)
    columns = 1e-5 * E4[:, [0, 1, 3, 2]]
    assert abs(np.linalg.det(columns)) <= EPS_RANK
    with pytest.raises(GeometryError, match="^quadrilateral vectors do not form a basis$"):
        C.LightlikeQuadrilateral(big, *columns.T)
    quad = C.LightlikeQuadrilateral(S.SympSpace(1e4 * S.STANDARD_OMEGA),
                                    *(1e-2 * E4[:, [0, 1, 3, 2]]).T)
    assert abs(np.linalg.det(quad.columns)) > EPS_RANK


def test_construction_path_runs_no_svd_or_det(monkeypatch):
    from ein3 import ads, einstein

    def fail(*args, **kwargs):
        raise AssertionError("called np.linalg.svd or np.linalg.det")

    rng = make_rng(27)
    columns = [random_quadrilateral(SP, rng).columns for _ in range(20)]
    ads_args = [(p.base, p.a, p.b) for _ in range(10) for p in random_ads_config(rng)]
    normals = [s for s in rng.normal(size=(40, 5)) if s @ einstein.GRAM @ s > 0.1]
    with monkeypatch.context() as stubbed:
        stubbed.setattr(np.linalg, "svd", fail)
        stubbed.setattr(np.linalg, "det", fail)
        surfaces = [C.CrookedSurface(C.LightlikeQuadrilateral(SP, *cols.T)) for cols in columns]
        for c1, c2 in zip(surfaces, surfaces[1:]):
            C.surfaces_disjoint(c1, c2)
        ads_surfaces = [C.CrookedSurface(ads.ads_quadrilateral(ads.AdsCrookedPlane(*args)))
                        for args in ads_args]
        for c1, c2 in zip(ads_surfaces[::2], ads_surfaces[1::2]):
            C.surfaces_disjoint(c1, c2)
        tori = [einstein.EinsteinTorus(s) for s in normals]
        for t1, t2 in zip(tori, tori[1:]):
            einstein.classify_torus_pair(t1, t2)
    assert len(tori) > 5
