"""Crooked surfaces in the symplectic model, and their disjointness.

A lightlike quadrilateral is a basis (u+, u-, v+, v-) of V with
omega(u+, v-) = omega(u-, v+) = 1 and all other products among the four
vanishing.  The crooked surface it determines has two wings, swept by the
photon families [t u+ + s v+] with t s >= 0 and [t u- + s v-] with
t s <= 0, and a stem: the part of the Einstein torus of the splitting
span{u+, v-} + span{u-, v+} that is timelike with respect to the vertices
P0 = span{v+, v-} and P_infinity = span{u+, u-}.

A photon avoids such a surface exactly when two explicit inequalities hold,
and two surfaces are disjoint exactly when each of the eight defining
photons avoids the other surface: sixteen strict inequalities in total.
Values within the tolerance margin count as *not* disjoint, the safe
failure mode for fundamental-domain use.

Objects validate once, at construction; the predicates work on the stored
arrays: eight margins per omega-product of 4x4 matrices, and membership of
a stack of Lagrangians per solve against the quadrilateral.  A
quadrilateral checks its products and its rank from its Gram matrix
G = Q^T Omega Q, and a surface checks its six planes from the
closed-form singular values of their bases and omega read off G; the
plane objects, which no predicate reads, are built one by one when first
read.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from ein3.linalg import EPS_ALG, EPS_RANK, GeometryError, _plane_values, as_rows, as_vector
from ein3.symplectic import Plane2, _lagrangian, pfaffian4, plucker_rows

_QUAD_KEYS = ("u_plus", "u_minus", "v_plus", "v_minus")

# the columns of Q spanning P0, P_infinity, P+, P-, S1 and S2, and their
# entries in the flattened Q: one take gives the (6, 4, 2) stack of bases
_PLANES = ((2, 3), (0, 1), (0, 2), (1, 3), (0, 3), (1, 2))
_PLANE_ENTRIES = 4 * np.arange(4)[:, None] + np.array(_PLANES)[:, None, :]


class SurfaceRegion(Enum):
    WING_PLUS = "wing_plus"
    WING_MINUS = "wing_minus"
    STEM = "stem"


class LightlikeQuadrilateral:
    """Four photon vectors normalized to the quadrilateral products.

    Parameters
    ----------
    space : SympSpace
    u_plus, u_minus, v_plus, v_minus : length-4 vectors
        Must satisfy omega(u+, v-) = omega(u-, v+) = 1 and have all four
        remaining mutual products zero, within eps; the vectors must span V.
        Kept as `eps`, the tolerance its `CrookedSurface` tags planes at.

    Violated products are reported with their magnitudes.  The products
    and det Q = Pf(G) / Pf(Omega) are read off the Gram matrix
    G = Q^T Omega Q, kept as `gram`.  Note the actual
    vectors matter beyond their projective classes: rescaling u+ by p and
    v- by 1/p preserves the configuration, but flipping the sign of one
    pair swaps a wing family for its complement and describes a different
    surface.
    """

    def __init__(self, space, u_plus, u_minus, v_plus, v_minus, eps=EPS_ALG):
        self.space = space
        self.eps = eps
        rows = as_rows((u_plus, u_minus, v_plus, v_minus), 4)
        self.u_plus, self.u_minus, self.v_plus, self.v_minus = rows
        self.columns = rows.T.copy()  # Q = (u+, u-, v+, v-), C-ordered
        self.gram = self.columns.T @ space.matrix @ self.columns  # G = Q^T Omega Q
        _check_quadrilateral(self.gram.tolist(), space.vol_coeff, eps)

    def __repr__(self):
        return ("LightlikeQuadrilateral("
                + ", ".join(f"{k}={getattr(self, k).tolist()}" for k in _QUAD_KEYS)
                + ")")


_RESIDUAL_KEYS = ("omega(u+, v-) - 1", "omega(u-, v+) - 1", "omega(u+, u-)",
                  "omega(u+, v+)", "omega(u-, v-)", "omega(v+, v-)")


def _product_residuals(g):
    """The residuals named by _RESIDUAL_KEYS, read off a Gram matrix G as
    lists, or off a stack with its matrix axes first."""
    (_, g01, g02, g03), (_, _, g12, g13), (_, _, _, g23), _ = g
    return g03 - 1.0, g12 - 1.0, g01, g02, g13, g23


def _check_quadrilateral(g, vol_coeff, eps):
    """The checks of `LightlikeQuadrilateral` on its Gram matrix G as lists,
    in a space of volume coefficient vol_coeff: the six products within eps,
    then det Q = Pf(G) / Pf(Omega) off zero (1 / Pf(Omega) = -vol_coeff)."""
    r0, r1, r2, r3, r4, r5 = residuals = _product_residuals(g)
    if (abs(r0) > eps or abs(r1) > eps or abs(r2) > eps or abs(r3) > eps
            or abs(r4) > eps or abs(r5) > eps):
        raise GeometryError(
            "quadrilateral products violated: "
            + ", ".join(f"{k} off by {v:.3e}"
                        for k, v in zip(_RESIDUAL_KEYS, residuals) if abs(v) > eps))
    if abs(pfaffian4(g) * vol_coeff) <= EPS_RANK:
        raise GeometryError("quadrilateral vectors do not form a basis")


def _plane_singular_values(rows):
    """Singular values (s0, s1), s0 >= s1, of the basis of each of the six
    planes, from the rows (u+, u-, v+, v-) of Q^T as lists, in closed form:
    for a basis (x, y), s0 s1 = |x ^ y| (the Pluecker norm) and
    s0^2 + s1^2 = |x|^2 + |y|^2.  The vectors are divided by their largest
    |entry|, and each pair by the larger of its two, before anything is
    squared."""
    peaks = [max(max(v), -min(v)) for v in rows]
    units = [[x / peak for x in v] for v, peak in zip(rows, peaks)]
    norms = [x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 for x0, x1, x2, x3 in units]
    values = []
    for i, j in _PLANES:
        (x0, x1, x2, x3), (y0, y1, y2, y3) = units[i], units[j]
        scale = max(peaks[i], peaks[j])
        ri, rj = peaks[i] / scale, peaks[j] / scale
        area = ri * rj * math.hypot(x0 * y1 - x1 * y0, x0 * y2 - x2 * y0, x0 * y3 - x3 * y0,
                                    x1 * y2 - x2 * y1, x1 * y3 - x3 * y1, x2 * y3 - x3 * y2)
        frob = ri * ri * norms[i] + rj * rj * norms[j]
        # s0 + s1 and s0 - s1 are the roots of frob + 2 area and frob - 2 area
        s0 = 0.5 * (math.sqrt(frob + 2.0 * area) + math.sqrt(max(frob - 2.0 * area, 0.0)))
        values.append((scale * s0, scale * (area / s0)))
    return values


def _check_planes(rows, g, eps):
    """The checks of `CrookedSurface` on its six planes, from the rows
    (u+, u-, v+, v-) of Q^T and the Gram matrix G of its quadrilateral as
    lists: the rank rule of `Plane2` on the singular values of each basis,
    reporting the least rank of the six, then the Lagrangian tag at eps,
    |omega| of the orthonormalized basis, which is |omega(b0, b1)| /
    (s0 s1) with omega(b0, b1) read off G."""
    values = _plane_singular_values(rows)
    tols = [EPS_RANK * max(1.0, s0) for s0, _ in values]
    if not all(s1 > tol for (_, s1), tol in zip(values, tols)):
        rank = min((s0 > tol) + (s1 > tol) for (s0, s1), tol in zip(values, tols))
        raise GeometryError(f"basis matrix has rank {rank} < 2 column(s)")
    lagrangian = [abs(g[i][j]) / (s0 * s1) <= eps
                  for (i, j), (s0, s1) in zip(_PLANES, values)]
    for name, tag in zip(("P0", "Pinf", "P+", "P-"), lagrangian):
        if not tag:
            raise GeometryError(f"vertex {name} is not Lagrangian")
    if lagrangian[4] or lagrangian[5]:
        raise GeometryError("stem planes must be nondegenerate")


def _surface_check_rows(rows, grams, vol_coeff, eps):
    """`_check_quadrilateral` then `_check_planes` over a stack of rows
    (..., 4, 4) of Q^T and their Gram matrices, as (mask, message) pairs
    for `_raise_first`, in order, the planes' by `_plane_values`.  No value
    of a row past its first failed check is read, so its overflow or 0/0
    goes unreported."""
    with np.errstate(all="ignore"):
        g = np.moveaxis(grams, (-2, -1), (0, 1))
        residuals = np.stack(_product_residuals(g), axis=-1)
        basis = np.abs(pfaffian4(g) * vol_coeff) <= EPS_RANK
        i, j = np.array(_PLANES).T
        s0, s1, rank, _, _ = _plane_values(rows, i, j, EPS_RANK)
        tags = np.abs(grams[..., i, j]) / (s0 * s1) <= eps
        violated = np.abs(residuals) > eps
    return [(violated.any(axis=-1), lambda k: "quadrilateral products violated: " + ", ".join(
                f"{key} off by {v:.3e}" for key, v, bad in zip(
                    _RESIDUAL_KEYS, residuals[k].tolist(), violated[k]) if bad)),
            (basis, "quadrilateral vectors do not form a basis"),
            ((rank < 2).any(axis=-1),
             lambda k: f"basis matrix has rank {rank[k].min()} < 2 column(s)"),
            (~tags[..., :4].all(axis=-1), lambda k: "vertex {} is not Lagrangian".format(
                ("P0", "Pinf", "P+", "P-")[tags[k][:4].argmin()])),
            (tags[..., 4] | tags[..., 5], "stem planes must be nondegenerate")]


def _built_plane(index, doc):
    """Property reading one plane of the surface's cached `_planes`."""
    return property(lambda self: self._planes[index], doc=doc)


class CrookedSurface:
    """Crooked surface of a lightlike quadrilateral: two wings and a stem.

    Derived data: the four Lagrangian vertices P0, P_infinity, P+, P- and
    the nondegenerate, mutually omega-orthogonal stem planes S1, S2.  The
    constructor checks all six by the rules of `Plane2`, from the
    closed-form singular values of their bases and from omega read off the
    quadrilateral's G, the Lagrangian tag at the quadrilateral's eps; the
    six `Plane2` objects are built, one by one, on the first read of any of
    them, and carry those tags; no predicate reads them.
    """

    def __init__(self, quad):
        self.quad = quad
        self.space = quad.space
        _check_planes(quad.columns.T.tolist(), quad.gram.tolist(), quad.eps)

    @functools.cached_property
    def _planes(self):
        planes = [Plane2(self.space, b) for b in self.quad.columns.take(_PLANE_ENTRIES)]
        for k, plane in enumerate(planes):  # the tags checked at quad.eps
            plane.is_lagrangian = k < 4
        return planes

    p_zero = _built_plane(0, "The vertex P0 = span{v+, v-}.")
    p_inf = _built_plane(1, "The vertex P_infinity = span{u+, u-}.")
    p_plus = _built_plane(2, "The vertex P+ = span{u+, v+}.")
    p_minus = _built_plane(3, "The vertex P- = span{u-, v-}.")
    stem1 = _built_plane(4, "The stem plane S1 = span{u+, v-}.")
    stem2 = _built_plane(5, "The stem plane S2 = span{u-, v+}.")

    def __repr__(self):
        return f"CrookedSurface({self.quad!r})"


def _quad_regions(columns, bases, eps):
    """(wing+, wing-, stem) masks of a (n, 4, 2) stack of Lagrangian bases B
    against the quadrilateral Q = (u+, u-, v+, v-) of 4x4 columns, or row
    by row against a (n, 4, 4) stack (any leading axes broadcast): from the
    unit Pluecker row p of K = Q^-1 B (pairs 01, 02, 03, 12, 13, 23 over
    Q); eps bounds the unit minors.

    L meets P+, P-, S1, S2, P0, P_infinity (coordinate planes 02, 13, 03,
    12, 23, 01) exactly when the complementary minor p13, p02, p12, p03,
    p01, p23 vanishes.  On the wing+ photon t u+ + s v+ of L, p03 p23 and
    -p01 p12 are t s times a square (p01 p03 and -p12 p23 on wing-), so
    their sum has the sign of t s, and is 0 on the vertex.  The stem is
    transverse to P0 and P_infinity with Maslov index +/-2: p01 p23 < 0.
    Bases with more leading axes than a stack of columns (n, 4, 4), (n, j...,
    4, 2), are solved for in one solve a quadrilateral, the axes j... folded
    into the columns of the right-hand side (for one quadrilateral the
    reshaping costs more than it saves).
    """
    lead = columns.ndim - 2
    if lead and bases.ndim - 2 > lead and bases.shape[:lead] == columns.shape[:-2]:
        rhs = np.moveaxis(bases, -2, lead)
        k = np.moveaxis(np.linalg.solve(columns, rhs.reshape(*rhs.shape[:lead + 1], -1)).reshape(
            rhs.shape), lead, -2)
    else:
        k = np.linalg.solve(columns, bases)
    p = plucker_rows(k[..., 0], k[..., 1])
    p01, p02, p03, p12, p13, p23 = (p / np.linalg.norm(p, axis=-1, keepdims=True)).transpose(
        -1, *range(p.ndim - 1))
    return ((np.abs(p13) <= eps) & (p03 * p23 - p01 * p12 >= -eps),
            (np.abs(p02) <= eps) & (p01 * p03 - p12 * p23 <= eps),
            (np.abs(p12) <= eps) & (np.abs(p03) <= eps) & (np.abs(p01) > eps)
            & (np.abs(p23) > eps) & (p01 * p23 < 0))


def _lagrangian_regions(space, columns, onb):
    """`_quad_regions` of the planes of orthonormal bases onb, and the check
    (for `_raise_first`) that `Plane2` tags each Lagrangian."""
    return _quad_regions(columns, onb, EPS_ALG), [(~_lagrangian(space, onb),
                                               "expected a Lagrangian plane")]


def _regions_of(surface, l, eps):
    """`_quad_regions` of one Lagrangian plane, as three bools.  The wing+
    (wing-) mask holds on the photons [t u + s v] through P+ (P-) with
    t s >= 0 (<= 0), the vertex included."""
    if not l.is_lagrangian:
        raise GeometryError("expected a Lagrangian plane")
    return [bool(mask[0]) for mask in _quad_regions(surface.quad.columns, l.onb[None], eps)]


def surface_contains(surface, l, eps=EPS_ALG) -> Optional[SurfaceRegion]:
    """First region containing the Lagrangian, or None.

    Checked in the order wing+, wing-, stem; the regions only overlap on
    wing boundaries, and the open stem meets neither wing.
    """
    regions = _regions_of(surface, l, eps)
    return next((region for region, inside in zip(SurfaceRegion, regions) if inside), None)


def _unit_photons(p):
    """p / |p| for one vector, or row by row for a (k, 4) stack of them, or
    for each (k, 4) slice of a deeper stack; when a norm of a slice
    overflows, its rows are first divided by their largest |entry|."""
    norm = np.linalg.norm(p, axis=-1, keepdims=True)
    if not np.isfinite(norm).all():
        if p.ndim > 2:
            return np.array([_unit_photons(rows) for rows in p])
        p = p / np.abs(p).max(axis=-1, keepdims=True)
        norm = np.linalg.norm(p, axis=-1, keepdims=True)
    if not norm.all():
        raise GeometryError("zero photon vector")
    return p / norm


def _check_space(space, surface):
    """Raise unless objects of `space` can be tested against the surface."""
    if space is not surface.space and not np.array_equal(space.matrix,
                                                         surface.space.matrix):
        raise GeometryError(
            "the photons and the surface are in different symplectic spaces")


def _omega_products(units, surface):
    """W = P Omega Q for a stack P of unit photon rows of the surface's
    space: W[i, j] = omega(p_i, column j of the surface's quadrilateral),
    the columns being (u+, u-, v+, v-)."""
    return units @ surface.space.matrix @ surface.quad.columns


def _products(w):
    """(m1, m2) of `photon_margins` from the omega-products W: m1 =
    omega(p, v+) omega(p, u+) and m2 = omega(p, v-) omega(p, u-)."""
    return w[..., 2] * w[..., 0], w[..., 3] * w[..., 1]


def _sixteen_margins(columns, omega):
    """The sixteen margins of a surface pair from one omega-product, for
    the quadrilaterals Q1, Q2 stacked as columns (..., 2, 4, 4), or for a
    stack of pairs: W = P Omega Q with P the unit photon rows of (Q2, Q1)
    and Q = (Q1, Q2), so that (m1, m2) of `_products` are (..., 2, 4):
    row 0 the photons u+, u-, v+, v- of C2 against C1, row 1 those of C1
    against C2."""
    units = _unit_photons(columns[..., ::-1, :, :].swapaxes(-1, -2))
    return _products(units @ omega @ columns)


def _pair_margins(c1, c2):
    """`_sixteen_margins` of two surfaces of one space."""
    _check_space(c2.space, c1)
    return _sixteen_margins(np.stack([c1.quad.columns, c2.quad.columns]), c1.space.matrix)


def photon_margins(p, surface):
    """The two signed quantities deciding whether photon [p] avoids a surface.

    Returns (m1, m2) with m1 = omega(p, v+) omega(p, u+) and
    m2 = omega(p, v-) omega(p, u-), evaluated on the unit rescaling of p so
    the values are scale-invariant.  The photon avoids the surface exactly
    when m1 > 0 and m2 < 0.
    """
    m1, m2 = _products(_omega_products(_unit_photons(as_vector(p, 4)[None]), surface))
    return float(m1[0]), float(m2[0])


def photon_disjoint(p, surface, eps=EPS_ALG):
    """Whether the photon of a vector p misses the crooked surface entirely.

    Both inequalities m1 > 0, m2 < 0 must hold with margin eps; values
    within the margin (the photon touching the surface) count as not
    disjoint.
    """
    return _avoids(*photon_margins(p, surface), eps)


def _avoids(m1, m2, eps):
    """The one pass rule, on floats or elementwise on arrays."""
    return (m1 > eps) & (m2 < -eps)


def _sixteen_pass(m1, m2, eps):
    """Whether all sixteen margins (..., 2, 4) of a pair, or of each of a
    stack (`_sixteen_margins`), pass `_avoids`."""
    return _avoids(m1, m2, eps).all(axis=(-2, -1))


def find_crossing_lagrangian(p, surface, eps=EPS_ALG):
    """A surface point on the photon of p, when one of the two photon
    inequalities fails; None when the photon is disjoint.

    If m1 <= eps, take (t, s) = (omega(p, v+), -omega(p, u+)): t u+ + s v+
    spans the one photon of the wing+ family incident to p, and t s = -m1
    has the wing's sign, so span{p, t u+ + s v+} is on the wing (the
    vertex P+ when t and s are within eps of zero).  Symmetrically for
    m2 >= -eps on the wing- side.
    """
    p = _unit_photons(as_vector(p, 4))
    # omega(p, .) of (u+, u-, v+, v-)
    wu_plus, wu_minus, wv_plus, wv_minus = _omega_products(p[None], surface)[0].tolist()
    q = surface.quad
    for vertex, u, v, fails, t, s in (
            ("p_plus", q.u_plus, q.v_plus, wv_plus * wu_plus <= eps, wv_plus, -wu_plus),
            ("p_minus", q.u_minus, q.v_minus, wv_minus * wu_minus >= -eps, wv_minus,
             -wu_minus)):
        if fails:
            if abs(t) <= eps and abs(s) <= eps:
                return getattr(surface, vertex)
            return Plane2.span(surface.space, p, t * u + s * v)
    return None


def _crossing_bases(units, columns, w):
    """`find_crossing_lagrangian` over a block, for unit photon rows p (n, 4),
    quadrilateral columns (n, 4, 4) and W = P Omega Q (n, 4): the bases
    (n, 4, 2) of the witnesses (of the vertex P+ = span{u+, v+} or P- =
    span{u-, v-} within EPS_ALG of it) and the (n,) mask of the rows that have
    one.  `find_crossing_lagrangian` is the one-photon version, which the
    CLI calls and the tests compare this block against."""
    wu_plus, wu_minus, wv_plus, wv_minus = w.T
    plus = wv_plus * wu_plus <= EPS_ALG
    fails = plus | (wv_minus * wu_minus >= -EPS_ALG)
    t = np.where(plus, wv_plus, wv_minus)[:, None]
    s = -np.where(plus, wu_plus, wu_minus)[:, None]
    u = np.where(plus[:, None], columns[..., 0], columns[..., 1])
    v = np.where(plus[:, None], columns[..., 2], columns[..., 3])
    vertex = ((np.abs(t) <= EPS_ALG) & (np.abs(s) <= EPS_ALG))[..., None]
    return np.where(vertex, np.stack([u, v], -1), np.stack([units, t * u + s * v], -1)), fails


@dataclass
class PhotonTest:
    """Margins of one defining photon against the other surface."""
    label: str
    wing_plus_margin: float   # must be > eps for disjointness
    wing_minus_margin: float  # must be < -eps for disjointness
    eps: float

    @property
    def passed(self):
        """Whether the photon misses the surface (see `photon_disjoint`)."""
        return _avoids(self.wing_plus_margin, self.wing_minus_margin, self.eps)


def disjointness_report(c1, c2, eps=EPS_ALG):
    """All sixteen inequality values behind the disjointness criterion.

    Each of the eight defining photons contributes its two margins against
    the other surface, judged with margin eps.
    """
    m1, m2 = _pair_margins(c1, c2)
    return [PhotonTest(f"{key} {tag}", a, b, eps)
            for tag, row1, row2 in zip(("of C2 vs C1", "of C1 vs C2"), m1.tolist(), m2.tolist())
            for key, a, b in zip(_QUAD_KEYS, row1, row2)]


def surfaces_disjoint(c1, c2, eps=EPS_ALG):
    """Whether two crooked surfaces are disjoint.

    True exactly when every one of the eight defining photons (four per
    quadrilateral) misses the other surface; equivalently when all sixteen
    strict inequalities hold with margin eps.
    """
    return bool(_sixteen_pass(*_pair_margins(c1, c2), eps))
