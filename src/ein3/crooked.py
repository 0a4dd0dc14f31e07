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

from ein3.linalg import EPS_ALG, EPS_RANK, GeometryError, as_rows, as_vector
from ein3.symplectic import Plane2, SympSpace, pfaffian4, plucker_rows

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
        rows = as_rows((u_plus, u_minus, v_plus, v_minus), 4)
        self.u_plus, self.u_minus, self.v_plus, self.v_minus = rows
        self.columns = rows.T.copy()  # Q = (u+, u-, v+, v-), C-ordered
        self.gram = self.columns.T @ space.matrix @ self.columns  # G = Q^T Omega Q
        bad = {k: v for k, v in self.product_residuals().items() if abs(v) > eps}
        if bad:
            raise GeometryError(
                "quadrilateral products violated: "
                + ", ".join(f"{k} off by {v:.3e}" for k, v in bad.items()))
        # det Q = Pf(G) / Pf(Omega), and 1 / Pf(Omega) = -vol_coeff
        if abs(pfaffian4(self.gram.tolist()) * space.vol_coeff) <= EPS_RANK:
            raise GeometryError("quadrilateral vectors do not form a basis")

    def product_residuals(self):
        """Deviation of each omega product from its required value, read
        off the Gram matrix G."""
        g = self.gram.tolist()
        return {
            "omega(u+, v-) - 1": g[0][3] - 1.0,
            "omega(u-, v+) - 1": g[1][2] - 1.0,
            "omega(u+, u-)": g[0][1],
            "omega(u+, v+)": g[0][2],
            "omega(u-, v-)": g[1][3],
            "omega(v+, v-)": g[2][3],
        }

    def vectors(self):
        return (self.u_plus, self.u_minus, self.v_plus, self.v_minus)

    def transformed(self, g):
        """Image of the quadrilateral under a symplectic matrix."""
        g = np.asarray(g, dtype=float)
        return LightlikeQuadrilateral(
            self.space, g @ self.u_plus, g @ self.u_minus,
            g @ self.v_plus, g @ self.v_minus)

    def to_dict(self):
        return {k: list(getattr(self, k)) for k in _QUAD_KEYS}

    def __repr__(self):
        return ("LightlikeQuadrilateral("
                + ", ".join(f"{k}={getattr(self, k).tolist()}" for k in _QUAD_KEYS)
                + ")")


def canonical_quadrilateral(space=None):
    """The quadrilateral (e1, e2, e4, e3) in the standard basis convention."""
    if space is None:
        space = SympSpace()
    e = np.eye(4)
    return LightlikeQuadrilateral(space, e[:, 0], e[:, 1], e[:, 3], e[:, 2])


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


def _built_plane(index, doc):
    """Property reading one plane of the surface's cached `_planes`."""
    return property(lambda self: self._planes[index], doc=doc)


class CrookedSurface:
    """Crooked surface of a lightlike quadrilateral: two wings and a stem.

    Derived data: the four Lagrangian vertices P0, P_infinity, P+, P- and
    the nondegenerate, mutually omega-orthogonal stem planes S1, S2.  The
    constructor checks all six by the rules of `Plane2`, from the
    closed-form singular values of their bases and from omega read off the
    quadrilateral's G; the six `Plane2` objects are built, one by one, on
    the first read of any of them, and no predicate reads them.
    """

    def __init__(self, quad):
        self.quad = quad
        self.space = quad.space
        values = _plane_singular_values(quad.columns.T.tolist())
        # the rank rule of `Plane2`, reporting the least rank of the six bases
        tols = [EPS_RANK * max(1.0, s0) for s0, _ in values]
        if not all(s1 > tol for (_, s1), tol in zip(values, tols)):
            rank = min((s0 > tol) + (s1 > tol) for (s0, s1), tol in zip(values, tols))
            raise GeometryError(f"basis matrix has rank {rank} < 2 column(s)")
        # its Lagrangian tag: |omega| of the orthonormalized basis, which is
        # |omega(b0, b1)| / (s0 s1), with omega(b0, b1) read off G
        g = quad.gram.tolist()
        lagrangian = [abs(g[i][j]) / (s0 * s1) <= EPS_ALG
                      for (i, j), (s0, s1) in zip(_PLANES, values)]
        for name, tag in zip(("P0", "Pinf", "P+", "P-"), lagrangian):
            if not tag:
                raise GeometryError(f"vertex {name} is not Lagrangian")
        if lagrangian[4] or lagrangian[5]:
            raise GeometryError("stem planes must be nondegenerate")

    @functools.cached_property
    def _planes(self):
        return [Plane2(self.space, b) for b in self.quad.columns.take(_PLANE_ENTRIES)]

    p_zero = _built_plane(0, "The vertex P0 = span{v+, v-}.")
    p_inf = _built_plane(1, "The vertex P_infinity = span{u+, u-}.")
    p_plus = _built_plane(2, "The vertex P+ = span{u+, v+}.")
    p_minus = _built_plane(3, "The vertex P- = span{u-, v-}.")
    stem1 = _built_plane(4, "The stem plane S1 = span{u+, v-}.")
    stem2 = _built_plane(5, "The stem plane S2 = span{u-, v+}.")

    def __repr__(self):
        return f"CrookedSurface({self.quad!r})"


def _regions(surface, bases, eps):
    """(wing+, wing-, stem) masks of a (n, 4, 2) stack of Lagrangian bases B,
    from the unit Pluecker row p of K = Q^-1 B (pairs 01, 02, 03, 12, 13, 23
    over Q = (u+, u-, v+, v-)); eps bounds the unit minors.

    L meets P+, P-, S1, S2, P0, P_infinity (coordinate planes 02, 13, 03,
    12, 23, 01) exactly when the complementary minor p13, p02, p12, p03,
    p01, p23 vanishes.  On the wing+ photon t u+ + s v+ of L, p03 p23 and
    -p01 p12 are t s times a square (p01 p03 and -p12 p23 on wing-), so
    their sum has the sign of t s, and is 0 on the vertex.  The stem is
    transverse to P0 and P_infinity with Maslov index +/-2: p01 p23 < 0.
    """
    k = np.linalg.solve(surface.quad.columns, bases)
    p = plucker_rows(k[..., 0], k[..., 1])
    p01, p02, p03, p12, p13, p23 = (p / np.linalg.norm(p, axis=-1, keepdims=True)).T
    return ((np.abs(p13) <= eps) & (p03 * p23 - p01 * p12 >= -eps),
            (np.abs(p02) <= eps) & (p01 * p03 - p12 * p23 <= eps),
            (np.abs(p12) <= eps) & (np.abs(p03) <= eps) & (np.abs(p01) > eps)
            & (np.abs(p23) > eps) & (p01 * p23 < 0))


def _regions_of(surface, l, eps):
    """`_regions` of one Lagrangian plane, as three bools."""
    if not l.is_lagrangian:
        raise GeometryError("expected a Lagrangian plane")
    return [bool(mask[0]) for mask in _regions(surface, l.sub.onb[None], eps)]


def wing_contains(surface, l, sign, eps=EPS_ALG):
    """Whether a Lagrangian lies on the chosen wing.

    The wing with sign +1 (-1) is the union of the photons
    [t u + s v] with t s >= 0 (<= 0) through the vertex P+ (P-).  A point
    lies on it when its plane meets the vertex plane in a line whose
    photon coordinates satisfy the sign condition; the vertex itself,
    through which every wing photon passes, counts as a member.
    """
    if sign not in (+1, -1):
        raise GeometryError("wing sign must be +1 or -1")
    return _regions_of(surface, l, eps)[(1 - sign) // 2]


def stem_contains(surface, l, eps=EPS_ALG):
    """Whether a Lagrangian lies on the (open) stem.

    Stem members meet both stem planes S1 and S2 in lines, are transverse
    to the vertices P0 and P_infinity, and are timelike there: the Maslov
    index of (P0, L, P_infinity) is +/-2.  This is the stem interior;
    boundary photons of the stem belong to the wings.
    """
    return _regions_of(surface, l, eps)[2]


def surface_contains(surface, l, eps=EPS_ALG) -> Optional[SurfaceRegion]:
    """First region containing the Lagrangian, or None.

    Checked in the order wing+, wing-, stem; the regions only overlap on
    wing boundaries, and the open stem meets neither wing.
    """
    regions = _regions_of(surface, l, eps)
    return next((region for region, inside in zip(SurfaceRegion, regions) if inside), None)


def _unit_photons(p):
    """p / |p| for one vector, or row by row for a stack of them; when a
    norm overflows, the rows are first divided by their largest |entry|."""
    norm = np.linalg.norm(p, axis=-1, keepdims=True)
    if not np.isfinite(norm).all():
        p = p / np.abs(p).max(axis=-1, keepdims=True)
        norm = np.linalg.norm(p, axis=-1, keepdims=True)
    if not norm.all():
        raise GeometryError("zero photon vector")
    return p / norm


def _omega_products(units, space, surface):
    """W = P Omega Q for a stack P of unit photon rows of `space`:
    W[i, j] = omega(p_i, column j of the surface's quadrilateral), the
    columns being (u+, u-, v+, v-)."""
    if space is not surface.space and not np.array_equal(space.matrix,
                                                         surface.space.matrix):
        raise GeometryError(
            "the photons and the surface are in different symplectic spaces")
    return units @ space.matrix @ surface.quad.columns


def _margins(photons, space, surface):
    """(m1, m2) of a stack of photon rows of `space` against a surface:
    m1 = omega(p, v+) omega(p, u+) and m2 = omega(p, v-) omega(p, u-) are
    products of two columns of W (`_omega_products`) for the unit rows."""
    w = _omega_products(_unit_photons(photons), space, surface)
    return w[:, 2] * w[:, 0], w[:, 3] * w[:, 1]


def photon_margins(p, surface):
    """The two signed quantities deciding whether photon [p] avoids a surface.

    Returns (m1, m2) with m1 = omega(p, v+) omega(p, u+) and
    m2 = omega(p, v-) omega(p, u-), evaluated on the unit rescaling of p so
    the values are scale-invariant.  The photon avoids the surface exactly
    when m1 > 0 and m2 < 0.
    """
    m1, m2 = _margins(as_vector(p, 4)[None], surface.space, surface)
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
    wu_plus, wu_minus, wv_plus, wv_minus = _omega_products(p[None], surface.space,
                                                           surface)[0].tolist()
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
    tests = []
    for (surface, other, tag) in ((c1, c2, "of C2 vs C1"), (c2, c1, "of C1 vs C2")):
        m1, m2 = _margins(other.quad.columns.T, other.space, surface)
        tests += [PhotonTest(f"{key} {tag}", a, b, eps)
                  for key, a, b in zip(_QUAD_KEYS, m1.tolist(), m2.tolist())]
    return tests


def surfaces_disjoint(c1, c2, eps=EPS_ALG):
    """Whether two crooked surfaces are disjoint.

    True exactly when every one of the eight defining photons (four per
    quadrilateral) misses the other surface; equivalently when all sixteen
    strict inequalities hold with margin eps.
    """
    return all(
        _avoids(*_margins(other.quad.columns.T, other.space, surface), eps).all()
        for surface, other in ((c1, c2), (c2, c1)))
