"""Anti-de Sitter crooked planes inside the Einstein universe.

SL(2) acting on a 2-dimensional symplectic space (V0, omega0) models the
double cover of anti-de Sitter 3-space; mapping f to its graph embeds it
into the Lagrangian Grassmannian of V = V0 + V0 with the symplectic form
omega0 (+) -omega0.  An AdS crooked plane is the crooked surface of a
quadrilateral adapted to the involution induced by I (+) -I, determined by
a base point f and two independent direction vectors a, b in V0.

Disjointness of two such surfaces reduces from sixteen inequalities to
four, which in turn translate through the boundary lift a -> -a a^T J into
comparisons of the trace form on sl(2): the horocycle-distance criterion.
"""

import math
from dataclasses import dataclass

import numpy as np

from ein3.linalg import EPS_ALG, GeometryError, as_rows, as_vector
from ein3.symplectic import Plane2, SympSpace
from ein3.crooked import LightlikeQuadrilateral

J = np.array([[0.0, 1.0], [-1.0, 0.0]])

OMEGA_ADS = np.block([
    [J, np.zeros((2, 2))],
    [np.zeros((2, 2)), -J],
])

_INVOLUTION = np.diag([1.0, 1.0, -1.0, -1.0])

# signs of the rows (a; fa), (b; fb), (a; fa), (b; fb) that give the rows
# u+, u-, v+, v- of `ads_quadrilateral`, before those of b are scaled
_QUAD_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0],
                        [1.0, 1.0, -1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])

_SPACE = SympSpace(OMEGA_ADS)


def ads_space():
    """The symplectic space V0 + V0 with form omega0 (+) -omega0."""
    return _SPACE


def omega0(x, y):
    """The area form on V0: omega0(x, y) = x^T J y."""
    return float(as_vector(x, 2) @ J @ as_vector(y, 2))


def as_sl2(m, eps=EPS_ALG):
    """Coerce to a 2x2 real matrix of determinant 1."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise GeometryError("an AdS point is a 2x2 matrix")
    if not np.isfinite(m).all():
        raise GeometryError("an AdS point needs finite entries")
    (a, b), (c, d) = m.tolist()
    scale = max(abs(a), abs(b), abs(c), abs(d))
    tol = eps * max(1.0, scale * scale)
    if not math.isfinite(tol):
        raise GeometryError(f"entries up to {scale!r} are too large to test det = 1")
    det = a * d - b * c
    if abs(det - 1.0) > tol:
        raise GeometryError(f"matrix must have determinant 1, got {np.float64(det)!r}")
    return m


def embed(f):
    """Lagrangian plane graph(f) of an element f of SL(V0).

    Columns of the basis matrix are (x; f x) over the standard basis of V0.
    Equivariant for the action (A, B) . f = A f B^{-1} realized by the
    block-diagonal symplectic matrix B (+) A.
    """
    f = as_sl2(f)
    basis = np.vstack([np.eye(2), f])
    plane = Plane2(_SPACE, basis)
    if not plane.is_lagrangian:
        raise GeometryError("graph of the matrix is not Lagrangian")
    return plane


def pair_action(a_mat, b_mat):
    """The symplectic matrix B (+) A through which (A, B) acts on graphs."""
    out = np.zeros((4, 4))
    out[:2, :2] = as_sl2(b_mat)
    out[2:, 2:] = as_sl2(a_mat)
    return out


def involution(l):
    """Image of a plane under the involution induced by I (+) -I.

    Involutive; its fixed Lagrangians form the conformal boundary of the
    AdS patch, disjoint from the image of `embed`.
    """
    return Plane2(l.space, _INVOLUTION @ l.basis)


@dataclass
class AdsCrookedPlane:
    """An AdS crooked plane: a base point of SL(V0) and two directions.

    The directions a, b must be linearly independent and non-orthogonal for
    omega0 (omega0(a, b) = 0 degenerates the quadrilateral).
    """
    base: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.base = as_sl2(self.base)
        directions = as_rows((self.a, self.b), 2)
        self.a, self.b = directions
        (a0, a1), (b0, b1) = directions.tolist()
        if abs(a0 * b1 - a1 * b0) <= EPS_ALG * math.sqrt(a0 * a0 + a1 * a1) \
                * math.sqrt(b0 * b0 + b1 * b1):
            raise GeometryError("direction vectors must be independent")

    def to_dict(self):
        return {"base": self.base.tolist(), "a": self.a.tolist(),
                "b": self.b.tolist()}


def ads_quadrilateral(plane, eps=EPS_ALG):
    """Lightlike quadrilateral of an AdS crooked plane.

    The four photons are spanned by (a; fa), (a; -fa), (b; fb), (b; -fb)
    where f is the base; their set is invariant under the involution, which
    swaps the two photons of each direction.  Representatives are rescaled
    to the quadrilateral normalization, with the relative signs chosen so
    that the sixteen-inequality disjointness criterion reduces to the four
    omega0 inequalities of `ads_disjoint` (the labels in which photon plays
    u or v are not involution-equivariant for any valid choice, only the
    photon set is).  The plane already tested omega0(a, b) = det[a, b]
    against zero; eps bounds the quadrilateral's product residuals.
    """
    f, a, b = plane.base, plane.a, plane.b
    alpha = a @ J @ b  # omega0(a, b) of the plane's validated vectors
    fa, fb = f @ a, f @ b
    q = np.concatenate([a, fa, b, fb, a, fa, b, fb]).reshape(4, 4)
    q *= _QUAD_SIGNS
    q[1::2] /= 2.0 * alpha  # the rows u-, v- of b
    return LightlikeQuadrilateral(_SPACE, *q, eps)


# margin names, row by row: x' of the second plane against y of the first
_ADS_KEYS = ("a'-b", "a'-a", "b'-b", "b'-a")
_DGK_KEYS = ("a'-a", "a'-b", "b'-a", "b'-b")


def _reduced_config(base1, y, base2, x):
    """Left-translate both planes by the inverse of the first base: the
    relative base f and the unit directions as columns, y = (a, b) of the
    first plane and x = (a', b') of the second."""
    f = np.linalg.solve(base1, base2)
    return f, y / np.linalg.norm(y, axis=0), x / np.linalg.norm(x, axis=0)


def _pair_arrays(p1, p2):
    """Bases and direction columns of two planes, as `_reduced_config`
    takes them."""
    return (p1.base, np.column_stack([p1.a, p1.b]),
            p2.base, np.column_stack([p2.a, p2.b]))


def _margin_array(base1, y, base2, x):
    """The 2x2 array of `ads_margins` from raw bases and direction columns
    (see `_reduced_config`); rows x' = a', b', columns y = b, a."""
    f, y, x = _reduced_config(base1, y, base2, x)
    jy = J @ y[:, ::-1]
    return (x.T @ jy) ** 2 - ((f @ x).T @ jy) ** 2


def ads_margins(p1, p2):
    """The four signed quantities behind AdS crooked plane disjointness.

    After reducing the pair to bases (I, f), each margin is
    omega0(x, y)^2 - omega0(f x, y)^2 for x among the second plane's unit
    directions and y among the first plane's; all four must be positive for
    disjointness.  The sign of each quantity is projectively invariant.
    With X = (a', b') and Y = (b, a) the four are the entries of
    A*A - B*B for A = X^T J Y and B = (f X)^T J Y.
    """
    return dict(zip(_ADS_KEYS, _margin_array(*_pair_arrays(p1, p2)).ravel().tolist()))


def ads_disjoint(p1, p2, eps=EPS_ALG):
    """Whether two AdS crooked planes are disjoint.

    Strict positivity of the four reduced inequalities, with margin eps;
    agrees with the sixteen-inequality criterion applied to the two
    quadrilaterals (`crooked.surfaces_disjoint`).
    """
    return all(v > eps for v in ads_margins(p1, p2).values())


def boundary_lift(a):
    """Lift of a direction vector to the null cone of sl(2): a -> -a a^T J.

    Traceless and trace-form null, landing in the upper half of the null
    cone; equivariant, with boundary_lift(A a) = A boundary_lift(a) A^{-1}.
    """
    a = as_vector(a, 2)
    if np.linalg.norm(a) == 0.0:
        raise GeometryError("cannot lift the zero vector")
    return -np.outer(a, a) @ J


def killing(x, y):
    """Trace form K(X, Y) = Tr(XY) on traceless 2x2 matrices.

    Calibrated so that omega0(a, b)^2 = -K on boundary lifts.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for m in (x, y):
        if m.shape != (2, 2) or abs(np.trace(m)) > EPS_ALG * max(1.0, np.abs(m).max()):
            raise GeometryError("killing expects traceless 2x2 matrices")
    return float(np.trace(x @ y))


def is_upper_null(x, eps=EPS_ALG):
    """Whether a traceless matrix lies on the upper half null cone, i.e. is
    a boundary lift of some nonzero vector."""
    x = np.asarray(x, dtype=float)
    scale = float(np.abs(x).max())
    if x.shape != (2, 2) or scale == 0.0:
        return False
    if abs(np.trace(x)) > eps * scale or abs(np.linalg.det(x)) > eps * scale ** 2:
        return False
    # rank-1: x = c * a (J a)^T with c > 0 for the upper half
    u, s, vh = np.linalg.svd(x)
    a = u[:, 0]
    w = vh[0, :] * s[0]
    ja = J @ a
    c = float(w @ ja) / float(ja @ ja)
    return c > 0 and np.allclose(x, c * np.outer(a, ja), atol=eps * scale)


@dataclass
class Horocycle:
    """A horocycle of the hyperbolic plane: level set K(X, xi) = -r of an
    upper-null direction xi, with r > 0."""
    xi: np.ndarray
    r: float

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        if not is_upper_null(self.xi):
            raise GeometryError("horocycle direction must be upper null")
        if not self.r > 0:
            raise GeometryError("horocycle size must be positive")


def horocycle_distance(h1, h2, eps=EPS_ALG):
    """Distance between two disjoint horocycles at distinct ideal points.

    arccosh(-(K/(2 r r') + 2 r r'/K)/2) with K = K(xi, xi'); zero exactly
    at K = -2 r r'.

    Raises
    ------
    GeometryError
        If K >= 0 (the ideal points are not distinct) or the arccosh
        argument falls below 1 (overlapping horocycles).
    """
    k = killing(h1.xi, h2.xi)
    if k >= -eps:
        raise GeometryError("ideal points are not distinct (K >= 0)")
    rr = 2.0 * h1.r * h2.r
    arg = -0.5 * (k / rr + rr / k)
    if arg < 1.0 - eps:
        raise GeometryError("horocycles overlap (arccosh argument < 1)")
    return float(np.arccosh(max(arg, 1.0)))


def _lifts(x):
    """Boundary lifts -x x^T J of the columns of x, stacked."""
    return -(x.T[:, :, None] * x.T[:, None, :]) @ J


def dgk_margins(p1, p2):
    """Trace-form margins K(xi, f xi' f^{-1}) - K(xi, xi') for the four
    endpoint pairs, with the coincident pairs flagged."""
    f, y, x = _reduced_config(*_pair_arrays(p1, p2))
    lifts1, lifts2 = _lifts(y), _lifts(x)
    moved = f @ lifts2 @ np.linalg.inv(f)
    # K(X, Y) = Tr(XY), for xi' (rows) against xi (columns)
    k_moved = np.einsum("jab,iba->ij", lifts1, moved).ravel().tolist()
    k_fixed = np.einsum("jab,iba->ij", lifts1, lifts2).ravel().tolist()
    margins = {key: km - kf for key, km, kf in zip(_DGK_KEYS, k_moved, k_fixed)}
    # lifts are proportional exactly when the directions are
    coincident = [key for key, kf in zip(_DGK_KEYS, k_fixed) if kf > -EPS_ALG]
    return margins, coincident


def dgk_criterion(p1, p2, eps=EPS_ALG):
    """Disjointness of AdS crooked planes through boundary data.

    For every endpoint xi of the first plane's geodesic and xi' of the
    second's, the endpoints must be distinct and moving xi' by the relative
    base must increase the trace-form pairing:
    K(xi, f xi' f^{-1}) > K(xi, xi').  This is the horocycle-distance
    comparison evaluated in its algebraic form, and is equivalent to
    `ads_disjoint`.
    """
    margins, coincident = dgk_margins(p1, p2)
    if coincident:
        return False
    return all(v > eps for v in margins.values())
