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

from ein3.linalg import EPS_ALG, GeometryError, _NON_FINITE, _raise_first, as_rows, as_vector
from ein3.symplectic import SympSpace
from ein3.crooked import LightlikeQuadrilateral

J = np.array([[0.0, 1.0], [-1.0, 0.0]])

OMEGA_ADS = np.block([
    [J, np.zeros((2, 2))],
    [np.zeros((2, 2)), -J],
])

# signs of the rows (a; fa), (b; fb), (a; fa), (b; fb) that give the rows
# u+, u-, v+, v- of `ads_quadrilateral`, before those of b are scaled
_QUAD_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0],
                        [1.0, 1.0, -1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])

_SPACE = SympSpace(OMEGA_ADS)


def ads_space():
    """The symplectic space V0 + V0 with form omega0 (+) -omega0."""
    return _SPACE


def _omega0_cells(x, y):
    """The area form omega0(x, y) = x^T J y on V0 of two vectors as a 1x1
    array, or row by row of two stacks of them (..., 1, 1)."""
    return x[..., None, :] @ J @ y[..., :, None]


def as_sl2(m, eps=EPS_ALG):
    """Coerce to a 2x2 real matrix of determinant 1."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise GeometryError("an AdS point is a 2x2 matrix")
    if not np.isfinite(m).all():
        raise GeometryError(_NON_FINITE_POINT)
    _check_sl2(m.tolist(), eps)
    return m


# the messages of the plane checks, shared by their scalar and stacked forms
_NON_FINITE_POINT = "an AdS point needs finite entries"
_TOO_LARGE = "entries up to {!r} are too large to test det = 1"
_NOT_SL2 = "matrix must have determinant 1, got {!r}"
_DEPENDENT = "direction vectors must be independent"


def _check_sl2(m, eps):
    """The determinant check of `as_sl2` on the finite entries
    ((a, b), (c, d)) of a 2x2 matrix as floats."""
    (a, b), (c, d) = m
    scale = max(abs(a), abs(b), abs(c), abs(d))
    tol = eps * max(1.0, scale * scale)
    if not math.isfinite(tol):
        raise GeometryError(_TOO_LARGE.format(scale))
    det = a * d - b * c
    if abs(det - 1.0) > tol:
        raise GeometryError(_NOT_SL2.format(np.float64(det)))


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
        _check_independent(*directions.tolist())
        self.a, self.b = directions


def _check_independent(a, b):
    """The independence check of a plane's finite directions, (a0, a1) and
    (b0, b1) as floats."""
    (a0, a1), (b0, b1) = a, b
    if abs(a0 * b1 - a1 * b0) <= EPS_ALG * math.sqrt(a0 * a0 + a1 * a1) \
            * math.sqrt(b0 * b0 + b1 * b1):
        raise GeometryError(_DEPENDENT)


def _plane_check_rows(bases, directions):
    """The checks of `AdsCrookedPlane` over stacked bases (..., 2, 2) and
    directions (..., 2, 2), rows (a, b), for `_raise_first`, in its order:
    `as_sl2`'s finiteness and `_check_sl2`, the directions' finiteness
    (`as_rows`), then `_check_independent`, with their float operations."""
    (a0, a1), (b0, b1) = np.moveaxis(directions, (-2, -1), (0, 1))
    with np.errstate(all="ignore"):
        scale = abs(bases).max(axis=(-2, -1))
        tol = EPS_ALG * np.maximum(1.0, scale * scale)
        det = bases[..., 0, 0] * bases[..., 1, 1] - bases[..., 0, 1] * bases[..., 1, 0]
        return [(~np.isfinite(bases).all(axis=(-2, -1)), _NON_FINITE_POINT),
                (~np.isfinite(tol), lambda k: _TOO_LARGE.format(float(scale[k]))),
                (abs(det - 1.0) > tol, lambda k: _NOT_SL2.format(det[k])),
                (~np.isfinite(directions).all(axis=(-2, -1)), _NON_FINITE),
                (abs(a0 * b1 - a1 * b0) <= EPS_ALG * np.sqrt(a0 * a0 + a1 * a1)
                 * np.sqrt(b0 * b0 + b1 * b1), _DEPENDENT)]


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
    return LightlikeQuadrilateral(_SPACE, *_quad_rows(plane.base, plane.a, plane.b), eps)


def _quad_rows(f, a, b):
    """The rows u+, u-, v+, v- of `ads_quadrilateral` for a base f and
    validated directions a, b, or for stacks of them (..., 4, 4)."""
    alpha = _omega0_cells(a, b)
    fa = (f @ a[..., None])[..., 0]
    fb = (f @ b[..., None])[..., 0]
    q = np.concatenate([a, fa, b, fb, a, fa, b, fb], axis=-1).reshape(a.shape[:-1] + (4, 4))
    q *= _QUAD_SIGNS
    q[..., 1::2, :] /= 2.0 * alpha  # the rows u-, v- of b
    return q


# margin names, row by row: x' of the second plane against y of the first
_ADS_KEYS = ("a'-b", "a'-a", "b'-b", "b'-a")
_DGK_KEYS = ("a'-a", "a'-b", "b'-a", "b'-b")


def _reduced_config(base1, y, base2, x):
    """Left-translate both planes by the inverse of the first base: the
    relative base f and the unit directions as columns, y = (a, b) of the
    first plane and x = (a', b') of the second; all four may carry the same
    leading stack axes, or base1 none."""
    f = np.linalg.solve(base1, base2)
    # unit columns, measured as np.linalg.norm(m, axis=-2) measures them
    y, x = (m / np.sqrt(np.add.reduce(m * m, axis=-2, keepdims=True)) for m in (y, x))
    return f, y, x


def _pair_arrays(p1, p2):
    """Bases and direction columns of two planes, as `_reduced_config`
    takes them."""
    return p1.base, np.array((p1.a, p1.b)).T, p2.base, np.array((p2.a, p2.b)).T


def _margin_array(base1, y, base2, x):
    """The 2x2 array of `ads_margins` from raw bases and direction columns
    (see `_reduced_config`), one per pair of a stack; rows x' = a', b',
    columns y = b, a."""
    f, y, x = _reduced_config(base1, y, base2, x)
    jy = J @ y[..., ::-1]
    return (x.swapaxes(-1, -2) @ jy) ** 2 - ((f @ x).swapaxes(-1, -2) @ jy) ** 2


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
    return bool((_margin_array(*_pair_arrays(p1, p2)) > eps).all())


def boundary_lift(a):
    """Lift of a direction vector to the null cone of sl(2): a -> -a a^T J.

    Traceless and trace-form null, landing in the upper half of the null
    cone; equivariant, with boundary_lift(A a) = A boundary_lift(a) A^{-1}.
    """
    lift, checks = _boundary_lifts(as_vector(a, 2))
    _raise_first(checks)
    return lift


def _boundary_lifts(v):
    """`boundary_lift` of each row of a stack (..., 2), and its check as
    (mask, message)."""
    return _lifts(v), [(np.linalg.norm(v, axis=-1) == 0.0, "cannot lift the zero vector")]


def _lifts(v):
    """Boundary lifts -v v^T J of a vector, or of each row of a stack."""
    return -(v[..., :, None] * v[..., None, :]) @ J


def killing(x, y):
    """Trace form K(X, Y) = Tr(XY) on traceless 2x2 matrices.

    Calibrated so that omega0(a, b)^2 = -K on boundary lifts.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (2, 2) or y.shape != (2, 2):
        raise GeometryError("killing expects traceless 2x2 matrices")
    k, checks = _killing_rows(x, y)
    _raise_first(checks)
    return float(k)


def _killing_rows(x, y):
    """`killing` of two stacks of 2x2 matrices (..., 2, 2), pair by pair,
    and its check as (mask, message)."""
    traced = [np.abs(m[..., 0, 0] + m[..., 1, 1])
              > EPS_ALG * np.maximum(1.0, np.abs(m).max(axis=(-2, -1))) for m in (x, y)]
    return _trace_form(x, y), [(traced[0] | traced[1],
                                "killing expects traceless 2x2 matrices")]


def _trace_form(x, y):
    """Tr(XY) of 2x2 matrices, pair by pair over stacks."""
    xy = x @ y
    return xy[..., 0, 0] + xy[..., 1, 1]


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


def _dgk_array(base1, y, base2, x):
    """The 2x2 arrays of trace-form margins and of K(xi, xi') behind
    `dgk_margins`, from raw bases and direction columns (see
    `_reduced_config`), one pair per pair of a stack; rows xi' of a', b',
    columns xi of a, b."""
    f, y, x = _reduced_config(base1, y, base2, x)
    lifts1, lifts2 = _lifts(y.swapaxes(-1, -2)), _lifts(x.swapaxes(-1, -2))
    moved = f[..., None, :, :] @ lifts2 @ np.linalg.inv(f)[..., None, :, :]
    lifts1 = lifts1[..., None, :, :, :]
    k_fixed = _trace_form(lifts1, lifts2[..., :, None, :, :])
    return _trace_form(lifts1, moved[..., :, None, :, :]) - k_fixed, k_fixed


def _dgk_passes(margins, k_fixed, eps):
    """The rule of `dgk_criterion` on the arrays of `_dgk_array`, per
    endpoint pair: the endpoints are not coincident (lifts are proportional
    exactly when the directions are, K(xi, xi') > -EPS_ALG) and the margin
    is above eps; the planes are disjoint when all four pairs pass."""
    return (k_fixed <= -EPS_ALG) & (margins > eps)


def dgk_margins(p1, p2):
    """Trace-form margins K(xi, f xi' f^{-1}) - K(xi, xi') for the four
    endpoint pairs, with the coincident pairs flagged."""
    margins, k_fixed = _dgk_array(*_pair_arrays(p1, p2))
    coincident = [key for key, kf in zip(_DGK_KEYS, k_fixed.ravel().tolist())
                  if kf > -EPS_ALG]
    return dict(zip(_DGK_KEYS, margins.ravel().tolist())), coincident


def dgk_criterion(p1, p2, eps=EPS_ALG):
    """Disjointness of AdS crooked planes through boundary data.

    For every endpoint xi of the first plane's geodesic and xi' of the
    second's, the endpoints must be distinct and moving xi' by the relative
    base must increase the trace-form pairing:
    K(xi, f xi' f^{-1}) > K(xi, xi').  This is the horocycle-distance
    comparison evaluated in its algebraic form, and is equivalent to
    `ads_disjoint`.
    """
    return bool(_dgk_passes(*_dgk_array(*_pair_arrays(p1, p2)), eps).all())
