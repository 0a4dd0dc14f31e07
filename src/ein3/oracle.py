"""Seeded sampling oracles and the verification suites built on them.

Ground truth for the algebraic predicates: random generation of every
object type, dense point sampling of tori and crooked surfaces (through
`ein3.sampling`, whose names this module imports), chordal gap measurement
between projective point clouds, and causal probing of intersection curves
through finite differences.  The named suites at the bottom run the
agreement properties (algebra vs. sampling) and emit one machine-readable
record each.  A block of trials ends in two lists of (mask, message) rows,
read trial by trial: the checks a suite raises (`_raise_first_row`) and
the failures it reports (`_failed_messages`).

The chordal metric (sine of the principal angle between representative
lines, on Euclidean-normalized representatives) is used for all sampled
geometry; `ein3.sampling.EPS_GEO` is the coarser tolerance for such
comparisons, since sampling error dominates the algebraic tolerances.
"""

import json
import math

import numpy as np

from ein3 import ads, crooked, einstein, symplectic
from ein3.linalg import (EPS_ALG, GeometryError, _NON_FINITE, _PAIR_I, _PAIR_J, _STAND_IN,
                         _column_frames, _failed_messages, _failed_rows, _intersection_dims,
                         _plane_frames, _raise_first_row, _same_spans, projective_normalize)
from ein3.sampling import _cloud_draws, _surface_cloud, _torus_frame, _torus_points, make_rng


class RetryExhausted(GeometryError):
    """Rejection sampling failed to produce a valid object."""


# candidates `_blocks` may draw per trial, every suite's one budget: a suite
# gives up only when fewer than one in ten is accepted.  Of the candidates its
# chunks screen over seeds 1-20 at default trials (lowest seed in brackets),
# torus-trichotomy keeps 44.9% (43.5%), eta-bridge 79.7% (78.5%),
# symplectic-identities 80.0% (78.0%), ads-equivalence 98.8% (98.3%),
# surface-disjointness 95.3 disjoint trials per 100 (87.1), the others all
ATTEMPTS_PER_TRIAL = 10

# candidates a draw makes at a time (`_blocks`), so a candidate's draws depend only on its index
_DRAW_QUANTUM = 64

# candidates a screened chunk, trials a check block, a speed setting only (a multiple of
# _DRAW_QUANTUM): 256 halves 128's fixed calls (8 suites, seed 7, 2-core Xeon: 186 -> 156 ms
# CPU, RSS +3%); 512: no faster (154 ms, RSS +5%); 1,000: 166 ms, +13%
_ORACLE_BLOCK = 256

# surface-disjointness: AdS rows a candidate (0.95 passes on average), and trials a cloud
# sub-block, the cloud stream's draw quantum: a change of it moves the sampled gaps
_ADS_ROWS = _CLOUD_PAIRS = 16


# ---------------------------------------------------------------------------
# random objects
# ---------------------------------------------------------------------------

def _symplectic_exp(space, s):
    """expm of the Hamiltonian matrices H = Omega^-1 sym(s) of draws s, one or
    a stack, each by its own scaling and squaring: H / 2^k, k the least with
    1-norm A < 0.5, by its Taylor polynomial of degree 18 (Horner), squared k
    times.  The terms left out weigh sum_{j > 18} A^j / j! < 1.7e-23, and
    |exp(-A)| <= e^0.5, so the truncation is below 3e-23 < 2^-53 of |exp A|."""
    h = np.linalg.solve(space.matrix, 0.5 * (s + s.swapaxes(-1, -2)))
    k = np.maximum(np.frexp(2.0 * np.abs(h).sum(-2).max(-1))[1], 0)
    a, g = h / 2.0 ** k[..., None, None], np.eye(4)
    for j in range(18, 0, -1):
        g = np.eye(4) + a @ g / j
    for step in range(k.max(initial=0)):
        g = np.where((k > step)[..., None, None], g @ g, g)
    return g


def _sl2_exp(x):
    """exp X of the traceless part X = [[h, x01], [x10, -h]] of each 2x2
    matrix x of a stack, in closed form: X^2 = -det X I, so exp X = cosh d I
    + (sinh d / d) X with d^2 = -det X, or cos d and sin d / d when det X > 0."""
    h = 0.5 * (x[..., 0, 0] - x[..., 1, 1])
    d2 = h * h + x[..., 0, 1] * x[..., 1, 0]
    d = np.sqrt(abs(d2))
    c = np.where(d2 > 0.0, np.cosh(d), np.cos(d))
    zero = d == 0.0
    s = np.where(zero, 1.0, np.where(d2 > 0.0, np.sinh(d), np.sin(d)) / np.where(zero, 1.0, d))
    return np.stack([np.stack([c + s * h, s * x[..., 0, 1]], -1),
                     np.stack([s * x[..., 1, 0], c - s * h], -1)], -2)


def _lagrangian_bases(space, x, r):
    """Bases [x, w] of candidate Lagrangians, one or a stack: w is r less
    its part along Omega x, and x is omega-orthogonal to itself, so
    omega(x, w) = 0."""
    base = x @ space.matrix.T
    w = r - (np.sum(r * base, -1) / np.sum(base * base, -1))[..., None] * base
    return np.stack([x, w], -1)


def _planes(space, m):
    """`Plane2` over stacked bases m (..., 4, 2), by `_plane_frames`: the
    orthonormal bases, and the masks of the bases that make Lagrangian planes
    and of those that make nondegenerate planes well-conditioned for omega
    (|omega| > 0.2 on their orthonormal bases); both need `Plane2`'s rank 2."""
    onb, rank, _ = _plane_frames(m)
    return (onb, (rank == 2) & symplectic._lagrangian(space, onb),
            (rank == 2) & (abs(symplectic._omega_pairs(space, onb)) > 0.2))


def _random_rows(space, s):
    """Rows (u+, u-, v+, v-) of a random lightlike quadrilateral for a draw
    s of its generator (`uniform(-1, 1, (4, 4))`), or a stack of draws: the
    canonical quadrilateral (d1, d2, d4, d3) of a Darboux basis d carried by
    expm of s, not validated."""
    standard = np.array_equal(space.matrix, symplectic.STANDARD_OMEGA)
    d = np.eye(4) if standard else symplectic.symplectic_basis(space)
    g = _symplectic_exp(space, s)
    return np.stack([g @ d[:, j] for j in (0, 1, 3, 2)], axis=-2)


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------

def _wing_generators(columns, sign, thetas, phis):
    """Photon vectors x(theta) of a wing family and, paired with them, the
    generator at pencil angle phi of the Lagrangian pencil through each;
    vectorized over theta in [0, pi/2].  columns holds the quadrilateral
    vectors Q = (u+, u-, v+, v-) as the columns of its last two axes; its
    leading axes, the wing sign, thetas and phis broadcast against each
    other (a leading row axis may carry one quadrilateral and one sign per
    row); the vectors run along a new last axis.

    For wing +1 the photon is cos(t) u+ + sin(t) v+; its pencil is spanned
    modulo x by the rotated in-plane vector g1 and a corrected outside
    vector g2, both nonvanishing on the whole parameter range.  Both wings
    share the formulas below with sg = sign and (a, b, e, f) = (u+, v+, u-,
    v-) for wing +1, (u-, v-, u+, v+) for wing -1.
    """
    u_plus, u_minus, v_plus, v_minus = (columns[..., j] for j in range(4))
    plus = (np.asarray(sign) == +1)[..., None]
    sg = np.where(plus, 1.0, -1.0)
    a, b = np.where(plus, u_plus, u_minus), np.where(plus, v_plus, v_minus)
    e, f = np.where(plus, u_minus, u_plus), np.where(plus, v_minus, v_plus)
    c, s = np.cos(thetas)[..., None], np.sin(thetas)[..., None]
    ss = sg * s
    x = c * a + ss * b
    g1 = -ss * a + c * b
    # omega(x, f) = cos t, omega(x, e) = -sg sin t
    y = c * f - ss * e
    raw = e + sg * f
    coeff = sg * (c - s)  # omega(x, raw)
    g2 = raw - coeff * y
    return x, np.cos(phis)[..., None] * g1 + np.sin(phis)[..., None] * g2


def _stem_generators(columns, component, t1, t2):
    """Generators w(t1), w'(t2) of stem Lagrangians; the quadrilateral
    columns (as in `_wing_generators`), the component and the parameters
    broadcast against each other, the vectors run along a new last axis."""
    u_plus, u_minus, v_plus, v_minus = (columns[..., j] for j in range(4))
    s = np.where(np.asarray(component) == +1, 1.0, -1.0)[..., None]
    w = np.cos(t1)[..., None] * u_plus + s * np.sin(t1)[..., None] * v_minus
    wp = np.cos(t2)[..., None] * u_minus + s * np.sin(t2)[..., None] * v_plus
    return w, wp


def _gap(a, b):
    """Minimum chordal distance, the sine of the principal angle, between
    the lines of two clouds of unit points a (n, 5) and b (m, 5)."""
    c = a @ b.T
    # min(1, max |c|) is max clip(|c|, 0, 1), and max |c| is max(max c,
    # -min c): no second array of the size of c is allocated
    cos = min(1.0, float(max(c.max(), -c.min())))
    return float(np.sqrt(max(0.0, 1.0 - cos ** 2)))


def projective_distance(a, b):
    """Chordal distance between the lines of two nonzero vectors, or of
    each pair of rows of two stacks: the shorter chord between the unit
    representatives, which keeps full precision for nearly identical lines
    (where the sine formula loses half the digits to cancellation).  Each
    norm is the dot product of a contiguous row, as `np.linalg.norm` of one."""
    ua, ub = (_unit_rows(np.ascontiguousarray(v, dtype=float)) for v in (a, b))
    return np.minimum(*(np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]
                        for d in (ua - ub, ua + ub)))


# ---------------------------------------------------------------------------
# causal probing of torus intersections
# ---------------------------------------------------------------------------

def _intersection_curve(frames, normals):
    """The intersections of distinct tori as curves on the first tori: for
    stacked unit frames (n, 5, 4) of the first tori and unit normals (n, 5)
    of the second, a map from (n, m) driving angles to the points x(a, b)
    of `_torus_points` with <x, s2> = 0.

    That incidence reads A . (cos a, sin a) + B . (cos b, sin b) = 0, A and
    B being the products of s2 with (p1, p2) and (n1, n2).  The angle of
    the shorter of A and B drives; the other angle is atan2 + arccos of the
    remaining equation, which has a root at every driving angle.  One
    arccos branch covers every point once up to sign.
    """
    n1, n2, p1, p2 = np.moveaxis(normals[:, None, :] @ einstein.GRAM @ frames, -1, 0)
    a_drives = np.hypot(p1, p2) <= np.hypot(n1, n2)
    c1, c2, d1, d2 = (np.where(a_drives, a, b) for a, b in ((p1, n1), (p2, n2), (n1, p1), (n2, p2)))
    phase, radius = np.arctan2(d2, d1), np.hypot(d1, d2)

    def curve(theta):
        ratio = np.clip(-(c1 * np.cos(theta) + c2 * np.sin(theta)) / radius, -1.0, 1.0)
        other = phase + np.arccos(ratio)
        return _torus_points(frames, np.where(a_drives, theta, other),
                             np.where(a_drives, other, theta))

    return curve


# |Q(t)| / |t|^2 of a tangent t below this counts as null
_NULL_TANGENT = 1e-7


def _tangent_forms(curve, thetas):
    """Q(t) / |t|^2 of the central finite-difference tangents t of a curve
    at the given driving angles."""
    h = 1e-5
    tangents = (curve(thetas + h) - curve(thetas - h)) / (2.0 * h)
    return (((tangents @ einstein.GRAM) * tangents).sum(axis=-1)
            / (tangents * tangents).sum(axis=-1))


_PHOTON, _SPACELIKE, _TIMELIKE = 1, 2, 3  # their indices in `einstein._KINDS`


def _probe_kind(frames, normals, thetas):
    """Causal character of the intersection curves of stacked distinct tori
    (`_intersection_curve` of frames and normals) from the forms q of their
    central finite-difference tangents (`_tangent_forms`) at driving angles
    thetas (n, m): the `einstein._KINDS` indices of rows whose tangents are
    all timelike, all spacelike, or all null (a photon pair), and the check
    of the rows that are none of these.

    A photon pair's curve has a kink where its photons meet: within ~3e-5
    of it the difference straddles the kink or arccos near +/-1 loses the
    digits that make it null.  So a tangent that is not null is reread
    1e-3 to either side of its draw, on the photons themselves, and counts
    as null when both rereads are; only the rows that are neither all
    timelike nor all spacelike are reread."""
    q = _tangent_forms(_intersection_curve(frames, normals), thetas)
    timelike, spacelike = (q < -_NULL_TANGENT).all(-1), (q > _NULL_TANGENT).all(-1)
    mixed = np.flatnonzero(~(timelike | spacelike))
    curve = _intersection_curve(frames[mixed], normals[mixed])
    before, after = (abs(_tangent_forms(curve, thetas[mixed] + side)) <= _NULL_TANGENT
                     for side in (-1e-3, 1e-3))
    photon = np.zeros(len(q), bool)
    photon[mixed] = ((abs(q[mixed]) <= _NULL_TANGENT) | (before & after)).all(-1)
    return np.select([timelike, spacelike], [_TIMELIKE, _SPACELIKE], _PHOTON), [
        (~(timelike | spacelike | photon), lambda i: "probe tangents disagree: Q/|t|^2 "
         f"from {q[i].min():.3e} to {q[i].max():.3e}")]


# ---------------------------------------------------------------------------
# constructions used by the suites
# ---------------------------------------------------------------------------

def _ads_arrays(z):
    """The arrays of stacked AdS candidate draws z (n, 6, 2), rows a, b, a',
    b' of the two planes' directions and then the 2x2 draw x, as the planes
    take them: the unit directions (n, 2, 2, 2), rows (a, b) of each plane;
    the base f = `_sl2_exp`(x) of the second plane (the first is based at
    the identity); and the four margins of `ads._margin_array` (n, 2, 2),
    NaN where a plane has |omega0(a, b)| <= 1e-2, so that no bound passes."""
    units = _unit_rows(z[:, :4]).reshape(-1, 2, 2, 2)
    f = _sl2_exp(z[:, 4:])
    y, x = units.swapaxes(-1, -2).swapaxes(0, 1)
    margins = ads._margin_array(np.eye(2), y, f, x)
    apart = (abs(ads._omega0_cells(units[:, :, 0], units[:, :, 1])) > 1e-2).all(axis=(1, 2, 3))
    return units, f, np.where(apart[:, None, None], margins, np.nan)


def _carried_rows(space, l, rows, x):
    """Rows of quadrilaterals q0 (..., 4, 4) carried so that the Lagrangian
    of the basis x of a point of q0 lands on that of the orthonormal basis
    l: D(x) = [x, y + x (y^T Omega y) / 2], y = Omega^T x (x^T Omega Omega^T
    x)^-1, is a Darboux frame of x (x^T Omega y = I, y^T Omega y = 0), so
    g = D(l) D(x)^-1 is symplectic and maps x onto l (nothing validated)."""
    omega = space.matrix

    def frame(x):
        y = omega.T @ x @ np.linalg.inv(x.swapaxes(-1, -2) @ omega @ omega.T @ x)
        return np.concatenate([x, y + x @ (y.swapaxes(-1, -2) @ omega @ y) / 2], axis=-1)

    g = frame(l) @ np.linalg.inv(frame(x))
    return (g[..., None, :, :] @ rows[..., None])[..., 0]


def _pair_draw(rng, k, m):
    """The rng calls of k surface pairs of stem-only (m = 6) or of
    surface-disjointness' intersecting stage (m = 4): both generators (k, 2,
    4, 4) in one, and the m numbers (k, m) of the shared point in one."""
    return rng.uniform(-1.0, 1.0, size=(k, 2, 4, 4)), rng.random((k, m))


def _stem_rows(space, s, u):
    """Quadrilateral rows (n, 2, 4, 4) of the pairs of a `_pair_draw` (s, u)
    of six numbers, and `_column_frames` (n, 4, 2) of their shared points: a
    stem point of the first surface, onto which a stem point of the second is
    carried.  A stem point takes three numbers: its component is +1 when the
    first is below 0.5, and its t1, t2 are uniform in [0.15, pi/2 - 0.15]."""
    u = u.reshape(-1, 2, 3)
    rows1, rows0 = np.moveaxis(_random_rows(space, s), 1, 0)
    comps, t = np.where(u[..., 0] < 0.5, 1, -1), 0.15 + (np.pi / 2 - 0.3) * u[..., 1:]
    (c1, c0), (a1, a0), (b1, b0) = comps.T, t[..., 0].T, t[..., 1].T
    shared, checks = _column_frames(
        np.stack(_stem_generators(rows1.swapaxes(-1, -2), c1, a1, b1), -1))
    x = np.stack(_stem_generators(rows0.swapaxes(-1, -2), c0, a0, b0), -1)
    return np.stack([rows1, _carried_rows(space, shared, rows0, x)], axis=1), shared, checks


def _intersecting_rows(space, s, u):
    """Quadrilateral rows (n, 2, 4, 4) of the pairs of a `_pair_draw` (s, u)
    of four numbers, and `_column_frames` (n, 4, 2) of their shared points: a
    point of the first surface, onto which the second's vertex P+ is carried.
    The point is on a wing when u0 < 0.5 (wing +1 when u1 < 0.5, theta uniform
    in [0.1, pi/2 - 0.1] by u2, phi in [0, pi] by u3), else on the stem (t1,
    t2 uniform in [0.1, pi/2 - 0.1] by u1, u2, component +1 when u3 < 0.5)."""
    wing = u[:, 0] < 0.5
    a = np.where(wing, u[:, 1], 0.1 + (np.pi / 2 - 0.2) * u[:, 1])
    b, c = 0.1 + (np.pi / 2 - 0.2) * u[:, 2], np.where(wing, np.pi * u[:, 3], u[:, 3])
    rows1, rows0 = np.moveaxis(_random_rows(space, s), 1, 0)
    columns = rows1.swapaxes(-1, -2)
    on_wing = np.stack(_wing_generators(columns, np.where(a < 0.5, 1, -1), b, c), axis=-1)
    on_stem = np.stack(_stem_generators(columns, np.where(c < 0.5, 1, -1), a, b), axis=-1)
    shared, checks = _column_frames(np.where(wing[:, None, None], on_wing, on_stem))
    rows2 = _carried_rows(space, shared, rows0, rows0.swapaxes(-1, -2)[..., [0, 2]])
    return np.stack([rows1, rows2], axis=1), shared, checks


# ---------------------------------------------------------------------------
# stem-wing contact
# ---------------------------------------------------------------------------

def _stem_wing_contacts(stem, wing):
    """Stem points of quadrilaterals on wing photons of others, in closed
    form: for stem and wing columns (n, 4, 4), the generators x1, x2 (n, 4)
    of the first contact L = span{x1, x2} and the (n,) mask of the rows
    that have one.  S1 and S2 split V, so a wing photon x = x1 + x2 (xi in
    Si) lies on one Lagrangian of their torus, span{x1, x2}, on the wing.
    Each coordinate of k = Q^-1 x(theta), x(theta) = cos(theta) x(0) +
    sin(theta) x(pi/2), vanishes at atan2(-A, B) mod pi; cut there (padded
    with pi/2 to five pieces, one of length 0 being none), each piece lies
    in one part of the torus.  The first midpoint, wing+ then wing-, that
    `crooked._quad_regions` puts on the stem and the wing is the contact."""
    n = len(stem)
    ends, _ = _wing_generators(wing[:, None, None], np.array([[+1], [-1]]),
                               np.array([0.0, np.pi / 2]), 0.0)
    a, b = np.moveaxis(np.linalg.solve(stem[:, None], ends.swapaxes(-1, -2)), -1, 0)
    roots = np.arctan2(-a, b) % np.pi
    cuts = np.sort(np.concatenate([np.broadcast_to([0.0, np.pi / 2], (n, 2, 2)),
                                   np.where(roots < np.pi / 2, roots, np.pi / 2)], -1), -1)
    mids = (cuts[..., :-1] + cuts[..., 1:]) / 2
    ks = np.cos(mids)[..., None] * a[..., None, :] + np.sin(mids)[..., None] * b[..., None, :]
    # (k_u+ e_u+ + k_v- e_v-, k_u- e_u- + k_v+ e_v+) over Q
    bases = stem[:, None, None] @ (ks[..., None] * np.array([[1, 0], [0, 1], [0, 1], [1, 0]]))
    wing_plus, wing_minus, _ = crooked._quad_regions(wing, bases, EPS_ALG)
    on_stem = crooked._quad_regions(stem, bases, EPS_ALG)[2]
    hits = ((cuts[..., :-1] < cuts[..., 1:]) & on_stem
            & np.where([[True], [False]], wing_plus, wing_minus)).reshape(n, 10)
    k = ks.reshape(n, 10, 4)[np.arange(n), hits.argmax(axis=1)]
    # Q[:, j] @ k[j] of each row, its operands laid out as for one row
    # (Q[:, j] Fortran-ordered), so that numpy takes the same BLAS route
    x1, x2 = ((np.take(stem.swapaxes(-1, -2), j, axis=-2).swapaxes(-1, -2)
               @ np.take(k, j, axis=-1)[..., None])[..., 0] for j in ([0, 3], [1, 2]))
    return x1, x2, hits.any(axis=1)


# ---------------------------------------------------------------------------
# photon-surface oracle
# ---------------------------------------------------------------------------

def _second_generators(space, x):
    """Lagrangian completions of a photon vector x, or of each row of a
    stack of them: an orthonormal pair (w1, w2) spanning x-perp (for omega)
    modulo x, so that span{x, cos t w1 + sin t w2} runs over the circle of
    Lagrangians through x.  x-perp is the Euclidean complement of y = Omega^T x,
    and x is Euclidean-orthogonal to y, so x-perp modulo x is the complement
    of span{x, y}: the plane of the dual Pluecker row d of x ^ y, spanned by
    columns i, j of its antisymmetric matrix D (D[a, b] = d_ab), ij the pair
    of the largest |d_ij|, and orthonormalized by `_plane_frames`."""
    p = symplectic.plucker_rows(x, x @ space.matrix)
    d = p[..., ::-1] * symplectic._HODGE  # the Hodge dual, pairs as p's
    matrix = np.zeros((*d.shape[:-1], 4, 4))
    matrix[..., _PAIR_I, _PAIR_J] = d
    matrix[..., _PAIR_J, _PAIR_I] = -d
    pair = np.abs(d).argmax(-1)
    columns = np.stack([_PAIR_I[pair], _PAIR_J[pair]], -1)[..., None, :]
    onb = _plane_frames(np.take_along_axis(matrix, columns, -1))[0]
    return onb[..., 0], onb[..., 1]


def _photon_crossings(space, units, columns):
    """The photon-crossing oracle over a stack: for (n, 4) unit photon rows
    p of `space` and the (n, 4, 4) columns of quadrilaterals Q, the (n, 4)
    second generators w of the first candidate span{p, w} that
    `crooked._quad_regions` puts on the surface of Q, and the (n,) mask of
    the rows that have one; no sign inequality is read.  Every surface point
    meets P+, P- (wings) or S1, S2 (stem) in a line, and along the circle
    span{p, cos t w1 + sin t w2} that incidence, the Pluecker minor of
    Q^-1 [p, w], is a cos t + b sin t: each plane is met at atan2(-a, b)."""
    n = len(units)
    w1, w2 = _second_generators(space, units)
    k = np.linalg.solve(columns, np.stack([units, w1, w2], axis=-1))
    # minors 13, 02, 12, 03 (P+, P-, S1, S2) of Q^-1 [p, w1] and Q^-1 [p, w2]
    a, b = np.moveaxis(symplectic.plucker_rows(
        k[:, None, :, 0], np.swapaxes(k[:, :, 1:], 1, 2))[..., [4, 1, 3, 2]], 1, 0)
    t = np.arctan2(-a, b)
    ws = np.cos(t)[..., None] * w1[:, None] + np.sin(t)[..., None] * w2[:, None]
    bases = np.stack([np.broadcast_to(units[:, None], ws.shape), ws], axis=-1)
    on = np.logical_or.reduce(crooked._quad_regions(columns, bases, EPS_ALG))
    return ws[np.arange(n), on.argmax(axis=1)], on.any(axis=1)


def _crossing_residuals(space, p, onb):
    """Residuals max(|omega(b0, b1)|, |p' - B B^T p'|), p' = p / |p|, of 'span B
    is a Lagrangian through p', for rows p (n, 4) and orthonormal B (n, 4, 2)."""
    p = _unit_rows(p)
    lag = np.abs(onb[..., None, :, 0] @ space.matrix @ onb[..., :, 1, None])[..., 0, 0]
    off = p - (onb @ (onb.swapaxes(-1, -2) @ p[..., None]))[..., 0]
    return np.maximum(lag, np.sqrt(off[..., None, :] @ off[..., :, None])[..., 0, 0])


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _report(suite, trials, seed, failures, max_violation):
    return {"suite": suite, "trial_count": trials, "seed": seed, "failures": failures,
            "max_violation": max_violation}


def _blocks(trials, draw, screen=None):
    """The draw stage of a suite.  draw(first, _DRAW_QUANTUM) makes the rng
    calls of candidates first, ... (numbered from 0) and returns a tuple of
    arrays over them (a leading candidate axis); called quantum by quantum,
    so a candidate's values depend on its number alone.  Candidates come in
    chunks of _ORACLE_BLOCK (a multiple of the quantum), or of what is left
    of the budget of ATTEMPTS_PER_TRIAL * trials candidates, the last
    quantum drawn whole and cut to it: fewer trials draw a prefix.
    screen(chunk) returns the records the chunk keeps as a tuple of arrays,
    in candidate order (a candidate may give several); it raises nothing, as
    a suite checks only the records it keeps.  By default every candidate
    is a record.

    Yields (number of the first trial, records) for blocks of _ORACLE_BLOCK
    records in candidate order (the last of what trials lacks), each before
    the next chunk is drawn; records past a full block carry into the next.
    Raises RetryExhausted when the budget gives fewer than trials records."""
    limit = ATTEMPTS_PER_TRIAL * trials
    drawn, done, held = 0, 0, None
    while done < trials:
        if drawn == limit:
            raise RetryExhausted(f"fewer than {trials} accepted trials in {limit} attempts")
        k = min(_ORACLE_BLOCK, limit - drawn)
        quanta = (draw(first, _DRAW_QUANTUM) for first in range(drawn, drawn + k, _DRAW_QUANTUM))
        chunk = tuple(np.concatenate(a)[:k] for a in zip(*quanta))
        records = chunk if screen is None else screen(chunk)
        drawn += k
        held = records if held is None else tuple(map(np.concatenate, zip(held, records)))
        while done < trials and len(held[0]) >= min(_ORACLE_BLOCK, trials - done):
            n = min(_ORACLE_BLOCK, trials - done)
            yield done + 1, tuple(a[:n] for a in held)
            held, done = tuple(a[n:] for a in held), done + n


def _keeping(keep, *arrays):
    """The records of a screen (`_blocks`): the rows of arrays that keep marks."""
    return tuple(a[keep] for a in arrays)


def _unit_rows(v):
    """v / np.linalg.norm(v) of each row, the norm a dot product as there."""
    return v / np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


def _per_trial(checks, n, parts, row):
    """Checks of the parts of n trials, `parts` a trial, as checks of the
    trials (for `_raise_first_row`), part by part: row(i, k) is where trial
    i's part k is in a mask, and where a message function reads it."""
    trials = np.arange(n)
    return [(mask[row(trials, k)], message if isinstance(message, str)
             else lambda i, message=message, k=k: message(row(i, k)))
            for k in range(parts) for mask, message in checks]


def _surface_checks(space, rows):
    """The checks of `LightlikeQuadrilateral` and `CrookedSurface` on the
    quadrilateral rows (n, ..., 4, 4) of n trials, per trial and surface by
    surface (`_per_trial`): `as_rows`' finiteness, then those of one
    `crooked._surface_check_rows` of the block."""
    rows = rows.reshape(len(rows), -1, 4, 4)
    checks = crooked._surface_check_rows(rows, rows @ space.matrix @ rows.swapaxes(-1, -2),
                                         space.vol_coeff, EPS_ALG)
    return _per_trial([(~np.isfinite(rows).all(axis=(-2, -1)), _NON_FINITE)] + checks,
                      len(rows), rows.shape[1], lambda i, k: (i, k))


def _solvable(rows, checks):
    """Quadrilateral rows (n, ..., 4, 4) of n trials, I for those of a trial
    that fails one of checks (`_surface_checks`): a solve by them reads a basis."""
    return np.where(_failed_rows(checks).reshape(-1, *(1,) * (rows.ndim - 1)), np.eye(4), rows)


def _ads_pairs(space, units, f):
    """Quadrilateral rows (n, 2, 4, 4) of AdS plane pairs from directions
    units (n, 2, 2, 2), rows (a, b) per plane, and bases f (n, 2, 2) of the
    second (the first's is I), and their checks per trial: both
    `AdsCrookedPlane` constructors' (`ads._plane_check_rows`), then
    `_surface_checks`."""
    bases = np.stack([np.broadcast_to(np.eye(2), f.shape), f], 1)
    rows = ads._quad_rows(bases, units[..., 0, :], units[..., 1, :])
    return rows, (_per_trial(ads._plane_check_rows(bases, units), len(f), 2, lambda i, k: (i, k))
                  + _surface_checks(space, rows))


def _torus_screen(normals):
    """torus-trichotomy's decision on stacked normal pairs (n, 2, 5): the
    unit normals, and whether both are spacelike at eps 1e-3 and the pair is
    a circle at eps 1e-6, neither equal nor within |eta - 1| <= 1e-6."""
    units, ((failed, _),) = einstein._torus_normals(normals, 1e-3)
    kinds = einstein._torus_kinds(units[:, 0], units[:, 1], 1e-6)[0]
    return units, ~failed.any(-1) & einstein._CIRCLES[kinds]


def suite_torus_trichotomy(trials=1000, seed=7):
    """Torus-pair trichotomy: kind vs. eta, carrier signature, and the
    sampled causal character of the intersection curve.  A candidate draws
    two normals, 32 probe angles and 4 point angles, whatever is decided,
    a quantum's normals in one rng call and its angles in one; a chunk keeps
    the pairs that `_torus_screen` passes, with their unit normals.  Kinds
    and eta (`einstein._torus_kinds`), carriers, frames, probe tangents and
    curve points are read a block at a time."""
    rng = make_rng([seed, 1])

    def draw(first, k):
        return rng.normal(size=(k, 2, 5)), rng.uniform(0.0, 2.0 * np.pi, size=(k, 36))

    def screen(chunk):
        normals, angles = chunk
        units, keep = _torus_screen(normals)
        return _keeping(keep, units, angles[:, :32], angles[:, 32:])

    failures = []
    max_violation = 0.0
    for first, (units, thetas, angles) in _blocks(trials, draw, screen):
        s1, s2 = units.swapaxes(0, 1)
        index, etas = einstein._torus_kinds(s1, s2)
        kinds = [einstein._KINDS[i] for i in index.tolist()]
        spacelike = etas > 1.0
        kind_ok = index == np.where(spacelike, _SPACELIKE, _TIMELIKE)  # else no other row is read
        sigs = np.stack(einstein._carrier_signatures(s1, s2), -1)
        frames = _torus_frame(s1)
        probed, probe_checks = _probe_kind(frames, s2, thetas)
        _raise_first_row([(kind_ok & mask, message) for mask, message in probe_checks])
        # sampled intersection points lie on both tori: <x, s1>, <x, s2>
        # and <x, x> at each unit point, as `float(x @ GRAM @ y)` forms them
        x = _unit_rows(_intersection_curve(frames, s2)(angles))
        xg = x[..., None, :] @ einstein.GRAM
        residuals = abs(np.concatenate([xg @ s1[:, None, :, None], xg @ s2[:, None, :, None],
                                        xg @ x[..., :, None]], -1)).max(-1)[..., 0]
        max_violation = float(np.fmax.reduce(np.where(kind_ok[:, None], residuals, np.nan),
                                              axis=None, initial=max_violation))
        failures += _failed_messages([
            (~kind_ok, lambda i: f"trial {first + i}: kind {kinds[i]} vs eta {etas[i]}"),
            (kind_ok & (sigs != np.where(spacelike[:, None], (2, 1, 0), (1, 2, 0))).any(-1),
             lambda i: f"trial {first + i}: carrier signature {tuple(sigs[i].tolist())} "
             f"for {kinds[i]}"),
            (kind_ok & (probed != index), lambda i: f"trial {first + i}: probe "
             f"{einstein._KINDS[probed[i]]} vs {kinds[i]}")]
            + [(kind_ok & (residuals[:, j] > EPS_ALG), lambda i, j=j: f"trial {first + i}: "
                f"intersection point off tori by {residuals[i, j]:.3e}") for j in range(4)])
    return _report("torus-trichotomy", trials, seed, failures, max_violation)


def _eta_values(s_basis, f):
    """The invariant of (S, graph(f)) along the two mu-based routes, for
    stacked omega-normalized bases s_basis (n, 4, 2) of S and maps f
    (n, 2, 2) whose rows pass their splittings' checks: eta_mu and
    eta_einstein (n,), and the checks of the mu images.

    Near det(f) = -1 the invariant blows up, amplifying float cancellation
    and the 1e-16 structural leakage of a float splitting far past any
    fixed tolerance.  So the splitting is made structurally exact (exactly
    omega-normalized and omega-orthogonal summands, seeded from the float
    ones) and the wedge products are evaluated exactly, on object arrays of
    Python-int numerators over one denominator per row: only the final
    divisions (correctly rounded int / int) and square roots round, so
    numerators and denominators may share any factor.
    Standard basis only: omega, omega* = -(e02 + e13) and the bivector
    product are written out.

    The integers are kept small, fraction-free as in Bareiss' elimination,
    by two identities of integer rows r1 = omega(u, .), r2 = omega(v, .)
    with 2x2 minors M(a, b) = r1[a] r2[b] - r1[b] r2[a], pivots j1 (the
    largest |r1|, p1 = r1[j1]) and j2 (the largest |M(j1, .)|, p2 = M(j1,
    j2)), and free indices k:
    - Sylvester's identity: the nullspace vectors of r1 and the eliminated
      row p1 r2 - r2[j1] r1 = M(j1, .) by Cramer's rule, (k: p1 p2, j2: -p1
      M(j1, k), j1: r1[j2] M(j1, k) - r1[k] p2), are p1 times the vectors q
      (k: p2, j2: -M(j1, k), j1: M(j2, k)) of one denominator p2;
    - the two vectors q0, q1 have omega(q0, q1) = +-p2 omega(u, v), the
      sign that of the permutation (k0, k1, j1, j2) negated, so p2 and
      omega(u, v) both divide it."""
    n = len(f)
    rows = np.arange(n)[:, None]

    def omega_rows(x):  # x @ Omega: omega(x, e_j) over the last axis
        return np.concatenate([-x[..., 2:], x[..., :2]], -1)

    # u, v (the columns of s_basis) and f as numerators over df = 2^-low, one
    # power of two per row: a float is (m 2^53) 2^(e - 53), m 2^53 an int
    m, e = np.frexp(np.concatenate([s_basis.swapaxes(-1, -2).reshape(n, 8), f.reshape(n, 4)], -1))
    low = np.minimum(e.min(-1, keepdims=True) - 53, 0)
    x = (m * 2.0 ** 53).astype(np.int64).astype(object) << (e - 53 - low).astype(object)
    df = 1 << -low.astype(object)
    u, v, (f00, f01, f10, f11) = x[:, :4], x[:, 4:8], x[:, 8:].T[..., None]
    r1, r2 = omega_rows(u), omega_rows(v)
    dv = (r1 * v).sum(-1, keepdims=True)  # omega(u, v): S's basis is u / df, v df / dv
    # the omega-complement of S by the first identity, pivots as max() picks them
    j1 = np.abs(r1).argmax(-1)[:, None]
    minors = r1[rows, j1] * r2 - r2[rows, j1] * r1  # M(j1, .)
    j2 = np.abs(minors).argmax(-1)[:, None]
    p2 = minors[rows, j2]
    k = np.argsort((np.arange(4) == j1) | (np.arange(4) == j2), -1, kind="stable")[:, :2]
    q, pair = np.zeros((n, 2, 4), object), np.arange(2)
    q[rows, pair, k] = p2
    q[rows, pair, j2] = -minors[rows, k]
    q[rows, pair, j1] = r1[rows, j2] * r2[rows, k] - r1[rows, k] * r2[rows, j2]
    # q0 / p2 and q1 / omega(q0, q1) (p2 q1 / dq), over dq = omega(q0, q1),
    # which p2 divides by the second identity
    dq = (omega_rows(q[:, 0]) * q[:, 1]).sum(-1, keepdims=True)
    q1, q2 = (dq // p2) * q[:, 0], p2 * q[:, 1]
    # graph(f) over dq df: S's vectors plus f of the complement's; dv divides dq
    t1 = u * dq + q1 * f00 + q2 * f10
    t2 = v * (dq // dv) * df * df + q1 * f01 + q2 * f11
    # the rows of S (u / df and v df / dv, both over dv), then of graph(f)
    a, b, d = np.stack([u, t1]), np.stack([v, t2]), np.stack([dv, (dq * df) ** 2])
    iota, w = symplectic.plucker_rows(a, b), (omega_rows(a) * b).sum(-1, keepdims=True)
    # mu(A) . mu(B) = iota(A) . iota(B) + (1/2) omega(iota A) omega(iota B),
    # here doubled and over d_S d_T; the self-products of the decomposable
    # iotas vanish exactly, so mu(A) . mu(A) = omega(iota A)^2 / (2 d^2)
    p = iota[0] * iota[1][..., ::-1]  # products over complementary pairs
    w_s, w_t = w[:, :, 0]
    dot = 2 * (p[..., [0, 2, 3, 5]].sum(-1) - p[..., [1, 4]].sum(-1)) + w_s * w_t
    eta_mu = np.sqrt((dot * dot / (w_s * w_s * w_t * w_t)).astype(float))
    # unit normals in the null-cone model, normalized by the exact norms
    mu = (2 * iota - w * [0, 1, 0, 0, 1, 0]) / (2 * d)
    images, checks = symplectic.standard_space()._to_einstein(mu.astype(float))
    s1, s2 = images / np.sqrt((w * w / (2 * d * d)).astype(float))
    return (eta_mu, abs((s1[:, None, :] @ einstein.GRAM @ s2[:, :, None])[:, 0, 0]),
            [(mask.any(0), message) for mask, message in checks])  # of S or of graph(f)


def _splittings(space, bases):
    """`Splitting.from_plane` over stacked bases (n, 4, 2) of nondegenerate
    planes: the omega-normalized bases of both summands, and the checks."""
    s, _, checks = _plane_frames(bases)
    comp, comp_checks = symplectic._complements(space, s)
    t, _, t_checks = _plane_frames(comp)
    checks += comp_checks + t_checks + symplectic._splitting_checks(
        space, s, symplectic._lagrangian(space, s), t, symplectic._lagrangian(space, t))
    return symplectic._normalized(space, s), symplectic._normalized(space, t), checks


def _eta_screen(space, m, f):
    """eta-bridge's decision on stacked bases m and maps f: the plane of m
    nondegenerate (`_planes`), and |det f + 1| > 1e-3."""
    return _planes(space, m)[2] & (abs(symplectic.det_omega(f) + 1.0) > 1e-3)


def suite_eta_bridge(trials=1000, seed=7):
    """Determinant route vs. unit-normal route to the torus-pair invariant.
    A candidate draws a basis and a map f, a quantum's bases in one rng call
    and its maps in one; a chunk keeps those that `_eta_screen` passes.
    Splittings, graph planes and mu images are built a block of trials at a
    time, and so are the exact invariants and the kinds; a kind is read
    where |eta - 1| > 1e-6 and both normals pass."""
    rng = make_rng([seed, 2])
    space = symplectic.standard_space()

    def draw(first, k):
        return rng.normal(size=(k, 4, 2)), rng.uniform(-2.0, 2.0, size=(k, 2, 2))

    def screen(chunk):
        return _keeping(_eta_screen(space, *chunk), *chunk)

    failures = []
    max_violation = 0.0
    for first, (m, f) in _blocks(trials, draw, screen):
        s_basis, t_basis, checks = _splittings(space, m)
        # a row that fails a splitting check raises before its invariants
        # are read, so they are taken of the Darboux plane (e1, e3) there
        failed = _failed_rows(checks)
        eta_mu, eta_ein, eta_checks = _eta_values(
            np.where(failed[:, None, None], _STAND_IN, s_basis), f)
        etas = symplectic.eta_from_det(f)
        apart = np.abs(etas - 1.0) > 1e-6  # where the tori are checked and the kinds read
        g, _, graph_checks = _plane_frames(s_basis + t_basis @ f)  # the graphs
        lagrangian = symplectic._lagrangian(space, g)
        mu_s, s_checks = space._to_einstein(symplectic._mu_rows(space, s_basis))
        mu_t, t_checks = space._to_einstein(symplectic._mu_rows(space, symplectic._normalized(
            space, np.where(lagrangian[:, None, None], s_basis, g))))
        # a graph far from omega-orthonormal can put its normal within the
        # null band of `EinsteinTorus` though |det f + 1| > 1e-3; its torus,
        # and so its kind, is not read
        s1, torus_checks = einstein._torus_normals(mu_s)
        s2, ((null, _),) = einstein._torus_normals(mu_t)
        kinds = einstein._torus_kinds(s1, s2)[0]
        tori = s_checks + torus_checks + [(lagrangian, symplectic._MU_LAGRANGIAN)] + t_checks
        _raise_first_row(checks + eta_checks + graph_checks
                         + [(apart & mask, message) for mask, message in tori])
        dets = symplectic.det_omega(f)
        mu_off, ein_off = abs(etas - eta_mu), abs(etas - eta_ein)
        diff = np.where(ein_off > mu_off, ein_off, mu_off)  # Python's max(mu_off, ein_off)
        max_violation = float(np.fmax.reduce(diff, initial=max_violation))
        failures += _failed_messages([
            (diff > 1e-9, lambda i: f"trial {first + i}: eta mismatch {diff[i]:.3e} "
             f"(det {dets[i]:.4f})"),
            (apart & ~null & (kinds != np.where(etas > 1.0, _SPACELIKE, _TIMELIKE)),
             lambda i: f"trial {first + i}: kind {einstein._KINDS[kinds[i]]} vs eta {etas[i]:.4f}")])
    return _report("eta-bridge", trials, seed, failures, max_violation)


def suite_symplectic_identities(trials=1000, seed=7):
    """Dual bivector normalization, adjugate identity, complement through
    the reflection, and transversality vs. plain intersection.  A candidate
    draws f, a basis s and two planes, on even candidates random ones and
    on odd ones a pair sharing its first vector, a quantum's maps in one rng
    call and its bases in one; a chunk keeps those whose s is nondegenerate
    (`_planes`), and a block of trials is checked at a time, the
    reflection/complement distances too.  Then 200 Maslov/graph trials are
    drawn from a stream of their own, each a Lagrangian triple, a symplectic
    generator, a map and a splitting basis (one rng call for each), and
    checked at once (`_maslov_triples`)."""
    rng = make_rng([seed, 3])
    space = symplectic.standard_space()
    failures = []
    max_violation = 0.0
    os2 = space.wedge(space.omega_star, space.omega_star)
    if abs(os2 + 2.0) > 1e-12:
        failures.append(f"omega*.omega* = {os2!r}")
    max_violation = max(max_violation, abs(os2 + 2.0))

    def draw(first, k):  # f, then s and the planes' bases
        f, (s, p, q) = rng.uniform(-3.0, 3.0, size=(k, 2, 2)), rng.normal(size=(3, k, 4, 2))
        odd = (first + np.arange(k)) % 2 == 1
        q[odd, :, 0] = p[odd, :, 0]
        return f, s, p, q

    def screen(chunk):
        return _keeping(_planes(space, chunk[1])[2], *chunk)

    for first, (f, s, p, q) in _blocks(trials, draw, screen):
        res = np.abs(symplectic.adjugate(f) @ f
                     - symplectic.det_omega(f)[:, None, None] * np.eye(2)).max(axis=(1, 2))
        comp, checks = symplectic._complements(space, _plane_frames(s)[0])
        pq, _, pq_checks = _plane_frames(np.concatenate([p, q]))
        with np.errstate(all="ignore"):  # a p or q that fails its checks raises below
            wval = space._transversality(_plucker(p), _plucker(q))
        dims = _intersection_dims(*np.split(pq, 2))
        dists = projective_distance(space.reflect_omega_star(_plucker(s)), _plucker(comp))
        # the complement of each trial, then its p and q frames
        _raise_first_row(checks + _per_trial(pq_checks, len(f), 2, lambda i, k: k * len(f) + i))
        max_violation = float(np.fmax.reduce(np.concatenate([res, dists]), initial=max_violation))
        trans = wval > EPS_ALG
        failures += _failed_messages([
            (res > 1e-12, lambda i: f"trial {first + i}: adjugate identity off by {res[i]:.3e}"),
            (dists > 1e-9, lambda i: f"trial {first + i}: reflection/complement distance "
             f"{dists[i]:.3e}"),
            # outside the ambiguity band, or provably meeting
            (((wval > 1e-9) | (dims > 0)) & (trans != (dims == 0)), lambda i: f"trial {first + i}: "
             f"transverse {trans[i]} vs dim {dims[i]} (wedge {wval[i]:.3e})")])
    maslov_rng = make_rng([seed, 3, 1])
    xr, h = maslov_rng.normal(size=(200, 3, 2, 4)), maslov_rng.uniform(-1.0, 1.0, (200, 4, 4))
    f, split = maslov_rng.uniform(-2.0, 2.0, (200, 2, 2)), maslov_rng.normal(size=(200, 4, 2))
    bases = _lagrangian_bases(space, xr[:, :, 0], xr[:, :, 1])  # L, L', P
    index, kept = _maslov_triples(space, bases, split)
    g = _symplectic_exp(space, h[kept])
    moved, _, frame_checks = _plane_frames(g[:, None] @ bases[kept])
    moved_index, moved_checks = symplectic._maslov_rows(
        space, moved[:, 0], moved[:, 2], moved[:, 1])
    s_basis, t_basis, split_checks = _splittings(space, split[kept])
    graphs, _, graph_checks = _plane_frames(s_basis + t_basis @ f[kept])
    degenerate = symplectic._lagrangian(space, graphs)
    # the moved triple's frames and `maslov`'s checks, then the splitting's and the graph's
    _raise_first_row(_per_trial(frame_checks, len(g), 3, lambda i, k: (i, k)) + moved_checks
                     + split_checks + graph_checks)
    # away from det = -1 the graph is nondegenerate
    away, ks = abs(symplectic.det_omega(f[kept]) + 1.0) > 1e-6, np.flatnonzero(kept) + 1
    failures += _failed_messages([
        (moved_index != index[kept], lambda j: f"trial {ks[j]}: maslov not Sp-invariant"),
        (away & degenerate, lambda j: f"trial {ks[j]}: graph degeneracy vs det mismatch")])
    return _report("symplectic-identities", trials, seed, failures, max_violation)


def _maslov_triples(space, bases, split):
    """symplectic-identities' Maslov/graph trials of stacked bases (n, 3, 4,
    2) of L, L', P and splitting bases (n, 4, 2): the Maslov indices, and the
    mask of the trials whose three planes are Lagrangian, whose splitting
    basis is nondegenerate (`_planes`) and whose `maslov` does not raise."""
    onb, lagrangian, _ = _planes(space, bases)
    index, checks = symplectic._maslov_rows(space, onb[:, 0], onb[:, 2], onb[:, 1])
    return index, lagrangian.all(axis=1) & _planes(space, split)[2] & ~_failed_rows(checks)


def _plucker(m):
    """Pluecker row of a 4x2 basis, or rows of a stack."""
    return symplectic.plucker_rows(m[..., 0], m[..., 1])


def _maslov_screen(space, l, p, lp):
    """maslov-bridge's decision on stacked bases (n, 4, 2) of triples: all
    three planes Lagrangian (`_planes`), L' transverse to L and to P
    (`SympSpace.transverse`; so P != L'), and P != L (`Plane2 ==`)."""
    (ol, op, _), lagrangian, _ = _planes(space, np.stack([l, p, lp]))
    return (lagrangian.all(axis=0) & ~_same_spans(ol, op)
            & (space._transversality(_plucker(l), _plucker(lp)) > EPS_ALG)
            & (space._transversality(_plucker(p), _plucker(lp)) > EPS_ALG))


def suite_maslov_bridge(trials=1000, seed=7):
    """Maslov index of Lagrangian triples vs. causal type of points.  A
    candidate draws L, L' and P, every third candidate (numbered from 0, the
    second of each three) P through a random line of L (a lightlike point),
    a quantum's vectors in one rng call; a chunk keeps the triples that
    `_maslov_screen` passes.  Bases, indices, points and causal types are
    read a block of trials at a time, raising the first error in trial
    order."""
    rng = make_rng([seed, 4])
    space = symplectic.standard_space()

    def draw(first, k):  # x and r of L, of L' and of P
        return rng.normal(size=(k, 6, 4)), (first + np.arange(k)) % 3 == 2

    def screen(chunk):
        (x, r, xp, rp, xl, rl), on_l = np.moveaxis(chunk[0], 1, 0), chunk[1]
        l, lp = _lagrangian_bases(space, x, r), _lagrangian_bases(space, xp, rp)
        # P's x on L: its first two entries are the coefficients over L's basis
        xl[on_l] = _unit_rows((l[on_l] @ xl[on_l, :2, None])[..., 0])
        p = _lagrangian_bases(space, xl, rl)
        return _keeping(_maslov_screen(space, l, p, lp), l, p, lp)

    failures = []
    for first, (l, p, lp) in _blocks(trials, draw, screen):
        n = len(l)
        index, maslov_checks = symplectic._maslov_rows(space, *np.split(
            _plane_frames(np.concatenate([l, p, lp]))[0], 3))
        reps, point_checks = symplectic._lagrangian_points(space, np.concatenate([p, l, lp]))
        causal, causal_checks = einstein._causal_rows(*np.split(reps, 3))
        # the points of P, L and L' of each trial, then its causal type
        _raise_first_row(_per_trial(point_checks, n, 3, lambda i, k: k * n + i) + causal_checks)
        # a triple `maslov` raises for is lightlike, else |index| 2 is timelike
        # and 0 spacelike (`einstein._CAUSAL` order)
        none, m = _failed_rows(maslov_checks), abs(index)
        failures += _failed_messages([(causal != np.where(none, 0, np.where(m == 2, 1, 2)),
                                       lambda i: f"trial {first + i}: maslov "
                                       f"{None if none[i] else m[i]} vs causal "
                                       f"{einstein._CAUSAL[causal[i]]}")])
    return _report("maslov-bridge", trials, seed, failures, 0.0)


def _photon_draw(rng, k):
    """The rng calls of k photon-avoidance candidates: the generators (k, 4,
    4) of their quadrilaterals in one, their photons (k, 4) in one."""
    return rng.uniform(-1.0, 1.0, size=(k, 4, 4)), rng.normal(size=(k, 4))


def suite_photon_avoidance(trials=1000, seed=7):
    """Photon-vs-surface sign test against the oracle that solves for the
    photon's incidences with the wing vertices and stem planes.

    A candidate draws a generator and a photon (`_photon_draw`).  A chunk of
    candidates takes one stacked expm and its margins, and keeps those
    outside the |margin| <= 1e-6 skip band.  A block of trials is checked at
    once, raising in trial order: the surface checks (a trial that fails
    them is read on I, `_solvable`), then a meeting photon's witness
    (`crooked._crossing_bases`), its frame and, where its residual is read,
    its membership.  The oracle (`_photon_crossings`) runs
    once a block; within a trial its failure comes before the witness's."""
    rng = make_rng([seed, 5])
    space = symplectic.standard_space()
    failures = []
    max_residual = 0.0

    def screen(chunk):
        rows, p = _random_rows(space, chunk[0]), _unit_rows(chunk[1])
        columns = rows.swapaxes(-1, -2).copy()  # C-ordered, as a quadrilateral keeps them
        units = crooked._unit_photons(p)  # p as the predicates take it
        w = (units[:, None] @ space.matrix @ columns)[:, 0]
        m1, m2 = crooked._products(w)
        return _keeping(~(np.minimum(abs(m1), abs(m2)) <= 1e-6), rows, columns, p, units, w)

    draws = _blocks(trials, lambda first, k: _photon_draw(rng, k), screen)
    for first, (rows, columns, p, units, w) in draws:
        surface_checks = _surface_checks(space, rows)
        columns = _solvable(columns, surface_checks)
        verdicts = crooked._avoids(*crooked._products(w), EPS_ALG)
        bases, fails = crooked._crossing_bases(units, columns, w)
        need = ~verdicts & fails  # the trials whose witness is read
        onb, _, frame_checks = _plane_frames(bases)
        regions, checks = crooked._lagrangian_regions(space, columns, onb)
        residuals = np.where(need, _crossing_residuals(space, p, onb), np.nan)
        read = residuals <= 1e-9  # else a witness fails its trial, not its membership check
        _raise_first_row(surface_checks + [(need & mask, message) for mask, message in frame_checks]
                         + [(read & mask, message) for mask, message in checks])
        _, found = _photon_crossings(space, _unit_rows(p), columns)  # p normalized again
        max_residual = float(np.fmax.reduce(residuals, initial=max_residual))
        failures += _failed_messages([
            (verdicts & found, lambda i: f"trial {first + i}: disjoint photon but oracle found "
             "a point"),
            (~(verdicts | found), lambda i: f"trial {first + i}: meeting photon but oracle "
             "found nothing"),
            (~(verdicts | fails), lambda i: f"trial {first + i}: no constructive witness"),
            # a read witness that is off its residual or its surface
            (need & ~(read & np.logical_or.reduce(regions)),
             lambda i: f"trial {first + i}: witness residual {residuals[i]:.3e}")])
    return _report("photon-avoidance", trials, seed, failures, max_residual)


def suite_surface_disjointness(trials=200, seed=7):
    """Sixteen-inequality verdicts against sampled chordal gaps.

    A disjoint candidate draws _ADS_ROWS AdS candidates, a quantum's in one
    rng call, and one `_ads_arrays` over a chunk's keeps every one whose
    margins pass 1e-2, in draw order; an intersecting one is a `_pair_draw`.
    A block builds and checks its quadrilaterals stacked, raising in trial
    order, and reads the stacked sixteen margins.
    Then the disjoint trials draw both surfaces' `sample_surface` draws,
    whatever their verdicts, _CLOUD_PAIRS trials at a time, each of
    `_cloud_draws`' three rng calls for all their clouds at once; the
    clouds of those trials are built at once, a passing pair's gap one pair
    at a time.  An intersecting pair's shared point is checked on both
    surfaces.  The AdS candidates, the clouds and the intersecting pairs
    each draw from a stream of their own."""
    rng, cloud_rng, meeting_rng = (make_rng([seed, 6, *stage]) for stage in ((), (1,), (3,)))
    space = ads.ads_space()
    std = symplectic.standard_space()
    failures = []
    min_disjoint_gap = math.inf

    def screen(chunk):
        units, f, margins = _ads_arrays(chunk[0].reshape(-1, 6, 2))
        return _keeping(margins.min(axis=(1, 2)) > 1e-2, units, f)

    def sixteen_pass(space, rows):
        return crooked._avoids(*crooked._sixteen_margins(rows.swapaxes(-1, -2), space.matrix),
                               EPS_ALG).all(axis=(1, 2))

    def draw(first, k):
        return (rng.normal(size=(k, _ADS_ROWS, 6, 2)),)

    for first, block in _blocks(trials, draw, screen):
        rows, checks = _ads_pairs(space, *block)
        _raise_first_row(checks)
        passed, gaps = sixteen_pass(space, rows), np.full(len(rows), np.nan)
        for start in range(0, len(rows), _CLOUD_PAIRS):
            part = rows[start:start + _CLOUD_PAIRS]
            # each of the seven draws as one array (trials, 2 surfaces, points)
            draws = _cloud_draws(cloud_rng, 320, (len(part), 2))
            points = projective_normalize(_surface_cloud(space, part.swapaxes(-1, -2), draws))
            points /= np.linalg.norm(points, axis=-1, keepdims=True)
            for k in np.flatnonzero(passed[start:start + _CLOUD_PAIRS]).tolist():
                gaps[start + k] = _gap(*points[k])  # one 320 x 320 product at a time
        min_disjoint_gap = float(np.fmin.reduce(gaps, initial=min_disjoint_gap))
        failures += _failed_messages([
            (~passed, lambda i: f"disjoint pair {first + i}: criterion says not disjoint"),
            (gaps <= 1e-4, lambda i: f"disjoint pair {first + i}: sampled gap {gaps[i]:.3e}")])
    for first, block in _blocks(trials, lambda first, k: _pair_draw(meeting_rng, k, 4)):
        rows, shared, shared_checks = _intersecting_rows(std, *block)
        surface_checks = _surface_checks(std, rows)
        rows = _solvable(rows, surface_checks)
        regions, checks = crooked._lagrangian_regions(std, rows.swapaxes(-1, -2), shared[:, None])
        _raise_first_row(shared_checks + surface_checks + checks)
        failures += _failed_messages([
            (sixteen_pass(std, rows), lambda i: f"intersecting pair {first + i}: criterion says "
             "disjoint"),
            (~np.logical_or.reduce(regions).all(axis=1), lambda i: f"intersecting pair "
             f"{first + i}: shared point not on both")])
    return _report("surface-disjointness", 2 * trials, seed, failures,
                   min_disjoint_gap)


def suite_stem_only(trials=200, seed=7):
    """Stems never meet alone: two crooked surfaces whose stems share a
    constructed point also meet stem to wing.

    A quantum of pairs makes the rng calls of a `_pair_draw`.  A block takes one
    stacked expm, carries the second quadrilaterals onto the shared points
    (`_stem_rows`), checks the shared point on both stems, and solves for a
    stem-wing contact in either order (`_stem_wing_contacts`); it checks the
    bases and the surfaces stacked, raising in trial order (a pair that
    fails its surface checks is read on I, `_solvable`).  A pair
    fails when the shared point is off a stem or neither order has a
    contact: the test of the lemma.  The violation, the largest residual
    of the contacts (`_crossing_residuals`), only confirms the construction:
    L = span{x1, x2} is Lagrangian (S1, S2 are omega-orthogonal) and holds
    x1 + x2."""
    rng = make_rng([seed, 8])
    space = symplectic.standard_space()
    failures = []
    max_residual = 0.0
    for first, block in _blocks(trials, lambda first, k: _pair_draw(rng, k, 6)):
        rows, shared, shared_checks = _stem_rows(space, *block)
        n = len(rows)
        surface_checks = _surface_checks(space, rows)
        columns = _solvable(rows, surface_checks).swapaxes(-1, -2)
        q1, q2 = np.moveaxis(columns, 1, 0)
        regions, checks = crooked._lagrangian_regions(space, columns, shared[:, None])
        # either order: the stem of c1 on a wing of c2, else the reverse
        with np.errstate(all="ignore"):  # of I, I where a pair fails its surface checks
            x1, x2, hit = _stem_wing_contacts(np.concatenate([q1, q2]), np.concatenate([q2, q1]))
        x1, x2 = (np.where(hit[:n, None], x[:n], x[n:]) for x in (x1, x2))
        contact = hit[:n] | hit[n:]
        onb, contact_checks = _column_frames(np.stack([x1, x2], axis=-1))
        max_residual = float(np.fmax.reduce(_crossing_residuals(
            space, (x1 + x2)[contact], onb[contact]), initial=max_residual))
        _raise_first_row(shared_checks + surface_checks + checks
                         + [(contact & mask, message) for mask, message in contact_checks])
        failures += _failed_messages([
            (~regions[2].all(axis=1), lambda i: f"pair {first + i}: the shared point is off a "
             "stem"),
            (~contact, lambda i: f"pair {first + i}: stems meet but no stem-wing contact")])
    return _report("stem-only-impossibility", trials, seed, failures, max_residual)


def suite_ads_equivalence(trials=1000, seed=7):
    """Four-inequality, boundary-lift and sixteen-inequality routes agree.

    A candidate is one `_ads_arrays` draw, a quantum's in one rng call; a
    chunk keeps those whose least |margin| is above 1e-6.  Each block of
    accepted trials then runs the plane, quadrilateral and surface checks
    stacked (`_ads_pairs`), raising in trial order; it reads the three
    routes from the stacked margin kernels.  The equivariance and
    trace-form stage draws a vector pair and a 2x2 matrix per trial from a
    stream of its own, unscreened (`_blocks`), and checks a block of trials
    at a time."""
    rng, lift_rng = make_rng([seed, 7]), make_rng([seed, 7, 1])
    space = ads.ads_space()
    base = ads.as_sl2(np.eye(2))  # the first plane of every pair
    failures = []
    max_violation = 0.0

    def screen(chunk):
        units, f, margins = _ads_arrays(chunk[0])
        return _keeping(abs(margins).min(axis=(1, 2)) > 1e-6, units, f)

    for first, (units, f) in _blocks(trials, lambda first, k: (rng.normal(size=(k, 6, 2)),),
                                     screen):
        with np.errstate(all="ignore"):  # a row that fails its checks raises here
            rows, checks = _ads_pairs(space, units, f)
        _raise_first_row(checks)
        y, xp = units.swapaxes(-1, -2).swapaxes(0, 1)
        four = (ads._margin_array(base, y, f, xp) > EPS_ALG).all(axis=(1, 2))
        dgk = ads._dgk_passes(*ads._dgk_array(base, y, f, xp), EPS_ALG).all(axis=(1, 2))
        sixteen = crooked._avoids(*crooked._sixteen_margins(rows.swapaxes(-1, -2), space.matrix),
                                  EPS_ALG).all(axis=(1, 2))
        failures += _failed_messages([((four != dgk) | (dgk != sixteen), lambda i: f"trial "
                                       f"{first + i}: ads {four[i]}, dgk {dgk[i]}, "
                                       f"surfaces {sixteen[i]}")])

    # a, b and x, whose `_sl2_exp` is g; a trial with a or b shorter than 1e-3 is skipped
    for first, (z,) in _blocks(trials, lambda first, k: (lift_rng.normal(size=(k, 4, 2)),)):
        kept = (np.linalg.norm(z[:, :2], axis=-1) >= 1e-3).all(axis=1)
        ks, a, b, x = first + np.flatnonzero(kept), z[kept, 0], z[kept, 1], z[kept, 2:]
        n, g = len(ks), _sl2_exp(x)
        ga = (g @ a[..., None])[..., 0]
        lifts, checks = ads._boundary_lifts(np.concatenate([ga, a, b]))
        killing, killing_checks = ads._killing_rows(*np.split(lifts[n:], 2))
        lift_ga, lift_a = lifts[:n], lifts[n:2 * n]
        equiv = np.abs(lift_ga - g @ lift_a @ np.linalg.inv(g)).max(axis=(1, 2))
        w = ads._omega0_cells(a, b)[:, 0, 0]
        squares = w * w
        # the lifts of g a, a and b of each trial, then its trace form
        _raise_first_row(_per_trial(checks, n, 3, lambda i, k: k * n + i) + killing_checks)
        residuals = np.stack([equiv, abs(squares + killing)])
        scales = np.fmax(1.0, np.stack([np.abs(lift_ga).max(axis=(1, 2)), squares]))
        max_violation = float(np.fmax.reduce(residuals / scales, axis=None, initial=max_violation))
        failures += _failed_messages([
            (r > 1e-12 * scale, lambda i, r=r, label=label: f"{label} trial {ks[i]}: residual "
             f"{r[i]:.3e}") for label, r, scale in zip(("equivariance", "trace-form identity"),
                                                       residuals, scales)])
    h1 = ads.Horocycle(ads.boundary_lift(np.array([1.0, 0.0])), 1.0)
    h2 = ads.Horocycle(2.0 * ads.boundary_lift(np.array([0.0, 1.0])), 1.0)
    if ads.horocycle_distance(h1, h2) != 0.0:
        failures.append("horocycle distance at K = -2rr' is not exactly 0")
    return _report("ads-equivalence", trials, seed, failures, max_violation)


SUITES = {
    "torus-trichotomy": suite_torus_trichotomy,
    "eta-bridge": suite_eta_bridge,
    "symplectic-identities": suite_symplectic_identities,
    "maslov-bridge": suite_maslov_bridge,
    "photon-avoidance": suite_photon_avoidance,
    "surface-disjointness": suite_surface_disjointness,
    "stem-only": suite_stem_only,
    "ads-equivalence": suite_ads_equivalence,
}

SUITE_ALIASES = {"dgk-equivalence": "ads-equivalence"}


def run_suite(name, trials=None, seed=7):
    name = SUITE_ALIASES.get(name, name)
    if name not in SUITES:
        raise GeometryError(
            f"unknown suite {name!r}; choose from "
            f"{sorted(SUITES) + sorted(SUITE_ALIASES)}")
    return SUITES[name](seed=seed, **({} if trials is None else {"trials": trials}))


def report_lines(reports):
    """JSON-lines serialization of suite reports, stable across runs."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports)
