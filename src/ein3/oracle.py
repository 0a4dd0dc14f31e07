"""Seeded sampling oracles and the verification suites built on them.

Ground truth for the algebraic predicates: random generation of every
object type, dense point sampling of tori and crooked surfaces, chordal
gap measurement between projective point clouds, and causal probing of
intersection curves through finite differences.  The named suites at the
bottom run the agreement properties (algebra vs. sampling) and emit one
machine-readable record each.

The chordal metric (sine of the principal angle between representative
lines, on Euclidean-normalized representatives) is used for all sampled
geometry; EPS_GEO below is the coarser tolerance for such comparisons,
since sampling error dominates the algebraic tolerances.
"""

import itertools
import json
import math

import numpy as np

from ein3 import ads, crooked, einstein, symplectic
from ein3.linalg import (EPS_ALG, EPS_RANK, GeometryError, _intersection_dims,
                         _orthonormal_columns, _raise_first, _same_spans, _singular,
                         projective_normalize)
from ein3.einstein import IntersectionKind
from ein3.symplectic import Plane2

EPS_GEO = 1e-6


def make_rng(seed):
    """Deterministic generator; identical seeds reproduce identical streams."""
    return np.random.default_rng(seed)


class RetryExhausted(GeometryError):
    """Rejection sampling failed to produce a valid object."""


# candidates `_blocks` may draw per trial, every suite's one budget: a suite
# gives up only when fewer than one in ten is accepted.  Over seeds 1-20 at
# default trials torus-trichotomy keeps 45.3% of its candidates (44.3% on
# its lowest seed), eta-bridge 79.8% (76.8%), symplectic-identities 80.3%
# (77.6%), ads-equivalence 98.8% (98.3%), surface-disjointness 92.5 disjoint
# trials per 100 candidates (85.5), and the other three suites all of them
ATTEMPTS_PER_TRIAL = 10

# trials per block of a stacked suite's check stage
_ORACLE_BLOCK = 128

# surface-disjointness: AdS rows a candidate (0.95 passes on average), trials a cloud sub-block
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
    """`Plane2` over stacked bases m (..., 4, 2): the orthonormal bases, and
    the masks of the bases that make Lagrangian planes and of those that
    make nondegenerate planes well-conditioned for omega (|omega| > 0.2 on
    their orthonormal bases); both need the rank 2 that `Plane2` checks."""
    u, rank, _ = _singular(m, EPS_RANK)
    onb = u[..., :2]
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

class SampleCloud:
    """Projectively normalized points of the null-cone model with labels.

    points is an (n, 5) array of model vectors; labels is a list of n tags
    naming the membership each point was sampled from.
    """

    def __init__(self, points, labels):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 5:
            raise GeometryError("cloud points must be an (n, 5) array")
        if len(labels) != len(points):
            raise GeometryError("one label per point required")
        self.points = projective_normalize(points)
        self.labels = list(labels)

    def __len__(self):
        return len(self.points)

    def minkowski_points(self):
        """Affine patch coordinates (x, y, z) of the points with nonzero last
        homogeneous coordinate; returns (coords, keep), keep being the
        boolean mask of those points (the rest lie at infinity)."""
        v = self.points[:, 4]
        keep = np.abs(v) > EPS_GEO * np.linalg.norm(self.points, axis=1)
        return self.points[keep, :3] / v[keep, None], keep


def _torus_points(frame, alphas, betas):
    """Null vectors cos(a) p1 + sin(a) p2 + cos(b) n1 + sin(b) n2 of a torus,
    one per angle pair, along a new last axis.  frame is the unit frame
    (n1, n2, p1, p2) of the torus hyperplane (or a stack of them, with a
    row of angles each), negatives first as
    `einstein._unit_frame` sorts them; every such vector is null, and the
    two angles sweep the torus."""
    n1, n2, p1, p2 = np.moveaxis(frame[..., None, :, :], -1, 0)
    a, b = (np.asarray(angles)[..., None] for angles in (alphas, betas))
    return np.cos(a) * p1 + np.sin(a) * p2 + np.cos(b) * n1 + np.sin(b) * n2


def _torus_frame(normals):
    """The unit frames of the hyperplanes of unit normals (..., 5)."""
    return einstein._unit_frame(einstein._perp_onb(normals[..., None]))


def sample_torus(torus, n, rng):
    """n random null points of an Einstein torus (see `_torus_points`)."""
    a, b = (rng.uniform(0.0, 2.0 * np.pi, size=n) for _ in range(2))
    return SampleCloud(_torus_points(_torus_frame(torus.normal), a, b), ["torus"] * n)


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


def _cloud_draws(rng, n):
    """The rng calls of `sample_surface`: photon parameters and pencil
    angles of wing+, then of wing-, then the stem's t1, t2 and components."""
    count = int(round(n * 0.4))  # on each wing; the stem takes the rest
    draws = [rng.uniform(0.0, top, size=count) for _ in range(2) for top in (np.pi / 2, np.pi)]
    n_stem = n - 2 * count
    margin = 1e-2  # keep clear of the stem boundary, where Maslov degenerates
    draws += [rng.uniform(margin, np.pi / 2 - margin, size=n_stem) for _ in range(2)]
    return (*draws, rng.integers(0, 2, size=n_stem) * 2 - 1)


def _surface_cloud(space, columns, draws):
    """The points of `sample_surface` from its draws, on the surface of the
    quadrilateral columns (4, 4), or of each of a stack of them with a row
    of draws each: wing+, wing-, then the stem points of component +1, then
    of -1, each in draw order."""
    thetas_plus, phis_plus, thetas_minus, phis_minus, t1, t2, comps = draws
    order = np.argsort(-comps, axis=-1, kind="stable")
    comps, t1, t2 = (np.take_along_axis(a, order, -1) for a in (comps, t1, t2))
    columns = columns[..., None, :, :]
    rows = [symplectic.plucker_rows(*_wing_generators(columns, +1, thetas_plus, phis_plus)),
            symplectic.plucker_rows(*_wing_generators(columns, -1, thetas_minus, phis_minus)),
            symplectic.plucker_rows(*_stem_generators(columns, comps, t1, t2))]
    return np.concatenate(rows, -2) @ space.bridge[0].T


def sample_surface(surface, n, rng):
    """Sample a crooked surface: 40% of the points on each wing, the rest
    on the stem.

    Wing points combine a random photon of the wing family with a random
    Lagrangian through it; stem points pair random directions of the two
    stem planes within the timelike (Maslov +/-2) components.
    """
    draws = _cloud_draws(rng, n)  # wing+'s, wing-'s and the stem's first draws label them
    labels = [k for k, d in zip(("wing_plus", "wing_minus", "stem"), draws[::2]) for _ in d]
    return SampleCloud(_surface_cloud(surface.space, surface.quad.columns, draws), labels)


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
    arccos branch covers every point once up to sign.  The coefficients
    are taken pair by pair with math.hypot and math.atan2, which round
    differently from their numpy forms.
    """
    rows = []
    for frame, s2 in zip(frames, normals):
        n1, n2, p1, p2 = (frame.T @ einstein.GRAM @ s2).tolist()
        a_drives = math.hypot(p1, p2) <= math.hypot(n1, n2)
        (c1, c2), (d1, d2) = ((p1, p2), (n1, n2)) if a_drives else ((n1, n2), (p1, p2))
        rows.append((a_drives, c1, c2, math.atan2(d2, d1), math.hypot(d1, d2)))
    a_drives, c1, c2, phase, radius = np.array(rows).T[..., None]
    a_drives = a_drives.astype(bool)

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


def _probe_kind(curve, thetas, q):
    """Causal character of a one-row intersection curve from the forms q of
    its central finite-difference tangents (`_tangent_forms`) at the
    driving angles thetas: all tangents timelike, all spacelike, or all
    null (a photon pair); anything else raises.

    A photon pair's curve has a kink where its photons meet: within ~3e-5
    of it the difference straddles the kink or arccos near +/-1 loses the
    digits that make it null.  So a tangent that is not null is reread
    1e-3 to either side of its draw, on the photons themselves, and counts
    as null when both rereads are."""
    if (q < -_NULL_TANGENT).all():
        return IntersectionKind.TIMELIKE_CIRCLE
    if (q > _NULL_TANGENT).all():
        return IntersectionKind.SPACELIKE_CIRCLE
    off = thetas[np.abs(q) > _NULL_TANGENT]
    sides = np.abs(np.stack([_tangent_forms(curve, off - 1e-3),
                             _tangent_forms(curve, off + 1e-3)]))
    if (sides <= _NULL_TANGENT).all():
        return IntersectionKind.PHOTON_PAIR
    raise GeometryError(
        f"probe tangents disagree: Q/|t|^2 from {q.min():.3e} to {q.max():.3e}")


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


def _stem_point(rng):
    """The rng calls of a random stem point: its component, t1 and t2."""
    t1, t2 = (rng.uniform(0.15, np.pi / 2 - 0.15) for _ in range(2))
    return +1 if rng.uniform() < 0.5 else -1, t1, t2


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


def _stem_draw(rng):
    """The rng calls of a stem-only pair: per surface, a generator and a
    stem point."""
    return (rng.uniform(-1.0, 1.0, size=(4, 4)), *_stem_point(rng),
            rng.uniform(-1.0, 1.0, size=(4, 4)), *_stem_point(rng))


def _stem_rows(space, draws):
    """Quadrilateral rows (n, 2, 4, 4) of the pairs of n `_stem_draw`s and
    orthonormal bases (n, 4, 2) of their shared points: a stem point of the
    first surface, onto which a stem point of the second is carried."""
    s1, c1, a1, b1, s0, c0, a0, b0 = (np.array(v) for v in zip(*draws))
    rows1, rows0 = np.split(_random_rows(space, np.concatenate([s1, s0])), 2)
    shared = _orthonormal_columns(
        np.stack(_stem_generators(rows1.swapaxes(-1, -2), c1, a1, b1), -1), EPS_RANK)
    x = np.stack(_stem_generators(rows0.swapaxes(-1, -2), c0, a0, b0), -1)
    return np.stack([rows1, _carried_rows(space, shared, rows0, x)], axis=1), shared


def _intersecting_draw(rng):
    """The rng calls of an intersecting pair of surface-disjointness: a
    generator, a wing point (True; sign's number, theta, phi) or stem point
    (False; t1, t2, component's number) of it, a second generator."""
    s = rng.uniform(-1.0, 1.0, size=(4, 4))
    wing = rng.uniform() < 0.5
    first = rng.uniform() if wing else rng.uniform(0.1, np.pi / 2 - 0.1)
    second = rng.uniform(0.1, np.pi / 2 - 0.1)
    third = rng.uniform(0.0, np.pi) if wing else rng.uniform()
    return s, wing, first, second, third, rng.uniform(-1.0, 1.0, size=(4, 4))


def _intersecting_rows(space, draws):
    """Quadrilateral rows (n, 2, 4, 4) of the pairs of n `_intersecting_draw`s
    and orthonormal bases (n, 4, 2) of their shared points: a point of the
    first surface, onto which the second's vertex P+ is carried."""
    s1, wing, a, b, c, s0 = (np.array(v) for v in zip(*draws))
    rows1, rows0 = np.split(_random_rows(space, np.concatenate([s1, s0])), 2)
    columns = rows1.swapaxes(-1, -2)
    on_wing = np.stack(_wing_generators(columns, np.where(a < 0.5, 1, -1), b, c), axis=-1)
    on_stem = np.stack(_stem_generators(columns, np.where(c < 0.5, 1, -1), a, b), axis=-1)
    shared = _orthonormal_columns(np.where(wing[:, None, None], on_wing, on_stem), EPS_RANK)
    rows2 = _carried_rows(space, shared, rows0, rows0.swapaxes(-1, -2)[..., [0, 2]])
    return np.stack([rows1, rows2], axis=1), shared


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
    wing_plus, wing_minus, _ = crooked._quad_regions(wing[:, None, None], bases, EPS_ALG)
    on_stem = crooked._quad_regions(stem[:, None, None], bases, EPS_ALG)[2]
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
    Lagrangians through x.  x-perp is the nullspace of the row
    (omega x)^T, and (w1, w2) are the leading left singular vectors of its
    basis with x projected out."""
    rows = (x @ space.matrix.T)[..., None, :]
    perp = np.swapaxes(np.linalg.svd(rows)[2][..., 1:, :], -1, -2)  # 3-dim, contains x
    proj = perp - x[..., :, None] * (x[..., None, :] @ perp) / (x * x).sum(
        axis=-1)[..., None, None]
    u = np.linalg.svd(proj, full_matrices=False)[0]
    return u[..., 0], u[..., 1]


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
    on = np.logical_or.reduce(crooked._quad_regions(
        np.repeat(columns, 4, axis=0), bases.reshape(4 * n, 4, 2), EPS_ALG)).reshape(n, 4)
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


def _blocks(trials, draw, screen=lambda records: records):
    """The draw stage of a suite: draw() makes one candidate's rng calls,
    and screen(records) returns the records kept of a chunk of at most the
    trials its block lacks, so none is drawn past the last, and is cut to
    those trials.  Yields (number of the first trial, records) for blocks
    of at most _ORACLE_BLOCK trials, each before the next is drawn; raises
    RetryExhausted after ATTEMPTS_PER_TRIAL * trials candidates."""
    limit = ATTEMPTS_PER_TRIAL * trials
    block, done, drawn = [], 0, 0
    while done < trials:
        if drawn == limit:
            raise RetryExhausted(f"fewer than {trials} accepted trials in {limit} attempts")
        lack = min(_ORACLE_BLOCK - len(block), trials - done)
        kept = screen([draw() for _ in range(min(lack, limit - drawn))])[:lack]
        drawn = min(drawn + lack, limit)
        block += kept
        done += len(kept)
        if len(block) == _ORACLE_BLOCK or done == trials:
            yield done - len(block) + 1, block
            block = []


def _failed_rows(checks):
    """The rows of a stack that fail any of its (mask, message) checks."""
    return np.logical_or.reduce([mask for mask, _ in checks])


def _kept(records, keep):
    """The records of a chunk that a stacked screen keeps."""
    return [r for r, k in zip(records, keep.tolist()) if k]


def _unit_rows(v):
    """v / np.linalg.norm(v) of each row, the norm a dot product as there."""
    return v / np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


def _surface_checks(space, rows):
    """check(i) raises the first failed check of `LightlikeQuadrilateral` then
    `CrookedSurface` on the quadrilateral rows (n, ..., 4, 4) of trial i, surface
    by surface: one `crooked._surface_check_rows` of the block, read where i fails."""
    rows = rows.reshape(len(rows), -1, 4, 4)
    checks = crooked._surface_check_rows(rows, rows @ space.matrix @ rows.swapaxes(-1, -2),
                                         space.vol_coeff, EPS_ALG)
    failed = _failed_rows(checks).any(-1).tolist()

    def check(i):
        if failed[i]:
            for j in range(rows.shape[1]):
                _raise_first(checks, (i, j))

    return check


def _ads_pairs(space, units, f):
    """Quadrilateral rows (n, 2, 4, 4) of AdS plane pairs from directions
    units (n, 2, 2, 2), rows (a, b) per plane, and bases f (n, 2, 2) of the
    second (the first's is I); check(i) runs both `AdsCrookedPlane`
    constructors' checks, then `_surface_checks`, on trial i."""
    rows = ads._quad_rows(np.stack([np.broadcast_to(np.eye(2), f.shape), f], 1),
                          units[..., 0, :], units[..., 1, :])
    surface, unit_lists, f_lists = _surface_checks(space, rows), units.tolist(), f.tolist()

    def check(i):
        ads._check_independent(*unit_lists[i][0])
        ads._check_sl2(f_lists[i], EPS_ALG)
        ads._check_independent(*unit_lists[i][1])
        surface(i)

    return rows, check


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
    two normals, 32 probe angles and 4 point angles, whatever is decided;
    a chunk keeps the pairs that `_torus_screen` passes, with their unit
    normals.  Kinds and eta (`einstein._torus_kinds`), carriers, frames,
    probe tangents and curve points are read a block at a time."""
    rng = make_rng([seed, 1])
    expected_sig = {
        IntersectionKind.TIMELIKE_CIRCLE: (1, 2, 0),
        IntersectionKind.SPACELIKE_CIRCLE: (2, 1, 0),
    }

    def draw():
        normals, angles = rng.normal(size=(2, 5)), rng.uniform(0.0, 2.0 * np.pi, size=36)
        return normals, angles[:32], angles[32:]

    def screen(draws):
        units, keep = _torus_screen(np.array([d[0] for d in draws]))
        return _kept([(u, *d[1:]) for u, d in zip(units, draws)], keep)

    failures = []
    max_violation = 0.0
    for first, block in _blocks(trials, draw, screen):
        units, thetas, angles = (np.array(a) for a in zip(*block))
        s1, s2 = units.swapaxes(0, 1)
        index, etas = einstein._torus_kinds(s1, s2)
        kinds, etas = [einstein._KINDS[i] for i in index.tolist()], etas.tolist()
        sigs = np.stack(einstein._carrier_signatures(s1, s2), -1).tolist()
        frames = _torus_frame(s1)
        curve = _intersection_curve(frames, s2)
        # sampled intersection points lie on both tori: <x, s1>, <x, s2>
        # and <x, x> at each unit point, as `float(x @ GRAM @ y)` forms them
        x = _unit_rows(curve(angles))
        xg = x[..., None, :] @ einstein.GRAM
        residuals = abs(np.concatenate([xg @ s1[:, None, :, None], xg @ s2[:, None, :, None],
                                        xg @ x[..., :, None]], -1)).max(-1)[..., 0].tolist()
        rows = zip(kinds, etas, sigs, frames, s2, thetas, _tangent_forms(curve, thetas),
                   residuals)
        for k, (kind, eta, sig, frame, n2, theta, q, residuals) in enumerate(rows, first):
            if kind is not (IntersectionKind.SPACELIKE_CIRCLE if eta > 1.0
                            else IntersectionKind.TIMELIKE_CIRCLE):
                failures.append(f"trial {k}: kind {kind} vs eta {eta}")
                continue
            if tuple(sig) != expected_sig[kind]:
                failures.append(f"trial {k}: carrier signature {tuple(sig)} for {kind}")
            probed = _probe_kind(lambda t: _intersection_curve(frame[None], n2[None])(t), theta, q)
            if probed is not kind:
                failures.append(f"trial {k}: probe {probed} vs {kind}")
            max_violation = max(max_violation, *residuals)
            failures += [f"trial {k}: intersection point off tori by {res:.3e}"
                         for res in residuals if res > EPS_ALG]
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
    s = _orthonormal_columns(bases, EPS_RANK)
    comp, checks = symplectic._complements(space, s)
    t = _orthonormal_columns(comp, EPS_RANK)
    checks += symplectic._splitting_checks(space, s, symplectic._lagrangian(space, s),
                                           t, symplectic._lagrangian(space, t))
    return symplectic._normalized(space, s), symplectic._normalized(space, t), checks


def _eta_screen(space, m, f):
    """eta-bridge's decision on stacked bases m and maps f: the plane of m
    nondegenerate (`_planes`), and |det f + 1| > 1e-3."""
    return _planes(space, m)[2] & (abs(symplectic.det_omega(f) + 1.0) > 1e-3)


def suite_eta_bridge(trials=1000, seed=7):
    """Determinant route vs. unit-normal route to the torus-pair invariant.
    A candidate draws a basis and a map f; a chunk keeps those that
    `_eta_screen` passes.  Splittings, graph planes and mu images are built
    a block of trials at a time, and so are the exact invariants and the
    kinds; a kind is read where |eta - 1| > 1e-6 and both normals pass."""
    rng = make_rng([seed, 2])
    space = symplectic.standard_space()

    def draw():
        return rng.normal(size=(4, 2)), rng.uniform(-2.0, 2.0, size=(2, 2))

    def screen(draws):
        return _kept(draws, _eta_screen(space, *(np.array(v) for v in zip(*draws))))

    failures = []
    max_violation = 0.0
    for first, block in _blocks(trials, draw, screen):
        m, f = (np.array(a) for a in zip(*block))
        s_basis, t_basis, checks = _splittings(space, m)
        # a row that fails a splitting check raises before its invariants
        # are read, so they are taken of the Darboux plane (e1, e3) there
        failed = _failed_rows(checks)
        eta_mu, eta_ein, eta_checks = _eta_values(
            np.where(failed[:, None, None], np.eye(4)[:, [0, 2]], s_basis), f)
        eta_mu, eta_ein = eta_mu.tolist(), eta_ein.tolist()
        etas = symplectic.eta_from_det(f)
        apart = np.abs(etas - 1.0) > 1e-6  # where the kinds are read
        graphs = (s_basis + t_basis @ f)[apart]
        g = _orthonormal_columns(graphs, EPS_RANK)
        lagrangian = symplectic._lagrangian(space, g)
        mu_s, s_checks = space._to_einstein(symplectic._mu_rows(space, s_basis[apart]))
        mu_t, t_checks = space._to_einstein(symplectic._mu_rows(space, symplectic._normalized(
            space, np.where(lagrangian[:, None, None], s_basis[apart], g))))
        # a graph far from omega-orthonormal can put its normal within the
        # null band of `EinsteinTorus` though |det f + 1| > 1e-3; its torus,
        # and so its kind, is not read
        s1, torus_checks = einstein._torus_normals(mu_s)
        s2, ((null, _),) = einstein._torus_normals(mu_t)
        kinds = einstein._torus_kinds(s1, s2)[0].tolist()
        # the trials that raise below: a failed check, or a Lagrangian graph
        failed |= _failed_rows(eta_checks)
        failed[apart] |= _failed_rows(s_checks + torus_checks + t_checks) | lagrangian
        failed, apart, null = failed.tolist(), apart.tolist(), null.tolist()
        dets, etas, read = symplectic.det_omega(f).tolist(), etas.tolist(), iter(range(len(g)))
        for k, i in enumerate(range(len(block)), first):
            if failed[i]:
                _raise_first(checks, i)
                _raise_first(eta_checks, i)
            d, eta_det = dets[i], etas[i]
            diff = max(abs(eta_det - eta_mu[i]), abs(eta_det - eta_ein[i]))
            max_violation = max(max_violation, diff)
            if diff > 1e-9:
                failures.append(f"trial {k}: eta mismatch {diff:.3e} (det {d:.4f})")
            if apart[i]:
                j = next(read)
                if failed[i]:
                    _raise_first(s_checks, j)
                    _raise_first(torus_checks, j)
                    if lagrangian[j]:  # mu raises its error
                        symplectic.mu(space, Plane2(space, graphs[j]))
                    _raise_first(t_checks, j)
                if null[j]:
                    continue
                kind = einstein._KINDS[kinds[j]]
                want = (IntersectionKind.SPACELIKE_CIRCLE if eta_det > 1.0
                        else IntersectionKind.TIMELIKE_CIRCLE)
                if kind is not want:
                    failures.append(f"trial {k}: kind {kind} vs eta {eta_det:.4f}")
    return _report("eta-bridge", trials, seed, failures, max_violation)


def suite_symplectic_identities(trials=1000, seed=7):
    """Dual bivector normalization, adjugate identity, complement through
    the reflection, and transversality vs. plain intersection.  A candidate
    draws f, a basis s and two planes, on even candidates random ones and
    on odd ones a pair sharing a vector; a chunk keeps those whose s is
    nondegenerate (`_planes`), and a block of trials is checked at a time,
    the reflection/complement distances too.  Then
    200 Maslov/graph trials are drawn, each a Lagrangian triple, a
    symplectic generator, a map and a splitting basis, and checked at once
    (`_maslov_triples`)."""
    rng = make_rng([seed, 3])
    space = symplectic.standard_space()
    failures = []
    max_violation = 0.0
    os2 = space.wedge(space.omega_star, space.omega_star)
    if abs(os2 + 2.0) > 1e-12:
        failures.append(f"omega*.omega* = {os2!r}")
    max_violation = max(max_violation, abs(os2 + 2.0))
    candidates = itertools.count()

    def draw():  # f, then s and the planes' normals in one call
        f = rng.uniform(-3.0, 3.0, size=(2, 2))
        if next(candidates) % 2 == 0:
            return f, *rng.normal(size=(3, 4, 2))
        z = rng.normal(size=20)  # s, the shared vector, then each plane's other
        return (f, z[:8].reshape(4, 2), np.column_stack([z[8:12], z[12:16]]),
                np.column_stack([z[8:12], z[16:]]))

    def screen(draws):
        return _kept(draws, _planes(space, np.array([d[1] for d in draws]))[2])

    for first, block in _blocks(trials, draw, screen):
        f, s, p, q = (np.array(a) for a in zip(*block))
        res = np.abs(symplectic.adjugate(f) @ f
                     - symplectic.det_omega(f)[:, None, None] * np.eye(2)).max(axis=(1, 2))
        comp, checks = symplectic._complements(space, _orthonormal_columns(s, EPS_RANK))
        _orthonormal_columns(comp, EPS_RANK)
        po, qo = np.split(_orthonormal_columns(np.concatenate([p, q]), EPS_RANK), 2)
        wval = space._transversality(_plucker(p), _plucker(q))
        dims = _intersection_dims(po, qo)
        dists = projective_distance(space.reflect_omega_star(_plucker(s)),
                                    _plucker(comp)).tolist()
        failed = _failed_rows(checks).tolist()
        for k, i in enumerate(range(len(block)), first):
            max_violation = max(max_violation, res[i])
            if res[i] > 1e-12:
                failures.append(f"trial {k}: adjugate identity off by {res[i]:.3e}")
            if failed[i]:
                _raise_first(checks, i)
            max_violation = max(max_violation, dists[i])
            if dists[i] > 1e-9:
                failures.append(f"trial {k}: reflection/complement distance {dists[i]:.3e}")
            trans, dim = bool(wval[i] > EPS_ALG), int(dims[i])
            if wval[i] > 1e-9 or dim > 0:  # outside the ambiguity band, or provably meeting
                if trans != (dim == 0):
                    failures.append(
                        f"trial {k}: transverse {trans} vs dim {dim} (wedge {wval[i]:.3e})")
    draws = [(rng.normal(size=(3, 2, 4)), rng.uniform(-1.0, 1.0, size=(4, 4)),
              rng.uniform(-2.0, 2.0, size=(2, 2)), rng.normal(size=(4, 2))) for _ in range(200)]
    xr, h, f, split = (np.array(v) for v in zip(*draws))
    bases = _lagrangian_bases(space, xr[:, :, 0], xr[:, :, 1])  # L, L', P
    index, kept = _maslov_triples(space, bases, split)
    g = _symplectic_exp(space, h[kept])
    moved = _orthonormal_columns(g[:, None] @ bases[kept], EPS_RANK)
    moved_index, moved_checks = symplectic._maslov_rows(
        space, moved[:, 0], moved[:, 2], moved[:, 1])
    s_basis, t_basis, split_checks = _splittings(space, split[kept])
    graphs = _orthonormal_columns(s_basis + t_basis @ f[kept], EPS_RANK)
    degenerate = symplectic._lagrangian(space, graphs)
    failed = (_failed_rows(moved_checks) | _failed_rows(split_checks)).tolist()
    # away from det = -1 the graph is nondegenerate
    away = (abs(symplectic.det_omega(f) + 1.0) > 1e-6).tolist()
    for j, k in enumerate(np.flatnonzero(kept).tolist()):
        if failed[j]:
            _raise_first(moved_checks, j)  # where `maslov` of the moved triple raises
            _raise_first(split_checks, j)
        if moved_index[j] != index[k]:
            failures.append(f"trial {k + 1}: maslov not Sp-invariant")
        if away[k] and degenerate[j]:
            failures.append(f"trial {k + 1}: graph degeneracy vs det mismatch")
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
    candidate draws L, L' and P, every third candidate P through a random
    line of L (a lightlike point); a chunk keeps the triples that
    `_maslov_screen` passes.  Bases, indices, points and causal types are
    read a block of trials at a time, raising the first error in trial
    order."""
    rng = make_rng([seed, 4])
    space = symplectic.standard_space()
    candidates = itertools.count()

    def draw():  # x and r of L, of L' and of P, in one call
        on_l = next(candidates) % 3 == 2  # P's x as (coefficients over L, NaN, NaN)
        z = rng.normal(size=22 if on_l else 24)
        x = np.append(z[16:18], [np.nan, np.nan]) if on_l else z[16:20]
        return z[:8].reshape(2, 4), z[8:16].reshape(2, 4), x, z[-4:]

    def screen(draws):
        l, lp, x, r = (np.array(v) for v in zip(*draws))
        l, lp = (_lagrangian_bases(space, *m.swapaxes(0, 1)) for m in (l, lp))
        on_l = np.isnan(x[:, 2])
        x[on_l] = _unit_rows((l[on_l] @ x[on_l, :2, None])[..., 0])
        p = _lagrangian_bases(space, x, r)
        return _kept(list(zip(l, p, lp)), _maslov_screen(space, l, p, lp))

    failures = []
    for first, block in _blocks(trials, draw, screen):
        n = len(block)
        l, p, lp = (np.array(a) for a in zip(*block))
        index, maslov_checks = symplectic._maslov_rows(space, *np.split(
            _orthonormal_columns(np.concatenate([l, p, lp]), EPS_RANK), 3))
        reps, point_checks = symplectic._lagrangian_points(space, np.concatenate([p, l, lp]))
        causal, causal_checks = einstein._causal_rows(*np.split(reps, 3))
        failed = (_failed_rows(point_checks).reshape(3, n).any(0)
                  | _failed_rows(causal_checks)).tolist()
        indices = [None if bad else m for bad, m in zip(_failed_rows(maslov_checks).tolist(),
                                                         abs(index).tolist())]
        for k, i in enumerate(range(n), first):
            m = indices[i]
            if failed[i]:
                for row in (i, n + i, 2 * n + i):  # the points of P, L, L'
                    _raise_first(point_checks, row)
                _raise_first(causal_checks, i)
            got = einstein._CAUSAL[causal[i]]
            want = {None: einstein.CausalType.LIGHTLIKE,
                    2: einstein.CausalType.TIMELIKE,
                    0: einstein.CausalType.SPACELIKE}[m]
            if got is not want:
                failures.append(f"trial {k}: maslov {m} vs causal {got}")
    return _report("maslov-bridge", trials, seed, failures, 0.0)


def suite_photon_avoidance(trials=1000, seed=7):
    """Photon-vs-surface sign test against the oracle that solves for the
    photon's incidences with the wing vertices and stem planes.

    A candidate draws a generator and a photon.  A chunk of candidates is
    decided at once: one stacked expm, the stacked surface checks (raised
    in candidate order), the margins and their |margin| <= 1e-6 skip band,
    and a meeting photon's witness (`crooked._crossing_bases`), its residual
    and membership.  The oracle (`_photon_crossings`) runs once a block;
    within a trial its failure comes before the witness's."""
    rng = make_rng([seed, 5])
    space = symplectic.standard_space()
    failures = []
    max_residual = 0.0

    def draw():
        return rng.uniform(-1.0, 1.0, size=(4, 4)), rng.normal(size=4)

    def screen(draws):
        s, p = (np.array(v) for v in zip(*draws))
        rows = _random_rows(space, s)
        check = _surface_checks(space, rows)
        columns = rows.swapaxes(-1, -2).copy()  # C-ordered, as a quadrilateral keeps them
        p = _unit_rows(p)
        units = crooked._unit_photons(p)  # p as the predicates take it
        w = (units[:, None] @ space.matrix @ columns)[:, 0]
        m1, m2 = crooked._products(w)
        verdicts = crooked._avoids(m1, m2, EPS_ALG)
        skip = np.minimum(abs(m1), abs(m2)) <= 1e-6
        bases, fails = crooked._crossing_bases(units, columns, w, EPS_ALG)
        need = ~(verdicts | skip) & fails
        onb = _orthonormal_columns(bases[need], EPS_RANK)
        regions, checks = crooked._lagrangian_regions(space, columns[need], onb, EPS_ALG)
        on = np.logical_or.reduce(regions)
        kept, witnesses = [], iter(enumerate(_crossing_residuals(space, p[need], onb).tolist()))
        for i, oracle_unit in enumerate(_unit_rows(p)):  # the oracle normalizes p again
            check(i)
            if skip[i]:
                continue
            residual = witness = None  # the witness's residual and failure
            if not (verdicts[i] or fails[i]):
                witness = "no constructive witness"
            elif not verdicts[i]:
                j, residual = next(witnesses)
                if residual <= 1e-9:
                    _raise_first(checks, j)
                if residual > 1e-9 or not on[j]:
                    witness = f"witness residual {residual:.3e}"
            kept.append((bool(verdicts[i]), oracle_unit, columns[i], residual, witness))
        return kept

    for first, block in _blocks(trials, draw, screen):
        verdicts, units, columns, residuals, witnesses = zip(*block)
        _, found = _photon_crossings(space, np.array(units), np.array(columns))
        for k, verdict, hit, residual, witness in zip(
                range(first, first + len(block)), verdicts, found, residuals, witnesses):
            if verdict and hit:
                failures.append(f"trial {k}: disjoint photon but oracle found a point")
            if not verdict and not hit:
                failures.append(f"trial {k}: meeting photon but oracle found nothing")
            if residual is not None:
                max_residual = max(max_residual, residual)
            if witness is not None:
                failures.append(f"trial {k}: {witness}")
    return _report("photon-avoidance", trials, seed, failures, max_residual)


def suite_surface_disjointness(trials=200, seed=7):
    """Sixteen-inequality verdicts against sampled chordal gaps.

    A disjoint candidate draws _ADS_ROWS AdS candidates in one rng call,
    and one `_ads_arrays` over a chunk's keeps every one whose margins pass
    1e-2, in draw order; an intersecting one is an `_intersecting_draw`.  A
    block builds and checks its quadrilaterals stacked, raising in trial
    order, and reads the stacked sixteen margins.  Then each
    disjoint trial draws both surfaces' `sample_surface` draws in trial
    order, whatever its verdict; the clouds of _CLOUD_PAIRS trials are
    built at once, a passing pair's gap one pair at a time.  An
    intersecting pair's shared point is checked on both surfaces."""
    rng = make_rng([seed, 6])
    space = ads.ads_space()
    std = symplectic.standard_space()
    failures = []
    min_disjoint_gap = math.inf

    def screen(draws):
        units, f, margins = _ads_arrays(np.concatenate(draws))
        passed = margins.min(axis=(1, 2)) > 1e-2
        return list(zip(units[passed], f[passed]))

    def sixteen_pass(space, rows):
        return crooked._avoids(*crooked._sixteen_margins(rows.swapaxes(-1, -2), space.matrix),
                               EPS_ALG).all(axis=(1, 2))

    for first, block in _blocks(trials, lambda: rng.normal(size=(_ADS_ROWS, 6, 2)), screen):
        rows, check = _ads_pairs(space, *(np.array(v) for v in zip(*block)))
        passed = sixteen_pass(space, rows).tolist()
        for i in range(len(block)):
            check(i)
        for start in range(0, len(block), _CLOUD_PAIRS):
            part = rows[start:start + _CLOUD_PAIRS]
            draws = [[_cloud_draws(rng, 320) for _ in range(2)] for _ in part]
            # each of the seven draws as one array (trials, 2 surfaces, points)
            fields = [np.array(field) for field in zip(*(zip(*pair) for pair in draws))]
            points = projective_normalize(_surface_cloud(space, part.swapaxes(-1, -2), fields))
            points /= np.linalg.norm(points, axis=-1, keepdims=True)
            for k, (a, b) in enumerate(points, first + start):
                if not passed[k - first]:
                    failures.append(f"disjoint pair {k}: criterion says not disjoint")
                    continue
                gap = _gap(a, b)
                min_disjoint_gap = min(min_disjoint_gap, gap)
                if gap <= 1e-4:
                    failures.append(f"disjoint pair {k}: sampled gap {gap:.3e}")
    for first, block in _blocks(trials, lambda: _intersecting_draw(rng)):
        rows, shared = _intersecting_rows(std, block)
        check = _surface_checks(std, rows)
        passed = sixteen_pass(std, rows)
        regions, checks = crooked._lagrangian_regions(std, rows.swapaxes(-1, -2), shared[:, None],
                                                      EPS_ALG)
        on_both = np.logical_or.reduce(regions).all(axis=1)
        for k, i in enumerate(range(len(block)), first):
            check(i)
            if passed[i]:
                failures.append(f"intersecting pair {k}: criterion says disjoint")
            _raise_first(checks, i)
            if not on_both[i]:
                failures.append(f"intersecting pair {k}: shared point not on both")
    return _report("surface-disjointness", 2 * trials, seed, failures,
                   min_disjoint_gap)


def suite_stem_only(trials=200, seed=7):
    """Stems never meet alone: two crooked surfaces whose stems share a
    constructed point also meet stem to wing.

    A trial makes the rng calls of a `_stem_draw`.  A block takes one
    stacked expm, carries the second quadrilaterals onto the shared points
    (`_stem_rows`), checks the surfaces stacked, raising in trial order,
    checks the shared point on both stems, and solves for a stem-wing
    contact in either order (`_stem_wing_contacts`).  A pair
    fails when the shared point is off a stem or neither order has a
    contact: the test of the lemma.  The violation, the largest residual
    of the contacts (`_crossing_residuals`), only confirms the construction:
    L = span{x1, x2} is Lagrangian (S1, S2 are omega-orthogonal) and holds
    x1 + x2."""
    rng = make_rng([seed, 8])
    space = symplectic.standard_space()
    failures = []
    max_residual = 0.0
    for first, block in _blocks(trials, lambda: _stem_draw(rng)):
        n = len(block)
        rows, shared = _stem_rows(space, block)
        check = _surface_checks(space, rows)
        q1, q2 = np.moveaxis(rows.swapaxes(-1, -2), 1, 0)
        regions, checks = crooked._lagrangian_regions(space, rows.swapaxes(-1, -2),
                                                      shared[:, None], EPS_ALG)
        on_stems = regions[2].all(axis=1)
        # either order: the stem of c1 on a wing of c2, else the reverse
        x1, x2, hit = _stem_wing_contacts(np.concatenate([q1, q2]), np.concatenate([q2, q1]))
        x1, x2 = (np.where(hit[:n, None], x[:n], x[n:]) for x in (x1, x2))
        contact = hit[:n] | hit[n:]
        onb = _orthonormal_columns(np.stack([x1, x2], axis=-1)[contact], EPS_RANK)
        max_residual = max([max_residual,
                            *_crossing_residuals(space, (x1 + x2)[contact], onb).tolist()])
        for k, i in enumerate(range(n), first):
            check(i)
            _raise_first(checks, i)
            if not on_stems[i]:
                failures.append(f"pair {k}: the shared point is off a stem")
            if not contact[i]:
                failures.append(f"pair {k}: stems meet but no stem-wing contact")
    return _report("stem-only-impossibility", trials, seed, failures, max_residual)


def suite_ads_equivalence(trials=1000, seed=7):
    """Four-inequality, boundary-lift and sixteen-inequality routes agree.

    A candidate is one `_ads_arrays` draw; a chunk keeps those whose
    least |margin| is above 1e-6.  Each block of accepted trials then runs
    every plane check by its scalar closed form and the quadrilateral and
    surface checks stacked, raising in trial order, and reads the three
    routes from the stacked margin kernels.  The equivariance and trace-form loop draws a vector pair and
    a 2x2 matrix per trial and checks a block of trials at a time."""
    rng = make_rng([seed, 7])
    space = ads.ads_space()
    base = ads.as_sl2(np.eye(2))  # the first plane of every pair
    failures = []
    max_violation = 0.0

    def screen(draws):
        units, f, margins = _ads_arrays(np.array(draws))
        return _kept(list(zip(units, f)), abs(margins).min(axis=(1, 2)) > 1e-6)

    for first, block in _blocks(trials, lambda: rng.normal(size=(6, 2)), screen):
        units, f = (np.array(v) for v in zip(*block))
        with np.errstate(all="ignore"):  # a row that fails its checks raises below
            rows, check = _ads_pairs(space, units, f)
        finite = np.isfinite(rows).all(axis=(1, 2, 3)).tolist()  # and so units and f
        for i in range(len(block)):
            if not finite[i]:  # the scalar constructors raise their error
                planes = [ads.AdsCrookedPlane(m, *d) for m, d in zip((base, f[i]), units[i])]
                for plane in planes:
                    crooked.CrookedSurface(ads.ads_quadrilateral(plane))
            check(i)
        y, xp = units.swapaxes(-1, -2).swapaxes(0, 1)
        four = (ads._margin_array(base, y, f, xp) > EPS_ALG).all(axis=(1, 2)).tolist()
        dgk = ads._dgk_passes(*ads._dgk_array(base, y, f, xp), EPS_ALG).all(axis=(1, 2)).tolist()
        sixteen = crooked._avoids(*crooked._sixteen_margins(rows.swapaxes(-1, -2), space.matrix),
                                  EPS_ALG).all(axis=(1, 2)).tolist()
        for k, ads_k, dgk_k, sixteen_k in zip(range(first, first + len(block)), four, dgk, sixteen):
            if not (ads_k == dgk_k == sixteen_k):
                failures.append(f"trial {k}: ads {ads_k}, dgk {dgk_k}, surfaces {sixteen_k}")

    for start in range(0, trials, _ORACLE_BLOCK):
        # a, b and x, whose `_sl2_exp` is g; a trial with a or b shorter
        # than 1e-3 is skipped
        z = rng.normal(size=(min(_ORACLE_BLOCK, trials - start), 4, 2))
        kept = (np.linalg.norm(z[:, :2], axis=-1) >= 1e-3).all(axis=1)
        ks, a, b, x = start + 1 + np.flatnonzero(kept), z[kept, 0], z[kept, 1], z[kept, 2:]
        g = _sl2_exp(x)
        ga = (g @ a[..., None])[..., 0]
        lifts, checks = ads._boundary_lifts(np.concatenate([ga, a, b]))
        killing, killing_checks = ads._killing_rows(*np.split(lifts[len(ks):], 2))
        killing = killing.tolist()
        lift_ga, lift_a = lifts[:len(ks)], lifts[len(ks):2 * len(ks)]
        equiv = np.abs(lift_ga - g @ lift_a @ np.linalg.inv(g)).max(axis=(1, 2)).tolist()
        top = np.abs(lift_ga).max(axis=(1, 2)).tolist()
        omega = ads._omega0_cells(a, b)[:, 0, 0].tolist()
        failed = (_failed_rows(checks).reshape(3, -1).any(0)
                  | _failed_rows(killing_checks)).tolist()
        for i, k in enumerate(ks.tolist()):
            if failed[i]:
                for j in (i, len(ks) + i, 2 * len(ks) + i):
                    _raise_first(checks, j)
                _raise_first(killing_checks, i)
            scale = max(1.0, top[i])
            max_violation = max(max_violation, equiv[i] / scale)
            if equiv[i] > 1e-12 * scale:
                failures.append(f"equivariance trial {k}: residual {equiv[i]:.3e}")
            residual = abs(omega[i] ** 2 + killing[i])
            scale = max(1.0, omega[i] ** 2)
            max_violation = max(max_violation, residual / scale)
            if residual > 1e-12 * scale:
                failures.append(f"trace-form identity trial {k}: residual {residual:.3e}")
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
