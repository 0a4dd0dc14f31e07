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

import json
import math
from fractions import Fraction
from functools import partial

import numpy as np

from ein3 import ads, crooked, einstein, symplectic
from ein3.linalg import EPS_ALG, GeometryError, Subspace, nullspace
from ein3.einstein import EinsteinTorus, IntersectionKind
from ein3.symplectic import Plane2, Splitting

EPS_GEO = 1e-6

RETRY_LIMIT = 10_000


def make_rng(seed):
    """Deterministic generator; identical seeds reproduce identical streams."""
    return np.random.default_rng(seed)


class RetryExhausted(GeometryError):
    """Rejection sampling failed to produce a valid object."""


def _retrying(make, accept, limit=RETRY_LIMIT):
    for _ in range(limit):
        obj = make()
        if accept(obj):
            return obj
    raise RetryExhausted(f"no valid sample in {limit} attempts")


# candidates a suite loop may draw per trial: it gives up only when fewer
# than one in ten is accepted; the suites accept over 0.9 of them (stem-only
# 0.91-0.93, the others all but a handful)
ATTEMPTS_PER_TRIAL = 10


def _attempts(trials):
    """Attempt budget of a suite loop: call next() once per candidate; it
    raises RetryExhausted after ATTEMPTS_PER_TRIAL * trials candidates."""
    limit = ATTEMPTS_PER_TRIAL * trials
    yield from range(limit)
    raise RetryExhausted(f"fewer than {trials} accepted trials in {limit} attempts")


# ---------------------------------------------------------------------------
# random objects
# ---------------------------------------------------------------------------

def random_unit_spacelike(rng):
    """Unit spacelike vector of the null-cone model space."""
    def make():
        return rng.normal(size=5)

    def accept(v):
        return einstein.inner(v, v) > 1e-3 * float(v @ v)

    v = _retrying(make, accept)
    return v / math.sqrt(einstein.inner(v, v))


def random_symplectic(space, rng, scale=1.0):
    """Random element of Sp(V): the exponential of a random Hamiltonian
    matrix (entries of the symmetric generator uniform in [-1, 1])."""
    from scipy.linalg import expm  # ~0.3 s to load, so only where it is used
    s = rng.uniform(-1.0, 1.0, size=(4, 4)) * scale
    s = 0.5 * (s + s.T)
    h = np.linalg.solve(space.matrix, s)
    return expm(h)


def random_sl2(rng):
    """Random element of SL(2): the exponential of a traceless matrix
    (entries of x standard normal, drawn here)."""
    from scipy.linalg import expm
    x = rng.normal(size=(2, 2))
    return expm(x - 0.5 * np.trace(x) * np.eye(2))


def random_lagrangian(space, rng):
    """Random Lagrangian plane of a symplectic space."""
    def make():
        x = rng.normal(size=4)
        r = rng.normal(size=4)
        base = space.matrix @ x
        nx = float(base @ base)
        if nx == 0.0:
            return None
        w = r - (float(r @ base) / nx) * base
        m = np.column_stack([x, w])
        if np.linalg.svd(m, compute_uv=False)[-1] < 1e-3 * np.abs(m).max():
            return None
        return Plane2(space, m)

    return _retrying(make, lambda p: p is not None and p.is_lagrangian)


def random_nondegenerate_plane(space, rng, min_margin=0.2):
    """Random nondegenerate plane, well-conditioned for omega."""
    def make():
        m = rng.normal(size=(4, 2))
        if np.linalg.svd(m, compute_uv=False)[-1] < 1e-3:
            return None
        return Plane2(space, m)

    def accept(p):
        if p is None or p.is_lagrangian:
            return False
        onb = p.sub.onb
        return abs(space.omega(onb[:, 0], onb[:, 1])) > min_margin

    return _retrying(make, accept)


def random_splitting(space, rng):
    return Splitting.from_plane(space, random_nondegenerate_plane(space, rng))


def random_quadrilateral(space, rng, scale=1.0):
    """Random lightlike quadrilateral: a random symplectic image of the
    canonical one."""
    if np.array_equal(space.matrix, symplectic.STANDARD_OMEGA):
        base = crooked.canonical_quadrilateral(space)
    else:
        base = _canonical_quad_general(space)
    g = random_symplectic(space, rng, scale)
    return base.transformed(g)


def _canonical_quad_general(space):
    d = symplectic.symplectic_basis(space)
    return crooked.LightlikeQuadrilateral(space, d[:, 0], d[:, 1], d[:, 3], d[:, 2])


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
        idx = np.argmax(np.abs(points), axis=1)
        lead = points[np.arange(len(points)), idx]
        self.points = points / lead[:, None]
        self.labels = list(labels)

    def __len__(self):
        return len(self.points)

    def unit_points(self):
        return self.points / np.linalg.norm(self.points, axis=1, keepdims=True)

    def minkowski_points(self):
        """Affine patch coordinates (x, y, z) of the points with nonzero last
        homogeneous coordinate; returns (coords, keep), keep being the
        boolean mask of those points (the rest lie at infinity)."""
        v = self.points[:, 4]
        keep = np.abs(v) > EPS_GEO * np.linalg.norm(self.points, axis=1)
        return self.points[keep, :3] / v[keep, None], keep


def sample_torus(torus, n, rng):
    """n random null points of an Einstein torus.

    The hyperplane of the torus has signature (2, 2); in an
    orthonormal-indefinite frame its null vectors are exactly
    cos(a) p1 + sin(a) p2 + cos(b) n1 + sin(b) n2, so sampling the two
    angles sweeps the torus.
    """
    _, frame = einstein.model_space().unit_frame(torus.hyperplane())
    neg, pos = frame[:, :2], frame[:, 2:]
    a = rng.uniform(0.0, 2.0 * np.pi, size=n)
    b = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = (np.cos(a)[:, None] * pos[:, 0] + np.sin(a)[:, None] * pos[:, 1]
           + np.cos(b)[:, None] * neg[:, 0] + np.sin(b)[:, None] * neg[:, 1])
    return SampleCloud(pts, ["torus"] * n)


def _wing_generators(surface, sign, thetas, phis):
    """Photon vectors x(theta) of a wing family and, paired with them, the
    generator at pencil angle phi of the Lagrangian pencil through each;
    vectorized over theta in [0, pi/2].  thetas, phis and the wing sign
    broadcast against each other (a leading pair axis may carry one sign
    per pair); the vectors run along a new last axis.

    For wing +1 the photon is cos(t) u+ + sin(t) v+; its pencil is spanned
    modulo x by the rotated in-plane vector g1 and a corrected outside
    vector g2, both nonvanishing on the whole parameter range.  Both wings
    share the formulas below with sg = sign and (a, b, e, f) = (u+, v+, u-,
    v-) for wing +1, (u-, v-, u+, v+) for wing -1.
    """
    q = surface.quad
    plus = (np.asarray(sign) == +1)[..., None]
    sg = np.where(plus, 1.0, -1.0)
    a, b = np.where(plus, q.u_plus, q.u_minus), np.where(plus, q.v_plus, q.v_minus)
    e, f = np.where(plus, q.u_minus, q.u_plus), np.where(plus, q.v_minus, q.v_plus)
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


def _stem_generators(surface, t1, t2, component):
    """Generators w(t1), w'(t2) of stem Lagrangians; the parameters and the
    component broadcast against each other, the vectors run along a new
    last axis."""
    q = surface.quad
    s = np.where(np.asarray(component) == +1, 1.0, -1.0)[..., None]
    w = np.cos(t1)[..., None] * q.u_plus + s * np.sin(t1)[..., None] * q.v_minus
    wp = np.cos(t2)[..., None] * q.u_minus + s * np.sin(t2)[..., None] * q.v_plus
    return w, wp


def wing_bivectors(surface, sign, thetas, phis):
    """Pluecker images of the wing Lagrangians at photon parameters thetas
    and pencil angles phis (paired elementwise)."""
    return symplectic.plucker_rows(*_wing_generators(surface, sign, thetas, phis))


def stem_bivectors(surface, t1, t2, component=+1):
    """Pluecker images of stem Lagrangians (paired elementwise).

    The stem has two connected pieces: component +1 pairs photon
    coordinates of equal signs in both stem planes, component -1 of
    opposite signs; parameters range over (0, pi/2) either way.
    """
    return symplectic.plucker_rows(*_stem_generators(surface, t1, t2, component))


def _ein_rows(space, bivectors):
    pts = bivectors @ space.bridge[0].T
    return pts


def wing_point(surface, sign, theta, phi):
    """Single wing Lagrangian as a plane (see `wing_bivectors`)."""
    x, w = _wing_generators(surface, sign, np.array([theta]), np.array([phi]))
    return Plane2.span(surface.space, x[0], w[0])


def stem_point(surface, theta1, theta2, component=+1):
    """Single stem Lagrangian as a plane (see `stem_bivectors`)."""
    w, wp = _stem_generators(surface, np.array([theta1]), np.array([theta2]),
                             component)
    return Plane2.span(surface.space, w[0], wp[0])


def sample_surface(surface, n, rng, proportions=(0.4, 0.4, 0.2)):
    """Sample a crooked surface: wings and stem in the given proportions.

    Wing points combine a random photon of the wing family with a random
    Lagrangian through it; stem points pair random directions of the two
    stem planes within the timelike (Maslov +/-2) components.
    """
    if len(proportions) != 3 or abs(sum(proportions) - 1.0) > 1e-12:
        raise GeometryError("proportions must be three numbers summing to 1")
    space = surface.space
    n_plus = int(round(n * proportions[0]))
    n_minus = int(round(n * proportions[1]))
    n_stem = n - n_plus - n_minus
    chunks, labels = [], []
    for count, sign, label in ((n_plus, +1, "wing_plus"),
                               (n_minus, -1, "wing_minus")):
        thetas = rng.uniform(0.0, np.pi / 2, size=count)
        phis = rng.uniform(0.0, np.pi, size=count)
        chunks.append(wing_bivectors(surface, sign, thetas, phis))
        labels += [label] * count
    margin = 1e-2  # keep clear of the stem boundary, where Maslov degenerates
    t1 = rng.uniform(margin, np.pi / 2 - margin, size=n_stem)
    t2 = rng.uniform(margin, np.pi / 2 - margin, size=n_stem)
    comps = rng.integers(0, 2, size=n_stem) * 2 - 1
    stem_biv = np.vstack([
        stem_bivectors(surface, t1[comps == +1], t2[comps == +1], +1),
        stem_bivectors(surface, t1[comps == -1], t2[comps == -1], -1),
    ])
    chunks.append(stem_biv)
    labels += ["stem"] * n_stem
    return SampleCloud(_ein_rows(space, np.vstack(chunks)), labels)


def min_gap(cloud_a, cloud_b):
    """Minimum chordal distance between the projective classes of two clouds.

    The chordal distance of two lines is the sine of their principal angle,
    computed on Euclidean-normalized homogeneous representatives.
    """
    if len(cloud_a) == 0 or len(cloud_b) == 0:
        raise GeometryError("min_gap needs nonempty clouds")
    a = cloud_a.unit_points() if isinstance(cloud_a, SampleCloud) else _unit_rows(cloud_a)
    b = cloud_b.unit_points() if isinstance(cloud_b, SampleCloud) else _unit_rows(cloud_b)
    cos = np.clip(np.abs(a @ b.T), 0.0, 1.0)
    return float(np.sqrt(max(0.0, 1.0 - float(cos.max()) ** 2)))


def _unit_rows(points):
    points = np.asarray(points, dtype=float)
    return points / np.sqrt((points * points).sum(axis=-1, keepdims=True))


def projective_distance(a, b):
    """Chordal distance between the lines of two nonzero vectors.

    Computed as the shorter chord between the unit representatives, which
    keeps full precision for nearly identical lines (where the sine formula
    loses half the digits to cancellation).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ua = a / np.linalg.norm(a)
    ub = b / np.linalg.norm(b)
    return float(min(np.linalg.norm(ua - ub), np.linalg.norm(ua + ub)))


# ---------------------------------------------------------------------------
# causal probing of torus intersections
# ---------------------------------------------------------------------------

def probe_intersection_type(t1, t2, n, rng, degenerate_tol=1e-7):
    """Sampled classification of the intersection of two distinct tori.

    Diagonalizes the carrier (the common orthogonal complement of the two
    normals), parametrizes its null directions, and classifies the causal
    character of finite-difference tangents along the sampled curve by the
    sign of the form.  Independent of the eta comparison used by
    `einstein.classify_torus_pair`.
    """
    if t1 == t2:
        raise GeometryError("probe requires distinct tori")
    carrier = einstein.model_space().orthogonal_complement(
        Subspace.span(t1.normal, t2.normal))
    w, frame = einstein.model_space().unit_frame(carrier)
    scale = np.max(np.abs(w))
    if np.min(np.abs(w)) <= degenerate_tol * scale:
        return _probe_degenerate(w, frame, n, rng, degenerate_tol * scale)
    circle, apex = _cone_frame(w, frame)
    phis = rng.uniform(0.0, 2.0 * np.pi, size=n)
    h = 1e-5
    tangents = (_cone_point(circle, apex, phis + h)
                - _cone_point(circle, apex, phis - h)) / (2.0 * h)
    gram = einstein.model_space().gram
    mean = float(np.mean(((tangents @ gram) * tangents).sum(axis=-1)))
    if mean < -0.5:
        return IntersectionKind.TIMELIKE_CIRCLE
    if mean > 0.5:
        return IntersectionKind.SPACELIKE_CIRCLE
    raise GeometryError(f"probe could not classify tangents (mean Q = {mean})")


def _cone_frame(w, frame):
    """(circle, apex) of a nondegenerate carrier from its unit frame: two
    same-sign directions and the opposite one, so that `_cone_point`
    sweeps its null directions."""
    if int(np.sum(w > 0)) == 1:
        return frame[:, :2], frame[:, 2]
    return frame[:, 1:], frame[:, 0]


def _cone_point(circle, apex, phi):
    """Null directions of the cone at angles phi (vectors along a new last
    axis)."""
    phi = np.asarray(phi)[..., None]
    return np.cos(phi) * circle[:, 0] + np.sin(phi) * circle[:, 1] + apex


def _probe_degenerate(w, frame, n, rng, tol):
    order = np.argsort(np.abs(w))
    radical = frame[:, order[0]]
    others = [order[1], order[2]]
    pos = [j for j in others if w[j] > 0]
    neg = [j for j in others if w[j] < 0]
    if len(pos) != 1 or len(neg) != 1:
        raise GeometryError("degenerate carrier is not of photon-pair type")
    a, b = frame[:, pos[0]], frame[:, neg[0]]
    # two affine null families a +/- b + t * radical; their sampled tangents
    # must be null
    ts = rng.uniform(-1.0, 1.0, size=max(4, n // 8))
    h = 1e-5
    for branch in (a + b, a - b):
        for t in ts:
            tangent = ((branch + (t + h) * radical)
                       - (branch + (t - h) * radical)) / (2.0 * h)
            q = einstein.inner(tangent, tangent)
            unit = tangent / np.linalg.norm(tangent)
            if abs(einstein.inner(unit, unit)) > 1e-6:
                raise GeometryError(
                    f"degenerate carrier has non-null family tangent (Q = {q})")
    return IntersectionKind.PHOTON_PAIR


# ---------------------------------------------------------------------------
# constructions used by the suites
# ---------------------------------------------------------------------------

def random_ads_config(rng):
    """Random pair of AdS crooked planes, the first based at the identity."""
    def unit(v):
        return v / np.linalg.norm(v)

    def make():
        return unit(rng.normal(size=2)), unit(rng.normal(size=2))

    def accept(ab):
        return abs(ads.omega0(*ab)) > 1e-2

    a, b = _retrying(make, accept)
    ap, bp = _retrying(make, accept)
    f = random_sl2(rng)
    return (ads.AdsCrookedPlane(np.eye(2), a, b),
            ads.AdsCrookedPlane(f, ap, bp))


def disjoint_ads_pair(rng, min_margin=1e-2):
    """Random AdS crooked plane pair certified disjoint with healthy margins.

    Rejection-samples random configurations until all four reduced
    inequalities hold with margin at least min_margin.
    """
    def make():
        return random_ads_config(rng)

    def accept(pair):
        return min(ads.ads_margins(*pair).values()) > min_margin

    return _retrying(make, accept)


def intersecting_surface_pair(space, rng):
    """A random crooked surface and a second one sharing a point with it.

    The shared Lagrangian is a sampled point of the first surface, built
    into the second quadrilateral as its wing vertex.
    """
    c1 = crooked.CrookedSurface(random_quadrilateral(space, rng))
    if rng.uniform() < 0.5:
        shared = wing_point(c1, +1 if rng.uniform() < 0.5 else -1,
                            rng.uniform(0.1, np.pi / 2 - 0.1),
                            rng.uniform(0.0, np.pi))
    else:
        shared = stem_point(c1, rng.uniform(0.1, np.pi / 2 - 0.1),
                            rng.uniform(0.1, np.pi / 2 - 0.1),
                            +1 if rng.uniform() < 0.5 else -1)
    c2 = crooked.CrookedSurface(_quad_with_vertex(space, shared, rng))
    return c1, c2, shared


def _quad_with_vertex(space, vertex, rng):
    """Quadrilateral whose wing+ vertex is the given Lagrangian plane."""
    u_plus = vertex.sub.onb[:, 0]
    v_plus = vertex.sub.onb[:, 1]
    omega = space.matrix
    for _ in range(RETRY_LIMIT):
        # rows (omega x)^T give the functional y -> omega(y, x)
        a = np.vstack([omega @ u_plus, omega @ v_plus])
        u_minus = np.linalg.lstsq(a, np.array([0.0, 1.0]), rcond=None)[0]
        u_minus = u_minus + nullspace(a) @ rng.normal(size=2)
        b = np.vstack([omega @ u_plus, omega @ v_plus, omega @ u_minus])
        v_minus = np.linalg.lstsq(b, np.array([-1.0, 0.0, 0.0]), rcond=None)[0]
        kern = nullspace(b)
        if kern.shape[1]:
            v_minus = v_minus + kern @ rng.normal(size=kern.shape[1])
        try:
            return crooked.LightlikeQuadrilateral(
                space, u_plus, u_minus, v_plus, v_minus)
        except GeometryError:
            continue
    raise RetryExhausted("could not complete a quadrilateral around the vertex")


def stem_crossing_pair(space, rng):
    """Two random crooked surfaces whose stems share a constructed point."""
    c1 = crooked.CrookedSurface(random_quadrilateral(space, rng))
    shared = stem_point(c1, rng.uniform(0.15, np.pi / 2 - 0.15),
                        rng.uniform(0.15, np.pi / 2 - 0.15),
                        +1 if rng.uniform() < 0.5 else -1)
    c2 = crooked.CrookedSurface(_quad_with_stem_point(space, shared, rng))
    return c1, c2, shared


def _quad_with_stem_point(space, l, rng):
    """Quadrilateral whose stem contains the given Lagrangian plane.

    Splits the generators of l into photon-coordinate pairs of matching
    signs: w = (u+ + c v-)/sqrt(2), w' = (u- + c v+)/sqrt(2) for a random
    component sign c.
    """
    w = l.sub.onb[:, 0]
    wp = l.sub.onb[:, 1]
    omega = space.matrix
    for _ in range(RETRY_LIMIT):
        c = 1.0 if rng.uniform() < 0.5 else -1.0
        # stem plane S1 = span{w, r} with omega(w, r) != 0 and omega(w', r) = 0
        r = nullspace((omega @ wp)[None, :]) @ rng.normal(size=3)
        val = float(w @ omega @ r)
        if abs(val) < 1e-3 * np.linalg.norm(r):
            continue
        beta = -c / (math.sqrt(2.0) * val)
        u_plus = w / math.sqrt(2.0) + beta * r
        v_minus = c * (w / math.sqrt(2.0) - beta * r)
        # complementary stem plane contains w' by construction
        comp = nullspace(np.vstack([omega @ u_plus, omega @ v_minus]))
        if comp.shape[1] != 2:
            continue
        s = comp @ rng.normal(size=2)
        val2 = float(wp @ omega @ s)
        if abs(val2) < 1e-3 * np.linalg.norm(s):
            continue
        beta2 = -c / (math.sqrt(2.0) * val2)
        u_minus = wp / math.sqrt(2.0) + beta2 * s
        v_plus = c * (wp / math.sqrt(2.0) - beta2 * s)
        try:
            quad = crooked.LightlikeQuadrilateral(
                space, u_plus, u_minus, v_plus, v_minus)
            if crooked.stem_contains(crooked.CrookedSurface(quad), l):
                return quad
        except GeometryError:
            continue
    raise RetryExhausted("could not build a quadrilateral through the stem point")


# ---------------------------------------------------------------------------
# refinement of sampled proximity
# ---------------------------------------------------------------------------

# window rules (lo, hi, cap): both parameters stay in [lo, hi], and the
# first one also below cap; the stem box keeps clear of the stem boundary
_STEM_BOX = (1e-4, np.pi / 2 - 1e-4, math.inf)
_WING_BOX = (0.0, np.pi, np.pi / 2)

# the four (component or sign, component or sign) pairs of a refined gap
_SIGN_PAIRS = (np.array([+1, +1, -1, -1]), np.array([+1, -1, +1, -1]))


def _stem_family(surface, components):
    return (partial(_stem_generators, surface, component=components[:, None, None]),
            surface.space, _STEM_BOX)


def _wing_family(surface, signs):
    return (partial(_wing_generators, surface, signs[:, None, None]),
            surface.space, _WING_BOX)


def _refine(family_a, family_b, rounds=12, k=9, shrink=0.35):
    """Minimum over P (family, family) pairs of the chordal gap between two
    2-parameter families of Lagrangians, each pair minimized by alternating
    grid zoom; deterministic.  A family is (generators(t1, t2), space,
    window rule); its generators broadcast a (P, k, 1) grid of t1 against
    a (P, 1, k) grid of t2, one member of the family per pair.

    Each round covers every pair at once.  Per family, the (P, 2) window
    centres, clipped to the window rule, give (P, 2, k) grids with the
    values of `np.linspace`; the Pluecker, Einstein and unit rows are
    (P, k^2, .) arrays.  One batched |U_a U_b^T| and a per-pair argmax
    then pick the centres of the next, shrunk windows.
    """
    families = (family_a, family_b)
    npairs = len(_SIGN_PAIRS[0])
    rows = np.arange(npairs)[:, None]
    offsets = np.arange(k, dtype=float)
    centers, sizes = [], []
    for _, _, (lo, hi, cap) in families:
        top = np.array([min(hi, cap), hi])
        centers.append(np.tile((lo + top) / 2, (npairs, 1)))
        sizes.append(top - lo)
    for _ in range(rounds):
        grids, units = [], []
        for (gens, space, (lo, hi, cap)), center, size in zip(families, centers, sizes):
            start = np.minimum(np.maximum(center - size / 2, lo), hi - size)
            stop = start + size
            stop[:, 0] = np.minimum(stop[:, 0], cap)
            grid = offsets * ((stop - start) / (k - 1))[..., None] + start[..., None]
            grid[..., -1] = stop
            biv = symplectic.plucker_rows(*gens(grid[:, 0, :, None], grid[:, 1, None, :]))
            grids.append(grid)
            units.append(_unit_rows(_ein_rows(space, biv.reshape(npairs, k * k, 6))))
        cos = np.minimum(np.abs(units[0] @ units[1].transpose(0, 2, 1)), 1.0).reshape(npairs, -1)
        best = cos.argmax(axis=1)
        # grid indices of the best pair: (t1, t2) of family a, then of family b
        idx = np.array(np.unravel_index(best, (k,) * 4)).T
        centers = [grid[rows, (0, 1), idx[:, 2 * j:2 * j + 2]] for j, grid in enumerate(grids)]
        sizes = [size * shrink for size in sizes]
    return min(math.sqrt(max(0.0, 1.0 - float(c) ** 2)) for c in cos[rows[:, 0], best])


def refined_stem_stem_gap(c1, c2):
    """Minimized chordal distance between the two stems, over both
    components of each."""
    a, b = _SIGN_PAIRS
    return _refine(_stem_family(c1, a), _stem_family(c2, b))


def refined_stem_wing_gap(c_stem, c_wing):
    """Minimized chordal distance between the stem of one surface and the
    wings of another."""
    a, b = _SIGN_PAIRS
    return _refine(_stem_family(c_stem, a), _wing_family(c_wing, b))


# ---------------------------------------------------------------------------
# photon-surface oracle
# ---------------------------------------------------------------------------

def _second_generators(space, x, phis):
    """Lagrangian completions of a photon vector x: an orthonormal pair
    spanning x-perp (for omega) modulo x, combined at the given angles."""
    base = nullspace((space.matrix @ x)[None, :])  # 3-dim, contains x
    proj = base - np.outer(x, x @ base) / float(x @ x)
    u, _s, _ = np.linalg.svd(proj, full_matrices=False)
    w1, w2 = u[:, 0], u[:, 1]
    return np.cos(phis)[:, None] * w1 + np.sin(phis)[:, None] * w2


def photon_crossing_oracle(p, surface, samples=10_000):
    """Search for a surface point on the photon of p, independently of the
    sign inequalities.

    Tests the closed-form candidate Lagrangians from the wing
    parametrization, and screens a dense circle of Lagrangians through p for
    exact surface membership.  Returns (found_plane_or_None, n_hits).
    """
    space = surface.space
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    hits = 0
    found = None
    # closed-form candidates: for each wing the unique photon of the family
    # incident to p
    for sign in (+1, -1):
        try:
            cand = crooked.wing_witness(p, surface, sign)
        except GeometryError:
            continue  # the candidate generator is parallel to p
        if cand.is_lagrangian and crooked.surface_contains(surface, cand) is not None:
            found = cand
            hits += 1
    # dense screen over the circle of Lagrangians through p
    thetas = np.linspace(0.0, np.pi, samples, endpoint=False)
    gens = _second_generators(space, p, thetas)
    # span{p, w} meets a plane A exactly when (p ^ w) . (A's Pluecker image)
    # vanishes, a linear functional of w (its rows: w = e1..e4); vol_coeff
    # is 1 in both spaces, so this is det[p, w, a, b]
    onbs = np.stack([plane.sub.onb for plane in (
        surface.p_plus, surface.p_minus, surface.stem1, surface.stem2)])
    targets = symplectic.plucker_rows(onbs[:, :, 0], onbs[:, :, 1])
    functionals = symplectic.plucker_rows(p, np.eye(4)) @ space._gram @ targets.T
    vals = np.abs(gens @ functionals)
    screened = np.unique(np.where(vals < 1e-7)[0])
    for idx in screened:
        cand = Plane2.span(space, p, gens[idx])
        if cand.is_lagrangian and crooked.surface_contains(surface, cand) is not None:
            found = found or cand
            hits += 1
    return found, hits


def crossing_residual(p, surface, plane):
    """Numerical residual of 'plane is a surface point on the photon of p'."""
    space = surface.space
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    onb = plane.sub.onb
    lag = abs(space.omega(onb[:, 0], onb[:, 1]))
    containment = float(np.linalg.norm(p - onb @ (onb.T @ p)))
    return max(lag, containment)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _report(suite, trials, seed, failures, max_violation):
    return {
        "suite": suite,
        "trial_count": trials,
        "seed": seed,
        "failures": failures,
        "max_violation": max_violation,
    }


def suite_torus_trichotomy(trials=1000, seed=7):
    """Torus-pair trichotomy: kind vs. eta, carrier signature, and the
    sampled causal character of the intersection curve."""
    rng = make_rng([seed, 1])
    space = einstein.model_space()
    failures = []
    max_violation = 0.0
    band = 1e-6
    expected_sig = {
        IntersectionKind.TIMELIKE_CIRCLE: (1, 2, 0),
        IntersectionKind.SPACELIKE_CIRCLE: (2, 1, 0),
    }
    done = 0
    attempts = _attempts(trials)
    while done < trials:
        next(attempts)
        t1 = EinsteinTorus(random_unit_spacelike(rng))
        t2 = EinsteinTorus(random_unit_spacelike(rng))
        if t1 == t2:
            continue
        cls = einstein.classify_torus_pair(t1, t2)
        if abs(cls.eta - 1.0) < band:
            continue  # declared ambiguity band
        done += 1
        want = (IntersectionKind.SPACELIKE_CIRCLE if cls.eta > 1.0
                else IntersectionKind.TIMELIKE_CIRCLE)
        if cls.kind is not want:
            failures.append(f"trial {done}: kind {cls.kind} vs eta {cls.eta}")
            continue
        sig = space.signature(cls.carrier)
        if sig != expected_sig[cls.kind]:
            failures.append(f"trial {done}: carrier signature {sig} for {cls.kind}")
        probed = probe_intersection_type(t1, t2, 32, rng)
        if probed is not cls.kind:
            failures.append(f"trial {done}: probe {probed} vs {cls.kind}")
        # sampled intersection points lie on both tori
        alphas = rng.uniform(0.0, 2.0 * np.pi, size=4)
        circle, apex = _cone_frame(*space.unit_frame(cls.carrier))
        for phi in alphas:
            x = _cone_point(circle, apex, phi)
            x = x / np.linalg.norm(x)
            res = max(abs(einstein.inner(x, t1.normal)),
                      abs(einstein.inner(x, t2.normal)),
                      abs(einstein.inner(x, x)))
            max_violation = max(max_violation, res)
            if res > EPS_ALG:
                failures.append(f"trial {done}: carrier point off tori by {res:.3e}")
    return _report("torus-trichotomy", trials, seed, failures, max_violation)


_EXACT_E4 = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]


def _exact_plucker(u, v):
    """Pluecker coordinates over exact rationals."""
    return [u[i] * v[j] - u[j] * v[i] for (i, j) in symplectic.PAIRS]


def _exact_nullspace_2x4(rows):
    """Exact rational basis of the nullspace of two independent 4-rows."""
    r1, r2 = [list(r) for r in rows]
    j1 = max(range(4), key=lambda j: abs(r1[j]))
    factor = r2[j1] / r1[j1]
    r2 = [r2[j] - factor * r1[j] for j in range(4)]
    j2 = max((j for j in range(4) if j != j1), key=lambda j: abs(r2[j]))
    basis = []
    for k in range(4):
        if k in (j1, j2):
            continue
        x = [Fraction(0)] * 4
        x[k] = Fraction(1)
        x[j2] = -r2[k] / r2[j2]
        x[j1] = -(r1[k] + r1[j2] * x[j2]) / r1[j1]
        basis.append(x)
    return basis


def eta_bridge_values(split, f):
    """The invariant of (S, graph(f)) along the two mu-based routes.

    Near det(f) = -1 the invariant blows up, and its sensitivity amplifies
    both float cancellation and the 1e-16 structural leakage of a float
    splitting far past any fixed tolerance.  So the splitting is first made
    structurally exact in rational arithmetic (exactly omega-normalized and
    omega-orthogonal summands, seeded from the float ones) and the wedge
    products are then evaluated exactly; only final square roots round.
    Returns (eta_mu, eta_einstein).  Standard basis convention only (the
    bivector products have integer coefficients there).
    """
    space = symplectic.standard_space()
    gram_int = [[int(x) for x in row] for row in space._gram]
    omega_int = [[int(x) for x in row] for row in space.matrix]

    def omega_val(x, y):
        return sum(x[i] * omega_int[i][j] * y[j]
                   for i in range(4) for j in range(4) if omega_int[i][j])

    def wedge(a, b):
        return sum(a[i] * gram_int[i][j] * b[j]
                   for i in range(6) for j in range(6) if gram_int[i][j])

    u = [Fraction(x) for x in split.s_basis[:, 0]]
    v = [Fraction(x) for x in split.s_basis[:, 1]]
    v = [x / omega_val(u, v) for x in v]
    q1, q2 = _exact_nullspace_2x4(
        ([omega_val(u, e) for e in _EXACT_E4],
         [omega_val(v, e) for e in _EXACT_E4]))
    q2 = [x / omega_val(q1, q2) for x in q2]
    fq = [[Fraction(x) for x in row] for row in np.asarray(f, dtype=float)]
    t1 = [u[i] + q1[i] * fq[0][0] + q2[i] * fq[1][0] for i in range(4)]
    t2 = [v[i] + q1[i] * fq[0][1] + q2[i] * fq[1][1] for i in range(4)]

    iota_s = _exact_plucker(u, v)
    iota_t = _exact_plucker(t1, t2)
    w_s = omega_val(u, v)
    w_t = omega_val(t1, t2)
    # mu(A) . mu(B) = iota(A) . iota(B) + (1/2) omega(iota A) omega(iota B);
    # the self-products of the decomposable iotas vanish exactly
    dot = wedge(iota_s, iota_t) + Fraction(1, 2) * w_s * w_t
    norm_s = wedge(iota_s, iota_s) + Fraction(1, 2) * w_s * w_s
    norm_t = wedge(iota_t, iota_t) + Fraction(1, 2) * w_t * w_t
    eta_mu = math.sqrt(float(dot * dot / (norm_s * norm_t)))
    # unit normals in the null-cone model, normalized by the exact norms
    half = Fraction(1, 2)
    mu_s = np.array([float(x + half * w_s * Fraction(o))
                     for x, o in zip(iota_s, space.omega_star)])
    mu_t = np.array([float(x + half * w_t * Fraction(o))
                     for x, o in zip(iota_t, space.omega_star)])
    s1 = space.to_einstein(mu_s) / math.sqrt(float(norm_s))
    s2 = space.to_einstein(mu_t) / math.sqrt(float(norm_t))
    return eta_mu, abs(einstein.inner(s1, s2))


def suite_eta_bridge(trials=1000, seed=7):
    """Determinant route vs. unit-normal route to the torus-pair invariant."""
    rng = make_rng([seed, 2])
    space = symplectic.standard_space()
    failures = []
    max_violation = 0.0
    done = 0
    attempts = _attempts(trials)
    while done < trials:
        next(attempts)
        split = random_splitting(space, rng)
        f = rng.uniform(-2.0, 2.0, size=(2, 2))
        d = symplectic.det_omega(f)
        if abs(d + 1.0) <= 1e-3:
            continue
        done += 1
        eta_det = symplectic.eta_from_det(f)
        eta_mu, eta_ein = eta_bridge_values(split, f)
        diff = max(abs(eta_det - eta_mu), abs(eta_det - eta_ein))
        max_violation = max(max_violation, diff)
        if diff > 1e-9:
            failures.append(f"trial {done}: eta mismatch {diff:.3e} (det {d:.4f})")
        if abs(eta_det - 1.0) > 1e-6:
            t_plane = symplectic.graph(space, f, split)
            n1 = symplectic.torus_from_plane(space, split.s)
            n2 = symplectic.torus_from_plane(space, t_plane)
            kind = einstein.classify_torus_pair(n1, n2).kind
            want = (IntersectionKind.SPACELIKE_CIRCLE if eta_det > 1.0
                    else IntersectionKind.TIMELIKE_CIRCLE)
            if kind is not want:
                failures.append(f"trial {done}: kind {kind} vs eta {eta_det:.4f}")
    return _report("eta-bridge", trials, seed, failures, max_violation)


def suite_symplectic_identities(trials=1000, seed=7):
    """Dual bivector normalization, adjugate identity, complement through
    the reflection, and transversality vs. plain intersection."""
    rng = make_rng([seed, 3])
    space = symplectic.standard_space()
    failures = []
    max_violation = 0.0
    os2 = space.wedge(space.omega_star, space.omega_star)
    if abs(os2 + 2.0) > 1e-12:
        failures.append(f"omega*.omega* = {os2!r}")
    max_violation = max(max_violation, abs(os2 + 2.0))
    for k in range(trials):
        f = rng.uniform(-3.0, 3.0, size=(2, 2))
        res = np.abs(symplectic.adjugate(f) @ f
                     - symplectic.det_omega(f) * np.eye(2)).max()
        max_violation = max(max_violation, res)
        if res > 1e-12:
            failures.append(f"trial {k}: adjugate identity off by {res:.3e}")
        s = random_nondegenerate_plane(space, rng)
        refl = space.reflect_omega_star(space.plucker(s))
        comp = symplectic.symplectic_complement(space, s)
        direct = space.plucker(comp)
        dist = projective_distance(refl, direct)
        max_violation = max(max_violation, dist)
        if dist > 1e-9:
            failures.append(f"trial {k}: reflection/complement distance {dist:.3e}")
        if k % 2 == 0:
            p = Plane2(space, rng.normal(size=(4, 2)))
            q = Plane2(space, rng.normal(size=(4, 2)))
        else:
            shared = rng.normal(size=4)
            p = Plane2(space, np.column_stack([shared, rng.normal(size=4)]))
            q = Plane2(space, np.column_stack([shared, rng.normal(size=4)]))
        bp, bq = space.plucker(p), space.plucker(q)
        wval = abs(space.wedge(bp, bq)) / (np.linalg.norm(bp) * np.linalg.norm(bq))
        trans = space.transverse(p, q)
        dim = symplectic.plane_intersection_dim(p, q)
        if wval > 1e-9 or dim > 0:  # outside the ambiguity band, or provably meeting
            if trans != (dim == 0):
                failures.append(
                    f"trial {k}: transverse {trans} vs dim {dim} (wedge {wval:.3e})")
    for k in range(200):
        l, lp, p = (random_lagrangian(space, rng) for _ in range(3))
        try:
            m = symplectic.maslov(space, l, p, lp)
        except GeometryError:
            continue
        g = random_symplectic(space, rng)
        gl = Plane2(space, g @ l.basis)
        glp = Plane2(space, g @ lp.basis)
        gp = Plane2(space, g @ p.basis)
        if symplectic.maslov(space, gl, gp, glp) != m:
            failures.append(f"trial {k}: maslov not Sp-invariant")
        f = rng.uniform(-2.0, 2.0, size=(2, 2))
        split = random_splitting(space, rng)
        plane = symplectic.graph(space, f, split)
        nondeg = not plane.is_lagrangian
        if abs(symplectic.det_omega(f) + 1.0) > 1e-6:
            if nondeg != (abs(symplectic.det_omega(f) + 1.0) > EPS_ALG):
                failures.append(f"trial {k}: graph degeneracy vs det mismatch")
    return _report("symplectic-identities", trials, seed, failures, max_violation)


def suite_maslov_bridge(trials=1000, seed=7):
    """Maslov index of Lagrangian triples vs. causal type of points."""
    rng = make_rng([seed, 4])
    space = symplectic.standard_space()
    failures = []
    done = 0
    attempts = _attempts(trials)
    while done < trials:
        next(attempts)
        l = random_lagrangian(space, rng)
        lp = random_lagrangian(space, rng)
        if not space.transverse(l, lp):
            continue
        lightlike_trial = done % 3 == 2
        if lightlike_trial:
            x = l.basis @ rng.normal(size=2)
            x /= np.linalg.norm(x)
            base = space.matrix @ x
            r = rng.normal(size=4)
            w = r - (r @ base) / (base @ base) * base
            try:
                p = Plane2.span(space, x, w)
            except GeometryError:
                continue
            if not p.is_lagrangian or p == l:
                continue
        else:
            p = random_lagrangian(space, rng)
        if not space.transverse(p, lp):
            continue
        if p == l or p == lp:
            continue
        done += 1
        try:
            m = abs(symplectic.maslov(space, l, p, lp))
        except GeometryError:
            m = None  # non-transverse to l: lightlike position
        point = symplectic.lagrangian_point(space, p)
        p0 = symplectic.lagrangian_point(space, l)
        pinf = symplectic.lagrangian_point(space, lp)
        causal = einstein.classify_point(point, p0, pinf)
        want = {None: einstein.CausalType.LIGHTLIKE,
                2: einstein.CausalType.TIMELIKE,
                0: einstein.CausalType.SPACELIKE}[m]
        if causal is not want:
            failures.append(f"trial {done}: maslov {m} vs causal {causal}")
    return _report("maslov-bridge", trials, seed, failures, 0.0)


def suite_photon_avoidance(trials=1000, seed=7):
    """Photon-vs-surface sign test against the sampling oracle."""
    rng = make_rng([seed, 5])
    space = symplectic.standard_space()
    failures = []
    max_residual = 0.0
    done = 0
    attempts = _attempts(trials)
    while done < trials:
        next(attempts)
        surface = crooked.CrookedSurface(random_quadrilateral(space, rng))
        p = rng.normal(size=4)
        p /= np.linalg.norm(p)
        m1, m2 = crooked.photon_margins(p, surface)
        if min(abs(m1), abs(m2)) <= 1e-6:
            continue
        done += 1
        verdict = crooked.photon_disjoint(p, surface)
        found, _hits = photon_crossing_oracle(p, surface, samples=10_000)
        if verdict and found is not None:
            failures.append(f"trial {done}: disjoint photon but oracle found a point")
        if not verdict and found is None:
            failures.append(f"trial {done}: meeting photon but oracle found nothing")
        if not verdict:
            witness = crooked.find_crossing_lagrangian(p, surface)
            if witness is None:
                failures.append(f"trial {done}: no constructive witness")
            else:
                res = crossing_residual(p, surface, witness)
                max_residual = max(max_residual, res)
                if res > 1e-9 or crooked.surface_contains(surface, witness) is None:
                    failures.append(f"trial {done}: witness residual {res:.3e}")
    return _report("photon-avoidance", trials, seed, failures, max_residual)


def suite_surface_disjointness(trials=200, seed=7):
    """Sixteen-inequality verdicts against sampled chordal gaps."""
    rng = make_rng([seed, 6])
    space = ads.ads_space()
    std = symplectic.standard_space()
    failures = []
    min_disjoint_gap = math.inf
    for k in range(trials):
        p1, p2 = disjoint_ads_pair(rng)
        c1 = crooked.CrookedSurface(ads.ads_quadrilateral(p1))
        c2 = crooked.CrookedSurface(ads.ads_quadrilateral(p2))
        if not crooked.surfaces_disjoint(c1, c2):
            failures.append(f"disjoint pair {k}: criterion says not disjoint")
            continue
        cloud1 = sample_surface(c1, 320, rng)
        cloud2 = sample_surface(c2, 320, rng)
        gap = min_gap(cloud1, cloud2)
        min_disjoint_gap = min(min_disjoint_gap, gap)
        if gap <= 1e-4:
            failures.append(f"disjoint pair {k}: sampled gap {gap:.3e}")
    for k in range(trials):
        c1, c2, shared = intersecting_surface_pair(std, rng)
        if crooked.surfaces_disjoint(c1, c2):
            failures.append(f"intersecting pair {k}: criterion says disjoint")
        if crooked.surface_contains(c1, shared) is None \
                or crooked.surface_contains(c2, shared) is None:
            failures.append(f"intersecting pair {k}: shared point not on both")
    return _report("surface-disjointness", 2 * trials, seed, failures,
                   min_disjoint_gap)


def suite_stem_only(trials=200, seed=7):
    """Stems never meet alone: every sampled stem-stem contact comes with a
    stem-wing contact."""
    rng = make_rng([seed, 8])
    space = symplectic.standard_space()
    failures = []
    max_wing_gap = 0.0
    detected = 0
    attempts = _attempts(trials)
    while detected < trials:
        next(attempts)
        c1, c2, _shared = stem_crossing_pair(space, rng)
        stem_gap = refined_stem_stem_gap(c1, c2)
        if stem_gap >= 1e-4:
            continue  # proximity not detected; not a conditioning pair
        detected += 1
        wing_gap = min(refined_stem_wing_gap(c1, c2),
                       refined_stem_wing_gap(c2, c1))
        max_wing_gap = max(max_wing_gap, wing_gap)
        if wing_gap >= 1e-4:
            failures.append(
                f"pair {detected}: stems meet (gap {stem_gap:.2e}) but best "
                f"stem-wing gap is {wing_gap:.2e}")
    return _report("stem-only-impossibility", trials, seed, failures, max_wing_gap)


def suite_ads_equivalence(trials=1000, seed=7):
    """Four-inequality, boundary-lift and sixteen-inequality routes agree."""
    rng = make_rng([seed, 7])
    failures = []
    max_violation = 0.0
    skipped = 0
    done = 0
    attempts = _attempts(trials)
    while done < trials:
        next(attempts)
        p1, p2 = random_ads_config(rng)
        margins = ads.ads_margins(p1, p2)
        if min(abs(v) for v in margins.values()) <= 1e-6:
            skipped += 1
            continue
        done += 1
        four = ads.ads_disjoint(p1, p2)
        dgk = ads.dgk_criterion(p1, p2)
        c1 = crooked.CrookedSurface(ads.ads_quadrilateral(p1))
        c2 = crooked.CrookedSurface(ads.ads_quadrilateral(p2))
        sixteen = crooked.surfaces_disjoint(c1, c2)
        if not (four == dgk == sixteen):
            failures.append(
                f"trial {done}: ads {four}, dgk {dgk}, surfaces {sixteen}")
        if four:
            report = crooked.disjointness_report(c1, c2)
            if not all(t.passed for t in report):
                failures.append(f"trial {done}: reduced pass but a full "
                                "inequality fails")
    for k in range(trials):
        a = rng.normal(size=2)
        b = rng.normal(size=2)
        if np.linalg.norm(a) < 1e-3 or np.linalg.norm(b) < 1e-3:
            continue
        g = random_sl2(rng)
        equiv = np.abs(ads.boundary_lift(g @ a)
                       - g @ ads.boundary_lift(a) @ np.linalg.inv(g)).max()
        scale = max(1.0, float(np.abs(ads.boundary_lift(g @ a)).max()))
        max_violation = max(max_violation, equiv / scale)
        if equiv > 1e-12 * scale:
            failures.append(f"equivariance trial {k}: residual {equiv:.3e}")
        residual = abs(ads.omega0(a, b) ** 2
                       + ads.killing(ads.boundary_lift(a), ads.boundary_lift(b)))
        scale = max(1.0, ads.omega0(a, b) ** 2)
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
    if trials is None:
        return SUITES[name](seed=seed)
    return SUITES[name](trials=trials, seed=seed)


def report_lines(reports):
    """JSON-lines serialization of suite reports, stable across runs."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports)
