"""Scalar routes kept as the references that tests compare the package's
stacked kernels against, and the model's constructions that only tests
build."""

import math

import numpy as np

from ein3 import einstein
from ein3 import oracle as O
from ein3.ads import _omega0_cells
from ein3.linalg import (EPS_ALG, EPS_RANK, GeometryError, _intersection_dims, _raise_first,
                         _raise_first_row, _singular, as_vector, nullspace)
from ein3.symplectic import PAIRS, Plane2, _lagrangian_points


def inner(v, w):
    """The model form evaluated on two 5-vectors."""
    return float(as_vector(v, 5) @ einstein.GRAM @ as_vector(w, 5))


def omega(space, x, y):
    """omega(x, y) on vectors of V."""
    return float(as_vector(x, 4) @ space.matrix @ as_vector(y, 4))


def omega0(x, y):
    """The area form on V0: omega0(x, y) = x^T J y."""
    return float(_omega0_cells(as_vector(x, 2), as_vector(y, 2))[0, 0])


def lagrangian_point(space, l):
    """Point of the null-cone model corresponding to a Lagrangian plane."""
    if not l.is_lagrangian:
        raise GeometryError("expected a Lagrangian plane")
    reps, checks = _lagrangian_points(space, l.basis)
    _raise_first(checks)
    return einstein.EinPoint(reps)


def plane_intersection_dim(p, q, eps=EPS_RANK):
    """dim(P cap Q) through plain subspace intersection (no bivectors)."""
    return int(_intersection_dims(p.onb, q.onb, eps))


def intersect(a, b, eps=EPS_RANK):
    """Orthonormal basis of the intersection of the spans of orthonormal
    bases a, b of the same ambient space; its dimension is shape[1].

    Computed from the nullspace of the stacked system [A | -B]: a combination
    A x = B y lies in both spans.
    """
    if a.shape[0] != b.shape[0]:
        raise GeometryError("subspaces live in different ambient dimensions")
    coeffs = nullspace(np.hstack([a, -b]), eps)
    # re-orthonormalize: the combinations can be nearly dependent
    u, rank, _ = _singular(a @ coeffs[:a.shape[1]], eps)
    return u[:, :rank]


def bivector_to_plane(space, b, eps=EPS_ALG):
    """The 2-plane whose Pluecker line contains a decomposable bivector.

    The plane is the column space of the antisymmetric coefficient matrix
    of b, which has rank 2 exactly when b is decomposable (b . b = 0).
    """
    b = as_vector(b, 6)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        raise GeometryError("zero bivector")
    if abs(space.wedge(b, b)) > eps * nb * nb * max(1.0, abs(space.vol_coeff)):
        raise GeometryError(
            f"bivector is not decomposable: b.b = {space.wedge(b, b):.3e}")
    m = np.zeros((4, 4))
    for a, (i, j) in enumerate(PAIRS):
        m[i, j] = b[a]
        m[j, i] = -b[a]
    u, s, _ = np.linalg.svd(m)
    plane = Plane2(space, u[:, :2])
    # sanity: the round trip must reproduce b projectively
    back = space.plucker(plane)
    if abs(abs(back @ b) / (np.linalg.norm(back) * nb) - 1.0) > 1e2 * eps:
        raise GeometryError("bivector does not come from a 2-plane")
    return plane


def minkowski_embed(point):
    """Embed a point (v1, v2, v3) of Minkowski space into the model.

    The image is [(v1, v2, v3, v1^2 + v2^2 - v3^2, 1)], which is null for the
    model form; v3 is the time coordinate.
    """
    v = as_vector(point, 3)
    lorentz_norm = v[0] ** 2 + v[1] ** 2 - v[2] ** 2
    return einstein.EinPoint(np.array([v[0], v[1], v[2], lorentz_norm, 1.0]))


def classify_point(p, p0, pinf, eps=EPS_ALG):
    """Causal type of a point of the Minkowski patch determined by (p0, pinf):
    one row of `einstein._causal_rows`, raising its first failed check."""
    index, checks = einstein._causal_rows(p.rep, p0.rep, pinf.rep, eps)
    _raise_first(checks)
    return einstein._CAUSAL[index]


def torus_normal(normal, eps=EPS_ALG):
    """The unit normal of `EinsteinTorus`, one normal at a time, as its
    constructor took it before `einstein._torus_normals`: Q(s) and |s|^2 of
    s / 2^e, max |s| = m 2^e with 1/2 <= m < 1, the normal spacelike when
    Q(s) > eps |s|^2, and the largest |entry| of the unit normal made
    positive."""
    s = as_vector(normal, 5)
    s = np.ldexp(s, -math.frexp(max(map(abs, s.tolist())))[1])
    q = float(s @ einstein.GRAM @ s)
    n = float(s @ s)
    if q <= eps * n:
        raise GeometryError(
            f"normal must be spacelike, got Q(s)/|s|^2 = {q / n if n else 0.0:.3e}")
    s = s / np.sqrt(q)
    return -s if s[int(np.argmax(np.abs(s)))] < 0 else s


def eta(t1, t2):
    """Invariant |s1 . s2| of a pair of tori with unit spacelike normals."""
    return abs(float(t1.normal @ einstein.GRAM @ t2.normal))


def classify_tori(t1, t2, eps=EPS_ALG):
    """`classify_torus_pair` as it was written per pair before
    `einstein._torus_kinds`, with the equality `EinsteinTorus ==` now takes: normals
    allclose at atol 10 EPS_ALG and eta within 10 EPS_ALG of 1, past 16
    float epsilons of the Euclidean |s1 s2| for rounding, and a photon
    pair's band |eta - 1| <= eps past the same rounding."""
    e = eta(t1, t2)
    rounding = 16 * np.finfo(float).eps * abs(float(t1.normal @ t2.normal))
    if (np.allclose(t1.normal, t2.normal, atol=10 * EPS_ALG)
            and abs(e - 1.0) <= 10 * EPS_ALG + rounding):
        return einstein.IntersectionClass(einstein.IntersectionKind.EQUAL, 1.0)
    if abs(e - 1.0) <= eps + rounding:
        kind = einstein.IntersectionKind.PHOTON_PAIR
    elif e > 1.0:
        kind = einstein.IntersectionKind.SPACELIKE_CIRCLE
    else:
        kind = einstein.IntersectionKind.TIMELIKE_CIRCLE
    return einstein.IntersectionClass(kind, e, (t1.normal, t2.normal))


def probe_intersection_type(t1, t2, n, rng):
    """Sampled classification of the intersection of two distinct tori.

    Solves for the intersection along torus 1's own angles
    (`_intersection_curve`) and classifies the causal character of its
    finite-difference tangents at n sampled points by the sign of the
    form (`_probe_kind`).  Reads neither eta nor the carrier used by
    `einstein.classify_torus_pair`, so it tells tori apart by their unit
    normals alone.
    """
    if np.allclose(t1.normal, t2.normal, atol=10 * EPS_ALG):
        raise GeometryError("probe requires distinct tori")
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=n)
    index, checks = O._probe_kind(O._torus_frame(t1.normal)[None], t2.normal[None], thetas[None])
    _raise_first_row(checks)
    return einstein._KINDS[index[0]]


def photon_crossing_oracle(p, surface):
    """A surface point on the photon of p, found without the sign
    inequalities; None when the photon misses the surface: the one-row
    call of `oracle._photon_crossings`."""
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    w, hit = O._photon_crossings(surface.space, p[None], surface.quad.columns[None])
    return Plane2.span(surface.space, p, w[0]) if hit[0] else None


def unit_points(cloud):
    """The points of a `SampleCloud` over their norms."""
    return cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)


def min_gap(cloud_a, cloud_b):
    """Minimum chordal distance between the projective classes of two
    `SampleCloud`s, by surface-disjointness' kernel `oracle._gap`."""
    if len(cloud_a) == 0 or len(cloud_b) == 0:
        raise GeometryError("min_gap needs nonempty clouds")
    return O._gap(unit_points(cloud_a), unit_points(cloud_b))
