"""Null-cone model of the 3-dimensional Einstein universe.

The model space is R^{3,2} with coordinates (x, y, z, u, v) and quadratic
form x^2 + y^2 - z^2 - u*v.  Points of the Einstein universe are null lines,
photons are totally isotropic 2-planes, and an Einstein torus is the
projectivized null cone of the hyperplane orthogonal to a unit spacelike
normal.  This convention is the one that makes the standard embedding of
Minkowski space (see `minkowski_embed`) land on the null cone with improper
point (0, 0, 0, 1, 0).
"""

import cmath
import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from ein3.linalg import (
    EPS_ALG,
    EPS_RANK,
    GeometryError,
    QuadSpace,
    Subspace,
    as_vector,
    inertia,
    projective_normalize,
)

# Gram matrix of x^2 + y^2 - z^2 - u*v
GRAM = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, -1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, -0.5],
    [0.0, 0.0, 0.0, -0.5, 0.0],
])

_SPACE = QuadSpace(GRAM)


def model_space():
    """The fixed signature-(3,2) form space housing the model."""
    return _SPACE


def inner(v, w):
    """The model form evaluated on two 5-vectors."""
    return _SPACE.inner(v, w)


class CausalType(Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"


class IntersectionKind(Enum):
    PHOTON_PAIR = "photon_pair"
    SPACELIKE_CIRCLE = "spacelike_circle"
    TIMELIKE_CIRCLE = "timelike_circle"
    EQUAL = "equal"


class EinPoint:
    """A point of the Einstein universe: a null line, stored by a canonical
    projectively normalized representative."""

    def __init__(self, rep, eps=EPS_ALG):
        rep = as_vector(rep, 5)
        if not _SPACE.is_null(rep, eps):
            u = rep / np.linalg.norm(rep)
            raise GeometryError(
                f"representative is not null: Q(v) = {u @ GRAM @ u:.3e}")
        self.rep = projective_normalize(rep)

    def __eq__(self, other):
        if not isinstance(other, EinPoint):
            return NotImplemented
        return _close(self.rep, other.rep)

    def __repr__(self):
        return f"EinPoint({np.array2string(self.rep, precision=6)})"


class PhotonW:
    """A photon: the projectivization of a totally isotropic 2-plane."""

    def __init__(self, plane, eps=EPS_RANK):
        if plane.ambient_dim != 5 or plane.dim != 2:
            raise GeometryError("a photon is spanned by a 2-plane in the model space")
        if _SPACE.signature(plane, eps) != (0, 0, 2):
            raise GeometryError("plane is not totally isotropic")
        self.plane = plane

    def __eq__(self, other):
        if not isinstance(other, PhotonW):
            return NotImplemented
        return self.plane == other.plane

    def __repr__(self):
        return f"PhotonW({np.array2string(self.plane.onb, precision=6)})"


def _close(a, b):
    """np.allclose(a, b, atol=10 * EPS_ALG) for two validated finite
    vectors, as numpy's own test |a - b| <= atol + rtol |b|, rtol = 1e-5."""
    return bool((np.abs(a - b) <= 10 * EPS_ALG + 1e-5 * np.abs(b)).all())


def _canonical_sign(v):
    # same sign rule as projective_normalize: largest-|entry| becomes positive
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


class EinsteinTorus:
    """An Einstein torus: the hyperplane orthogonal to a spacelike normal.

    The normal is stored unit (Q(s) = 1) and sign-canonicalized, so equal
    tori have equal normals.  It is spacelike when Q(s) > eps |s|^2, a test
    that does not depend on the scale of s.
    """

    def __init__(self, normal, eps=EPS_ALG):
        s = as_vector(normal, 5)
        q = float(s @ GRAM @ s)
        if q <= eps * float(s @ s):
            raise GeometryError(f"normal must be spacelike, got Q(s) = {q:.3e}")
        self.normal = _canonical_sign(s / np.sqrt(q))

    def __eq__(self, other):
        if not isinstance(other, EinsteinTorus):
            return NotImplemented
        return _close(self.normal, other.normal)

    def hyperplane(self):
        """The 4-dimensional subspace whose null cone projectivizes to the torus."""
        return _SPACE.orthogonal_complement(Subspace.span(self.normal))

    def __repr__(self):
        return f"EinsteinTorus({np.array2string(self.normal, precision=6)})"


@dataclass
class IntersectionClass:
    """Classification of the intersection of two Einstein tori.

    `normals` holds the two unit normals (None for EQUAL).  `carrier`, the
    3-dimensional orthogonal complement of their span (None for EQUAL), is
    computed on first read: the kind and eta need no SVD.
    """
    kind: IntersectionKind
    eta: float
    normals: Optional[tuple] = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def carrier(self) -> Optional[Subspace]:
        if self.normals is None:
            return None
        return _SPACE.orthogonal_complement(Subspace.span(*self.normals))


def minkowski_embed(point):
    """Embed a point (v1, v2, v3) of Minkowski space into the model.

    The image is [(v1, v2, v3, v1^2 + v2^2 - v3^2, 1)], which is null for the
    model form; v3 is the time coordinate.
    """
    v = as_vector(point, 3)
    lorentz_norm = v[0] ** 2 + v[1] ** 2 - v[2] ** 2
    return EinPoint(np.array([v[0], v[1], v[2], lorentz_norm, 1.0]))


def improper_point():
    """The vertex of the light cone at infinity of the standard patch."""
    return EinPoint(np.array([0.0, 0.0, 0.0, 1.0, 0.0]))


def incident(p, q, eps=EPS_ALG):
    """Whether two points lie on a common photon.

    Both representatives are null, so incidence is equivalent to their span
    being totally isotropic, i.e. to the inner product vanishing.
    """
    a = p.rep / np.linalg.norm(p.rep)
    b = q.rep / np.linalg.norm(q.rep)
    return abs(inner(a, b)) <= eps


def light_cone(p):
    """The degenerate hyperplane p-perp; its null cone is the union of all
    photons through p."""
    return _SPACE.orthogonal_complement(Subspace.span(p.rep))


def classify_point(p, p0, pinf, eps=EPS_ALG):
    """Causal type of a point of the Minkowski patch determined by (p0, pinf).

    A point is lightlike when it is incident to p0; otherwise the signature
    of span{p, p0, pinf} decides: (1,2) timelike, (2,1) spacelike.

    Raises
    ------
    GeometryError
        If p0 and pinf are incident (no Minkowski patch), if p coincides
        with p0 or pinf, or if p lies on the light cone of pinf (outside
        the patch).
    """
    if incident(p0, pinf, eps):
        raise GeometryError("p0 and pinf are incident: no Minkowski patch")
    if p == p0 or p == pinf:
        raise GeometryError("point coincides with a reference point")
    if incident(p, p0, eps):
        return CausalType.LIGHTLIKE
    if incident(p, pinf, eps):
        raise GeometryError(
            "point lies on the light cone of pinf, outside the Minkowski patch")
    sig = _SPACE.signature(Subspace.span(p.rep, p0.rep, pinf.rep))
    if sig == (1, 2, 0):
        return CausalType.TIMELIKE
    if sig == (2, 1, 0):
        return CausalType.SPACELIKE
    raise GeometryError(f"degenerate configuration, span signature {sig}")


def eta(t1, t2):
    """Invariant |s1 . s2| of a pair of tori with unit spacelike normals.

    Symmetric, and independent of the sign choices of the normals.
    """
    return abs(float(t1.normal @ GRAM @ t2.normal))


def classify_torus_pair(t1, t2, eps=EPS_ALG):
    """Classify the intersection of two Einstein tori.

    Distinct tori always intersect, in exactly one of three shapes decided by
    the invariant eta = |s1 . s2|:

    * eta < 1: a timelike circle (carrier signature (1,2)),
    * eta > 1: a spacelike circle (carrier signature (2,1)),
    * eta = 1: a pair of photons meeting in one point (degenerate carrier).

    The carrier is the 3-dimensional orthogonal complement of span{s1, s2},
    built when it is first read; the intersection is the projectivized null
    cone of the carrier.  Equal tori are reported separately (eta would be 1
    there too).
    """
    if t1 == t2:
        return IntersectionClass(IntersectionKind.EQUAL, 1.0)
    e = eta(t1, t2)
    if abs(e - 1.0) <= eps:
        kind = IntersectionKind.PHOTON_PAIR
    elif e > 1.0:
        kind = IntersectionKind.SPACELIKE_CIRCLE
    else:
        kind = IntersectionKind.TIMELIKE_CIRCLE
    return IntersectionClass(kind, e, (t1.normal, t2.normal))


def photon_pair_from_degenerate(carrier, eps=EPS_RANK):
    """The two photons inside a degenerate signature-(1,1,1) carrier.

    The null cone of such a 3-space is the union of two isotropic planes
    meeting in the radical line; the planes are returned as photons.
    """
    if carrier.dim != 3:
        raise GeometryError("carrier must be 3-dimensional")
    w, frame = _SPACE.unit_frame(carrier, eps)
    sig = inertia(w, eps)
    if sig != (1, 1, 1):
        raise GeometryError(f"carrier does not have signature (1,1,1): inertia {sig}")
    # ascending eigenvalues: negative, zero (the radical), positive
    b, r, a = frame.T
    return (PhotonW(Subspace.span(a + b, r)),
            PhotonW(Subspace.span(a - b, r)))


def reflect(s, v):
    """Orthogonal reflection of v in a non-null vector s.

    R_s(v) = v - 2 (v.s / s.s) s; an involution fixing s-perp pointwise.
    """
    s = as_vector(s, 5)
    v = as_vector(v, 5)
    ss = inner(s, s)
    if abs(ss) <= EPS_ALG * float(s @ s):
        raise GeometryError("cannot reflect in a null vector")
    return v - 2.0 * (inner(v, s) / ss) * s


def composition_eigenvalues(s1, s2):
    """Nontrivial eigenvalue pair of the composed reflections R_s1 R_s2.

    For unit spacelike s1, s2 with k = s1 . s2, the two eigenvalues on
    span{s1, s2} are 2k^2 - 1 +/- 2k sqrt(k^2 - 1): real and distinct for
    |k| > 1, unit-modulus complex conjugates for |k| < 1, a double 1 at
    |k| = 1.  Their product is always 1.
    """
    s1 = as_vector(s1, 5)
    s2 = as_vector(s2, 5)
    k = inner(s1, s2)
    root = cmath.sqrt(complex(k * k - 1.0))
    base = 2.0 * k * k - 1.0
    return (base + 2.0 * k * root, base - 2.0 * k * root)


def composition_matrix(s1, s2):
    """Matrix of R_s1 R_s2 restricted to span{s1, s2} in the basis (s1, s2)."""
    k = inner(as_vector(s1, 5), as_vector(s2, 5))
    return np.array([[4.0 * k * k - 1.0, 2.0 * k],
                     [-2.0 * k, -1.0]])


def triple_lightcone_empty(p, p0, pinf, eps=EPS_RANK):
    """Whether the light cones of p, p0, pinf have empty common intersection.

    True exactly when the orthogonal complement of span{p, p0, pinf} is
    positive definite, which happens exactly when p is timelike with respect
    to (p0, pinf).
    """
    if p == p0 or p == pinf or p0 == pinf:
        raise GeometryError("points must be pairwise distinct")
    if incident(p, p0) and incident(p, pinf):
        raise GeometryError(
            "degenerate configuration: p is incident to both p0 and pinf")
    span = Subspace.span(p.rep, p0.rep, pinf.rep)
    if span.dim < 3:
        raise GeometryError("reference points do not span a 3-space")
    comp = _SPACE.orthogonal_complement(span)
    return _SPACE.signature(comp, eps) == (2, 0, 0)
