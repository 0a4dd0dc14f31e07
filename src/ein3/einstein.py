"""Null-cone model of the 3-dimensional Einstein universe.

The model space is R^{3,2} with coordinates (x, y, z, u, v) and quadratic
form x^2 + y^2 - z^2 - u*v.  Points of the Einstein universe are null lines,
photons are totally isotropic 2-planes, and an Einstein torus is the
projectivized null cone of the hyperplane orthogonal to a unit spacelike
normal.  This convention is the one that makes the standard embedding of
Minkowski space, (v1, v2, v3) -> [(v1, v2, v3, v1^2 + v2^2 - v3^2, 1)],
land on the null cone with improper point (0, 0, 0, 1, 0).
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from ein3.linalg import (
    EPS_ALG,
    EPS_RANK,
    GeometryError,
    _orthonormal_columns,
    _raise_first,
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


def _complement_onb(onb):
    """Orthonormal basis of the GRAM-orthogonal complement of the span of an
    orthonormal basis (5, k), or of each of a stack: a nullspace of dim
    5 - k, as GRAM is nonsingular."""
    vh = np.linalg.svd(np.swapaxes(onb, -1, -2) @ GRAM)[2]
    return _orthonormal_columns(np.swapaxes(vh[..., onb.shape[-1]:, :], -1, -2), EPS_RANK)


def _signatures(onb, eps=EPS_RANK):
    """Inertia (p, q, z) of the form on the span of an orthonormal basis
    (arrays for a stack)."""
    return inertia(np.linalg.eigvalsh(np.swapaxes(onb, -1, -2) @ GRAM @ onb), eps)


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
        self.rep, checks = _null_points(as_vector(rep, 5), eps)
        _raise_first(checks)

    def __eq__(self, other):
        if not isinstance(other, EinPoint):
            return NotImplemented
        return bool(_close(self.rep, other.rep))

    def __repr__(self):
        return f"EinPoint({np.array2string(self.rep, precision=6)})"


def _null_points(reps, eps=EPS_ALG):
    """`EinPoint` over stacked rows: normalized rows, and the null check
    |Q(u)| <= eps of each unit row u."""
    def message(i):
        return f"representative is not null: Q(v) = {u[i] @ GRAM @ u[i]:.3e}"
    norms = np.linalg.norm(reps, axis=-1, keepdims=True)
    if (norms == 0.0).any():
        raise GeometryError("zero vector has no causal type")
    u = reps / norms
    null = abs(((u @ GRAM) * u).sum(axis=-1)) <= eps
    return projective_normalize(reps), [(~null, message)]


def _close(a, b):
    """np.allclose(a, b, atol=10 * EPS_ALG) for validated finite vectors (rows
    of a stack), as numpy's own test |a - b| <= atol + rtol |b|, rtol = 1e-5."""
    return (np.abs(a - b) <= 10 * EPS_ALG + 1e-5 * np.abs(b)).all(axis=-1)


class EinsteinTorus:
    """An Einstein torus: the hyperplane orthogonal to a spacelike normal,
    stored unit (Q(s) = 1) and sign-canonicalized (`_torus_normals`)."""

    def __init__(self, normal, eps=EPS_ALG):
        self.normal, checks = _torus_normals(as_vector(normal, 5), eps)
        _raise_first(checks)

    def __eq__(self, other):
        if not isinstance(other, EinsteinTorus):
            return NotImplemented
        return _KINDS[_torus_kinds(self.normal, other.normal)[0]] is IntersectionKind.EQUAL

    def __repr__(self):
        return f"EinsteinTorus({np.array2string(self.normal, precision=6)})"


def _torus_normals(normals, eps=EPS_ALG):
    """`EinsteinTorus` over stacked rows (..., 5): the unit normals, signed
    as `projective_normalize` signs a row (largest |entry| positive), and
    the check that each is spacelike, Q(s) > eps |s|^2, a test that does not
    depend on the scale of s.  Q(s), |s|^2 and the unit normal are taken of
    s / 2^e, max |s| = m 2^e with 1/2 <= m < 1: the power of two is exact,
    so no Q(s) overflows or underflows and the unit normal is that of s."""
    s = np.ldexp(normals, -np.frexp(np.abs(normals).max(-1, keepdims=True))[1])
    q = (s[..., None, :] @ GRAM @ s[..., :, None])[..., 0, 0]
    n = (s[..., None, :] @ s[..., :, None])[..., 0, 0]
    spacelike = q > eps * n
    units = s / np.sqrt(np.where(spacelike, q, 1.0))[..., None]
    lead = np.take_along_axis(units, np.abs(units).argmax(-1)[..., None], -1)
    return np.where(lead < 0, -units, units), [(~spacelike, lambda i: (
        f"normal must be spacelike, got Q(s)/|s|^2 = {q[i] / n[i] if n[i] else 0.0:.3e}"))]


# the kinds `_torus_kinds` indexes, and which of them are circles
_KINDS = (IntersectionKind.EQUAL, IntersectionKind.PHOTON_PAIR,
          IntersectionKind.SPACELIKE_CIRCLE, IntersectionKind.TIMELIKE_CIRCLE)
_CIRCLES = np.array([kind.name.endswith("_CIRCLE") for kind in _KINDS])


def _torus_kinds(s1, s2, eps=EPS_ALG):
    """`classify_torus_pair` over stacked unit-normal rows: indices into
    _KINDS, and eta = |s1 . s2| (1 for equal tori).  Tori are equal when
    `_close` holds and eta is within 10 EPS_ALG of 1, past its rounding (< 4
    float epsilons |s1| |s2| for equal normals, taken as 2^-48, 16 epsilons,
    of the Euclidean s1 s2): `_close` alone holds distinct tori of entries ~1e4 equal.
    A photon pair's band, |eta - 1| <= eps, carries the same rounding (of
    |s1 s2|, which may be negative there), as it passes 1e-9 once the
    entries reach ~1e4."""
    e = abs(s1[..., None, :] @ GRAM @ s2[..., :, None])[..., 0, 0]
    gap, rounding = abs(e - 1.0), 2.0 ** -48 * abs(s1[..., None, :] @ s2[..., :, None])[..., 0, 0]
    equal = _close(s1, s2) & (gap <= 10 * EPS_ALG + rounding)
    kinds = np.where(gap <= eps + rounding, 1, np.where(e > 1.0, 2, 3))
    return np.where(equal, 0, kinds), np.where(equal, 1.0, e)


@dataclass
class IntersectionClass:
    """Classification of the intersection of two Einstein tori.

    `normals` holds the two unit normals (None for EQUAL), from which
    `_carrier_signatures` reads the carrier: the kind and eta need no SVD.
    """
    kind: IntersectionKind
    eta: float
    normals: Optional[tuple] = field(default=None, repr=False, compare=False)


def _carrier_signatures(n1, n2):
    """Inertia arrays (p, q, z) of the carriers of stacked normal rows, or
    the inertia of one pair's carrier."""
    return _signatures(_complement_onb(_orthonormal_columns(np.stack([n1, n2], -1), EPS_RANK)))


def _incident(a, b, eps=EPS_ALG):
    """`incident` over stacked rows of null representatives."""
    a = a / np.linalg.norm(a, axis=-1, keepdims=True)
    b = b / np.linalg.norm(b, axis=-1, keepdims=True)
    return abs(((a @ GRAM) * b).sum(axis=-1)) <= eps


def incident(p, q, eps=EPS_ALG):
    """Whether two points lie on a common photon.

    Both representatives are null, so incidence is equivalent to their span
    being totally isotropic, i.e. to the inner product vanishing.
    """
    return bool(_incident(p.rep, q.rep, eps))


_CAUSAL = (CausalType.LIGHTLIKE, CausalType.TIMELIKE, CausalType.SPACELIKE)


def _causal_rows(p, p0, pinf, eps=EPS_ALG):
    """Causal types of stacked rows of points p of the Minkowski patch of
    (p0, pinf): indices into _CAUSAL (lightlike when incident to p0, else
    by the signature of span{p, p0, pinf}: (1,2) timelike, (2,1)
    spacelike), and the checks in order (a span's rank check raises here)."""
    no_patch = _incident(p0, pinf, eps)
    same = _close(p, p0) | _close(p, pinf)
    lightlike = _incident(p, p0, eps)
    outside = _incident(p, pinf, eps) & ~lightlike
    placed = ~(no_patch | same | lightlike | outside)
    sig = np.zeros(np.shape(placed) + (3,), dtype=int)
    onb = _orthonormal_columns(np.stack([p, p0, pinf], axis=-1)[placed], EPS_RANK)
    sig[placed] = np.stack(_signatures(onb), -1)
    timelike = (sig == (1, 2, 0)).all(axis=-1)
    spacelike = (sig == (2, 1, 0)).all(axis=-1)
    return np.where(lightlike, 0, np.where(timelike, 1, 2)), [
        (no_patch, "p0 and pinf are incident: no Minkowski patch"),
        (same, "point coincides with a reference point"),
        (outside, "point lies on the light cone of pinf, outside the Minkowski patch"),
        (placed & ~(timelike | spacelike),
         lambda i: f"degenerate configuration, span signature {tuple(sig[i].tolist())}")]


def classify_torus_pair(t1, t2, eps=EPS_ALG):
    """Classify the intersection of two Einstein tori.

    Distinct tori always intersect, in exactly one of three shapes decided by
    the invariant eta = |s1 . s2|:

    * eta < 1: a timelike circle (carrier signature (1,2)),
    * eta > 1: a spacelike circle (carrier signature (2,1)),
    * eta = 1: a pair of photons meeting in one point (degenerate carrier).

    The carrier is the 3-dimensional orthogonal complement of span{s1, s2}
    (its signature is `_carrier_signatures` of the normals); the
    intersection is the projectivized null cone of the carrier.  Equal tori
    are reported separately, with eta = 1 (`_torus_kinds`).
    """
    index, e = _torus_kinds(t1.normal, t2.normal, eps)
    kind = _KINDS[index]
    return IntersectionClass(kind, float(e), None if kind is IntersectionKind.EQUAL
                             else (t1.normal, t2.normal))


def reflect(s, v):
    """Orthogonal reflection of v in a non-null vector s.

    R_s(v) = v - 2 (v.s / s.s) s; an involution fixing s-perp pointwise.
    """
    s = as_vector(s, 5)
    v = as_vector(v, 5)
    ss = float(s @ GRAM @ s)
    if abs(ss) <= EPS_ALG * float(s @ s):
        raise GeometryError("cannot reflect in a null vector")
    return v - 2.0 * (float(v @ GRAM @ s) / ss) * s


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
    span = _orthonormal_columns(np.column_stack([p.rep, p0.rep, pinf.rep]), EPS_RANK)
    return _signatures(_complement_onb(span), eps) == (2, 0, 0)
