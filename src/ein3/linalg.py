"""Small fixed-dimension real linear algebra.

Vectors are plain 1-d numpy arrays, and a subspace is given by an
orthonormal basis of its span (`_orthonormal_columns`, which also checks
finiteness and full rank, or `_plane_frames` for 2-planes of R^4); two spans
are equal when every column of each basis lies within the rank tolerance of
the other's span (`_same_spans`).
The kernels take a stack of matrices as well as one.  All signature
decisions go through `inertia` of the eigenvalues of a symmetric
(restricted Gram) matrix, which is robust at the dimensions (<= 6) used in
this package.
"""

import math

import numpy as np

# Global numerical policy: one tolerance for algebraic identities (inner
# products that should vanish, normalization residuals) and one for rank /
# zero-eigenvalue decisions.  A predicate whose threshold a caller may set
# takes an optional eps overriding the one it uses.
EPS_ALG = 1e-9
EPS_RANK = 1e-9


class GeometryError(ValueError):
    """An input violates the geometric preconditions of an operation."""


def as_vector(v, dim=None):
    """Coerce to a finite 1-d float array, optionally of prescribed length."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise GeometryError(f"expected a vector, got array of shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise GeometryError(f"expected a vector of length {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise GeometryError("vector has non-finite entries")
    return v


def as_rows(vectors, dim):
    """The vectors, each coerced as `as_vector(v, dim)` coerces it, as the
    rows of one float array; when one fails, `as_vector` raises its error
    for the first that fails."""
    try:
        rows = np.array(vectors, dtype=float)
    except (TypeError, ValueError):
        rows = None
    if (rows is None or rows.shape != (len(vectors), dim)
            or not all(map(math.isfinite, rows.ravel().tolist()))):
        rows = np.array([as_vector(v, dim) for v in vectors])
    return rows


def projective_normalize(v):
    """Canonical representative of the projective class of a nonzero vector
    (of each row of a stack).

    Scales v so that its entry of largest absolute value becomes +1, breaking
    ties at the lowest index.  Idempotent and invariant under nonzero
    rescaling, including sign flips.
    """
    v = as_vector(v) if np.ndim(v) < 2 else np.asarray(v, dtype=float)
    lead = np.take_along_axis(v, np.abs(v).argmax(axis=-1)[..., None], -1)
    if (lead == 0.0).any():
        raise GeometryError("cannot normalize the zero vector")
    return v / lead


def _zero_tol(values, eps):
    """The one zero threshold, eps * max(1, largest |value|), of rank,
    nullspace and inertia; values come sorted, so the largest is at an end.
    A stack keeps its last axis, to broadcast against the values; one set
    of values takes the same maximum on numpy scalars, which is cheaper."""
    if values.ndim == 1:
        return eps * max(1.0, abs(values[0]), abs(values[-1])) if len(values) else eps
    return eps * np.maximum(1.0, np.maximum(abs(values[..., :1]), abs(values[..., -1:])))


def inertia(w, eps=EPS_RANK):
    """Counts (p, q, z) of positive, negative and zero eigenvalues in w,
    sorted as `np.linalg.eigvalsh` returns them (arrays for a stack); zero
    means within eps * max(1, largest |eigenvalue|)."""
    tol = _zero_tol(w, eps)
    p = (w > tol).sum(axis=-1)
    q = (w < -tol).sum(axis=-1)
    counts = p, q, w.shape[-1] - p - q
    return tuple(map(int, counts)) if w.ndim == 1 else counts


def _singular(m, eps, full_matrices=False):
    """SVD (u, rank, vh) of a matrix or a stack, by the zero threshold."""
    u, s, vh = np.linalg.svd(m, full_matrices=full_matrices)
    return u, (s > _zero_tol(s, eps)).sum(axis=-1), vh


def _orthonormal_columns(basis, eps):
    """Orthonormal basis of the column span (of each matrix of a stack, the
    first that fails raising), with a finiteness and a rank check."""
    if not np.isfinite(basis).all():
        raise GeometryError("basis has non-finite entries")
    k = basis.shape[-1]
    if k == 0:
        return basis
    u, rank, _ = _singular(basis, eps)
    short = rank < k
    if short.any():
        raise GeometryError(f"basis matrix has rank {np.ravel(rank)[np.argmax(short)]} "
                            f"< {k} column(s)")
    return u[..., :k]


_PAIR_I, _PAIR_J = np.triu_indices(4, 1)  # (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)


def plucker_rows(u, v):
    """Pluecker coordinates of u ^ v over the last axis: one vector pair, or
    stacked rows of pairs (n x 4 each, n x 6 out)."""
    return u[..., _PAIR_I] * v[..., _PAIR_J] - u[..., _PAIR_J] * v[..., _PAIR_I]


def _plane_values(rows, i, j, eps):
    """Singular values s0 >= s1 and ranks (`_singular`'s rule) of the planes of
    rows i, j (indices or index arrays) of rows (..., k, 4): s0 s1 = |x ^ y| and
    s0^2 + s1^2 = |x|^2 + |y|^2 of x, y (returned last), the rows over their largest
    |entry| (a zero row stays zero), times the larger of the two, so nothing overflows."""
    peaks = np.abs(rows).max(axis=-1)
    units = rows / np.where(peaks == 0.0, 1.0, peaks)[..., None]
    norms, x, y = (units * units).sum(axis=-1), units[..., i, :], units[..., j, :]
    scale = np.maximum(peaks[..., i], peaks[..., j])
    rx, ry = peaks[..., i] / scale, peaks[..., j] / scale
    area = rx * ry * np.linalg.norm(plucker_rows(x, y), axis=-1)
    frob = rx * rx * norms[..., i] + ry * ry * norms[..., j]
    # s0 + s1 and s0 - s1 are the roots of frob + 2 area and frob - 2 area
    s0 = 0.5 * (np.sqrt(frob + 2.0 * area) + np.sqrt(np.maximum(frob - 2.0 * area, 0.0)))
    s0, s1 = scale * s0, scale * (area / s0)
    return s0, s1, (np.stack([s0, s1], -1) > eps * np.maximum(1.0, s0)[..., None]).sum(-1), x, y


def _plane_frames(bases, eps, check=True):
    """(u[..., :2], rank) of `_singular` of bases (..., 4, 2): the rank by
    `_plane_values`, the frame by Gram-Schmidt twice (Giraud, Langou and
    Rozloznik, 2005).  A row of rank < 2 has meaningless columns; with check,
    it sends the stack to `_orthonormal_columns`, which raises its error."""
    with np.errstate(all="ignore"):
        _, _, rank, x, y = _plane_values(np.swapaxes(bases, -1, -2), 0, 1, eps)
        x = x / np.sqrt((x * x).sum(axis=-1, keepdims=True))
        for _ in range(2):
            y = y - x * (x * y).sum(axis=-1, keepdims=True)
        onb = np.stack([x, y / np.sqrt((y * y).sum(axis=-1, keepdims=True))], -1)
    if check and (rank < 2).any():
        onb = _orthonormal_columns(bases, eps)
    return onb, rank


def _raise_first(checks, i=()):
    """Raise for the first failed check at row i of a stack (or of a one-row
    call): checks are (mask, message or function of the row) in order."""
    for mask, message in checks:
        if np.asarray(mask)[i]:
            raise GeometryError(message if isinstance(message, str) else message(i))


def _same_spans(a, b, eps=EPS_RANK):
    """Whether orthonormal bases a, b (of each pair of a stack) span the
    same subspace: every column of each lies within eps of the other's
    span."""
    residuals = np.concatenate([a - b @ (np.swapaxes(b, -1, -2) @ a),
                                b - a @ (np.swapaxes(a, -1, -2) @ b)], axis=-1)
    return (np.linalg.norm(residuals, axis=-2) <= eps).all(axis=-1)


def nullspace(a, eps=EPS_RANK):
    """Orthonormal basis (columns) of the right nullspace of a matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    _, rank, vh = _singular(a, eps, full_matrices=True)
    return vh[rank:].T


def _intersection_dims(a, b, eps=EPS_RANK):
    """dim of the intersection of the spans of orthonormal bases a, b (of
    stacked pairs): rank of a x over (x, y) in null [a | -b]."""
    _, rank, vh = _singular(np.concatenate([a, -b], axis=-1), eps, full_matrices=True)
    null = np.arange(vh.shape[-1]) >= np.asarray(rank)[..., None]
    return _singular(a @ (np.swapaxes(vh, -1, -2)[..., :a.shape[-1], :] * null[..., None, :]),
                     eps)[1]
