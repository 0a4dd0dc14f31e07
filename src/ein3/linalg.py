"""Small fixed-dimension real linear algebra.

Vectors are plain 1-d numpy arrays, and a subspace is given by an
orthonormal basis of its span (`_column_frames`, or `_plane_frames` for
2-planes of R^4); both return the finiteness and full-rank checks of the
bases as (mask, message) rows, which `_orthonormal_columns` raises for one
object and a suite raises with its others (`_raise_first_row`), as it reports
its failures (`_failed_messages`).  Two spans
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


_NON_FINITE = "vector has non-finite entries"


def as_vector(v, dim=None):
    """Coerce to a finite 1-d float array, optionally of prescribed length."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise GeometryError(f"expected a vector, got array of shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise GeometryError(f"expected a vector of length {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise GeometryError(_NON_FINITE)
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


def _basis_checks(finite, rank, k):
    """The checks of bases of k columns, one or a stack, by their finiteness
    masks and ranks: finite entries, then rank k."""
    return [(~finite, "basis has non-finite entries"),
            (rank < k, lambda i: f"basis matrix has rank {rank[i]} < {k} column(s)")]


def _column_frames(basis):
    """`_singular`'s u[..., :k] of bases (..., n, k), one or a stack, and
    their checks (`_basis_checks`); a basis with a non-finite entry is taken
    as I[:, :k], so that its SVD converges."""
    finite, (n, k) = np.isfinite(basis).all(axis=(-2, -1)), basis.shape[-2:]
    if not finite.all():
        basis = np.where(finite[..., None, None], basis, np.eye(n, k))
    u, rank, _ = _singular(basis, EPS_RANK)
    return u[..., :k], _basis_checks(finite, rank, k)


def _orthonormal_columns(basis):
    """Orthonormal basis of the column span of a matrix, or of each of a
    stack (`_column_frames`), raising the first failed check of the first
    that fails one."""
    onb, checks = _column_frames(basis)
    (_raise_first if basis.ndim == 2 else _raise_first_row)(checks)
    return onb


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


_STAND_IN = np.eye(4)[:, [0, 2]]  # (e1, e3), a Darboux plane of the standard omega


def _plane_frames(bases):
    """(frames, ranks, checks) of bases (..., 4, 2) in closed form, the frames
    and checks as `_column_frames` takes them: the rank by `_plane_values`,
    the frame by Gram-Schmidt twice (Giraud, Langou and Rozloznik, 2005).  A
    row that fails its checks has the frame _STAND_IN, so that later kernels
    read finite numbers."""
    with np.errstate(all="ignore"):
        _, _, rank, x, y = _plane_values(np.swapaxes(bases, -1, -2), 0, 1, EPS_RANK)
        x = x / np.sqrt((x * x).sum(axis=-1, keepdims=True))
        for _ in range(2):
            y = y - x * (x * y).sum(axis=-1, keepdims=True)
        onb = np.stack([x, y / np.sqrt((y * y).sum(axis=-1, keepdims=True))], -1)
    finite = np.isfinite(bases).all(axis=(-2, -1))
    onb[~finite | (rank < 2)] = _STAND_IN
    return onb, rank, _basis_checks(finite, rank, 2)


def _raise_first(checks, i=()):
    """Raise for the first failed check at row i of a stack (or of a one-row
    call): checks are (mask, message or function of the row) in order."""
    for mask, message in checks:
        if np.asarray(mask)[i]:
            raise GeometryError(message if isinstance(message, str) else message(i))


def _failed_rows(checks):
    """The rows of a stack that fail any of its (mask, message) checks, each
    mask indexed by row, its trailing size-1 axes reduced."""
    return np.logical_or.reduce([np.reshape(mask, len(mask)) for mask, _ in checks])


def _failed_messages(checks):
    """The message of every failed check of every row of a stack that fails
    any (`_failed_rows`): row by row, and within a row in the order of
    checks."""
    return [message if isinstance(message, str) else message(i)
            for i in np.flatnonzero(_failed_rows(checks)).tolist()
            for mask, message in checks if np.asarray(mask)[i]]


def _raise_first_row(checks):
    """Raise the first of `_failed_messages`: the first failed check of the
    first row of a stack that fails any."""
    for message in _failed_messages(checks)[:1]:
        raise GeometryError(message)


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


def _frame_pair_values(a, b, eps):
    """Singular values (..., 4), descending, and rank (`_singular`'s rule) of
    [a | b] for orthonormal 2-frames a, b (..., 4, 2) of R^4, in closed form:
    sqrt(1 +- cos t) over the principal angles t of the two spans, the small
    ones as sin t / sqrt(1 + cos t).  The sines are `_plane_values` of b - a
    (a^T b) (Bjorck and Golub, 1973); spans that are equal to the last bit
    have sines 0."""
    rows = np.swapaxes(b - a @ (np.swapaxes(a, -1, -2) @ b), -1, -2)
    with np.errstate(invalid="ignore"):
        s0, s1 = _plane_values(rows, 0, 1, eps)[:2]
    sines = np.where(rows.any(axis=(-2, -1))[..., None], np.stack([s1, s0], -1), 0.0)
    big = np.sqrt(1.0 + np.sqrt(np.maximum(1.0 - sines * sines, 0.0)))
    values = np.concatenate([big, (sines / big)[..., ::-1]], -1)
    return values, (values > eps * values[..., :1]).sum(-1)


def _intersection_dims(a, b, eps=EPS_RANK):
    """dim of the intersection of the spans of orthonormal 2-frames a, b of
    R^4 (of stacked pairs): the nullity of [a | b] (`_frame_pair_values`)."""
    return 4 - _frame_pair_values(a, b, eps)[1]
