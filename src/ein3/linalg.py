"""Small fixed-dimension real linear algebra over bilinear form spaces.

Vectors are plain 1-d numpy arrays.  A subspace is the column span of a
full-rank matrix; two subspaces are equal when their spans coincide up to
the rank tolerance.  All signature decisions go through a symmetric
eigendecomposition of the restricted Gram matrix, which is robust at the
dimensions (<= 6) used in this package.
"""

import math

import numpy as np

# Global numerical policy: one tolerance for algebraic identities (inner
# products that should vanish, normalization residuals) and one for rank /
# zero-eigenvalue decisions.  Predicates in the rest of the package take an
# optional eps overriding these.
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
    """Canonical representative of the projective class of a nonzero vector.

    Scales v so that its entry of largest absolute value becomes +1, breaking
    ties at the lowest index.  Idempotent and invariant under nonzero
    rescaling, including sign flips.
    """
    v = as_vector(v)
    i = int(np.argmax(np.abs(v)))
    if v[i] == 0.0:
        raise GeometryError("cannot normalize the zero vector")
    return v / v[i]


def _zero_tol(values, eps):
    """The one zero threshold, eps * max(1, largest |value|), of rank,
    nullspace and inertia; values come sorted, so the largest is at an end."""
    return eps * max(1.0, abs(values[0]), abs(values[-1])) if len(values) else eps


def inertia(w, eps=EPS_RANK):
    """Counts (p, q, z) of positive, negative and zero eigenvalues in w,
    sorted as `np.linalg.eigvalsh` returns them; zero means within
    eps * max(1, largest |eigenvalue|)."""
    tol = _zero_tol(w, eps)
    p = int(np.sum(w > tol))
    q = int(np.sum(w < -tol))
    return p, q, len(w) - p - q


def _range_basis(m, eps):
    """Orthonormal basis of the column space of m: the left singular vectors
    whose singular values are above the zero threshold."""
    if m.shape[1] == 0:
        return m
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :int(np.sum(s > _zero_tol(s, eps)))]


def _orthonormal_columns(basis, eps):
    """Orthonormal basis of the column span, with a finiteness and a rank
    check."""
    if not np.isfinite(basis).all():
        raise GeometryError("basis has non-finite entries")
    onb = _range_basis(basis, eps)
    rank, k = onb.shape[1], basis.shape[1]
    if rank < k:
        raise GeometryError(
            f"basis matrix has rank {rank} < {k} column(s)")
    return onb


class Subspace:
    """Column span of a full-column-rank basis matrix.

    Parameters
    ----------
    basis : (n, k) array-like
        Columns spanning the subspace.  k = 0 gives the zero subspace.

    Equality is span equality: two Subspaces compare equal when each is
    contained in the other within the rank tolerance.
    """

    def __init__(self, basis, eps=EPS_RANK):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim == 1:
            basis = basis[:, None]
        if basis.ndim != 2:
            raise GeometryError("basis must be a matrix of column vectors")
        self.basis = basis
        self.onb = _orthonormal_columns(basis, eps)

    @classmethod
    def span(cls, *vectors):
        """Subspace spanned by the given vectors (columns)."""
        cols = [as_vector(v) for v in vectors]
        return cls(np.column_stack(cols))

    @classmethod
    def zero(cls, ambient_dim):
        return cls(np.zeros((ambient_dim, 0)))

    @property
    def dim(self):
        return self.onb.shape[1]

    @property
    def ambient_dim(self):
        return self.onb.shape[0]

    def contains_vector(self, v, eps=EPS_RANK):
        v = as_vector(v, self.ambient_dim)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return True
        residual = v - self.onb @ (self.onb.T @ v)
        return np.linalg.norm(residual) <= eps * nv

    def contains(self, other, eps=EPS_RANK):
        return all(self.contains_vector(other.onb[:, j], eps)
                   for j in range(other.dim))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.dim == other.dim
                and self.contains(other) and other.contains(self))

    def __hash__(self):  # spans are not hashable in a useful way
        raise TypeError("Subspace is unhashable; compare spans with ==")

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class QuadSpace:
    """Real vector space with a nondegenerate symmetric bilinear form.

    Parameters
    ----------
    gram : (n, n) array-like
        Symmetric nonsingular Gram matrix of the form.
    """

    def __init__(self, gram, eps=EPS_RANK):
        gram = np.asarray(gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise GeometryError("gram must be a square matrix")
        if not np.allclose(gram, gram.T, atol=eps):
            raise GeometryError("gram matrix must be symmetric")
        if abs(np.linalg.det(gram)) <= eps:
            raise GeometryError("gram matrix must be nonsingular")
        self.gram = 0.5 * (gram + gram.T)
        self.dim = gram.shape[0]

    def inner(self, v, w):
        """Evaluate the bilinear form on a pair of vectors."""
        v = as_vector(v, self.dim)
        w = as_vector(w, self.dim)
        return float(v @ self.gram @ w)

    def is_null(self, v, eps=EPS_ALG):
        v = as_vector(v, self.dim)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise GeometryError("zero vector has no causal type")
        u = v / nv
        return abs(u @ self.gram @ u) <= eps

    def restricted_gram(self, sub):
        b = sub.onb
        return b.T @ self.gram @ b

    def signature(self, sub=None, eps=EPS_RANK):
        """Inertia (p, q, z) of the form restricted to a subspace.

        Returns the number of positive, negative and (within tolerance) zero
        eigenvalues of the restricted Gram matrix; p + q + z = dim(sub).
        A degenerate restriction (z > 0) is a legal output.
        """
        if sub is None:
            g = self.gram
        else:
            if sub.ambient_dim != self.dim:
                raise GeometryError("subspace has wrong ambient dimension")
            g = self.restricted_gram(sub)
        return inertia(np.linalg.eigvalsh(g), eps)

    def unit_frame(self, sub, eps=EPS_RANK):
        """Ascending eigenvalues w of the form on a subspace, with the
        matching eigenvectors in ambient coordinates scaled to |Q| = 1
        (columns of zero eigenvalues keep unit length)."""
        w, vecs = np.linalg.eigh(self.restricted_gram(sub))
        scale = np.where(np.abs(w) > _zero_tol(w, eps), np.sqrt(np.abs(w)), 1.0)
        return w, (sub.onb @ vecs) / scale

    def orthogonal_complement(self, sub, eps=EPS_RANK):
        """All vectors orthogonal (for the form) to a subspace."""
        if sub.ambient_dim != self.dim:
            raise GeometryError("subspace has wrong ambient dimension")
        if sub.dim == 0:
            return Subspace(np.eye(self.dim))
        return Subspace(nullspace(sub.onb.T @ self.gram, eps))


def nullspace(a, eps=EPS_RANK):
    """Orthonormal basis (columns) of the right nullspace of a matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return vh[int(np.sum(s > _zero_tol(s, eps))):].T


def intersect(a, b, eps=EPS_RANK):
    """Intersection of two subspaces of the same ambient space.

    Computed from the nullspace of the stacked system [A | -B]: a combination
    A x = B y lies in both spans.
    """
    if a.ambient_dim != b.ambient_dim:
        raise GeometryError("subspaces live in different ambient dimensions")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = np.hstack([a.onb, -b.onb])
    coeffs = nullspace(stacked, eps)
    if coeffs.shape[1] == 0:
        return Subspace.zero(a.ambient_dim)
    # re-orthonormalize: the combinations can be nearly dependent
    return Subspace(_range_basis(a.onb @ coeffs[:a.dim], eps))


def span_union(a, b, eps=EPS_RANK):
    """Smallest subspace containing both arguments."""
    if a.ambient_dim != b.ambient_dim:
        raise GeometryError("subspaces live in different ambient dimensions")
    return Subspace(_range_basis(np.hstack([a.onb, b.onb]), eps))
