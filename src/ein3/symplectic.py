"""Symplectic model of the 3-dimensional Einstein universe.

A 4-dimensional symplectic vector space (V, omega) carries a signature-(3,3)
bilinear form on Lambda^2 V, normalized through the volume element vol with
(omega ^ omega)(vol) = -2.  The kernel W of omega (equivalently, the
orthogonal complement of the dual bivector omega*) inherits a signature-(3,2)
form, and the Pluecker embedding identifies Lagrangian planes with null lines
of W.  Nondegenerate planes correspond, through the projection mu onto W, to
spacelike normals, i.e. to Einstein tori; the invariant of a pair of tori
becomes a determinant of a graph map between the summands of a symplectic
splitting.

Bivectors are stored as length-6 coefficient arrays over the lexicographic
basis e_i ^ e_j, i < j.  The default `SympSpace` uses the basis convention
omega(e1, e3) = omega(e2, e4) = 1 with all other basis products zero; any
nonsingular antisymmetric matrix is accepted, which the anti-de Sitter
specialization relies on.
"""

import functools
import warnings

import numpy as np

from ein3 import einstein
from ein3.linalg import (
    EPS_ALG,
    EPS_RANK,
    GeometryError,
    _frame_pair_values,
    _orthonormal_columns,
    _raise_first,
    _same_spans,
    _singular,
    as_vector,
    inertia,
    nullspace,
    plucker_rows,
)

# lexicographic basis of Lambda^2 R^4
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))  # as `plucker_rows` orders them

# omega(e1,e3) = omega(e2,e4) = 1, everything else zero
STANDARD_OMEGA = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])

# the sign of the permutation (i, j, k, l) of each pair ij of PAIRS and its
# complement kl, the pair at the mirrored place: e_ij ^ e_kl = sign e1234
_HODGE = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def pfaffian4(omega):
    """Pfaffian of a 4x4 antisymmetric matrix, an array or nested lists."""
    return (omega[0][1] * omega[2][3]
            - omega[0][2] * omega[1][3]
            + omega[0][3] * omega[1][2])


class Plane2:
    """A 2-plane in V, tagged Lagrangian or nondegenerate for omega.

    The restriction of a symplectic form to a 2-plane is either identically
    zero (Lagrangian) or nonsingular, so the tag is a true dichotomy.  The
    constructor checks the basis once (a finite 4x2 matrix of rank 2) and
    sets `basis`, its orthonormalized `onb` and the tag `is_lagrangian`,
    decided on `onb` by `_lagrangian`.  Equality is span equality.
    """

    def __init__(self, space, basis):
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (4, 2):
            raise GeometryError("a 2-plane needs a 4x2 basis matrix")
        self.space = space
        self.basis = basis
        self.onb = _orthonormal_columns(basis)
        self.is_lagrangian = bool(_lagrangian(space, self.onb))

    @classmethod
    def span(cls, space, u, v):
        return cls(space, np.column_stack([as_vector(u, 4), as_vector(v, 4)]))

    def normalized_basis(self):
        """Basis (u, v) of the plane rescaled so omega(u, v) = 1.

        Only defined for nondegenerate planes.
        """
        if self.is_lagrangian:
            raise GeometryError("a Lagrangian plane has no omega-normalized basis")
        return _normalized(self.space, self.onb)

    def __eq__(self, other):
        if not isinstance(other, Plane2):
            return NotImplemented
        return bool(_same_spans(self.onb, other.onb))

    def __repr__(self):
        return f"Plane2(lagrangian={self.is_lagrangian}, basis=\n{self.basis})"


def _omega_pairs(space, onb):
    """omega of the two columns of a basis (4, 2), or of each of a stack."""
    return (onb[..., None, :, 0] @ space.matrix @ onb[..., :, 1, None])[..., 0, 0]


def _lagrangian(space, onb):
    """The Lagrangian tag of the planes of orthonormal bases, one (4, 2) or
    a stack: |omega| of the basis within EPS_ALG."""
    return abs(_omega_pairs(space, onb)) <= EPS_ALG


def _normalized(space, onb):
    """(u, v / omega(u, v)) of orthonormal bases (u, v), one or a stack."""
    return np.stack([onb[..., 0], onb[..., 1] / _omega_pairs(space, onb)[..., None]], -1)


class SympSpace:
    """A 4-dimensional symplectic vector space with its exterior algebra.

    Parameters
    ----------
    omega : (4, 4) array-like, optional
        Nonsingular antisymmetric matrix of the form.  Defaults to the
        convention omega(e1,e3) = omega(e2,e4) = 1.

    The constructor derives the volume calibration (the scalar c with
    vol = c * e1^e2^e3^e4 and (omega ^ omega)(vol) = -2), the signature-(3,3)
    product on bivectors, and the dual bivector omega*.
    """

    def __init__(self, omega=None, eps=EPS_RANK):
        if omega is None:
            omega = STANDARD_OMEGA
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (4, 4):
            raise GeometryError("omega must be a 4x4 matrix")
        if not np.allclose(omega, -omega.T, atol=eps):
            raise GeometryError("omega must be antisymmetric")
        pf = pfaffian4(omega)
        if abs(pf) <= eps:
            raise GeometryError("omega must be nonsingular")
        self.matrix = 0.5 * (omega - omega.T)
        # (omega ^ omega) = 2 Pf(omega) e^1^e^2^e^3^e^4, so vol = -e1234 / Pf
        self.vol_coeff = -1.0 / pf
        self._gram = gram = np.fliplr(np.diag(_HODGE)) / self.vol_coeff
        # omega as a linear functional on bivectors
        self._omega_fun = np.array([self.matrix[i, j] for (i, j) in PAIRS])
        self.omega_star = np.linalg.solve(gram, self._omega_fun)

    # -- the form and its extension to bivectors ----------------------------

    def wedge(self, b1, b2):
        """The signature-(3,3) product on bivectors.

        (b1 ^ b2) equals wedge(b1, b2) * vol as elements of Lambda^4.
        """
        return float(as_vector(b1, 6) @ self._gram @ as_vector(b2, 6))

    def in_kernel(self, b, eps=EPS_ALG):
        """Whether a bivector, or each row of a stack, lies in W = Ker(omega)."""
        b = as_vector(b, 6) if np.ndim(b) < 2 else b
        return abs((b[..., None, :] @ self._omega_fun[:, None])[..., 0, 0]) \
            <= eps * np.linalg.norm(b, axis=-1)

    # -- Pluecker machinery --------------------------------------------------

    def plucker(self, plane):
        """Pluecker image u ^ v of a `Plane2` with stored basis (u, v).

        Decomposable (the self-product vanishes); rescaling the basis
        rescales the output.  The plane's basis passed its rank check when
        the plane was built, so none is made here.
        """
        if not isinstance(plane, Plane2):
            raise GeometryError("plucker expects a Plane2")
        return plucker_rows(plane.basis[:, 0], plane.basis[:, 1])

    def transverse(self, p, q, eps=EPS_ALG):
        """Whether two 2-planes intersect trivially.

        P and Q are transverse exactly when the bivector product of their
        Pluecker images is nonzero; evaluated on unit-scale images.
        """
        return bool(self._transversality(self.plucker(p), self.plucker(q)) > eps)

    def _transversality(self, bp, bq):
        """|bp . bq| / (|bp| |bq|) of two Pluecker images, or of stacked rows."""
        wedge = (bp[..., None, :] @ self._gram @ bq[..., :, None])[..., 0, 0]
        return abs(wedge) / (np.linalg.norm(bp, axis=-1) * np.linalg.norm(bq, axis=-1))

    def reflect_omega_star(self, b):
        """Reflection u -> u + (u . omega*) omega*, row by row; fixes W pointwise.

        For a nondegenerate plane S the reflection carries the Pluecker line
        of S to the line of its symplectic complement.
        """
        b, w = (as_vector(b, 6) if np.ndim(b) < 2 else b), self.omega_star
        return b + (b[..., None, :] @ self._gram @ w[:, None])[..., 0] * w

    # -- bridge to the null-cone model ---------------------------------------

    @functools.cached_property
    def bridge(self):
        """(to_ein, from_ein): the isometry of W onto R^{3,2} and back."""
        basis_w = nullspace(self._omega_fun[None, :])  # 6 x 5
        gram_w = basis_w.T @ self._gram @ basis_w
        w, vecs = np.linalg.eigh(gram_w)
        if inertia(w) != (3, 2, 0):
            raise GeometryError("kernel of omega does not have signature (3,2)")
        # columns: orthonormal-indefinite frame of W, negatives first
        frame = basis_w @ (vecs / np.sqrt(np.abs(w)))
        signs = np.where(w > 0, 1.0, -1.0)
        # matching frame in the null-cone model coordinates (x, y, z, u, v)
        ein_frame = np.column_stack([
            np.array([0.0, 0.0, 1.0, 0.0, 0.0]),   # Q = -1
            np.array([0.0, 0.0, 0.0, 1.0, 1.0]),   # Q = -1
            np.array([1.0, 0.0, 0.0, 0.0, 0.0]),   # Q = +1
            np.array([0.0, 1.0, 0.0, 0.0, 0.0]),   # Q = +1
            np.array([0.0, 0.0, 0.0, 1.0, -1.0]),  # Q = +1
        ])
        to_ein = ein_frame @ np.diag(signs) @ frame.T @ self._gram
        from_ein = frame @ np.diag(signs) @ ein_frame.T @ einstein.GRAM
        return to_ein, from_ein

    def to_einstein(self, b, eps=EPS_ALG):
        """Isometry from W onto the null-cone model space R^{3,2}."""
        x, checks = self._to_einstein(as_vector(b, 6), eps)
        _raise_first(checks)
        return x

    def _to_einstein(self, b, eps=EPS_ALG):
        """`to_einstein` over stacked rows: the images, and the check."""
        return (self.bridge[0] @ b[..., None])[..., 0], [
            (~self.in_kernel(b, eps), "bivector is not in the kernel of omega")]

    def __repr__(self):
        return f"SympSpace(omega=\n{self.matrix})"


_STANDARD = SympSpace()


def standard_space():
    """The SympSpace in the fixed basis convention."""
    return _STANDARD


class Splitting:
    """A symplectic direct sum V = S + S-perp of nondegenerate planes.

    Both summands are stored with omega-normalized bases (omega(b1, b2) = 1),
    which the graph construction and the mu projection rely on.
    """

    def __init__(self, space, s, s_perp, eps=EPS_ALG):
        _raise_first(_splitting_checks(space, s.onb, s.is_lagrangian,
                                       s_perp.onb, s_perp.is_lagrangian, eps))
        self.space = space
        self.s = s
        self.s_perp = s_perp
        self.s_basis = s.normalized_basis()
        self.s_perp_basis = s_perp.normalized_basis()

    @classmethod
    def from_plane(cls, space, s, eps=EPS_ALG):
        if s.is_lagrangian:  # raised before its complement, itself, is taken
            raise GeometryError(_DEGENERATE_SUMMANDS)
        return cls(space, s, symplectic_complement(space, s), eps)

    def __repr__(self):
        return f"Splitting(s=\n{self.s_basis}, s_perp=\n{self.s_perp_basis})"


_DEGENERATE_SUMMANDS = "splitting summands must be nondegenerate"


def _splitting_checks(space, s, s_lagrangian, t, t_lagrangian, eps=EPS_ALG):
    """The checks of `Splitting` over stacked orthonormal bases s, t of the
    summands and their tags: nondegenerate, omega-orthogonal, then the rank
    of [s | t] where both hold."""
    nondegenerate = ~(np.asarray(s_lagrangian) | t_lagrangian)
    val = np.abs(np.swapaxes(s, -1, -2) @ space.matrix @ t).max(axis=(-2, -1))
    rank = np.where(nondegenerate & (val <= eps), _frame_pair_values(s, t, EPS_RANK)[1], 4)
    return [(~nondegenerate, _DEGENERATE_SUMMANDS),
            (val > eps, lambda i: f"summands are not omega-orthogonal: omega = {val[i]:.3e}"),
            (rank < 4, lambda i: f"basis matrix has rank {rank[i]} < 4 column(s)")]


def _complements(space, onb):
    """`symplectic_complement` over stacked orthonormal bases: the bases of
    the complements, and the check of their dimension."""
    _, rank, vh = _singular(np.swapaxes(onb, -1, -2) @ space.matrix, EPS_RANK, True)
    return np.swapaxes(vh[..., 2:, :], -1, -2), [
        (rank != 2, "complement is not 2-dimensional")]


def symplectic_complement(space, s):
    """The omega-orthogonal complement of a 2-plane.

    For a nondegenerate plane this is the complementary summand of a
    symplectic splitting; a Lagrangian plane is its own complement, which is
    allowed but flagged with a warning.
    """
    if s.is_lagrangian:
        warnings.warn("symplectic complement of a Lagrangian plane is itself",
                      stacklevel=2)
    comp, checks = _complements(space, s.onb)
    _raise_first(checks)
    return Plane2(space, comp)


def maslov(space, l, p, l_prime, eps=EPS_RANK):
    """Maslov index of a triple of pairwise transverse Lagrangians.

    The splitting V = L + L' defines the quadratic form
    q(v) = omega(pi_L(v), pi_L'(v)); the index is the signature of q
    restricted to P, an integer in {-2, 0, 2}.  Transversality of the triple
    makes the restriction nondegenerate; degenerate inputs are rejected.
    """
    for plane, name in ((l, "L"), (p, "P"), (l_prime, "L'")):
        if not plane.is_lagrangian:
            raise GeometryError(f"{name} is not Lagrangian")
    index, checks = _maslov_rows(space, l.onb, p.onb, l_prime.onb, eps)
    _raise_first(checks)
    return int(index)


def _maslov_rows(space, l, p, l_prime, eps=EPS_RANK):
    """`maslov` over stacked orthonormal bases of Lagrangian triples: the
    indices, and the checks after the tags (a failed row has no index)."""
    m = np.concatenate([l, l_prime], axis=-1)
    apart = _frame_pair_values(l, l_prime, eps)[1] == 4
    # coordinates of P's basis in [L | L'], on the identity where L, L' meet
    coeffs = np.linalg.solve(np.where(apart[..., None, None], m, np.eye(4)), p)
    g = (np.swapaxes(l @ coeffs[..., :2, :], -1, -2) @ space.matrix
         @ (l_prime @ coeffs[..., 2:, :]))  # g[i, j] = omega(pi_L p_i, pi_L' p_j)
    pos, neg, zero = inertia(np.linalg.eigvalsh((g + np.swapaxes(g, -1, -2)) / 2), eps)
    return np.subtract(pos, neg), [
        (~apart, "L and L' are not transverse"),
        (apart & (np.asarray(zero) > 0),
         "restricted form is degenerate: P is not transverse to L and L'")]


_MU_LAGRANGIAN = "mu is not defined on Lagrangian planes (the projection would be null)"


def mu(space, s):
    """Projection of the Pluecker image of a nondegenerate plane onto W.

    With the plane's basis normalized so omega(u, v) = 1, the image is
    iota(S) + (1/2) omega(iota(S)) omega*, a spacelike bivector of square
    1/2; a plane and its symplectic complement have the same image.
    """
    if not isinstance(s, Plane2):
        raise GeometryError("mu expects a Plane2")
    if s.is_lagrangian:
        raise GeometryError(_MU_LAGRANGIAN)
    return _mu_rows(space, s.normalized_basis())


def _mu_rows(space, bases):
    """`mu` of the planes of omega-normalized bases, one (4, 2) or a stack."""
    iota = plucker_rows(bases[..., 0], bases[..., 1])
    w = (iota[..., None, :] @ space._omega_fun[:, None])[..., 0, 0]
    return iota + 0.5 * w[..., None] * space.omega_star


def det_omega(f):
    """Scaling factor Det(f) defined by f*(omega_B) = Det(f) omega_A.

    Equals the plain determinant of the matrix in omega-normalized bases.
    """
    m = np.asarray(f, float)
    d = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return float(d) if d.ndim == 0 else d


def adjugate(f):
    """Adjugate map: the omega-transpose of f.

    matrix rule [[a, b], [c, d]] -> [[d, -b], [-c, a]]; satisfies
    Adj(f) f = Det(f) id, and Adj(f) = Det(f) f^{-1} for invertible f.
    """
    m = np.asarray(f, float)
    return np.stack([np.stack([m[..., 1, 1], -m[..., 0, 1]], -1),
                     np.stack([-m[..., 1, 0], m[..., 0, 0]], -1)], -2)


def graph(space, f, splitting):
    """Graph of f : S -> S-perp as a plane of V.

    Spanned by a + f(a) over the normalized basis of S; transverse to
    S-perp, and nondegenerate exactly when Det(f) != -1 (it is Lagrangian
    at Det(f) = -1).
    """
    basis = splitting.s_basis + splitting.s_perp_basis @ np.asarray(f, float)
    return Plane2(space, basis)


def eta_from_det(f, eps=EPS_ALG):
    """Torus-pair invariant of (S, graph(f)) computed from Det(f), of one f
    or of each of a stack (raising if one has Det(f) = -1, or NaN: inf - inf).

    Equals |1 - Det(f)| / |1 + Det(f)|, the normalized invariant
    |mu(S) . mu(T)| / sqrt((mu(S) . mu(S)) (mu(T) . mu(T))), and 1.0 where
    Det(f) overflows to +-inf, its correctly rounded value (|eta - 1| <= 2 / |Det f|).
    """
    with np.errstate(all="ignore"):  # Det(f) is inf, or inf - inf, or -1, which raises
        d = np.asarray(det_omega(f))
        eta = np.where(np.isinf(d), 1.0, abs(1.0 - d) / abs(1.0 + d))
    if np.any(np.isnan(d) | (abs(1.0 + d) <= eps)):
        raise GeometryError("invariant undefined at Det(f) = -1 or NaN")
    return float(eta) if eta.ndim == 0 else eta


def torus_from_plane(space, s):
    """Einstein torus of the splitting generated by a nondegenerate plane,
    as a unit normal in the null-cone model."""
    m = mu(space, s)
    return einstein.EinsteinTorus(space.to_einstein(m))


def _lagrangian_points(space, bases):
    """The points of the null-cone model of stacked bases of Lagrangian
    planes: the normalized points, and the checks."""
    x, kernel = space._to_einstein(plucker_rows(bases[..., 0], bases[..., 1]))
    reps, null = einstein._null_points(x)
    return reps, kernel + null

