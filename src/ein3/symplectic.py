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
from enum import Enum

import numpy as np

from ein3 import einstein
from ein3.linalg import (
    EPS_ALG,
    EPS_RANK,
    GeometryError,
    Subspace,
    as_vector,
    inertia,
    intersect,
    nullspace,
)

# lexicographic basis of Lambda^2 R^4
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_I, _PAIR_J = np.array(PAIRS).T

# omega(e1,e3) = omega(e2,e4) = 1, everything else zero
STANDARD_OMEGA = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])

_EPSILON4 = {}  # sign table of 4-permutations


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


for _a, (_i, _j) in enumerate(PAIRS):
    for _b, (_k, _l) in enumerate(PAIRS):
        if len({_i, _j, _k, _l}) == 4:
            _EPSILON4[(_a, _b)] = _perm_sign((_i, _j, _k, _l))


def plucker_rows(u, v):
    """Pluecker coordinates of u ^ v over the last axis: one vector pair, or
    stacked rows of pairs (n x 4 each, n x 6 out)."""
    return u[..., _PAIR_I] * v[..., _PAIR_J] - u[..., _PAIR_J] * v[..., _PAIR_I]


def pfaffian4(omega):
    """Pfaffian of a 4x4 antisymmetric matrix, an array or nested lists."""
    return (omega[0][1] * omega[2][3]
            - omega[0][2] * omega[1][3]
            + omega[0][3] * omega[1][2])


class PlaneKind(Enum):
    LAGRANGIAN = "lagrangian"
    NONDEGENERATE = "nondegenerate"


class Plane2:
    """A 2-plane in V, tagged Lagrangian or nondegenerate for omega.

    The restriction of a symplectic form to a 2-plane is either identically
    zero (Lagrangian) or nonsingular, so the tag is a true dichotomy; it is
    decided at construction against the plane's orthonormalized basis.
    """

    def __init__(self, space, basis, eps=EPS_ALG):
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (4, 2):
            raise GeometryError("a 2-plane needs a 4x2 basis matrix")
        self.space = space
        self.sub = Subspace(basis)
        self.basis = basis
        onb = self.sub.onb
        w = (onb[None, :, 0] @ space.matrix @ onb[:, 1, None])[0, 0]
        self.tag = PlaneKind.LAGRANGIAN if abs(w) <= eps else PlaneKind.NONDEGENERATE

    @classmethod
    def span(cls, space, u, v, eps=EPS_ALG):
        return cls(space, np.column_stack([as_vector(u, 4), as_vector(v, 4)]), eps)

    @property
    def is_lagrangian(self):
        return self.tag is PlaneKind.LAGRANGIAN

    def normalized_basis(self):
        """Basis (u, v) of the plane rescaled so omega(u, v) = 1.

        Only defined for nondegenerate planes.
        """
        if self.is_lagrangian:
            raise GeometryError("a Lagrangian plane has no omega-normalized basis")
        u, v = self.sub.onb[:, 0], self.sub.onb[:, 1]
        return np.column_stack([u, v / self.space.omega(u, v)])

    def __eq__(self, other):
        if not isinstance(other, Plane2):
            return NotImplemented
        return self.sub == other.sub

    def __repr__(self):
        return f"Plane2({self.tag.value}, basis=\n{self.basis})"


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
        gram = np.zeros((6, 6))
        for (a, b), sign in _EPSILON4.items():
            gram[a, b] = sign / self.vol_coeff
        self._gram = gram
        # omega as a linear functional on bivectors
        self._omega_fun = np.array([self.matrix[i, j] for (i, j) in PAIRS])
        self.omega_star = np.linalg.solve(gram, self._omega_fun)

    # -- the form and its extension to bivectors ----------------------------

    def omega(self, x, y):
        """omega(x, y) on vectors of V."""
        return float(as_vector(x, 4) @ self.matrix @ as_vector(y, 4))

    def omega_of(self, b):
        """omega extended to bivectors: omega(u ^ v) = omega(u, v)."""
        return float(as_vector(b, 6) @ self._omega_fun)

    def wedge(self, b1, b2):
        """The signature-(3,3) product on bivectors.

        (b1 ^ b2) equals wedge(b1, b2) * vol as elements of Lambda^4.
        """
        return float(as_vector(b1, 6) @ self._gram @ as_vector(b2, 6))

    def in_kernel(self, b, eps=EPS_ALG):
        """Whether a bivector lies in W = Ker(omega)."""
        b = as_vector(b, 6)
        nb = np.linalg.norm(b)
        if nb == 0.0:
            return True
        return abs(self.omega_of(b)) <= eps * nb

    # -- Pluecker machinery --------------------------------------------------

    def plucker(self, plane):
        """Pluecker image u ^ v of a plane with stored basis (u, v).

        Decomposable (the self-product vanishes); rescaling the basis
        rescales the output.  A raw array must be a finite 4x2 basis of
        rank 2, checked here; a `Plane2` passed the stricter rank check of
        its `Subspace` when it was built.
        """
        if isinstance(plane, Plane2):
            basis = plane.basis
        else:
            basis = np.asarray(plane, float)
            if basis.shape != (4, 2) or not np.isfinite(basis).all():
                raise GeometryError("a plane basis must be a finite 4x2 array")
            if np.linalg.matrix_rank(basis) < 2:
                raise GeometryError("plane basis is rank deficient")
        return plucker_rows(basis[:, 0], basis[:, 1])

    def bivector_to_plane(self, b, eps=EPS_ALG):
        """The 2-plane whose Pluecker line contains a decomposable bivector.

        The plane is the column space of the antisymmetric coefficient matrix
        of b, which has rank 2 exactly when b is decomposable (b . b = 0).
        """
        b = as_vector(b, 6)
        nb = np.linalg.norm(b)
        if nb == 0.0:
            raise GeometryError("zero bivector")
        if abs(self.wedge(b, b)) > eps * nb * nb * max(1.0, abs(self.vol_coeff)):
            raise GeometryError(
                f"bivector is not decomposable: b.b = {self.wedge(b, b):.3e}")
        m = np.zeros((4, 4))
        for a, (i, j) in enumerate(PAIRS):
            m[i, j] = b[a]
            m[j, i] = -b[a]
        u, s, _ = np.linalg.svd(m)
        plane = Plane2(self, u[:, :2])
        # sanity: the round trip must reproduce b projectively
        back = self.plucker(plane)
        if abs(abs(back @ b) / (np.linalg.norm(back) * nb) - 1.0) > 1e2 * eps:
            raise GeometryError("bivector does not come from a 2-plane")
        return plane

    def transverse(self, p, q, eps=EPS_ALG):
        """Whether two 2-planes intersect trivially.

        P and Q are transverse exactly when the bivector product of their
        Pluecker images is nonzero; evaluated on unit-scale images.
        """
        bp = self.plucker(p)
        bq = self.plucker(q)
        val = self.wedge(bp, bq) / (np.linalg.norm(bp) * np.linalg.norm(bq))
        return abs(val) > eps

    def reflect_omega_star(self, b):
        """Reflection u -> u + (u . omega*) omega*; fixes W pointwise.

        For a nondegenerate plane S the reflection carries the Pluecker line
        of S to the line of its symplectic complement.
        """
        b = as_vector(b, 6)
        return b + self.wedge(b, self.omega_star) * self.omega_star

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
        b = as_vector(b, 6)
        if not self.in_kernel(b, eps):
            raise GeometryError("bivector is not in the kernel of omega")
        return self.bridge[0] @ b

    def from_einstein(self, x):
        """Inverse of `to_einstein`."""
        return self.bridge[1] @ as_vector(x, 5)

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
        if s.is_lagrangian or s_perp.is_lagrangian:
            raise GeometryError("splitting summands must be nondegenerate")
        val = np.abs(s.sub.onb.T @ space.matrix @ s_perp.sub.onb).max()
        if val > eps:
            raise GeometryError(
                f"summands are not omega-orthogonal: omega = {val:.3e}")
        if Subspace(np.hstack([s.sub.onb, s_perp.sub.onb])).dim != 4:
            raise GeometryError("summands do not span V")
        self.space = space
        self.s = s
        self.s_perp = s_perp
        self.s_basis = s.normalized_basis()
        self.s_perp_basis = s_perp.normalized_basis()

    @classmethod
    def from_plane(cls, space, s, eps=EPS_ALG):
        return cls(space, s, symplectic_complement(space, s), eps)

    def __repr__(self):
        return f"Splitting(s=\n{self.s_basis}, s_perp=\n{self.s_perp_basis})"


def symplectic_complement(space, s):
    """The omega-orthogonal complement of a 2-plane.

    For a nondegenerate plane this is the complementary summand of a
    symplectic splitting; a Lagrangian plane is its own complement, which is
    allowed but flagged with a warning.
    """
    if s.is_lagrangian:
        warnings.warn("symplectic complement of a Lagrangian plane is itself",
                      stacklevel=2)
    comp = nullspace(s.sub.onb.T @ space.matrix)
    if comp.shape[1] != 2:
        raise GeometryError("complement is not 2-dimensional")
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
    m = np.hstack([l.sub.onb, l_prime.sub.onb])
    if abs(np.linalg.det(m)) <= eps:
        raise GeometryError("L and L' are not transverse")
    coeffs = np.linalg.solve(m, p.sub.onb)  # 4x2: coordinates of P's basis
    proj_l = l.sub.onb @ coeffs[:2]
    proj_lp = l_prime.sub.onb @ coeffs[2:]
    g = proj_l.T @ space.matrix @ proj_lp  # g[i, j] = omega(pi_L p_i, pi_L' p_j)
    q = (g + g.T) / 2
    pos, neg, zero = inertia(np.linalg.eigvalsh(q), eps)
    if zero:
        raise GeometryError(
            "restricted form is degenerate: P is not transverse to L and L'")
    return pos - neg


def mu(space, s):
    """Projection of the Pluecker image of a nondegenerate plane onto W.

    With the plane's basis normalized so omega(u, v) = 1, the image is
    iota(S) + (1/2) omega(iota(S)) omega*, a spacelike bivector of square
    1/2; a plane and its symplectic complement have the same image.
    """
    if not isinstance(s, Plane2):
        raise GeometryError("mu expects a Plane2")
    if s.is_lagrangian:
        raise GeometryError("mu is not defined on Lagrangian planes "
                            "(the projection would be null)")
    iota = space.plucker(s.normalized_basis())
    return iota + 0.5 * space.omega_of(iota) * space.omega_star


def splitting_from_spacelike(space, u, eps=EPS_ALG):
    """The symplectic splitting determined by a spacelike bivector of W.

    After rescaling to u . u = 2, both u + omega* and u - omega* are null
    and decomposable; their planes are nondegenerate, mutually
    omega-orthogonal (they are swapped by the omega* reflection), and form a
    splitting whose mu image is proportional to u.
    """
    u = as_vector(u, 6)
    if not space.in_kernel(u, eps):
        raise GeometryError("bivector is not in W = Ker(omega)")
    uu = space.wedge(u, u)
    if uu <= eps * float(u @ u):
        raise GeometryError("bivector is not spacelike")
    u = u * np.sqrt(2.0 / uu)
    plus = space.bivector_to_plane(u + space.omega_star)
    minus = space.bivector_to_plane(u - space.omega_star)
    return Splitting(space, plus, minus)


def lagrangian_in_torus(space, l, splitting, eps=EPS_ALG):
    """Whether a Lagrangian belongs to the torus of a symplectic splitting.

    The torus consists of the Lagrangians non-transverse to the summand S
    (equivalently to S-perp).
    """
    if not l.is_lagrangian:
        raise GeometryError("expected a Lagrangian plane")
    return not space.transverse(l, splitting.s, eps)


def det_omega(f):
    """Scaling factor Det(f) defined by f*(omega_B) = Det(f) omega_A.

    Equals the plain determinant of the matrix in omega-normalized bases.
    """
    m = np.asarray(f, float)
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def adjugate(f):
    """Adjugate map: the omega-transpose of f.

    matrix rule [[a, b], [c, d]] -> [[d, -b], [-c, a]]; satisfies
    Adj(f) f = Det(f) id, and Adj(f) = Det(f) f^{-1} for invertible f.
    """
    m = np.asarray(f, float)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def graph(space, f, splitting):
    """Graph of f : S -> S-perp as a plane of V.

    Spanned by a + f(a) over the normalized basis of S; transverse to
    S-perp, and nondegenerate exactly when Det(f) != -1 (it is Lagrangian
    at Det(f) = -1).
    """
    basis = splitting.s_basis + splitting.s_perp_basis @ np.asarray(f, float)
    return Plane2(space, basis)


def perp_graph(space, f, splitting, eps=EPS_ALG):
    """Symplectic complement of graph(f), as the graph of -Adj(f).

    Defined for Det(f) != -1; the result is omega-orthogonal to graph(f).
    """
    if abs(det_omega(f) + 1.0) <= eps:
        raise GeometryError("graph is Lagrangian at Det(f) = -1; "
                            "no symplectic complement of this form")
    g = -adjugate(f)
    basis = splitting.s_perp_basis + splitting.s_basis @ g
    return Plane2(space, basis)


def eta_from_det(f, eps=EPS_ALG):
    """Torus-pair invariant of (S, graph(f)) computed from Det(f).

    Equals |1 - Det(f)| / |1 + Det(f)|, the normalized invariant
    |mu(S) . mu(T)| / sqrt((mu(S) . mu(S)) (mu(T) . mu(T))).
    """
    d = det_omega(f)
    if abs(1.0 + d) <= eps:
        raise GeometryError("invariant undefined at Det(f) = -1")
    return abs(1.0 - d) / abs(1.0 + d)


def eta_from_mu(space, s, t):
    """Normalized invariant of two nondegenerate planes via their mu images."""
    ms = mu(space, s)
    mt = mu(space, t)
    return (abs(space.wedge(ms, mt))
            / np.sqrt(space.wedge(ms, ms) * space.wedge(mt, mt)))


def torus_from_plane(space, s):
    """Einstein torus of the splitting generated by a nondegenerate plane,
    as a unit normal in the null-cone model."""
    m = mu(space, s)
    return einstein.EinsteinTorus(space.to_einstein(m))


def lagrangian_point(space, l):
    """Point of the null-cone model corresponding to a Lagrangian plane."""
    if not l.is_lagrangian:
        raise GeometryError("expected a Lagrangian plane")
    return einstein.EinPoint(space.to_einstein(space.plucker(l)))


def plane_intersection_dim(p, q, eps=EPS_RANK):
    """dim(P cap Q) through plain subspace intersection (no bivectors)."""
    return intersect(p.sub, q.sub, eps).dim


def symplectic_basis(space, eps=EPS_RANK):
    """A Darboux basis (d1, d2, d3, d4) with omega(d1,d3) = omega(d2,d4) = 1
    and all other basis products zero, as matrix columns."""
    omega = space.matrix
    d1 = np.eye(4)[:, 0]
    w = omega.T @ d1  # w[j] = omega(d1, e_j)
    j = int(np.argmax(np.abs(w)))
    d3 = np.eye(4)[:, j] / w[j]
    rest = nullspace(np.vstack([omega @ d1, omega @ d3]), eps)
    if rest.shape[1] != 2:
        raise GeometryError("could not split off a symplectic 2-plane")
    x, y = rest[:, 0], rest[:, 1]
    wxy = float(x @ omega @ y)
    if abs(wxy) <= eps:
        raise GeometryError("residual plane is degenerate")
    return np.column_stack([d1, x, d3, y / wxy])
