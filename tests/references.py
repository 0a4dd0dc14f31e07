"""Scalar routes kept as the references that tests compare the package's
stacked kernels against."""

from ein3 import einstein
from ein3.ads import _omega0_cells
from ein3.linalg import EPS_RANK, GeometryError, _intersection_dims, _raise_first, as_vector
from ein3.symplectic import _lagrangian_points


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
    return int(_intersection_dims(p.sub.onb, q.sub.onb, eps))
