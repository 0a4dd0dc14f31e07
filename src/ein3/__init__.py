"""Two algebraic models of the 3-dimensional Einstein universe.

The `einstein` module works in the null-cone model inside a signature-(3,2)
bilinear form space; the `symplectic` module works in the Lagrangian
Grassmannian of a 4-dimensional symplectic vector space.  On top of these,
`crooked` decides disjointness of crooked surfaces, `ads` specializes to
anti-de Sitter crooked planes, `sampling` draws seeded point clouds of tori
and surfaces, and `oracle` provides seeded sampling oracles that
cross-check every algebraic predicate.  Importing the package loads
`linalg` alone; each submodule is loaded when it is imported.
"""

from ein3.linalg import EPS_ALG, EPS_RANK, GeometryError

__all__ = ["EPS_ALG", "EPS_RANK", "GeometryError"]
__version__ = "0.1.0"
