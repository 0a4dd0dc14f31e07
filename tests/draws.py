"""The oracle's draws one at a time, as validated objects: the quadrilaterals
and surface pairs that tests build from the stacked draw stages."""

from ein3 import crooked as C
from ein3 import oracle as O
from ein3.symplectic import Plane2


def random_quadrilateral(space, rng):
    """Random lightlike quadrilateral: a random symplectic image of the
    canonical one."""
    return C.LightlikeQuadrilateral(
        space, *O._random_rows(space, rng.uniform(-1.0, 1.0, size=(4, 4))))


def stem_crossing_pair(space, rng):
    """One pair of the stem-only suite's draws: two crooked surfaces whose
    stems share a constructed point, and that point."""
    rows, shared = O._stem_rows(space, [O._stem_draw(rng)])
    c1, c2 = (C.CrookedSurface(C.LightlikeQuadrilateral(space, *r)) for r in rows[0])
    return c1, c2, Plane2(space, shared[0])
