"""Seeded point sampling of Einstein tori and crooked surfaces.

The `sample` command's point clouds, and the draws and points the oracle's
suites sample surfaces and tori with: `ein3.oracle` imports these names, so
a suite and the command run the same code, and `sample` compiles none of the
oracle.  EPS_GEO is the coarser tolerance for sampled geometry, since
sampling error dominates the algebraic tolerances.
"""

import numpy as np

from ein3 import einstein, symplectic
from ein3.linalg import GeometryError, projective_normalize

EPS_GEO = 1e-6


def make_rng(seed):
    """Deterministic generator; identical seeds reproduce identical streams.
    Each stage of a suite draws from a stream of its own, [seed, suite] or
    [seed, suite, stage], so no stage's draws depend on another stage's."""
    return np.random.default_rng(seed)


class SampleCloud:
    """Projectively normalized points of the null-cone model with labels.

    points is an (n, 5) array of model vectors; labels is a list of n tags
    naming the membership each point was sampled from.
    """

    def __init__(self, points, labels):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 5:
            raise GeometryError("cloud points must be an (n, 5) array")
        if len(labels) != len(points):
            raise GeometryError("one label per point required")
        self.points = projective_normalize(points)
        self.labels = list(labels)

    def __len__(self):
        return len(self.points)

    def minkowski_points(self):
        """Affine patch coordinates (x, y, z) of the points with nonzero last
        homogeneous coordinate; returns (coords, keep), keep being the
        boolean mask of those points (the rest lie at infinity)."""
        v = self.points[:, 4]
        keep = np.abs(v) > EPS_GEO * np.linalg.norm(self.points, axis=1)
        return self.points[keep, :3] / v[keep, None], keep


def _torus_points(frame, alphas, betas):
    """Null vectors cos(a) p1 + sin(a) p2 + cos(b) n1 + sin(b) n2 of a torus,
    one per angle pair, along a new last axis.  frame is the unit frame
    (n1, n2, p1, p2) of the torus hyperplane (or a stack of them, with a
    row of angles each), Q = -1, -1, +1, +1 (`_torus_frame`); every such
    vector is null, and the two angles sweep the torus."""
    n1, n2, p1, p2 = np.moveaxis(frame[..., None, :, :], -1, 0)
    a, b = (np.asarray(angles)[..., None] for angles in (alphas, betas))
    return np.cos(a) * p1 + np.sin(a) * p2 + np.cos(b) * n1 + np.sin(b) * n2


# unit axes e_x, e_y and e_u - e_v (which keeps s = (0, 0, 0, t, -1/t) off a
# large reflection); (n1, n2, p1, p2) of each's hyperplane = (e_z, e_u + e_v, the others)
_AXES = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0]])
_AXIS_FRAMES = np.stack([np.column_stack([[0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 1.0],
                                          *np.delete(_AXES, k, 0)]) for k in range(3)])


def _torus_frame(normals):
    """Unit frames (n1, n2, p1, p2) of the hyperplanes of unit normals s (..., 5):
    the axis e of the largest |s_k| = |<s, e>| has its frame reflected in w = s +
    sgn(s_k) e (Q(w) = 2 + 2 |s_k|): e to -sgn(s_k) s, f to f - <f, s> w / (1 + |s_k|)."""
    proj = normals @ einstein.GRAM @ _AXES.T
    k = abs(proj).argmax(-1)
    s_k = np.take_along_axis(proj, k[..., None], -1)
    w, frame = normals + np.where(s_k < 0.0, -1.0, 1.0) * _AXES[k], _AXIS_FRAMES[k]
    return frame - w[..., :, None] * ((normals[..., None, :] @ einstein.GRAM @ frame)
                                      / (1.0 + abs(s_k))[..., None])


def sample_torus(torus, n, rng):
    """n random null points of an Einstein torus (see `_torus_points`)."""
    a, b = (rng.uniform(0.0, 2.0 * np.pi, size=n) for _ in range(2))
    return SampleCloud(_torus_points(_torus_frame(torus.normal), a, b), ["torus"] * n)


def _cloud_draws(rng, n, shape=()):
    """The rng calls of `sample_surface`, uniform(low, high) as low + (high -
    low) random(): wing+'s then wing-'s photon parameters and pencil angles
    in one call, the stem's t1, t2 in one, and its components; each call
    draws the clouds of a stack of the given shape at once, one surface's
    rows at a time, and its fields keep that shape as leading axes."""
    count = int(round(n * 0.4))  # on each wing; the stem takes the rest
    n_stem = n - 2 * count
    margin = 1e-2  # keep clear of the stem boundary, where Maslov degenerates
    wings = rng.random((*shape, 4, count)) * np.array([[np.pi / 2], [np.pi], [np.pi / 2], [np.pi]])
    stem = margin + ((np.pi / 2 - margin) - margin) * rng.random((*shape, 2, n_stem))
    return (*np.moveaxis(wings, -2, 0), *np.moveaxis(stem, -2, 0),
            rng.integers(0, 2, size=(*shape, n_stem)) * 2 - 1)


def _surface_cloud(space, columns, draws):
    """The points of `sample_surface` from its draws, on the surface of the
    quadrilateral columns (4, 4), or of each of a stack of them with a row
    of draws each: wing+, wing-, then the stem points of component +1, then
    of -1, each in draw order.  A point is bilinear in the columns of Q: its
    coefficients over their six wedges (Pluecker order), those of x ^ g of
    `_wing_generators` or w ^ w' of `_stem_generators`, times the wedges'
    images under the bridge.  On wing+ they are (c e, cos phi, c f, -s e, 0,
    s f), (c, s) = (cos, sin) theta, e = sin phi (1 + (c - s) s) and f = sin
    phi (1 - (c - s) c); on wing-, (-c e, 0, s e, -c f, cos phi, -s f)."""
    thetas_plus, phis_plus, thetas_minus, phis_minus, t1, t2, comps = draws
    order = np.argsort(-comps, axis=-1, kind="stable")
    comps, t1, t2 = (np.take_along_axis(a, order, -1) for a in (comps, t1, t2))

    def wing(thetas, phis, sign, at):  # wing+'s coefficients, times sign, at their places
        c, s, sin_phi = np.cos(thetas), np.sin(thetas), sign * np.sin(phis)
        e, f = sin_phi * (1.0 + (c - s) * s), sin_phi * (1.0 - (c - s) * c)
        return np.stack([c * e, np.cos(phis), c * f, -s * e, np.zeros_like(c), s * f], -1)[..., at]

    (c1, c2), (s1, s2), zero = np.cos([t1, t2]), np.sin([t1, t2]), np.zeros_like(t1)
    stem = np.stack([c1 * c2, comps * c1 * s2, zero, zero, -comps * s1 * c2, -s1 * s2], -1)
    q = columns.swapaxes(-1, -2)[..., symplectic.PAIRS, :]
    images = symplectic.plucker_rows(q[..., 0, :], q[..., 1, :]) @ space.bridge[0].T
    return np.concatenate([wing(thetas_plus, phis_plus, 1.0, slice(None)),
                           wing(thetas_minus, phis_minus, -1.0, [0, 4, 3, 2, 1, 5]), stem],
                          -2) @ images


def sample_surface(surface, n, rng):
    """Sample a crooked surface: 40% of the points on each wing, the rest
    on the stem.

    Wing points combine a random photon of the wing family with a random
    Lagrangian through it; stem points pair random directions of the two
    stem planes within the timelike (Maslov +/-2) components.
    """
    draws = _cloud_draws(rng, n)  # wing+'s, wing-'s and the stem's first draws label them
    labels = [k for k, d in zip(("wing_plus", "wing_minus", "stem"), draws[::2]) for _ in d]
    return SampleCloud(_surface_cloud(surface.space, surface.quad.columns, draws), labels)
