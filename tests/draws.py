"""The oracle's draws one at a time, as validated objects: the planes,
quadrilaterals and surface pairs that tests build from the suites' own
draws and screens."""

import math

import numpy as np

from ein3 import ads
from ein3 import crooked as C
from ein3 import einstein as E
from ein3 import oracle as O
from ein3.symplectic import Plane2, Splitting, standard_space


def _first(draw, keep):
    """The first candidate of draw(k) (an array over k candidates) that the
    stacked decision keep accepts, drawn as `oracle._blocks` draws a suite
    of one trial: one quantum of _DRAW_QUANTUM candidates, one rng call, cut
    to ATTEMPTS_PER_TRIAL candidates."""
    def screen(chunk):
        return O._keeping(keep(chunk[0]), chunk[0])

    return next(O._blocks(1, lambda first, k: (draw(k),), screen))[1][0][0]


def random_symplectic(space, rng, scale=1.0):
    """Random element of Sp(V): the exponential of a random Hamiltonian
    matrix (entries of the symmetric generator uniform in [-scale, scale]),
    as symplectic-identities draws it."""
    return O._symplectic_exp(space, rng.uniform(-1.0, 1.0, size=(4, 4)) * scale)


def random_lagrangian(space, rng):
    """Random Lagrangian plane: the draw of one plane of maslov-bridge's and
    symplectic-identities' triples, kept by `oracle._planes`' Lagrangian
    mask."""
    def draw(k):  # x and r of each candidate
        z = rng.normal(size=(k, 2, 4))
        return O._lagrangian_bases(space, z[:, 0], z[:, 1])

    return Plane2(space, _first(draw, lambda m: O._planes(space, m)[1]))


def random_nondegenerate_plane(space, rng):
    """Random nondegenerate plane, well-conditioned for omega (|omega| > 0.2
    on its orthonormal basis): eta-bridge's draw of a basis, kept by
    `oracle._planes`' nondegenerate mask."""
    return Plane2(space, _first(lambda k: rng.normal(size=(k, 4, 2)),
                                lambda m: O._planes(space, m)[2]))


def random_splitting(space, rng):
    return Splitting.from_plane(space, random_nondegenerate_plane(space, rng))


def random_ads_config(rng):
    """Random pair of AdS crooked planes, the first based at the identity:
    ads-equivalence's draw of one candidate, kept when both planes pass
    the |omega0(a, b)| > 1e-2 screen of `oracle._ads_arrays`."""
    z = _first(lambda k: rng.normal(size=(k, 6, 2)),
               lambda z: np.isfinite(O._ads_arrays(z)[2]).all(axis=(1, 2)))
    units, f, _ = O._ads_arrays(z[None])
    return _ads_planes(units[0], f[0])


def _ads_planes(units, f):
    return ads.AdsCrookedPlane(np.eye(2), *units[0]), ads.AdsCrookedPlane(f, *units[1])


def disjoint_ads_pair(rng):
    """Random AdS crooked plane pair certified disjoint with healthy margins:
    surface-disjointness' draw of one pair, _ADS_ROWS `oracle._ads_arrays`
    candidates a candidate, kept when one of them has all four margins above
    1e-2; the first such is built."""
    def passes(z):  # of stacked candidates (..., _ADS_ROWS, 6, 2)
        margins = O._ads_arrays(z.reshape(-1, 6, 2))[2]
        return margins.min(axis=(1, 2)).reshape(z.shape[:-2]) > 1e-2

    z = _first(lambda k: rng.normal(size=(k, O._ADS_ROWS, 6, 2)), lambda c: passes(c).any(-1))
    units, f, _ = O._ads_arrays(z)
    i = int(passes(z).argmax())
    return _ads_planes(units[i], f[i])


def random_unit_spacelike(rng):
    """Unit spacelike vector of the null-cone model space: one normal of
    torus-trichotomy's draw, kept when Q(v) > 1e-3 |v|^2, as
    `oracle._torus_screen` keeps both."""
    v = _first(lambda k: rng.normal(size=(k, 5)),
               lambda c: np.array([float(v @ E.GRAM @ v) > 1e-3 * float(v @ v) for v in c]))
    return v / math.sqrt(float(v @ E.GRAM @ v))


def random_quadrilateral(space, rng):
    """Random lightlike quadrilateral: a random symplectic image of the
    canonical one."""
    return C.LightlikeQuadrilateral(
        space, *O._random_rows(rng.uniform(-1.0, 1.0, size=(4, 4))))


def stem_crossing_pairs(space, rng, n):
    """n pairs of the stem-only suite's draws, drawn as its draw stage draws
    them: two crooked surfaces whose stems share a constructed point, and
    that point."""
    for _, block in O._blocks(n, lambda first, k: O._pair_draw(rng, k, 6)):
        rows, shared, _ = O._stem_rows(space, *block)
        for pair, l in zip(rows, shared):
            c1, c2 = (C.CrookedSurface(C.LightlikeQuadrilateral(space, *r)) for r in pair)
            yield c1, c2, Plane2(space, l)


def stem_crossing_pair(space, rng):
    """One pair of `stem_crossing_pairs`, as a stem-only suite of one trial
    draws it."""
    return next(stem_crossing_pairs(space, rng, 1))


def photon_draws(seed):
    """photon-avoidance's candidates at a seed, unscreened and in draw
    order, quantum by quantum as its draw stage draws them: (p, surface), the
    surface by the validated constructors."""
    space, rng = standard_space(), O.make_rng([seed, 5])
    while True:
        s, p = O._photon_draw(rng, O._DRAW_QUANTUM)
        for rows, q in zip(O._random_rows(s), p):
            yield q, C.CrookedSurface(C.LightlikeQuadrilateral(space, *rows))
