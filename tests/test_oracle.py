import itertools
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ein3 import ads
from ein3 import crooked as C
from ein3 import einstein as E
from ein3 import oracle as O
from ein3 import symplectic as S
from ein3.linalg import (GeometryError, _failed_rows, _orthonormal_columns, _raise_first,
                         _raise_first_row, projective_normalize)
from ein3.sampling import SampleCloud, sample_surface, sample_torus

from draws import (disjoint_ads_pair, photon_draws, random_ads_config, random_lagrangian,
                   random_quadrilateral, random_splitting, random_symplectic,
                   random_unit_spacelike, stem_crossing_pair, stem_crossing_pairs)
from references import (bivector_to_plane, classify_point, classify_tori, eta, inner,
                        lagrangian_point, min_gap, omega, omega0, photon_crossing_oracle,
                        plane_intersection_dim, probe_intersection_type, torus_normal,
                        unit_points)

SP = S.standard_space()
# a nonsingular antisymmetric form with no zero entry off the diagonal
GENERAL_OMEGA = np.array([[0.0, 0.7, 1.3, -0.4],
                          [-0.7, 0.0, 0.2, 0.9],
                          [-1.3, -0.2, 0.0, 0.5],
                          [0.4, -0.9, -0.5, 0.0]])


def test_generators_deterministic():
    for make in (random_unit_spacelike,
                  lambda r: random_lagrangian(SP, r).basis,
                  lambda r: random_quadrilateral(SP, r).u_plus):
        a = make(O.make_rng(42))
        b = make(O.make_rng(42))
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_generators_pass_validators():
    rng = O.make_rng(0)
    for _ in range(200):
        v = random_unit_spacelike(rng)
        assert inner(v, v) == pytest.approx(1.0, abs=1e-9)
    for _ in range(100):
        assert random_lagrangian(SP, rng).is_lagrangian
    for _ in range(50):
        quad = random_quadrilateral(SP, rng)
        assert all(abs(v) < 1e-9 for v in C._product_residuals(quad.gram.tolist()))


def test_random_symplectic():
    rng = O.make_rng(1)
    for _ in range(30):
        g = random_symplectic(SP, rng)
        assert np.allclose(g.T @ SP.matrix @ g, SP.matrix, atol=1e-11)


def test_sample_torus():
    rng = O.make_rng(2)
    t = E.EinsteinTorus([2, 0, 0, 3, 1])
    cloud = sample_torus(t, 200, rng)
    unit = unit_points(cloud)
    for x in unit:
        assert abs(inner(x, x)) < 1e-9
        assert abs(inner(x, t.normal)) < 1e-9
    # a torus through the improper point traces an affine (timelike) plane
    through_inf = E.EinsteinTorus([1, 0, 0, 0, 0])
    assert abs(inner(through_inf.normal, E.EinPoint([0, 0, 0, 1, 0]).rep)) < 1e-12
    cloud2 = sample_torus(through_inf, 200, rng)
    coords, keep = cloud2.minkowski_points()
    assert keep.shape == (200,) and len(coords) == keep.sum() > 0
    assert np.abs(coords[:, 0]).max() < 1e-7  # the plane x = 0
    # far tori (eta >> 1): sampled residuals against the other normal stay
    # large, the dip near the intersection circle scaling with eta
    # (numeric sweep at this seed gives about 0.15)
    t1 = E.EinsteinTorus([1, 0, 0, 0, 0])
    far = E.EinsteinTorus([50, 0, 0, 51, 49])
    assert E.classify_torus_pair(t1, far).eta == pytest.approx(50.0)
    samples = unit_points(sample_torus(t1, 300, O.make_rng(2)))
    assert min(abs(inner(x, far.normal)) for x in samples) > 0.05


@pytest.mark.parametrize("rapidity", [0.0, 1.0, 5.0, 10.0])
def test_torus_frames_are_gram_orthonormal_frames_of_the_hyperplane(rapidity):
    # normals cosh(r) e + sinh(r) t, e unit spacelike and t unit timelike and
    # GRAM-orthogonal to e, and (0, 0, 0, t, -1/t) and its swap, t = e^r,
    # made unit by `_torus_normals` at eps 0 (|s|^2 reaches 1e9 at r = 10,
    # past `EinsteinTorus`' spacelike test): the reflected axis frames have Q = -1,
    # -1, +1, +1 and are orthogonal to s, each product within 4 eps of the
    # product of the Euclidean norms of its two vectors; a one-row call is
    # its row of the stack, bit for bit
    rng, rows = np.random.default_rng(40 + int(rapidity)), []
    while len(rows) < 200:
        e, t = rng.normal(size=(2, 5))
        if inner(e, e) > 0.1:
            e /= np.sqrt(inner(e, e))
            t -= inner(t, e) * e
            if inner(t, t) < -0.1:
                rows.append(np.cosh(rapidity) * e + np.sinh(rapidity) * t / np.sqrt(-inner(t, t)))
    t = np.exp(rapidity)
    s = E._torus_normals(np.array(rows + [[0, 0, 0, t, -1 / t], [0, 0, 0, -1 / t, t]]), 0.0)[0]
    frames = O._torus_frame(s)
    vectors = np.concatenate([s[..., None], frames], -1)
    norms = np.linalg.norm(vectors, axis=-2)
    gram = (vectors.swapaxes(-1, -2) @ E.GRAM @ vectors)[..., 1:]
    bound = 4 * np.finfo(float).eps * norms[:, :, None] * norms[:, None, 1:]
    assert (abs(gram - np.diag([1.0, -1.0, -1.0, 1.0, 1.0])[:, 1:]) <= bound).all()
    assert all(np.array_equal(O._torus_frame(row), frame) for row, frame in zip(s, frames))


def test_sample_surface_membership():
    rng = O.make_rng(3)
    surf = C.CrookedSurface(random_quadrilateral(SP, rng))
    cloud = sample_surface(surf, 50, rng)
    assert len(cloud) == 50
    labels = {lab: 0 for lab in ("wing_plus", "wing_minus", "stem")}
    for point, label in zip(cloud.points, cloud.labels):
        labels[label] += 1
        # recover the Lagrangian from the cloud point and re-check membership
        plane = bivector_to_plane(SP, SP.bridge[1] @ point)
        region = C.surface_contains(surf, plane)
        assert region is not None and region.value == label
    assert labels["wing_plus"] == 20 and labels["stem"] == 10


def test_min_gap():
    rng = O.make_rng(4)
    t = E.EinsteinTorus([1, 0, 0, 0, 0])
    cloud = sample_torus(t, 100, rng)
    assert min_gap(cloud, cloud) == 0.0
    shifted = SampleCloud(cloud.points[:50], cloud.labels[:50])
    assert min_gap(cloud, shifted) == 0.0  # shares points
    with pytest.raises(GeometryError):
        min_gap(SampleCloud(np.zeros((0, 5)), []), cloud)


def test_projective_distance_precision():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert O.projective_distance(v, -2.0 * v) < 1e-15
    w = v + 1e-12 * np.array([1.0, 0, 0, 0, 0])
    assert O.projective_distance(v, w) < 1e-11


def test_projective_distance_of_rows_equals_the_per_row_norms():
    # symplectic-identities takes a block's distances at once, on Pluecker
    # rows that are not contiguous; each equals the distance of its two
    # rows by `np.linalg.norm`, as the suite took it one trial at a time
    rng = O.make_rng(6)
    a, b = (O._plucker(rng.normal(size=(500, 4, 2))) for _ in range(2))
    assert not a.flags.c_contiguous

    def one_row(x, y):
        ux, uy = x / np.linalg.norm(x), y / np.linalg.norm(y)
        return float(min(np.linalg.norm(ux - uy), np.linalg.norm(ux + uy)))

    assert O.projective_distance(a, b).tolist() == [
        one_row(np.ascontiguousarray(x), np.ascontiguousarray(y)) for x, y in zip(a, b)]


def test_probe_intersection_type():
    rng = O.make_rng(5)
    t1 = E.EinsteinTorus([1, 0, 0, 0, 0])
    orth = E.EinsteinTorus([0, 1, 0, 0, 0])
    assert probe_intersection_type(t1, orth, 32, rng) \
        is E.IntersectionKind.TIMELIKE_CIRCLE
    far = E.EinsteinTorus([2, 0, 0, 3, 1])
    assert probe_intersection_type(t1, far, 32, rng) \
        is E.IntersectionKind.SPACELIKE_CIRCLE
    touching = E.EinsteinTorus([1, 0, 0, 1, 0])
    assert probe_intersection_type(t1, touching, 32, rng) \
        is E.IntersectionKind.PHOTON_PAIR


def test_disjoint_ads_pair_margins():
    rng = O.make_rng(6)
    from ein3 import ads
    p1, p2 = disjoint_ads_pair(rng)
    assert min(ads.ads_margins(p1, p2).values()) > 1e-2
    assert ads.ads_disjoint(p1, p2)


def _stem_contains(surface, l):
    """Stem membership of one Lagrangian plane: the stem mask of the
    membership rule."""
    return C._regions_of(surface, l, C.EPS_ALG)[2]


def test_stem_crossing_pair():
    # c2 is carried onto the shared point in one draw, with no candidate to
    # reject (seed 67 once needed a redraw, when c2 was solved for around
    # the point), and both stems contain it
    for seed in (7, 67):
        c1, c2, shared = stem_crossing_pair(SP, O.make_rng(seed))
        assert _stem_contains(c1, shared)
        assert _stem_contains(c2, shared)


def _called_a_scalar_check(*args):
    raise AssertionError("a suite called a scalar surface or plane check")


def test_each_draw_validates_one_quadrilateral_per_surface(monkeypatch):
    # the stacked suites check every trial of a block in trial order, from
    # one call of the stacked kernel per `_surface_checks` whose checks
    # `_raise_first_row` reads whole, never by the scalar closed forms of a
    # surface or an AdS plane (ads-equivalence's one `as_sl2` of I aside)
    blocks, kernel_rows, read, sl2 = [], [], [], []
    surface_checks, kernel = O._surface_checks, C._surface_check_rows
    raise_first_row, check_sl2 = O._raise_first_row, ads._check_sl2

    def recorded(space, rows):
        checks = surface_checks(space, rows)
        blocks.append((len(rows), rows.reshape(len(rows), -1, 4, 4).shape[1], checks))
        return checks

    def counted(rows, *args):
        kernel_rows.append(rows.shape[:2])
        return kernel(rows, *args)

    def reading(checks):
        read.extend(id(mask) for mask, _ in checks)
        return raise_first_row(checks)

    monkeypatch.setattr(O, "_surface_checks", recorded)
    monkeypatch.setattr(C, "_surface_check_rows", counted)
    monkeypatch.setattr(O, "_raise_first_row", reading)
    monkeypatch.setattr(ads, "_check_sl2", lambda *args: sl2.append(args) or check_sl2(*args))
    for module, name in ((C, "_check_quadrilateral"), (C, "_check_planes"),
                         (ads, "_check_independent"), (ads, "AdsCrookedPlane")):
        monkeypatch.setattr(module, name, _called_a_scalar_check)
    for suite, trials, per_trial, checked in (
            (O.suite_photon_avoidance, 30, 1, 30),
            (O.suite_stem_only, 30, 2, 30),
            (O.suite_surface_disjointness, 6, 2, 12),
            (O.suite_ads_equivalence, 30, 2, 30)):
        blocks.clear()
        kernel_rows.clear()
        read.clear()
        sl2.clear()
        assert suite(trials=trials, seed=7)["failures"] == []
        assert all(per == per_trial and all(id(mask) in read for mask, _ in checks)
                   for n, per, checks in blocks), suite.__name__
        assert kernel_rows == [(n, per) for n, per, _ in blocks], suite.__name__
        assert sum(n for n, *_ in blocks) == checked, suite.__name__
        one = [([[1.0, 0.0], [0.0, 1.0]], O.EPS_ALG)]  # ads-equivalence's `as_sl2` of I
        assert sl2 == (one if suite is O.suite_ads_equivalence else []), suite.__name__


def _scalar_surface_checks(rows):
    """`_check_quadrilateral` then `_check_planes` on each quadrilateral of
    one trial's rows (surfaces, 4, 4) in turn, as the constructors run them."""
    for q in rows:
        gram = (q @ SP.matrix @ q.T).tolist()
        C._check_quadrilateral(gram, SP.vol_coeff, C.EPS_ALG)
        C._check_planes(q.tolist(), gram, C.EPS_ALG)


def test_closed_form_frames_call_no_lapack(monkeypatch):
    # eta-bridge, symplectic-identities and maslov-bridge take their 2-plane
    # frames of R^4 in closed form, with no `svd` of a (..., 4, 2) stack,
    # `_torus_frame` calls neither `svd` nor `eigh`, and photon-avoidance's
    # `_second_generators` and symplectic-identities' `_intersection_dims`
    # call no `svd` at all
    calls = []

    def counted(name, call):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)[-2:]))
            return call(a, *args, **kwargs)
        return wrapped

    for name in ("svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    O._torus_frame(E._torus_normals(O.make_rng(3).normal(size=(20, 5)) + [3, 0, 0, 0, 0])[0])
    assert calls == []
    for suite in (O.suite_eta_bridge, O.suite_symplectic_identities, O.suite_maslov_bridge):
        assert suite(trials=20, seed=7)["failures"] == []
    assert calls and ("svd", (4, 2)) not in calls
    inside = []

    def watched(name, call):
        def wrapped(*args, **kwargs):
            start = len(calls)
            out = call(*args, **kwargs)
            inside.append((name, calls[start:]))
            return out
        return wrapped

    for name in ("_second_generators", "_intersection_dims"):
        monkeypatch.setattr(O, name, watched(name, getattr(O, name)))
    for suite in (O.suite_photon_avoidance, O.suite_symplectic_identities):
        assert suite(trials=20, seed=7)["failures"] == []
    assert {name for name, _ in inside} == {"_second_generators", "_intersection_dims"}
    assert all(made == [] for _, made in inside)


def test_surface_checks_raise_the_first_failure_in_trial_order():
    # trial 3's second surface fails a product check and trial 7's first a
    # plane check; trial 5's first surface fails the plane check and its
    # second the product check
    rng = O.make_rng(3)
    rows = np.array([[random_quadrilateral(SP, rng).columns.T for _ in range(2)]
                     for _ in range(10)])
    e1, e2, e3, e4 = np.eye(4)
    rows[[3, 5], 1, 3] *= 1.5  # v-, so that omega(u+, v-) = 1.5
    rows[[5, 7], 0] = (1e-3 * e1, e2, e4 + 1e-7 * e3, e3 / 1e-3)  # P+ is not Lagrangian
    want = [_outcome(_scalar_surface_checks, r) for r in rows]
    assert want[3].startswith("quadrilateral products violated: omega(u+, v-) - 1 off by")
    assert want[5] == want[7] == "vertex P+ is not Lagrangian"
    assert want.count(None) == 7
    checks = O._surface_checks(SP, rows)
    assert _failed_rows(checks).tolist() == [w is not None for w in want]
    assert [_outcome(_raise_first, checks, i) for i in range(10)] == want
    with pytest.raises(GeometryError, match=f"^{re.escape(want[3])}$"):
        _raise_first_row(checks)


def test_probe_kinds_and_draws_are_pinned():
    rng = O.make_rng(11)
    kinds = []
    for _ in range(11):
        t1 = E.EinsteinTorus(random_unit_spacelike(rng))
        t2 = E.EinsteinTorus(random_unit_spacelike(rng))
        kinds.append(probe_intersection_type(t1, t2, 32, rng).name)
    kinds.append(probe_intersection_type(
        E.EinsteinTorus([1, 0, 0, 0, 0]), E.EinsteinTorus([1, 0, 0, 1, 0]),
        32, rng).name)
    t, s, p = "TIMELIKE_CIRCLE", "SPACELIKE_CIRCLE", "PHOTON_PAIR"
    assert kinds == [s, t, s, s, t, s, s, t, s, s, s, p]
    # the probe draws n numbers for every kind, so the stream after it is
    # fixed
    assert rng.uniform().hex() == "0x1.2a8c18932c1bbp-1"


class _ParallelRng:
    """Stands in for a generator whose direction draws are always parallel,
    and so are its normals of tori, all null (Q(1, 1, 1, 1, 1) = 0)."""

    def __init__(self):
        self.normals = 0

    def normal(self, size):
        self.normals += 1
        return np.ones(size)

    def uniform(self, low, high, size):
        return np.full(size, low)


def test_random_ads_config_rejection_is_bounded():
    with pytest.raises(O.RetryExhausted):
        random_ads_config(_ParallelRng())


def test_disjoint_ads_pair_rejection_is_bounded():
    with pytest.raises(O.RetryExhausted):
        disjoint_ads_pair(_ParallelRng())


@pytest.mark.parametrize("suite", [O.suite_torus_trichotomy, O.suite_surface_disjointness])
def test_suites_stop_at_the_shared_budget(monkeypatch, suite):
    # no candidate passes: the suite gives up in `_blocks` after
    # ATTEMPTS_PER_TRIAL candidates a trial, its one chunk of 50 candidates
    # drawn by one normal call
    rng = _ParallelRng()
    monkeypatch.setattr(O, "make_rng", lambda seed: rng)
    with pytest.raises(O.RetryExhausted, match="fewer than 5 accepted trials in 50 attempts"):
        suite(trials=5, seed=7)
    assert rng.normals == 1


def _scalar_ads_pair(z):
    """The planes of one AdS candidate draw z (6, 2) by the scalar
    constructors, the base exponentiated by scipy, or None where a plane
    has |omega0(a, b)| <= 1e-2 (where `oracle._ads_arrays` gives NaN)."""
    from scipy.linalg import expm
    a, b, ap, bp = (v / np.linalg.norm(v) for v in z[:4])
    if min(abs(omega0(a, b)), abs(omega0(ap, bp))) <= 1e-2:
        return None
    x = z[4:]
    return (ads.AdsCrookedPlane(np.eye(2), a, b),
            ads.AdsCrookedPlane(expm(x - 0.5 * np.trace(x) * np.eye(2)), ap, bp))


def test_disjoint_ads_pair_draws_as_random_ads_config():
    # the accepted pair is the first AdS candidate whose margins pass, over
    # the rows of at most ATTEMPTS_PER_TRIAL draws (one rng stream), as the
    # scalar constructors build it from that candidate's draw
    for seed in range(5):
        chunk = O.make_rng(seed).normal(size=(O.ATTEMPTS_PER_TRIAL * O._ADS_ROWS, 6, 2))
        want = next(pair for pair in map(_scalar_ads_pair, chunk)
                    if pair and min(ads.ads_margins(*pair).values()) > 1e-2)
        got = disjoint_ads_pair(O.make_rng(seed))
        for p, q in zip(got, want):
            for name in ("base", "a", "b"):
                assert np.allclose(getattr(p, name), getattr(q, name), rtol=1e-13, atol=0.0)


def test_sl2_exp_matches_scipy():
    # the closed form against scipy's expm of the traceless part, over
    # normal draws (both signs of det X) and a nilpotent X (d = 0)
    from scipy.linalg import expm
    x = np.concatenate([O.make_rng(5).normal(size=(2000, 2, 2)), [[[0.5, 1.0], [0.0, 0.5]]]])
    f = O._sl2_exp(x)
    want = np.array([expm(m - 0.5 * np.trace(m) * np.eye(2)) for m in x])
    scale = np.abs(want).max(axis=(1, 2))
    assert (np.abs(f - want).max(axis=(1, 2)) <= 1e-13 * scale).all()
    assert (np.abs(np.linalg.det(f) - 1.0) <= 1e-14 * scale ** 2).all()
    assert np.array_equal(f[-1], [[1.0, 1.0], [0.0, 1.0]])


# largest |numpy - scipy| over the largest |entry| of scipy's expm, by the
# scale of the draws (1e-6 as test_crooked perturbs, 1 as the suites draw)
# and the space, whose Omega^-1 grows H; on 20,000 draws a scale the
# standard space reads 6.4e-22, 2.2e-16, 2.7e-15 and 6.9e-13, and
# GENERAL_OMEGA 8.5e-22, 4.3e-16, 1.1e-13 and 1.2e-12
_EXP_BOUNDS = [(SP, {1e-6: 1e-15, 0.1: 2e-15, 1.0: 2e-14, 3.0: 5e-12}),
               (S.SympSpace(GENERAL_OMEGA), {1e-6: 1e-15, 0.1: 4e-15, 1.0: 1e-12, 3.0: 1e-11})]


@pytest.mark.parametrize("space, bounds", _EXP_BOUNDS, ids=["standard", "general"])
def test_symplectic_exp_matches_scipy(space, bounds):
    # the stacked Taylor scaling and squaring against scipy's expm of the
    # same Hamiltonian matrices, each a symplectic map of its space: g^T
    # Omega g = Omega to 3e-14 |Omega| |g|^2 (on the same draws at most
    # 3.4e-15 and 7.7e-15; scipy's reach 5.6e-14 at scale 3)
    from scipy.linalg import expm
    rng = O.make_rng(9)
    for scale, bound in bounds.items():
        s = rng.uniform(-1.0, 1.0, size=(2000, 4, 4)) * scale
        g = O._symplectic_exp(space, s)
        want = expm(np.linalg.solve(space.matrix, 0.5 * (s + s.swapaxes(-1, -2))))
        peak = np.abs(want).max(axis=(1, 2))
        assert (np.abs(g - want).max(axis=(1, 2)) <= bound * peak).all()
        defect = np.abs(g.swapaxes(-1, -2) @ space.matrix @ g - space.matrix).max(axis=(1, 2))
        assert (defect <= 3e-14 * np.abs(space.matrix).max() * peak ** 2).all()


def test_symplectic_exp_rows_stand_alone():
    # the zero generator gives the identity exactly, and each row of a stack
    # mixing the scales (so its own number of squarings) equals, bit for
    # bit, the row exponentiated alone
    assert np.array_equal(O._symplectic_exp(SP, np.zeros((3, 4, 4))), np.broadcast_to(
        np.eye(4), (3, 4, 4)))
    rng = O.make_rng(10)
    s = rng.uniform(-1.0, 1.0, size=(64, 4, 4)) * rng.choice([0.0, 1e-6, 0.1, 1.0, 3.0], 64)[
        :, None, None]
    g = O._symplectic_exp(SP, s)
    for row, want in zip(s, g):
        assert np.array_equal(O._symplectic_exp(SP, row), want)


def test_stem_only_checks_the_shared_point_within_its_trials(monkeypatch):
    # a shared point read as off a stem is one failure per pair: the check
    # is reachable, and the suite still runs exactly its trials
    regions = C._lagrangian_regions

    def off_stem(*args):
        (wing_plus, wing_minus, stem), checks = regions(*args)
        return (wing_plus, wing_minus, np.zeros_like(stem)), checks

    monkeypatch.setattr(C, "_lagrangian_regions", off_stem)
    report = O.suite_stem_only(trials=3, seed=7)
    assert report["failures"] == [f"pair {k}: the shared point is off a stem"
                                  for k in range(1, 4)]


class _FixedRng:
    """Stands in for a generator whose uniform draws are given angles."""

    def __init__(self, thetas):
        self.thetas = np.asarray(thetas, dtype=float)

    def uniform(self, low, high, size):
        assert size == len(self.thetas)
        return self.thetas


@pytest.mark.parametrize("thetas", [
    [5e-6, 1.0, 2.0],
    [np.pi + 5e-6, 1.0],
    [0.0, 1e-7, 1e-6, 1.1e-5, -1.1e-5, 3e-5, np.pi - 2e-5],
])
def test_probe_reads_a_photon_pair_at_its_kink(thetas):
    # the two photons meet at driving angles 0 and pi, where the central
    # difference of a draw within ~3e-5 is not null
    t1 = E.EinsteinTorus([1, 0, 0, 0, 0])
    touching = E.EinsteinTorus([1, 0, 0, 1, 0])
    assert probe_intersection_type(t1, touching, len(thetas), _FixedRng(thetas)) \
        is E.IntersectionKind.PHOTON_PAIR


def _predicate_side_rule(*args, **kwargs):
    raise GeometryError("the oracle must not read the predicate")


@pytest.mark.parametrize("seed", [2, 3, 4, 8, 10, 11, 17, 19])
def test_stem_only_finds_a_contact_on_every_pair(seed):
    # seeds whose contacts an earlier grid search could not bring below
    # 1e-4; the closed-form contact must find every one
    report = O.suite_stem_only(trials=200, seed=seed)
    assert report["failures"] == []
    assert report["max_violation"] < 1e-9


def test_stem_wing_contact_reads_no_disjointness_predicate(monkeypatch):
    for name in ("_sixteen_pass", "photon_margins", "surfaces_disjoint"):
        monkeypatch.setattr(C, name, _predicate_side_rule)
    report = O.suite_stem_only(trials=200, seed=7)
    assert report["failures"] == []


def test_stem_wing_contact_misses_disjoint_surfaces():
    from ein3 import ads
    rng = O.make_rng(17)
    q1, q2 = np.array([[ads.ads_quadrilateral(p).columns for p in disjoint_ads_pair(rng)]
                       for _ in range(50)]).swapaxes(0, 1)
    _, _, hit = O._stem_wing_contacts(np.concatenate([q1, q2]), np.concatenate([q2, q1]))
    assert not hit.any()


def test_stem_only_contacts_are_timelike_and_on_a_wing_photon():
    # the contacts of the stem-only suite, checked by Maslov index and
    # subspace intersection rather than by the membership predicates
    for c1, c2, _shared in stem_crossing_pairs(SP, O.make_rng([7, 8]), 200):
        x1, x2, hit = O._stem_wing_contacts(
            *(np.array([c.quad.columns for c in order]) for order in ((c1, c2), (c2, c1))))
        c_stem, c_wing = (c1, c2) if hit[0] else (c2, c1)
        assert hit.any()
        l = S.Plane2.span(SP, *(x[0 if hit[0] else 1] for x in (x1, x2)))
        assert abs(S.maslov(SP, c_stem.p_zero, l, c_stem.p_inf)) == 2
        assert 1 in (plane_intersection_dim(l, c_wing.p_plus),
                     plane_intersection_dim(l, c_wing.p_minus))


def test_photon_oracle_finds_meeting_photons_without_the_predicate(monkeypatch):
    rng = O.make_rng(11)
    meeting = []
    while len(meeting) < 50:
        surface = C.CrookedSurface(random_quadrilateral(SP, rng))
        p = rng.normal(size=4)
        if not C.photon_disjoint(p, surface):
            meeting.append((p, surface))
    for name in ("photon_margins", "photon_disjoint", "find_crossing_lagrangian"):
        monkeypatch.setattr(C, name, _predicate_side_rule)
    for p, surface in meeting:
        found = photon_crossing_oracle(p, surface)
        assert found is not None
        assert C.surface_contains(surface, found) is not None
        assert _crossing_residual(p, surface, found) <= 1e-9


def _crossing_residual(p, surface, plane):
    """Numerical residual of 'plane is a surface point on the photon of p',
    one plane at a time: the reference of `oracle._crossing_residuals`."""
    space = surface.space
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    onb = plane.onb
    lag = abs(omega(space, onb[:, 0], onb[:, 1]))
    containment = float(np.linalg.norm(p - onb @ (onb.T @ p)))
    return max(lag, containment)


def test_pair_draws_read_no_membership_predicate(monkeypatch):
    with monkeypatch.context() as patch:
        for name in ("_quad_regions", "_lagrangian_regions"):
            patch.setattr(C, name, _predicate_side_rule)
        rngs = [O.make_rng(seed) for seed in range(1, 6)]
        stem = [stem_crossing_pair(SP, rng) for rng in rngs]
        rows, shared, _ = O._intersecting_rows(SP, *map(np.concatenate, zip(
            *(O._pair_draw(rng, 1, 4) for rng in rngs))))
    for c1, c2, l in stem:
        assert _stem_contains(c1, l) and _stem_contains(c2, l)
    for (r1, r2), onb in zip(rows, shared):
        c1, c2 = (C.CrookedSurface(C.LightlikeQuadrilateral(SP, *r)) for r in (r1, r2))
        l = S.Plane2(SP, onb)
        assert C.surface_contains(c1, l) is not None
        assert l == c2.p_plus


def test_torus_probe_reads_neither_eta_nor_the_classifier(monkeypatch):
    rng = O.make_rng(13)
    pairs = [(E.EinsteinTorus([1, 0, 0, 0, 0]), E.EinsteinTorus([1, 0, 0, 1, 0]))]
    while len(pairs) < 201:
        t1 = E.EinsteinTorus(random_unit_spacelike(rng))
        t2 = E.EinsteinTorus(random_unit_spacelike(rng))
        if abs(eta(t1, t2) - 1.0) >= 1e-6:
            pairs.append((t1, t2))
    kinds = [E.classify_torus_pair(t1, t2).kind for t1, t2 in pairs]
    assert kinds[0] is E.IntersectionKind.PHOTON_PAIR
    for name in ("_torus_kinds", "classify_torus_pair"):
        monkeypatch.setattr(E, name, _predicate_side_rule)
    for (t1, t2), kind in zip(pairs, kinds):
        assert probe_intersection_type(t1, t2, 32, rng) is kind


def test_photon_suite_catches_a_flipped_wing_minus_sign(monkeypatch):
    products = C._products  # the suite's margins, read off W

    def flipped(w):
        m1, m2 = products(w)
        return m1, -m2

    monkeypatch.setattr(C, "_products", flipped)
    assert O.suite_photon_avoidance(trials=30, seed=7)["failures"]


def test_report_lines_shape():
    report = O.run_suite("eta-bridge", trials=5, seed=1)
    assert set(report) == {"suite", "trial_count", "seed", "failures",
                           "max_violation"}
    line = O.report_lines([report])
    assert line.endswith("\n")
    import json
    parsed = json.loads(line)
    assert parsed["suite"] == "eta-bridge"
    assert parsed["trial_count"] == 5


def test_unknown_suite_rejected():
    with pytest.raises(GeometryError):
        O.run_suite("nonsense")


# The rational eta bridge as it was written over fractions.Fraction, kept as
# the reference the integer implementation must reproduce float for float.
def _fraction_eta_bridge_values(split, f):
    import math
    from fractions import Fraction

    exact_e4 = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]

    def exact_plucker(u, v):
        return [u[i] * v[j] - u[j] * v[i] for (i, j) in S.PAIRS]

    def exact_nullspace_2x4(rows):
        r1, r2 = [list(r) for r in rows]
        j1 = max(range(4), key=lambda j: abs(r1[j]))
        factor = r2[j1] / r1[j1]
        r2 = [r2[j] - factor * r1[j] for j in range(4)]
        j2 = max((j for j in range(4) if j != j1), key=lambda j: abs(r2[j]))
        basis = []
        for k in range(4):
            if k in (j1, j2):
                continue
            x = [Fraction(0)] * 4
            x[k] = Fraction(1)
            x[j2] = -r2[k] / r2[j2]
            x[j1] = -(r1[k] + r1[j2] * x[j2]) / r1[j1]
            basis.append(x)
        return basis

    space = S.standard_space()
    gram_int = [[int(x) for x in row] for row in space._gram]
    omega_int = [[int(x) for x in row] for row in space.matrix]

    def omega_val(x, y):
        return sum(x[i] * omega_int[i][j] * y[j]
                   for i in range(4) for j in range(4) if omega_int[i][j])

    def wedge(a, b):
        return sum(a[i] * gram_int[i][j] * b[j]
                   for i in range(6) for j in range(6) if gram_int[i][j])

    u = [Fraction(x) for x in split.s_basis[:, 0]]
    v = [Fraction(x) for x in split.s_basis[:, 1]]
    v = [x / omega_val(u, v) for x in v]
    q1, q2 = exact_nullspace_2x4(
        ([omega_val(u, e) for e in exact_e4],
         [omega_val(v, e) for e in exact_e4]))
    q2 = [x / omega_val(q1, q2) for x in q2]
    fq = [[Fraction(x) for x in row] for row in np.asarray(f, dtype=float)]
    t1 = [u[i] + q1[i] * fq[0][0] + q2[i] * fq[1][0] for i in range(4)]
    t2 = [v[i] + q1[i] * fq[0][1] + q2[i] * fq[1][1] for i in range(4)]

    iota_s = exact_plucker(u, v)
    iota_t = exact_plucker(t1, t2)
    w_s = omega_val(u, v)
    w_t = omega_val(t1, t2)
    dot = wedge(iota_s, iota_t) + Fraction(1, 2) * w_s * w_t
    norm_s = wedge(iota_s, iota_s) + Fraction(1, 2) * w_s * w_s
    norm_t = wedge(iota_t, iota_t) + Fraction(1, 2) * w_t * w_t
    eta_mu = math.sqrt(float(dot * dot / (norm_s * norm_t)))
    half = Fraction(1, 2)
    mu_s = np.array([float(x + half * w_s * Fraction(o))
                     for x, o in zip(iota_s, space.omega_star)])
    mu_t = np.array([float(x + half * w_t * Fraction(o))
                     for x, o in zip(iota_t, space.omega_star)])
    s1 = space.to_einstein(mu_s) / math.sqrt(float(norm_s))
    s2 = space.to_einstein(mu_t) / math.sqrt(float(norm_t))
    return eta_mu, abs(inner(s1, s2))


def _suite_eta_draws(seed, count):
    """The first `count` (splitting, f) pairs that suite_eta_bridge tests."""
    rng = O.make_rng([seed, 2])
    draws = []
    while len(draws) < count:
        m, f = rng.normal(size=(4, 2)), rng.uniform(-2.0, 2.0, size=(2, 2))
        if O._planes(SP, m)[2] and abs(S.det_omega(f) + 1.0) > 1e-3:
            draws.append((S.Splitting.from_plane(SP, S.Plane2(SP, m)), f))
    return draws


def _near_det_minus_one_draws(count, rng):
    """(splitting, f) pairs with 1e-3 < |det f + 1| <= 1e-2: the
    ill-conditioned band just outside the suite's skip."""
    draws = []
    while len(draws) < count:
        split = random_splitting(SP, rng)
        f = rng.uniform(-2.0, 2.0, size=(2, 2))
        d = S.det_omega(f)
        if d >= -1e-2:
            continue
        target = -1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(1.1e-3, 9.9e-3)
        f = f * np.sqrt(target / d)
        assert 1e-3 < abs(S.det_omega(f) + 1.0) <= 1e-2
        draws.append((split, f))
    return draws


def _stacked(draws):
    return (np.array([split.s_basis for split, _ in draws]),
            np.array([f for _, f in draws]))


def _omega_rows(x):
    """omega(x, e_j) over the last axis, as `_eta_values` writes it."""
    return np.concatenate([-x[..., 2:], x[..., :2]], -1)


def _pivots(u, v):
    """The pivots (j1, j2) `_eta_values` eliminates on, in floats: the
    largest |omega(u, .)|, then the largest |minor| against it."""
    r1, r2 = _omega_rows(u), _omega_rows(v)
    j1 = int(np.abs(r1).argmax())
    return j1, int(np.abs(r1[j1] * r2 - r2[j1] * r1).argmax())


def _wide_and_pivot_draws(rng):
    """(basis, f) pairs of two kinds: entries whose binary exponents span
    at least 20, so that the common power of two is large, and bases that
    put the pivots at each of the 12 index pairs (j1, j2), from rows
    omega(u, .) and omega(v, .) each led by one entry."""
    draws, pairs = [], set()
    while len(draws) < 40:
        m = rng.normal(size=(4, 2)) * 2.0 ** rng.integers(-15, 16, size=(4, 2))
        f = rng.uniform(-2.0, 2.0, size=(2, 2)) * 2.0 ** rng.integers(-8, 9, size=(2, 2))
        exponents = np.frexp(np.concatenate([m.ravel(), f.ravel()]))[1]
        if exponents.max() - exponents.min() >= 20 and abs(S.det_omega(f) + 1.0) > 1e-3:
            draws.append((SimpleNamespace(s_basis=m), f))
    for j1, j2 in itertools.permutations(range(4), 2):
        r1, r2 = rng.normal(size=(2, 4)) + 10.0 * np.eye(4)[[j1, j2]]
        m = -_omega_rows(np.stack([r1, r2], -1).T).T  # omega(u, .) = r1, omega(v, .) = r2
        pairs.add(_pivots(*m.T))
        draws.append((SimpleNamespace(s_basis=m), rng.uniform(0.5, 1.5, size=(2, 2)) * np.eye(2)))
    assert len(pairs) == 12
    return draws


def test_integer_eta_bridge_matches_the_rational_reference():
    draws = (_suite_eta_draws(7, 200)
             + _near_det_minus_one_draws(50, O.make_rng(2024))
             + _wide_and_pivot_draws(O.make_rng(2025)))
    eta_mu, eta_ein, checks = O._eta_values(*_stacked(draws))
    assert not np.logical_or.reduce([mask for mask, _ in checks]).any()
    for (split, f), got in zip(draws, zip(eta_mu.tolist(), eta_ein.tolist())):
        assert got == _fraction_eta_bridge_values(split, f)


def test_eta_values_reduce_by_exact_divisions():
    # the two identities of `_eta_values`' docstring on random integer rows
    # of mixed lengths: the first pivot divides the Cramer vectors of the
    # eliminated rows, leaving the minors, and omega(q0, q1) = -+ p2 omega(u,
    # v), the sign that of the permutation (k0, k1, j1, j2)
    rng = O.make_rng(2026)
    for _ in range(2000):
        u, v = ([int(x) << int(shift) for x, shift in zip(rng.integers(-2 ** 62, 2 ** 62, size=4),
                                                          rng.integers(0, 120, size=4))]
                for _ in range(2))
        r1, r2 = (list(_omega_rows(np.array(x, object))) for x in (u, v))
        j1 = max(range(4), key=lambda j: abs(r1[j]))
        p1 = r1[j1]
        eliminated = [p1 * b - r2[j1] * a for a, b in zip(r1, r2)]
        j2 = max(range(4), key=lambda j: abs(eliminated[j]))
        p2 = eliminated[j2]
        k = [j for j in range(4) if j not in (j1, j2)]
        q = []
        for kk in k:
            cramer = {kk: p1 * p2, j2: -p1 * eliminated[kk],
                      j1: r1[j2] * eliminated[kk] - r1[kk] * p2}
            assert all(x % p1 == 0 for x in cramer.values())
            assert cramer[j1] // p1 == r1[j2] * r2[kk] - r1[kk] * r2[j2]
            q.append([cramer.get(j, 0) // p1 for j in range(4)])
        w12 = sum(a * b for a, b in zip(_omega_rows(np.array(q[0], object)), q[1]))
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(k + [j1, j2], 2))
        assert p2 != 0 and w12 == -sign * p2 * sum(a * b for a, b in zip(r1, v))


def test_eta_values_do_not_depend_on_the_block():
    s_basis, f = _stacked(_suite_eta_draws(1, 130))
    eta_mu, eta_ein, checks = O._eta_values(s_basis, f)
    for i in range(130):
        one = O._eta_values(s_basis[i:i + 1], f[i:i + 1])
        assert (one[0].tolist(), one[1].tolist()) == ([eta_mu[i]], [eta_ein[i]])
        assert [mask.tolist() for mask, _ in one[2]] == [[mask[i]] for mask, _ in checks]


def test_eta_bridge_takes_the_exact_invariants_once_per_block(monkeypatch):
    calls = []
    eta_values = O._eta_values

    def counted(s_basis, f):
        calls.append(len(f))
        return eta_values(s_basis, f)

    monkeypatch.setattr(O, "_eta_values", counted)
    assert O.suite_eta_bridge(trials=O._ORACLE_BLOCK + 2, seed=7)["failures"] == []
    assert calls == [O._ORACLE_BLOCK, 2]


@pytest.mark.parametrize("kernel_row, message", [(3, "kernel check"), (7, "splitting check")])
def test_eta_bridge_raises_the_first_failed_check_in_trial_order(monkeypatch, kernel_row,
                                                                 message):
    # trial 5's basis is zero, where the exact route would divide by zero,
    # and fails a splitting check; a mu image fails its kernel check at
    # kernel_row: whichever trial comes first raises its own error
    splittings, eta_values = O._splittings, O._eta_values

    def broken_splitting(space, m):
        s_basis, t_basis, checks = splittings(space, m)
        s_basis[5] = 0.0
        return s_basis, t_basis, checks + [(np.arange(len(m)) == 5, "splitting check")]

    def broken_kernel(s_basis, f):
        eta_mu, eta_ein, checks = eta_values(s_basis, f)
        return eta_mu, eta_ein, checks + [(np.arange(len(f)) == kernel_row, "kernel check")]

    monkeypatch.setattr(O, "_splittings", broken_splitting)
    monkeypatch.setattr(O, "_eta_values", broken_kernel)
    with pytest.raises(GeometryError, match=message):
        O.suite_eta_bridge(trials=20, seed=7)


def test_eta_bridge_runs_a_block_with_no_kind_to_read(monkeypatch):
    # every eta read as 1: no trial's torus is checked or its kind read, and
    # each trial reports its mismatch with the mu routes
    monkeypatch.setattr(S, "eta_from_det", lambda f, eps=C.EPS_ALG: np.ones(len(f)))
    failures = O.suite_eta_bridge(trials=20, seed=7)["failures"]
    assert failures[0] == "trial 1: eta mismatch 2.599e-01 (det -0.1150)"
    assert _trial_numbers(failures) == list(range(1, 21))
    assert all(": eta mismatch " in failure for failure in failures)


def _failing_at(n, rows, message):
    """A check that fails at the given rows of a stack of n."""
    return np.isin(np.arange(n), rows), message


def _failing_part(shape, trial, part, message):
    """A check of a (trials, parts) stack that fails at one part of one
    trial, both numbered from 0."""
    mask = np.zeros(shape, bool)
    mask[trial, part] = True
    return mask, message


@pytest.mark.parametrize("point_row, causal_row, message", [
    (3, 7, "point check"), (7, 3, "causal check"), (5, 5, "point check")])
def test_maslov_bridge_raises_the_first_failed_check_in_trial_order(monkeypatch, point_row,
                                                                    causal_row, message):
    # the points of P, L and L' are stacked (trial, part): L's point of
    # trial point_row fails a point check, the causal type of trial
    # causal_row its check; within a trial the points come first
    lagrangian_points, causal_rows = S._lagrangian_points, E._causal_rows

    def broken_points(space, bases):
        reps, checks = lagrangian_points(space, bases)
        return reps, checks + [_failing_part(bases.shape[:2], point_row - 1, 1, "point check")]

    def broken_causal(p, p0, pinf):
        index, checks = causal_rows(p, p0, pinf)
        return index, checks + [_failing_at(len(p), causal_row - 1, "causal check")]

    monkeypatch.setattr(S, "_lagrangian_points", broken_points)
    monkeypatch.setattr(E, "_causal_rows", broken_causal)
    with pytest.raises(GeometryError, match=f"^{message}$"):
        O.suite_maslov_bridge(trials=20, seed=7)


def test_symplectic_identities_raises_the_first_failed_complement_check(monkeypatch):
    # the first block's complements fail at trials 4 and 8, with their own
    # messages: trial 4's raises
    complements, calls = S._complements, []

    def broken(space, s):
        comp, checks = complements(space, s)
        calls.append(len(s))
        if len(calls) == 1:
            checks = checks + [_failing_at(len(s), 7, "trial 8"),
                               _failing_at(len(s), 3, "trial 4")]
        return comp, checks

    monkeypatch.setattr(S, "_complements", broken)
    with pytest.raises(GeometryError, match="^trial 4$"):
        O.suite_symplectic_identities(trials=20, seed=7)


@pytest.mark.parametrize("moved_row, split_row, message", [
    (3, 7, "moved check"), (7, 3, "splitting check"), (5, 5, "moved check")])
def test_symplectic_identities_raises_the_first_failed_maslov_check(monkeypatch, moved_row,
                                                                     split_row, message):
    # the kept Maslov/graph trials' moved triples fail at moved_row and their
    # splittings at split_row; within a trial the moved triple comes first.
    # The first `_maslov_rows` call is the screen's, the second the moved one
    maslov_rows, splittings, calls = S._maslov_rows, O._splittings, []

    def broken_maslov(space, l, p, lp, *args):
        index, checks = maslov_rows(space, l, p, lp, *args)
        calls.append(len(l))
        if len(calls) == 2:
            checks = checks + [_failing_at(len(l), moved_row, "moved check")]
        return index, checks

    def broken_splittings(space, m):
        s_basis, t_basis, checks = splittings(space, m)
        return s_basis, t_basis, checks + [_failing_at(len(m), split_row, "splitting check")]

    monkeypatch.setattr(S, "_maslov_rows", broken_maslov)
    monkeypatch.setattr(O, "_splittings", broken_splittings)
    with pytest.raises(GeometryError, match=f"^{message}$"):
        O.suite_symplectic_identities(trials=20, seed=7)
    assert len(calls) == 2


def _corrupting(patch, module, name, corrupt):
    """Patch module.name to return corrupt of what it returns."""
    call = getattr(module, name)
    patch.setattr(module, name, lambda *args: corrupt(call(*args)))


def _failing_fourth(out):
    """A kernel's (values, checks) with a check that fails at trial 4."""
    values, checks = out
    return values, checks + [_failing_at(len(checks[0][0]), 3, "trial 4")]


def _nan_row(array, row=9):
    array[row] = np.nan
    return array


def _short_row(bases, row=9):
    """Bases whose second column at row is its first: rank 1."""
    bases[row, ..., 1] = bases[row, ..., 0]
    return bases


def _eta_complement(patch, fail):
    # trial 10's complement basis is NaN; trial 4's complement check fails
    _corrupting(patch, S, "_complements", lambda out: (_nan_row(out[0]), out[1]))
    if fail:
        _corrupting(patch, S, "_complements", _failing_fourth)


def _identities_frames(patch, fail):
    # trial 10's p basis is NaN; trial 4's complement check fails
    _corrupting(patch, O, "_keeping", lambda out: (*out[:2], _nan_row(out[2]), out[3]))
    if fail:
        _corrupting(patch, S, "_complements", _failing_fourth)


def _identities_moved(patch, fail):
    # the Maslov/graph trials' tenth moved triple is NaN; their fourth
    # splitting fails a check
    _corrupting(patch, O, "_symplectic_exp", _nan_row)
    if fail:
        _corrupting(patch, O, "_splittings", lambda out: (*out[:2], out[2] + [
            _failing_at(len(out[0]), 3, "trial 4")]))


def _photon_witness(patch, fail):
    # trial 11 (trial 10 avoids at seed 3) is a meeting photon whose witness
    # has rank 1; trial 4's surface fails a check
    _corrupting(patch, C, "_crossing_bases", lambda out: (_short_row(out[0], 10), out[1]))
    _surface_fourth(patch, fail)


def _surface_fourth(patch, fail):
    if fail:
        _corrupting(patch, O, "_surface_checks", lambda checks: checks + [
            _failing_at(len(checks[0][0]), 3, "trial 4")])


def _membership_fourth(patch, fail):
    if fail:
        _corrupting(patch, C, "_lagrangian_regions", _failing_fourth)


def _stem_shared(patch, fail):
    # trial 10's shared stem point, of the first call (the first surface's),
    # has equal generators
    calls = []

    def equal(out):
        calls.append(out)
        if len(calls) == 1:
            out[1][9] = out[0][9]
        return out

    _corrupting(patch, O, "_stem_generators", equal)
    _membership_fourth(patch, fail)


def _stem_contact(patch, fail):
    # trial 10's contact generators are parallel, in either order
    def parallel(out):
        x1, x2, hit = out
        x1, x2 = (x.reshape(-1, 2, 4) for x in (x1, x2))  # (trial, order)
        x2[9] = 2.0 * x1[9]
        return x1.reshape(-1, 4), x2.reshape(-1, 4), hit

    _corrupting(patch, O, "_stem_wing_contacts", parallel)
    _membership_fourth(patch, fail)


def _intersecting_shared(patch, fail):
    # trial 10's shared point, on a wing or on the stem, is NaN
    for name in ("_wing_generators", "_stem_generators"):
        _corrupting(patch, O, name, lambda out: (_nan_row(out[0]), out[1]))
    _membership_fourth(patch, fail)


def _causal_span(patch, fail):
    # trial 10's point of P (part 0) is NaN; trial 4's fails a point check
    _corrupting(patch, S, "_lagrangian_points", lambda out: (_nan_row(out[0], (9, 0)), out[1]))
    if fail:
        _corrupting(patch, S, "_lagrangian_points", lambda out: (out[0], out[1] + [
            _failing_part(out[0].shape[:2], 3, 0, "trial 4")]))


def _identities_rank_one(patch, fail):
    # trial 10's p basis has rank 1, so its Pluecker row is 0; trial 4's
    # complement check fails
    _corrupting(patch, O, "_keeping", lambda out: (*out[:2], _short_row(out[2]), out[3]))
    if fail:
        _corrupting(patch, S, "_complements", _failing_fourth)


def _singular_first(rows):
    """Quadrilateral rows (trials, ..., 4, 4) whose tenth trial's first
    quadrilateral has v- = u+: no solve can read it."""
    quad = rows.reshape(len(rows), -1, 4, 4)[9, 0]
    quad[3] = quad[0]
    return rows


def _photon_quadrilateral(patch, fail):
    # trial 10's quadrilateral, rows and columns, is singular; trial 4's
    # surface fails a check
    def singular(out):
        rows, columns = out[:2]
        _singular_first(rows)
        columns[9] = rows[9].T
        return out

    _corrupting(patch, O, "_keeping", singular)
    _surface_fourth(patch, fail)


def _pair_quadrilateral(name):
    def corrupt(patch, fail):
        # the first quadrilateral of trial 10's pair is singular
        _corrupting(patch, O, name, lambda out: (_singular_first(out[0]), *out[1:]))
        _membership_fourth(patch, fail)
    return corrupt


_NON_FINITE_BASIS = "basis has non-finite entries"
_RANK_ONE = "basis matrix has rank 1 < 2 column(s)"
_V_MINUS_IS_U_PLUS = "quadrilateral products violated: omega(u+, v-) - 1 off by -1.000e+00"


@pytest.mark.parametrize("suite, corrupt, message", [
    (O.suite_eta_bridge, _eta_complement, _NON_FINITE_BASIS),
    (O.suite_symplectic_identities, _identities_frames, _NON_FINITE_BASIS),
    (O.suite_symplectic_identities, _identities_moved, _NON_FINITE_BASIS),
    (O.suite_photon_avoidance, _photon_witness, _RANK_ONE),
    (O.suite_stem_only, _stem_shared, _RANK_ONE),
    (O.suite_stem_only, _stem_contact, _RANK_ONE),
    (O.suite_surface_disjointness, _intersecting_shared, _NON_FINITE_BASIS),
    (O.suite_maslov_bridge, _causal_span, _NON_FINITE_BASIS),
    (O.suite_symplectic_identities, _identities_rank_one, _RANK_ONE),
    (O.suite_photon_avoidance, _photon_quadrilateral, _V_MINUS_IS_U_PLUS),
    (O.suite_stem_only, _pair_quadrilateral("_stem_rows"), _V_MINUS_IS_U_PLUS),
    (O.suite_surface_disjointness, _pair_quadrilateral("_intersecting_rows"),
     _V_MINUS_IS_U_PLUS)],
    ids=["eta-complement", "identities-frames", "identities-moved", "photon-witness",
         "stem-shared", "stem-contact", "intersecting-shared", "maslov-causal-span",
         "identities-rank-one", "photon-quadrilateral", "stem-quadrilateral",
         "intersecting-quadrilateral"])
def test_a_kernel_basis_check_raises_in_trial_order(monkeypatch, suite, corrupt, message):
    # trial 10 (11 for photon-witness) hands a frame kernel a NaN or
    # rank-deficient basis: when trial 4 fails a check, its error comes
    # first; else that trial raises the kernel's own error, with no
    # LinAlgError and no RuntimeWarning (its row has a stand-in frame)
    for fail, want in ((True, "trial 4"), (False, message)):
        with monkeypatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error")
            corrupt(patch, fail)
            with pytest.raises(GeometryError, match=f"^{re.escape(want)}$"):
                suite(trials=20, seed=3)


def test_oracle_imports_neither_fractions_nor_decimal():
    import os
    import subprocess
    import sys

    child = ("import sys, ein3.oracle; "
             "print([m for m in ('fractions', 'decimal') if m in sys.modules])")
    # the child imports the ein3 under test; hypothesis has already put
    # fractions into this process, so the check needs a fresh interpreter
    src = os.path.dirname(os.path.dirname(O.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def _reference_photon_crossing(p, surface):
    """The photon-crossing oracle as it was written per trial, kept as the
    reference of the stacked `_photon_crossings`: the second generator of
    the first candidate on the surface, or None."""
    from ein3.linalg import nullspace
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    base = nullspace((surface.space.matrix @ p)[None, :])
    proj = base - np.outer(p, p @ base) / float(p @ p)
    u, _, _ = np.linalg.svd(proj, full_matrices=False)
    w1, w2 = u[:, 0], u[:, 1]
    k = np.linalg.solve(surface.quad.columns, np.column_stack([p, w1, w2]))
    a, b = S.plucker_rows(k[:, 0], k[:, 1:].T)[:, [4, 1, 3, 2]]
    t = np.arctan2(-a, b)
    ws = np.cos(t)[:, None] * w1 + np.sin(t)[:, None] * w2
    bases = np.stack([np.broadcast_to(p, ws.shape), ws], axis=-1)
    hits = np.flatnonzero(np.logical_or.reduce(
        C._quad_regions(surface.quad.columns, bases, C.EPS_ALG)))
    return ws[hits[0]] if hits.size else None


def test_stacked_photon_oracle_matches_the_per_trial_reference():
    rng = O.make_rng(11)
    draws = []
    for _ in range(3000):
        surface = C.CrookedSurface(random_quadrilateral(SP, rng))
        draws.append((rng.normal(size=4), surface))
    want = [_reference_photon_crossing(p, surface) for p, surface in draws]
    units = np.array([p / np.linalg.norm(p) for p, _ in draws])
    columns = np.array([surface.quad.columns for _, surface in draws])
    ws, hits = O._photon_crossings(SP, units, columns)
    assert [w is not None for w in want] == hits.tolist()
    assert hits.sum() > 2000
    for (p, surface), w, got, hit in zip(draws, want, ws, hits):
        if hit:
            assert S.Plane2.span(SP, p, got) == S.Plane2.span(SP, p, w)
    for (p, surface), w in zip(draws[:300], want):
        found = photon_crossing_oracle(p, surface)
        assert (found is None) == (w is None)
        if found is not None:
            assert found == S.Plane2.span(SP, p / np.linalg.norm(p), w)


def _constant_oracle(hit):
    def crossings(space, units, columns):
        return np.zeros((len(units), 4)), np.full(len(units), hit)
    return crossings


def _numbered(draws):
    """A draw of `_blocks` whose candidates are their own numbers, one
    array a call; each call's (first, k) is appended to draws."""
    def draw(first, k):
        draws.append((first, k))
        return np.arange(first, first + k),
    return draw


def _keeping_where(rule, chunks=None):
    """A screen of `_numbered` candidates that keeps those where rule holds;
    each chunk's (first, size) is appended to chunks, if given."""
    def screen(chunk):
        if chunks is not None:
            chunks.append((int(chunk[0][0]), len(chunk[0])))
        return O._keeping(rule(chunk[0]), *chunk)
    return screen


def _quanta(start, stop):
    """The draw calls of `_blocks` over candidates start, ..., stop - 1."""
    return [(first, O._DRAW_QUANTUM) for first in range(start, stop, O._DRAW_QUANTUM)]


def test_blocks_spend_a_bounded_budget():
    assert O._ORACLE_BLOCK % O._DRAW_QUANTUM == 0
    assert list(O._blocks(0, None)) == []
    draws, chunks = [], []
    draw = _numbered(draws)
    # 3 trials draw one whole quantum, screen it cut to the budget of 30
    # candidates, and the screen drops those it skips
    assert [(first, block[0].tolist()) for first, block in O._blocks(
        3, draw, _keeping_where(lambda c: c % 3 == 2, chunks))] == [(1, [2, 5, 8])]
    assert (draws, chunks) == (_quanta(0, 1), [(0, 30)])
    draws.clear()
    chunks.clear()
    with pytest.raises(O.RetryExhausted, match="fewer than 4 accepted trials in 40 attempts"):
        list(O._blocks(4, draw, _keeping_where(lambda c: c < 0, chunks)))  # skips every one
    assert (draws, chunks) == (_quanta(0, 1), [(0, 40)])
    draws.clear()
    chunks.clear()
    trials = O._ORACLE_BLOCK // O.ATTEMPTS_PER_TRIAL + 1  # a budget past one chunk
    limit = O.ATTEMPTS_PER_TRIAL * trials
    with pytest.raises(O.RetryExhausted,
                       match=f"fewer than {trials} accepted trials in {limit} attempts"):
        list(O._blocks(trials, draw, _keeping_where(lambda c: c < 0, chunks)))
    assert draws == _quanta(0, limit)  # the last quantum whole
    assert chunks == [(0, O._ORACLE_BLOCK), (O._ORACLE_BLOCK, limit - O._ORACLE_BLOCK)]
    # the default screen keeps every candidate
    assert [(first, block[0].tolist()) for first, block in O._blocks(3, draw)] == [(1, [0, 1, 2])]


@pytest.mark.parametrize("trials", [1, 3, 13, 40, 200])
def test_blocks_give_up_exactly_when_the_budget_keeps_too_few(trials):
    # over keep patterns about the one-in-ten rate, and one that keeps one
    # too few and one just enough within the budget (the last at its last
    # candidate): the budget message exactly when the first
    # ATTEMPTS_PER_TRIAL * trials candidates keep fewer than trials, else
    # the first trials kept candidates
    limit = O.ATTEMPTS_PER_TRIAL * trials
    rng = np.random.default_rng(trials)
    patterns = [rng.random(limit + 2 * O._ORACLE_BLOCK) < rate
                for rate in (0.05, 0.09, 0.1, 0.1, 0.11, 0.15, 0.5)]
    for last in (False, True):
        keep = np.ones(limit + 2 * O._ORACLE_BLOCK, bool)
        keep[:limit] = False
        keep[rng.choice(limit - 1, trials - 1, replace=False)] = True
        keep[limit - 1] = last
        patterns.append(keep)
    outcomes = set()
    for keep in patterns:
        blocks = O._blocks(trials, _numbered([]), _keeping_where(lambda c: keep[c]))
        short = bool(keep[:limit].sum() < trials)
        outcomes.add(short)
        if short:
            with pytest.raises(O.RetryExhausted,
                               match=f"^fewer than {trials} accepted trials in {limit} attempts$"):
                list(blocks)
        else:
            got = np.concatenate([block[0] for _, block in blocks])
            assert got.tolist() == np.flatnonzero(keep)[:trials].tolist()
    assert outcomes == {True, False}


def _block_shapes(trials):
    """(number of the first trial, trials) of each block `_blocks` yields."""
    return [(t + 1, min(O._ORACLE_BLOCK, trials - t)) for t in range(0, trials, O._ORACLE_BLOCK)]


def test_screened_blocks_draw_whole_chunks_in_candidate_order():
    draws, chunks = [], []
    blocks = list(O._blocks(300, _numbered(draws), _keeping_where(lambda c: c % 3 != 0, chunks)))
    # the candidates a trial-by-trial loop keeps, in full blocks but the last
    kept = [r for r in range(1000) if r % 3][:300]
    assert [r for _, block in blocks for r in block[0].tolist()] == kept
    assert [(first, len(block[0])) for first, block in blocks] == _block_shapes(300)
    # whole chunks of _ORACLE_BLOCK, up to the one that holds the last trial,
    # each drawn in quanta in candidate order
    assert chunks == [(first, O._ORACLE_BLOCK) for first in range(0, kept[-1] + 1, O._ORACLE_BLOCK)]
    assert draws == _quanta(0, len(chunks) * O._ORACLE_BLOCK)


def test_blocks_carry_what_a_screen_keeps_past_a_block():
    # three records a candidate, (candidate, j), from one chunk: the records
    # past a full block come first in the next, and no candidate is dropped
    draws = []

    def screen(chunk):
        c = chunk[0]
        return np.repeat(c, 3), np.tile(np.arange(3), len(c))

    blocks = list(O._blocks(300, _numbered(draws), screen))
    assert [(first, len(block[0])) for first, block in blocks] == _block_shapes(300)
    records = [(r, j) for r in range(100) for j in range(3)]
    assert [list(zip(*(a.tolist() for a in block))) for _, block in blocks] == [
        records[first - 1:first - 1 + n] for first, n in _block_shapes(300)]
    assert draws == _quanta(0, O._ORACLE_BLOCK)  # one chunk


@pytest.mark.parametrize("trials", [1, 4, O._ORACLE_BLOCK // O.ATTEMPTS_PER_TRIAL + 1, 40, 130,
                                    300])
def test_blocks_of_fewer_trials_are_a_prefix(trials):
    # a candidate's draws depend only on its number, so trials=T yields the
    # first T records of trials=2T, for a draw of two rng calls a quantum,
    # budgets below one quantum (1 and 4 trials) included
    def records(n):
        rng = np.random.default_rng(5)

        def draw(first, k):
            return rng.normal(size=k), rng.uniform(size=(k, 2))

        blocks = O._blocks(n, draw, lambda c: O._keeping(c[0] > 0.5, *c))
        return [np.concatenate(a) for a in zip(*(block for _, block in blocks))]

    few, many = records(trials), records(2 * trials)
    assert len(few[0]) == trials and len(many[0]) == 2 * trials
    assert all(np.array_equal(a, b[:trials]) for a, b in zip(few, many))


def test_photon_suite_reports_a_blind_or_a_seeing_oracle_in_trial_order(monkeypatch):
    assert O.suite_photon_avoidance(trials=20, seed=7)["failures"] == []
    with monkeypatch.context() as patch:
        patch.setattr(O, "_photon_crossings", _constant_oracle(False))
        blind = O.suite_photon_avoidance(trials=20, seed=7)["failures"]
        crossing_bases = C._crossing_bases  # the suite's witnesses
        patch.setattr(C, "_crossing_bases", lambda units, *args: (
            crossing_bases(units, *args)[0], np.zeros(len(units), dtype=bool)))
        both = O.suite_photon_avoidance(trials=20, seed=7)["failures"]
    with monkeypatch.context() as patch:
        patch.setattr(O, "_photon_crossings", _constant_oracle(True))
        seeing = O.suite_photon_avoidance(trials=20, seed=7)["failures"]
    meeting = [int(f.split(":")[0][6:]) for f in blind]
    disjoint = [int(f.split(":")[0][6:]) for f in seeing]
    assert meeting and disjoint
    assert sorted(meeting + disjoint) == list(range(1, 21))
    assert blind == [f"trial {k}: meeting photon but oracle found nothing"
                     for k in meeting]
    assert seeing == [f"trial {k}: disjoint photon but oracle found a point"
                      for k in disjoint]
    # within a trial the oracle's failure comes before the witness's
    assert both == [f"trial {k}: {m}" for k in meeting
                    for m in ("meeting photon but oracle found nothing",
                              "no constructive witness")]


def test_photon_suite_calls_the_oracle_in_blocks(monkeypatch):
    sizes = []
    crossings = O._photon_crossings

    def counted(space, units, columns):
        sizes.append(len(units))
        return crossings(space, units, columns)

    monkeypatch.setattr(O, "_photon_crossings", counted)
    assert O.suite_photon_avoidance(trials=300, seed=3)["failures"] == []
    assert sizes == [n for _, n in _block_shapes(300)]


def test_min_gap_equals_the_clipped_maximum():
    rng = O.make_rng(21)
    for k in range(20):
        a = sample_torus(E.EinsteinTorus(random_unit_spacelike(rng)), 50, rng)
        b = a if k % 5 == 0 else sample_torus(
            E.EinsteinTorus(random_unit_spacelike(rng)), 50, rng)
        cos = np.clip(np.abs(unit_points(a) @ unit_points(b).T), 0.0, 1.0)
        assert min_gap(a, b) == float(np.sqrt(max(0.0, 1.0 - float(cos.max()) ** 2)))


# report_lines of five suites at trials=200 on seeds 1-3 (one block each):
# maslov-bridge's as the trial-by-trial suite wrote them, the others' as the
# draws decided by the stacked screens write them (torus-trichotomy's since
# each candidate draws its pair of normals and all of its angles,
# surface-disjointness' since its disjoint pairs are every pass of
# _ADS_ROWS-row candidates and its clouds, drawn in the check stage, and its
# intersecting pairs each come from a stream of their own);
# the max_violation of torus-trichotomy, eta-bridge and surface-disjointness
# as the closed-form torus and plane frames and bilinear clouds round it; all
# as `_blocks` draws candidates, in quanta of _DRAW_QUANTUM
_STACKED_SUITE_SHA256 = {
    "torus-trichotomy": "27398e7752b041e5c78165ccc05dc28b556185816c3d4b41591e56856846ecb5",
    "eta-bridge": "01c79f3f45086d994fac201b0a00a7fd355759fac4d20f648f71fa9071659408",
    "symplectic-identities": "a07f62ce823414a16306abca8118ab26880524b445dfe6c2f6e08f4e99504f21",
    "maslov-bridge": "aba5054fe7d90dcec6b8c4951e908dbf685f6314e4b2c4e69b27e5af994982fc",
    "surface-disjointness": "cb5319c5de85110efe725a510a0e9852f38b642cff6a0a742d0336ad2f2b56ac",
}


@pytest.mark.parametrize("name", sorted(_STACKED_SUITE_SHA256))
def test_stacked_suites_keep_their_report_bytes(name):
    import hashlib
    lines = O.report_lines([O.run_suite(name, trials=200, seed=seed) for seed in (1, 2, 3)])
    assert hashlib.sha256(lines.encode()).hexdigest() == _STACKED_SUITE_SHA256[name]


def _trial_numbers(failures):
    return [int(f.split(":")[0][len("trial "):]) for f in failures]


def test_maslov_bridge_reports_a_swapped_causal_kernel_in_trial_order(monkeypatch):
    causal_rows = E._causal_rows

    def swapped(*args, **kwargs):
        index, checks = causal_rows(*args, **kwargs)
        return np.choose(index, [0, 2, 1]), checks

    monkeypatch.setattr(E, "_causal_rows", swapped)
    failures = O.suite_maslov_bridge(trials=30, seed=7)["failures"]
    # every third trial is drawn lightlike, and only those keep their type
    assert _trial_numbers(failures) == [k for k in range(1, 31) if k % 3]
    for f in failures:
        assert f.endswith(("maslov 2 vs causal CausalType.SPACELIKE",
                           "maslov 0 vs causal CausalType.TIMELIKE"))


def test_torus_trichotomy_validates_each_normal_once():
    # the normal kernel checks each screened chunk's normals once, and no
    # trial builds an `EinsteinTorus` (whose boundary is `as_vector`); the
    # kinds, carriers, frames and curve points take arrays as they are.
    # Counted by code object, whichever module binds the name
    import sys
    from ein3 import linalg

    counts = {linalg.as_vector.__code__: 0, E.EinsteinTorus.__init__.__code__: 0,
              E._torus_normals.__code__: 0, O._torus_screen.__code__: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        report = O.suite_torus_trichotomy(trials=O._ORACLE_BLOCK + 2, seed=7)
    finally:
        sys.setprofile(previous)
    assert report["failures"] == []
    chunks = counts[O._torus_screen.__code__]
    assert chunks > 1 and list(counts.values()) == [0, 0, chunks, chunks]

def test_torus_trichotomy_reports_a_patched_carrier_kernel_in_trial_order(monkeypatch):
    signatures = E._carrier_signatures

    def swapped(n1, n2):
        p, q, z = signatures(n1, n2)
        return q, p, z

    monkeypatch.setattr(E, "_carrier_signatures", swapped)
    failures = O.suite_torus_trichotomy(trials=30, seed=7)["failures"]
    assert _trial_numbers(failures) == list(range(1, 31))
    for f in failures:
        assert f.endswith(("carrier signature (2, 1, 0) for IntersectionKind.TIMELIKE_CIRCLE",
                           "carrier signature (1, 2, 0) for IntersectionKind.SPACELIKE_CIRCLE"))


def test_eta_bridge_reports_flipped_kinds_in_trial_order(monkeypatch):
    kinds = E._torus_kinds
    circles = [E._KINDS.index(E.IntersectionKind.TIMELIKE_CIRCLE),
               E._KINDS.index(E.IntersectionKind.SPACELIKE_CIRCLE)]

    def flipped(s1, s2, *args):
        index, e = kinds(s1, s2, *args)
        return np.select([index == circles[0], index == circles[1]], circles[::-1], index), e

    monkeypatch.setattr(E, "_torus_kinds", flipped)
    failures = O.suite_eta_bridge(trials=30, seed=7)["failures"]
    assert _trial_numbers(failures) == list(range(1, 31))
    assert all(" kind IntersectionKind." in f and " vs eta " in f for f in failures)


def test_eta_bridge_reads_no_kind_of_a_torus_in_the_null_band():
    # trial 900 at seed 17 has |det f + 1| = 1.008e-3, outside the skip
    # band, but its graph's torus normal has Q(s)/|s|^2 = 5.3e-10, inside
    # the null band where `EinsteinTorus` raises: the suite compares the
    # trial's eta routes and reads no kind of it
    assert O.suite_eta_bridge(trials=900, seed=17)["failures"] == []


def _reference_maslov(space, l, p, lp, eps=1e-9):
    """`maslov` as it was written per triple, kept as the reference of the
    stacked `_maslov_rows`, transversality by the rank rule of `_singular`
    on the SVD of [L | L']."""
    from ein3.linalg import inertia
    m = np.hstack([l.onb, lp.onb])
    values = np.linalg.svd(m, compute_uv=False)
    if values[-1] <= eps * max(1.0, values[0]):
        raise GeometryError("L and L' are not transverse")
    coeffs = np.linalg.solve(m, p.onb)
    g = (l.onb @ coeffs[:2]).T @ space.matrix @ (lp.onb @ coeffs[2:])
    pos, neg, zero = inertia(np.linalg.eigvalsh((g + g.T) / 2), eps)
    if zero:
        raise GeometryError("restricted form is degenerate: P is not transverse to L and L'")
    return pos - neg


def _reference_causal(p, p0, pinf, eps=1e-9):
    """`classify_point` as it was written per point, kept as the reference
    of the stacked `_causal_rows`."""
    from ein3.linalg import inertia

    def incident(a, b):
        return abs(inner(a.rep / np.linalg.norm(a.rep), b.rep / np.linalg.norm(b.rep))) <= eps

    if incident(p0, pinf):
        raise GeometryError("p0 and pinf are incident: no Minkowski patch")
    if p == p0 or p == pinf:
        raise GeometryError("point coincides with a reference point")
    if incident(p, p0):
        return E.CausalType.LIGHTLIKE
    if incident(p, pinf):
        raise GeometryError(
            "point lies on the light cone of pinf, outside the Minkowski patch")
    onb = _orthonormal_columns(np.column_stack([p.rep, p0.rep, pinf.rep]))
    sig = inertia(np.linalg.eigvalsh(onb.T @ E.GRAM @ onb))
    types = {(1, 2, 0): E.CausalType.TIMELIKE, (2, 1, 0): E.CausalType.SPACELIKE}
    if sig not in types:
        raise GeometryError(f"degenerate configuration, span signature {sig}")
    return types[sig]


def _outcome(call, *args):
    try:
        return call(*args)
    except GeometryError as error:
        return str(error)


def test_stacked_maslov_and_causal_kernels_match_the_per_trial_reference():
    rng = O.make_rng(17)
    triples = []
    for k in range(600):
        l, lp = random_lagrangian(SP, rng), random_lagrangian(SP, rng)
        p = random_lagrangian(SP, rng)
        if k % 4 == 0:  # P = L: no index, and a point that coincides with p0
            p = l
        elif k % 4 == 1:  # P through a line of L: no index, a lightlike point
            x = l.basis @ rng.normal(size=2)
            base = SP.matrix @ x
            r = rng.normal(size=4)
            p = S.Plane2.span(SP, x, r - (r @ base) / (base @ base) * base)
        triples.append((l, p, lp))
    ls, ps, lps = ([t[j] for t in triples] for j in range(3))
    onb = [np.array([plane.onb for plane in planes]) for planes in (ls, ps, lps)]
    index, checks = S._maslov_rows(SP, *onb)
    points = [[lagrangian_point(SP, plane) for plane in planes] for planes in (ps, ls, lps)]
    reps, point_checks = S._lagrangian_points(
        SP, np.concatenate([np.array([plane.basis for plane in planes]) for planes in (ps, ls, lps)]))
    assert not any(mask.any() for mask, _ in point_checks)
    assert np.array_equal(reps, np.concatenate([[x.rep for x in row] for row in points]))
    causal, causal_checks = E._causal_rows(*np.split(reps, 3))
    outcomes = {"maslov": set(), "causal": set()}
    for i, (l, p, lp) in enumerate(triples):
        want = _outcome(_reference_maslov, SP, l, p, lp)
        got = next((m for mask, m in checks if mask[i]), None) or int(index[i])
        assert got == want == _outcome(S.maslov, SP, l, p, lp)
        outcomes["maslov"].add(want)
        point, p0, pinf = (row[i] for row in points)
        want = _outcome(_reference_causal, point, p0, pinf)
        got = next((m if isinstance(m, str) else m(i) for mask, m in causal_checks if mask[i]),
                   None) or E._CAUSAL[causal[i]]
        assert got == want == _outcome(classify_point, point, p0, pinf)
        outcomes["causal"].add(want)
    # both kernels took every branch the suite reads, and a raise
    assert {-2, 0, 2} < outcomes["maslov"]
    assert set(E._CAUSAL) <= outcomes["causal"]
    assert "point coincides with a reference point" in outcomes["causal"]


# report_lines of every suite at trials=260 on seeds 1 and 2, 260 trials
# crossing one block of _ORACLE_BLOCK = 256: torus-trichotomy's, eta-bridge's,
# surface-disjointness's and ads-equivalence's as the draws decided by the
# stacked screens write them (each later stage on a stream of its own), the
# others' as the trial-by-trial suites did;
# the max_violation of the first three as the closed-form frames and clouds
# round it; all as `_blocks` draws candidates, in quanta of _DRAW_QUANTUM
_CROSS_BLOCK_SHA256 = {
    "torus-trichotomy": "bf4d242db2471704b80cc726df775370a9a3b31c3d7ecbc9fb841d7e7381cc14",
    "eta-bridge": "ace79a923128143c7883fe6656866c354cb22a471b7ddee9b00e5d5318543c2e",
    "symplectic-identities": "2cc5be1702490695064fba5018a716329463d7e881efba41a08d2950d986e61b",
    "maslov-bridge": "e5a67d7ee1002dae88447961ffe2d2b0425ecef092e61f299381438848bff577",
    "photon-avoidance": "6cd0b832df7f8c5386c3fefff597cebde127a80c9c85a245ff135a5733c9d057",
    "surface-disjointness": "7f2becbf917a102fdff74ba032b0b99b57e9c5071e9e50d9f03018e2c04dab84",
    "stem-only": "650460147d69c1e459c67703fee79039c98d806fba29105a9be85dd6a0c072ba",
    "ads-equivalence": "5631895ac88253ba392eff2c4b1fd24b08a3ed7d9a5079602a819c10ceccdad1",
}


@pytest.mark.parametrize("name", sorted(_CROSS_BLOCK_SHA256))
def test_suites_keep_their_report_bytes_across_a_block(name):
    import hashlib
    assert O._ORACLE_BLOCK < 260
    lines = O.report_lines([O.run_suite(name, trials=260, seed=seed) for seed in (1, 2)])
    assert hashlib.sha256(lines.encode()).hexdigest() == _CROSS_BLOCK_SHA256[name]


# what every suite draws at trials=260 on seeds 1 and 2, so that a move in
# the draws shows apart from a move in the reports: maslov-bridge reports
# [] and 0.0 whatever it draws, and symplectic-identities' report pins do
# not see its Maslov/graph draws; ads-equivalence's equivariance draws are
# records of a `_blocks` stage of their own
_DRAW_SHA256 = {
    "torus-trichotomy": "d2e4fb5cca6bbeae762eb8bc8b2fb4efbe37598134394f595cb9f3c0dd3a2be3",
    "eta-bridge": "7a5465f66141059804f1090abbb90f83db5d6f2b1c119566b3c73599742300a8",
    "symplectic-identities": "b06dc11521a9bbcb46bc4b9972910077584d874e1fc254f4801775d9bd4a0954",
    "maslov-bridge": "fff95ed9308303a47e8d45049d7c424cf8f260b349819bd19edbf35cf26ca817",
    "photon-avoidance": "62bb54b4d4ba345794adca63d8b8db6071195601b2dc21780c1eb6e5850bf4dd",
    "surface-disjointness": "7a5f561e94aac0c4beb95f146d6ebec82b89073f70b90a873cbfca7eb7a646a8",
    "stem-only": "15e925106d0ba5ea6d12d984037616a48996218647b4f1c8f4ce9a8035c752dd",
    "ads-equivalence": "d22693a036f6d0668856c8b865aa9bcaab9cbdd775594cbe585342e165493732",
}


@pytest.mark.parametrize("name", sorted(_DRAW_SHA256))
def test_suites_keep_their_draws(monkeypatch, name):
    # digests each record `_blocks` yields, after the number of its block's
    # first trial, then every rng draw made after the last block
    import hashlib
    digest, after = hashlib.sha256(), []
    blocks, make_rng = O._blocks, O.make_rng

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, method):
            def call(*args, **kwargs):
                after.append(getattr(self.rng, method)(*args, **kwargs))
                return after[-1]
            return call

    def recorded(*args):
        for first, block in blocks(*args):
            digest.update(str(first).encode())
            for record in zip(*block):
                for a in record:
                    digest.update(np.ascontiguousarray(a, float).tobytes())
            yield first, block
        after.clear()

    monkeypatch.setattr(O, "make_rng", lambda seed: Recording(make_rng(seed)))
    monkeypatch.setattr(O, "_blocks", recorded)
    for seed in (1, 2):
        O.run_suite(name, trials=260, seed=seed)
        for a in after:
            digest.update(np.ascontiguousarray(a, float).tobytes())
    assert digest.hexdigest() == _DRAW_SHA256[name]


@pytest.mark.parametrize("name", sorted(O.SUITES))
def test_suite_reports_do_not_depend_on_the_block_size(monkeypatch, name):
    # a candidate's draws depend only on its number, and each stage draws
    # from a stream of its own, so neither the report nor any record that
    # `_blocks` yields moves with the block size; the records are digested
    # too, as maslov-bridge reports [] and 0.0 whatever it draws, and a
    # report can agree while the candidates it checked differ
    import hashlib
    blocks, seen = O._blocks, set()

    def recorded(*args):
        for first, block in blocks(*args):
            for record in zip(*block):
                for a in record:
                    digest.update(np.ascontiguousarray(a, float).tobytes())
            yield first, block

    monkeypatch.setattr(O, "_blocks", recorded)
    for size in (64, 128, 256, 512):
        digest = hashlib.sha256()
        monkeypatch.setattr(O, "_ORACLE_BLOCK", size)
        lines = O.report_lines([O.run_suite(name, trials=260, seed=seed) for seed in (1, 2, 3)])
        seen.add((lines, digest.hexdigest()))
    assert len(seen) == 1


def _draws_after_the_blocks(monkeypatch, name, trials, seed):
    """The rng outputs a suite makes after its last `_blocks` block."""
    outputs, blocks, make_rng = [], O._blocks, O.make_rng

    def cleared(*args):
        yield from blocks(*args)
        outputs.clear()

    with monkeypatch.context() as patch:
        patch.setattr(O, "make_rng", lambda seed: _Recording(make_rng(seed), outputs))
        patch.setattr(O, "_blocks", cleared)
        O.run_suite(name, trials=trials, seed=seed)
    return outputs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_symplectic_identities_maslov_draws_do_not_depend_on_the_trials(monkeypatch, seed):
    # the first stage draws more candidates at 1,000 trials than at 260;
    # the Maslov/graph stage's four rng calls are the same at both
    short, long = (_draws_after_the_blocks(monkeypatch, "symplectic-identities", trials, seed)
                   for trials in (260, 1000))
    assert len(short) == len(long) == 4
    assert all(np.array_equal(a, b) for a, b in zip(short, long))


def _scalar_plane(m):
    """`Plane2` of a basis, or None where it raises."""
    try:
        return S.Plane2(SP, m)
    except GeometryError:
        return None


def _scalar_tags(m):
    """Whether one basis makes a Lagrangian plane, and whether a
    nondegenerate one with |omega| > 0.2 on its orthonormal basis."""
    plane = _scalar_plane(m)
    if plane is None:
        return [False, False]
    onb = plane.onb
    return [plane.is_lagrangian,
            not plane.is_lagrangian and abs(omega(SP, onb[:, 0], onb[:, 1])) > 0.2]


def _scalar_eta_screen(m, f):
    return _scalar_tags(m)[1] and abs(S.det_omega(f) + 1.0) > 1e-3


def _scalar_maslov_screen(l, p, lp):
    planes = [_scalar_plane(m) for m in (l, p, lp)]
    if not all(q is not None and q.is_lagrangian for q in planes):
        return False
    l, p, lp = planes
    return SP.transverse(l, lp) and SP.transverse(p, lp) and p != l and p != lp


def _scalar_maslov_triple(bases, split):
    planes = [_scalar_plane(m) for m in bases]
    if not all(q is not None and q.is_lagrangian for q in planes) or not _scalar_tags(split)[1]:
        return False
    l, lp, p = planes
    return not isinstance(_outcome(S.maslov, SP, l, p, lp), str)


def _scalar_ads_decisions(z):
    """Whether one AdS candidate passes surface-disjointness' margin bound
    and ads-equivalence's |margin| bound, by `ads_margins` of its planes."""
    pair = _scalar_ads_pair(z)
    if pair is None:
        return [False, False]
    margins = list(ads.ads_margins(*pair).values())
    return [min(margins) > 1e-2, min(map(abs, margins)) > 1e-6]


def _scalar_torus_screen(normals):
    """Whether one pair of normals passes torus-trichotomy's screen, by the
    one-pair reference route: both spacelike at 1e-3, and the reference
    classifier of their reference unit normals a circle at eps 1e-6."""
    if not all(float(v @ E.GRAM @ v) > 1e-3 * float(v @ v) for v in normals):
        return False
    t1, t2 = (SimpleNamespace(normal=torus_normal(v)) for v in normals)
    return classify_tori(t1, t2, eps=1e-6).kind in (E.IntersectionKind.SPACELIKE_CIRCLE,
                                                    E.IntersectionKind.TIMELIKE_CIRCLE)


# each stacked screen: the decisions of its candidates from its arguments
# and output, and the same decisions on one candidate by the scalar route
_SCREENS = {
    "_planes": (lambda args, out: (args[1].reshape(-1, 4, 2),
                                   np.stack([out[1].ravel(), out[2].ravel()], -1)),
                _scalar_tags),
    "_eta_screen": (lambda args, out: (list(zip(*args[1:])), out),
                    lambda draw: _scalar_eta_screen(*draw)),
    "_maslov_screen": (lambda args, out: (list(zip(*args[1:])), out),
                       lambda triple: _scalar_maslov_screen(*triple)),
    "_maslov_triples": (lambda args, out: (list(zip(*args[1:])), out[1]),
                        lambda trial: _scalar_maslov_triple(*trial)),
    "_ads_arrays": (lambda args, out: (args[0], np.stack(
        [out[2].min(axis=(1, 2)) > 1e-2, abs(out[2]).min(axis=(1, 2)) > 1e-6], -1)),
                    _scalar_ads_decisions),
    "_torus_screen": (lambda args, out: (args[0], out[1]), _scalar_torus_screen),
}

_E4, _E5 = np.eye(4), np.eye(5)
_L12, _L34, _P23 = _E4[:, [0, 1]], _E4[:, [2, 3]], _E4[:, [1, 2]]
_GRAPH = _L12 + _L34  # Lagrangian, transverse to L12 and L34
_TILTED = np.column_stack([_E4[0], _E4[1] + _E4[2]])  # |omega| = 0.71, transverse to L34
# candidates on which exactly one condition of a screen decides
_CRAFTED = {
    "_planes": (SP, np.array([np.zeros((4, 2)), np.column_stack([_E4[0], 1e-12 * _E4[2]]),
                              _L12, _TILTED, np.column_stack([_E4[0], _E4[1] + 0.1 * _E4[2]])])),
    "_eta_screen": (SP, np.array([_TILTED, _TILTED, _L12]),
                    np.array([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)])),
    "_maslov_screen": (SP, *np.array([(_L12, _L12, _L34), (_L12, _L34, _L12),
                                      (_L12, _P23, _L34), (_L12, _TILTED, _L34),
                                      (_L12, _GRAPH, _L34)]).swapaxes(0, 1)),
    "_maslov_triples": (SP, np.array([(_L12, _L34, _P23), (_L12, _L12, _GRAPH),
                                      (_L12, _L34, _TILTED), (_L12, _L34, _GRAPH),
                                      (_L12, _L34, _GRAPH)]),
                        np.array([_TILTED, _TILTED, _TILTED, _L12, _TILTED])),
    "_ads_arrays": (np.array([[[1, 0], [2, 0], [1, 0], [1, 1], [0, 0], [0, 0]],
                              [[1, 0], [0, 1], [1, 0], [1, 1], [0, 0], [0, 0]],
                              [[1, 0], [0, 1], [1, 1], [-1, 1], [0, 1], [-1, 0]]], float),),
    # a timelike normal, and one spacelike below the 1e-3 bound; eta = 1 of
    # distinct (touching) tori, and ~1e-7 above it, inside the band; equal
    # tori; eta = 0 and eta = 2; distinct tori of normal entries ~1e4 whose
    # normals are allclose (eta = 0.9975)
    "_torus_screen": (np.array([[_E5[0], _E5[2]], [[1.0, 0.0, 0.9999, 0.0, 0.0], _E5[0]],
                                [_E5[0], _E5[0] + _E5[3]],
                                [_E5[0], [np.cosh(4.5e-4), 0.0, np.sinh(4.5e-4), 0.0, 0.0]],
                                [_E5[0], -2.0 * _E5[0]], [_E5[0], _E5[1]],
                                [_E5[0], [2.0, 0.0, 0.0, 3.0, 1.0]],
                                [[1e4, 1e4, 14142.135588375611, 0.0, 0.0],
                                 [10000.05, 9999.95, 14142.135588552388, 0.0, 0.0]]]),),
}


@pytest.mark.parametrize("name, suite, trials", [
    ("_planes", "eta-bridge", 130), ("_planes", "symplectic-identities", 130),
    ("_planes", "maslov-bridge", 130), ("_eta_screen", "eta-bridge", 130),
    ("_maslov_screen", "maslov-bridge", 130), ("_maslov_triples", "symplectic-identities", 130),
    ("_ads_arrays", "ads-equivalence", 130), ("_ads_arrays", "surface-disjointness", 130),
    ("_torus_screen", "torus-trichotomy", 130),
])
def test_stacked_screens_decide_as_the_scalar_route(monkeypatch, name, suite, trials):
    # every candidate a draw stage screens at seeds 1 and 2, accepted and
    # rejected (each of surface-disjointness' candidates holds _ADS_ROWS
    # AdS candidates), and candidates on which one condition alone decides: the
    # stacked decision equals `Plane2`'s rank and tag, `Plane2 ==`,
    # `SympSpace.transverse`, `maslov`'s raise, the `AdsCrookedPlane`
    # constructors and `ads_margins` of the planes, and `classify_torus_pair`
    calls, screen = [], getattr(O, name)

    def recorded(*args):
        calls.append((args, screen(*args)))
        return calls[-1][1]

    monkeypatch.setattr(O, name, recorded)
    for seed in (1, 2):
        O.run_suite(suite, trials=trials, seed=seed)
    recorded(*_CRAFTED[name])
    stacked, scalar = _SCREENS[name]
    for args, out in calls:
        candidates, decisions = stacked(args, out)
        assert [scalar(c) for c in candidates] == np.asarray(decisions).tolist()
    assert len(calls) > 2


def _corrupt_ads_records(monkeypatch, corrupt):
    """Patch `_blocks` so that corrupt(trial, units, f) rewrites each record
    (unit directions, second base) of ads-equivalence's blocks."""
    blocks = O._blocks

    def corrupted(trials, draw, screen):
        for first, block in blocks(trials, draw, screen):
            records = [corrupt(k, units.copy(), f.copy())
                       for k, (units, f) in enumerate(zip(*block), first)]
            yield first, tuple(map(np.array, zip(*records)))

    monkeypatch.setattr(O, "_blocks", corrupted)


@pytest.mark.parametrize("dependent, scaled, message", [
    (3, 7, "direction vectors must be independent"),
    (7, 3, "matrix must have determinant 1"),
])
def test_ads_equivalence_raises_the_first_corrupted_record_in_trial_order(
        monkeypatch, dependent, scaled, message):
    def corrupt(k, units, f):
        if k == dependent:  # the first plane of this trial gets dependent directions
            units[0, 1] = 2.0 * units[0, 0]
        return units, 1.5 * f if k == scaled else f  # det f = 2.25

    _corrupt_ads_records(monkeypatch, corrupt)
    with pytest.raises(GeometryError, match=message):
        O.suite_ads_equivalence(trials=30, seed=7)


@pytest.mark.parametrize("dependent, scaled, message", [
    (70, 90, "direction vectors must be independent"),
    (90, 70, "matrix must have determinant 1"),
    (70, 70, "matrix must have determinant 1"),
])
def test_ads_pairs_raise_the_first_failed_plane_check_in_trial_order(
        monkeypatch, dependent, scaled, message):
    # mid-block of 128: the second plane of trial `dependent` gets dependent
    # directions and trial `scaled`'s base det 2.25; the earlier trial
    # raises, and within one trial the base's det check comes before the
    # second plane's directions
    def corrupt(k, units, f):
        if k == dependent:
            units[1, 1] = -3.0 * units[1, 0]
        return units, 1.5 * f if k == scaled else f

    _corrupt_ads_records(monkeypatch, corrupt)
    with pytest.raises(GeometryError, match=f"^{message}"):
        O.suite_ads_equivalence(trials=130, seed=7)


def _raises_quietly(monkeypatch, corrupt, message):
    """ads-equivalence with trial 5's record made non-finite by
    corrupt(units, f) raises the scalar constructors' message; the block's
    stacked checks run on the row and warn nothing."""
    def corrupted(k, units, f):
        if k == 5:
            corrupt(units, f)
        return units, f

    _corrupt_ads_records(monkeypatch, corrupted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=message):
            O.suite_ads_equivalence(trials=30, seed=7)


def test_ads_equivalence_sends_a_non_finite_record_to_the_scalar_constructors(monkeypatch):
    # the message of `as_sl2`, which the closed-form det check alone would
    # not give ("entries up to inf are too large to test det = 1")
    _raises_quietly(monkeypatch, lambda units, f: f.__setitem__((0, 0), np.inf),
                    "an AdS point needs finite entries")


def test_ads_equivalence_sends_a_nan_direction_to_the_scalar_constructors(monkeypatch):
    _raises_quietly(monkeypatch, lambda units, f: units.__setitem__((1, 0, 1), np.nan),
                    "vector has non-finite entries")


def test_ads_equivalence_reports_a_flipped_route_with_its_trial_number(monkeypatch):
    dgk_passes = ads._dgk_passes
    calls = []

    def flipped(margins, k_fixed, eps):
        out = dgk_passes(margins, k_fixed, eps)
        if out.ndim == 3:  # a block: flip trial 6 of the first, the last of the second
            calls.append(len(out))
            row = 5 if len(calls) == 1 else 1
            out[row] = not out[row].all()
        return out

    monkeypatch.setattr(ads, "_dgk_passes", flipped)
    failures = O.suite_ads_equivalence(trials=O._ORACLE_BLOCK + 2, seed=7)["failures"]
    assert calls == [O._ORACLE_BLOCK, 2]
    assert _trial_numbers(failures) == [6, O._ORACLE_BLOCK + 2]
    for f in failures:
        four = f.split("ads ")[1].split(",")[0]
        assert four in ("True", "False")
        assert f.endswith(f"ads {four}, dgk {four == 'False'}, surfaces {four}")


def test_ads_equivalence_reports_a_failed_sixteen_inequality_once(monkeypatch):
    avoids = C._avoids
    flipped = []

    def failed(m1, m2, eps):
        out = avoids(m1, m2, eps)
        if out.ndim == 3 and not flipped:  # the sixteen verdicts of the first block
            passed = out.all(axis=(1, 2))
            assert passed.any()
            row = int(passed.argmax())  # a trial whose four inequalities pass
            out[row] = False
            flipped.append(row + 1)
        return out

    monkeypatch.setattr(C, "_avoids", failed)
    failures = O.suite_ads_equivalence(trials=20, seed=7)["failures"]
    assert failures == [f"trial {flipped[0]}: ads True, dgk True, surfaces False"]


def test_ads_equivalence_reports_a_perturbed_lift_with_its_trial_number(monkeypatch):
    boundary_lifts = ads._boundary_lifts
    blocks = []

    def perturbed(v):
        lifts, checks = boundary_lifts(v)
        if v.ndim == 3:  # the lifts of g a, a and b of a block, (trial, part)
            blocks.append(len(v))
            if len(blocks) == 2:
                lifts[1, 0, 0, 1] += 1e-6  # the lift of g a of row 1 of the second block
        return lifts, checks

    monkeypatch.setattr(ads, "_boundary_lifts", perturbed)
    # equivariance trials count every candidate from 1; at this seed none of
    # the first _ORACLE_BLOCK + 2 is skipped, so row 1 of the second block
    # is the last trial
    n = O._ORACLE_BLOCK + 2
    failures = O.suite_ads_equivalence(trials=n, seed=7)["failures"]
    assert blocks == [O._ORACLE_BLOCK, 2]
    assert len(failures) == 1
    assert failures[0].startswith(f"equivariance trial {n}: residual ")


def test_surface_disjointness_reports_a_failed_criterion_and_draws_on(monkeypatch):
    # the criterion reads "not disjoint" for disjoint pair 4 (row 3 of the
    # block) and "disjoint" for intersecting pair 4: each side reports
    # exactly that trial, numbered from 1 as every suite numbers them, and
    # the failed pair's clouds are drawn all the same, so every later
    # pair, and its gap, is the one drawn without the failure
    avoids, pair_gap = C._avoids, O._gap
    gaps = []

    def failed(m1, m2, eps):
        out = avoids(m1, m2, eps)
        if out.ndim == 3:  # the sixteen verdicts of a block of pairs
            out[3] = not out[3].all()
        return out

    monkeypatch.setattr(O, "_gap", lambda a, b: gaps.append(pair_gap(a, b)) or gaps[-1])
    assert O.suite_surface_disjointness(trials=8, seed=7)["failures"] == []
    want = gaps[:3] + gaps[4:]
    gaps.clear()
    monkeypatch.setattr(C, "_avoids", failed)
    report = O.suite_surface_disjointness(trials=8, seed=7)
    assert report["failures"] == ["disjoint pair 4: criterion says not disjoint",
                                  "intersecting pair 4: criterion says disjoint"]
    assert gaps == want
    assert report["max_violation"] == min(want)


def _flipped_at(row):
    """`crooked._avoids` or `ads._dgk_passes` with the verdict of a block's
    row flipped (a block's verdicts have three axes)."""
    def flip(call):
        def flipped(*args):
            out = call(*args)
            if out.ndim == 3:
                out[row] = not out[row].all()
            return out
        return flipped
    return flip


def _patched(patch, module, name, wrap):
    """Patch module.name to wrap of itself."""
    patch.setattr(module, name, wrap(getattr(module, name)))


def _off_rows(rows):
    """A mask of the regions of `crooked._lagrangian_regions` that drops rows."""
    return lambda r: r & ~np.isin(np.arange(len(r)), rows)[:, None]


def _torus_lines(patch):
    # trial 2's kind reads a photon pair, which suppresses its later lines;
    # every carrier signature is swapped; trial 1's first point is moved
    # off both tori
    def photon_second(kinds):
        def flipped(s1, s2, *eps):
            index, e = kinds(s1, s2, *eps)
            if not eps:  # the block's kinds, not the screen's
                index[1] = E._KINDS.index(E.IntersectionKind.PHOTON_PAIR)
            return index, e
        return flipped

    def moved(curve_of):
        def curve(frames, normals):
            def points(t):
                x = curve_of(frames, normals)(t)
                if t.shape[-1] == 4:  # the block's points, not its tangents
                    x[0, 0] += 1e-6
                return x
            return points
        return curve

    _patched(patch, E, "_torus_kinds", photon_second)
    _patched(patch, O, "_intersection_curve", moved)
    _corrupting(patch, E, "_carrier_signatures", lambda out: (out[1], out[0], out[2]))


def _torus_probe(patch):
    # every probe tangent's form changes sign
    _corrupting(patch, O, "_tangent_forms", np.negative)


def _eta_lines(patch):
    # trial 2's determinant route is off by 1e-6; trials 2 and 3 read flipped kinds
    circles = [E._KINDS.index(E.IntersectionKind.TIMELIKE_CIRCLE),
               E._KINDS.index(E.IntersectionKind.SPACELIKE_CIRCLE)]

    def flipped(out):
        index, e = out
        index[1:] = np.select([index[1:] == circles[0], index[1:] == circles[1]],
                              circles[::-1], index[1:])
        return index, e

    _corrupting(patch, O, "_eta_values", lambda out: (out[0] + [0.0, 1e-6, 0.0], *out[1:]))
    _corrupting(patch, E, "_torus_kinds", flipped)


def _identities_lines(patch):
    # omega*.omega* is off; trial 1's adjugate is off by 1e-9 and its planes
    # read dim 1; trial 2's complement distance is off by 1e-6; the first
    # Maslov trial's moved index changes, and its graph is Lagrangian
    maslov_calls = []

    def moved_index(out):
        maslov_calls.append(out)
        if len(maslov_calls) == 2:  # the moved triples, after `_maslov_triples`
            out[0][0] += 2
        return out

    def lagrangian_graph(out):
        s_basis, t_basis, checks = out
        s_basis[0], t_basis[0] = np.eye(4)[:, :2], 0.0  # graph span{e1, e2}
        return s_basis, t_basis, checks

    patch.setattr(S.SympSpace, "wedge", lambda self, b1, b2: -2.0 + 1e-9)
    _corrupting(patch, S, "adjugate", lambda a: a + np.isin(np.arange(len(a)), 0)[:, None, None]
                * 1e-9)
    _corrupting(patch, O, "projective_distance", lambda d: d + [0.0, 1e-6, 0.0])
    _corrupting(patch, O, "_intersection_dims", lambda dims: dims + [1, 0, 0])
    _corrupting(patch, S, "_maslov_rows", moved_index)
    _corrupting(patch, O, "_splittings", lagrangian_graph)


def _maslov_lines(patch):
    # every causal type is swapped
    _corrupting(patch, E, "_causal_rows", lambda out: (np.choose(out[0], [0, 2, 1]), out[1]))


def _photon_blind(patch):
    # the oracle finds nothing, and every residual read is 1e-6 larger
    patch.setattr(O, "_photon_crossings", _constant_oracle(False))
    _corrupting(patch, O, "_crossing_residuals", lambda r: r + 1e-6)


def _photon_seeing(patch):
    # the oracle finds a point on every photon, and no witness is built
    patch.setattr(O, "_photon_crossings", _constant_oracle(True))
    _corrupting(patch, C, "_crossing_bases", lambda out: (out[0], np.zeros(len(out[1]), bool)))


def _surface_lines(patch):
    # the criterion flips for pair 2 of both kinds, and intersecting pair
    # 2's shared point is on no region; the second gap taken reads 1e-6 of itself
    gaps = []

    def small_second(gap):
        gaps.append(gap)
        return gap * (1e-6 if len(gaps) == 2 else 1.0)

    _patched(patch, C, "_avoids", _flipped_at(1))
    _corrupting(patch, C, "_lagrangian_regions", lambda out: (
        tuple(map(_off_rows([1]), out[0])), out[1]))
    _corrupting(patch, O, "_gap", small_second)


def _stem_lines(patch):
    # pair 1's shared point is off the stems; pairs 1 and 2 have no contact
    # in either order
    def missing(out):
        x1, x2, hit = out
        hit = hit.reshape(-1, 2)  # (pair, order)
        hit[:2] = False
        return x1, x2, hit.ravel()

    _corrupting(patch, C, "_lagrangian_regions", lambda out: (
        (*out[0][:2], _off_rows([0])(out[0][2])), out[1]))
    _corrupting(patch, O, "_stem_wing_contacts", missing)


def _ads_lines(patch):
    # trial 2's dgk route flips; equivariance trial 1's lift of g a moves and
    # its trace form is off by 1e-6; the horocycle distance is 1
    def moved(out):
        lifts, checks = out
        if lifts.ndim == 4:  # the lifts of g a, a and b of a block, (trial, part)
            lifts[0, 0, 0, 1] += 1e-6
        return lifts, checks

    _patched(patch, ads, "_dgk_passes", _flipped_at(1))
    _corrupting(patch, ads, "_boundary_lifts", moved)
    _corrupting(patch, ads, "_killing_rows", lambda out: (out[0] + np.isin(
        np.arange(len(out[0])), 0) * 1e-6, out[1]))
    patch.setattr(ads, "horocycle_distance", lambda h1, h2: 1.0)


# every failure line a suite writes at seed 7, forced by patching the kernel
# or the screen output it reads: (suite, patch, trials, failures), in trial
# order and, within a trial, in the order of its checks
_FAILURE_LINES = {
    "torus": (O.suite_torus_trichotomy, _torus_lines, 3, [
        "trial 1: carrier signature (1, 2, 0) for IntersectionKind.SPACELIKE_CIRCLE",
        "trial 1: intersection point off tori by 1.810e-06",
        "trial 2: kind IntersectionKind.PHOTON_PAIR vs eta 0.930975257901535",
        "trial 3: carrier signature (1, 2, 0) for IntersectionKind.SPACELIKE_CIRCLE"]),
    "torus-probe": (O.suite_torus_trichotomy, _torus_probe, 2, [
        "trial 1: probe IntersectionKind.TIMELIKE_CIRCLE vs IntersectionKind.SPACELIKE_CIRCLE",
        "trial 2: probe IntersectionKind.SPACELIKE_CIRCLE vs IntersectionKind.TIMELIKE_CIRCLE"]),
    "eta": (O.suite_eta_bridge, _eta_lines, 3, [
        "trial 2: eta mismatch 1.000e-06 (det 0.3679)",
        "trial 2: kind IntersectionKind.SPACELIKE_CIRCLE vs eta 0.4621",
        "trial 3: kind IntersectionKind.TIMELIKE_CIRCLE vs eta 1.4786"]),
    "identities": (O.suite_symplectic_identities, _identities_lines, 3, [
        "omega*.omega* = -1.999999999",
        "trial 1: adjugate identity off by 3.695e-09",
        "trial 1: transverse True vs dim 1 (wedge 4.786e-01)",
        "trial 2: reflection/complement distance 1.000e-06",
        "trial 1: maslov not Sp-invariant",
        "trial 1: graph degeneracy vs det mismatch"]),
    "maslov": (O.suite_maslov_bridge, _maslov_lines, 3, [
        "trial 1: maslov 2 vs causal CausalType.SPACELIKE",
        "trial 2: maslov 0 vs causal CausalType.TIMELIKE"]),
    "photon-blind": (O.suite_photon_avoidance, _photon_blind, 4, [
        "trial 2: meeting photon but oracle found nothing",
        "trial 2: witness residual 1.000e-06",
        "trial 3: meeting photon but oracle found nothing",
        "trial 3: witness residual 1.000e-06",
        "trial 4: meeting photon but oracle found nothing",
        "trial 4: witness residual 1.000e-06"]),
    "photon-seeing": (O.suite_photon_avoidance, _photon_seeing, 4, [
        "trial 1: disjoint photon but oracle found a point",
        "trial 2: no constructive witness",
        "trial 3: no constructive witness",
        "trial 4: no constructive witness"]),
    "surface": (O.suite_surface_disjointness, _surface_lines, 3, [
        "disjoint pair 2: criterion says not disjoint",
        "disjoint pair 3: sampled gap 1.962e-07",
        "intersecting pair 2: criterion says disjoint",
        "intersecting pair 2: shared point not on both"]),
    "stem": (O.suite_stem_only, _stem_lines, 3, [
        "pair 1: the shared point is off a stem",
        "pair 1: stems meet but no stem-wing contact",
        "pair 2: stems meet but no stem-wing contact"]),
    "ads": (O.suite_ads_equivalence, _ads_lines, 3, [
        "trial 2: ads False, dgk True, surfaces False",
        "equivariance trial 1: residual 1.000e-06",
        "trace-form identity trial 1: residual 1.000e-06",
        "horocycle distance at K = -2rr' is not exactly 0"]),
}


@pytest.mark.parametrize("name", list(_FAILURE_LINES))
def test_suites_report_each_failure_line(monkeypatch, name):
    suite, patch, trials, lines = _FAILURE_LINES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        patch(monkeypatch)
        assert suite(trials=trials, seed=7)["failures"] == lines


class _Recording:
    """A generator that appends the output of each of its calls to a list."""

    def __init__(self, rng, outputs):
        self.rng, self.outputs = rng, outputs

    def __getattr__(self, method):
        def call(*args, **kwargs):
            self.outputs.append(getattr(self.rng, method)(*args, **kwargs))
            return self.outputs[-1]
        return call


class _Replay:
    """Stands in for a generator making the rng calls of `_cloud_draws`: it
    returns the recorded outputs of one surface's calls, in order: the wing
    draws, the stem angles (both of `random`) and the components."""

    def __init__(self, outputs):
        self.outputs = list(outputs)

    def random(self, size):
        assert self.outputs[0].shape == size
        return self.outputs.pop(0)

    def integers(self, low, high, size):
        assert (low, high) == (0, 2) and self.outputs[0].shape == size
        return self.outputs.pop(0)


def test_cloud_draws_are_the_draws_of_uniform():
    # each merged call of `_cloud_draws` gives, bit for bit, the rows that
    # one `uniform` call per row gave: 200 clouds of one stream each
    for seed in range(200):
        rng, margin, tops = O.make_rng(seed), 1e-2, (np.pi / 2, np.pi, np.pi / 2, np.pi)
        draws, n = O._cloud_draws(O.make_rng(seed), 320), 320
        want = [rng.uniform(0.0, top, size=128) for top in tops]
        want += [rng.uniform(margin, np.pi / 2 - margin, size=64) for _ in range(2)]
        want.append(rng.integers(0, 2, size=n - 256) * 2 - 1)
        assert all(np.array_equal(a, b) for a, b in zip(draws, want)) and len(draws) == 7


@pytest.mark.parametrize("seed", [1, 2])
def test_stacked_clouds_equal_sample_surface(monkeypatch, seed):
    # every sub-block of clouds that surface-disjointness builds at this
    # seed: each surface's points against `sample_surface` of that surface
    # replaying its rows of the sub-block's rng outputs, bit for bit, and
    # each pair's gap against `min_gap` of the two clouds
    calls, gaps, cloud, pair_gap = [], [], O._surface_cloud, O._gap
    outputs, cloud_draws = [], O._cloud_draws  # the rng outputs of each sub-block

    def recorded_draws(rng, n, shape):
        outputs.append([])
        return cloud_draws(_Recording(rng, outputs[-1]), n, shape)

    monkeypatch.setattr(O, "_cloud_draws", recorded_draws)
    monkeypatch.setattr(O, "_surface_cloud",
                        lambda *args: calls.append((args, cloud(*args))) or calls[-1][1])
    monkeypatch.setattr(O, "_gap", lambda a, b: gaps.append(pair_gap(a, b)) or gaps[-1])
    assert O.suite_surface_disjointness(trials=130, seed=seed)["failures"] == []
    monkeypatch.undo()
    assert [len(columns) for (_, columns, _), _ in calls] == [O._CLOUD_PAIRS] * 8 + [2]
    assert len(outputs) == len(calls)
    assert all(len(made) == 3 for made in outputs)  # three rng calls a sub-block
    gaps = iter(gaps)
    for ((space, columns, draws), points), made in zip(calls, outputs):
        for i, pair in enumerate(columns):
            clouds = [sample_surface(C.CrookedSurface(C.LightlikeQuadrilateral(space, *q.T)),
                                       320, _Replay([out[i, j] for out in made]))
                      for j, q in enumerate(pair)]
            for got, want in zip(points[i], clouds):
                assert np.array_equal(projective_normalize(got), want.points)
            assert next(gaps) == min_gap(*clouds)


def _ads_rows(rng):
    """Quadrilateral rows (40, 4, 4) of 20 AdS pairs as surface-disjointness
    builds them: `ads._quad_rows` of the first 20 `_ads_arrays` draws whose
    margins pass its screen (1e-2), the first plane based at I."""
    units, f, margins = O._ads_arrays(rng.normal(size=(400, 6, 2)))
    keep = np.flatnonzero(margins.min(axis=(1, 2)) > 1e-2)[:20]
    assert len(keep) == 20
    bases = np.stack([np.broadcast_to(np.eye(2), f[keep].shape), f[keep]], 1)
    return ads._quad_rows(bases, units[keep, :, 0], units[keep, :, 1]).reshape(40, 4, 4)


@pytest.mark.parametrize("space, draw", [
    (SP, lambda rng: O._random_rows(rng.uniform(-1.0, 1.0, (40, 4, 4)))),
    (ads.ads_space(), _ads_rows)], ids=["standard", "ads"])
def test_surface_clouds_are_the_wedges_of_the_generators(space, draw):
    # `_surface_cloud`'s one bivector product against the Pluecker rows of
    # `_wing_generators` and `_stem_generators` under the bridge, within
    # 1e-15 of each cloud's largest point, on 40 stacked surfaces
    rng = O.make_rng(8)
    columns = draw(rng).swapaxes(-1, -2)
    draws = [np.array(d) for d in zip(*(O._cloud_draws(rng, 320) for _ in columns))]
    thetas_plus, phis_plus, thetas_minus, phis_minus, t1, t2, comps = draws
    order = np.argsort(-comps, axis=-1, kind="stable")
    comps, t1, t2 = (np.take_along_axis(a, order, -1) for a in (comps, t1, t2))
    c = columns[:, None]
    want = np.concatenate([S.plucker_rows(*O._wing_generators(c, +1, thetas_plus, phis_plus)),
                           S.plucker_rows(*O._wing_generators(c, -1, thetas_minus, phis_minus)),
                           S.plucker_rows(*O._stem_generators(c, comps, t1, t2))], -2)
    want = want @ space.bridge[0].T
    got = O._surface_cloud(space, columns, draws)
    scale = np.linalg.norm(want, axis=-1).max(-1)[:, None, None]
    assert (abs(got - want) <= 1e-15 * scale).all()
    assert np.array_equal(O._surface_cloud(space, columns[7], [d[7] for d in draws]), got[7])


@pytest.mark.parametrize("seed", [1, 2])
def test_disjoint_pairs_are_the_passes_of_their_candidates_in_order(monkeypatch, seed):
    # surface-disjointness' draw stage at this seed: each `_ads_arrays`
    # call takes the rows of a chunk's candidates, _ADS_ROWS a candidate,
    # and the blocks' pairs are the first passes of its calls (all four
    # margins above 1e-2) in draw order; the first call's rows are the first
    # of the suite's stream
    calls, blocks, arrays, blocks_of = [], [], O._ads_arrays, O._blocks

    def recorded_blocks(*args):
        for first, block in blocks_of(*args):
            blocks.append(block)
            yield first, block

    monkeypatch.setattr(O, "_ads_arrays", lambda z: calls.append((z, arrays(z))) or calls[-1][1])
    monkeypatch.setattr(O, "_blocks", recorded_blocks)
    trials = O._ORACLE_BLOCK + 72  # two blocks
    O.suite_surface_disjointness(trials=trials, seed=seed)
    shapes = _block_shapes(trials)  # the disjoint stage's blocks come first
    assert [len(block[0]) for block in blocks[:len(shapes)]] == [n for _, n in shapes]
    rows, pairs = [], []
    for z, (units, f, margins) in calls:
        assert len(z) % O._ADS_ROWS == 0
        passed = margins.min(axis=(1, 2)) > 1e-2
        rows.append(z)
        pairs += zip(units[passed], f[passed])
    # the last call is the one the blocks need
    assert len(pairs) - trials < passed.sum()
    for (units, f), (want_units, want_f) in zip(
            (r for block in blocks[:len(shapes)] for r in zip(*block)), pairs):
        assert np.array_equal(units, want_units) and np.array_equal(f, want_f)
    assert np.array_equal(rows[0], O.make_rng([seed, 6]).normal(size=rows[0].shape))


@pytest.mark.parametrize("seed", [1, 2])
def test_stacked_witness_matches_the_per_trial_reference(seed):
    # every meeting photon the photon-avoidance suite draws at this seed:
    # the stacked witness, its residual and its region against
    # `find_crossing_lagrangian`, the per-trial residual and
    # `surface_contains`
    draws, candidates = [], photon_draws(seed)
    while len(draws) < 1000:
        p, surface = next(candidates)
        p = p / np.linalg.norm(p)
        if min(map(abs, C.photon_margins(p, surface))) > 1e-6:
            draws.append((p, surface))
    meeting = [(p, s) for p, s in draws if not C.photon_disjoint(p, s)]
    p = np.array([p for p, _ in meeting])
    columns = np.array([s.quad.columns for _, s in meeting])
    units = C._unit_photons(p)
    bases, fails = C._crossing_bases(units, columns, (units[:, None] @ SP.matrix @ columns)[:, 0])
    assert fails.all() and len(meeting) > 300
    onb = _orthonormal_columns(bases)
    regions, checks = C._lagrangian_regions(SP, columns, onb)
    residuals = O._crossing_residuals(SP, p, onb)
    for j, (q, surface) in enumerate(meeting):
        want = C.find_crossing_lagrangian(q, surface)
        assert np.array_equal(bases[j], want.basis)
        assert np.array_equal(onb[j], want.onb)
        assert residuals[j] == _crossing_residual(q, surface, want)

        def region(j=j):
            _raise_first(checks, j)
            return next((r for r, mask in zip(C.SurfaceRegion, regions) if mask[j]), None)

        assert _outcome(region) == _outcome(C.surface_contains, surface, want)


def _reference_stem_wing_contact(c_stem, c_wing):
    """The stem-wing contact as it was written per pair, kept as the
    reference of the stacked `_stem_wing_contacts`: (x1, x2) of the first
    contact, or None."""
    columns = c_stem.quad.columns
    signs, ks = [], []
    for sign in (+1, -1):
        ends, _ = O._wing_generators(c_wing.quad.columns, sign, np.array([0.0, np.pi / 2]), 0.0)
        a, b = np.linalg.solve(columns, ends.T).T
        roots = np.arctan2(-a, b) % np.pi
        cuts = np.unique(np.concatenate([[0.0, np.pi / 2], roots[roots < np.pi / 2]]))
        mids = (cuts[:-1] + cuts[1:]) / 2
        ks.append(np.cos(mids)[:, None] * a + np.sin(mids)[:, None] * b)
        signs += [sign] * len(mids)
    ks = np.concatenate(ks)
    bases = columns @ (ks[:, :, None] * np.array([[1, 0], [0, 1], [0, 1], [1, 0]]))
    wing_plus, wing_minus, _ = C._quad_regions(c_wing.quad.columns, bases, C.EPS_ALG)
    hits = np.flatnonzero(C._quad_regions(columns, bases, C.EPS_ALG)[2] & np.where(
        np.array(signs) > 0, wing_plus, wing_minus))
    if not hits.size:
        return None
    k = ks[hits[0]]
    return columns[:, [0, 3]] @ k[[0, 3]], columns[:, [1, 2]] @ k[[1, 2]]


@pytest.mark.parametrize("seed", [1, 2])
def test_stacked_contact_matches_the_per_trial_reference(seed):
    # every pair the stem-only suite draws at this seed, in both orders:
    # the stacked contact's generators and plane against the per-pair ones
    pairs = [pair[:2] for pair in stem_crossing_pairs(SP, O.make_rng([seed, 8]), 200)]
    orders = [(c1, c2) for c1, c2 in pairs] + [(c2, c1) for c1, c2 in pairs]
    x1, x2, hit = O._stem_wing_contacts(*(np.array([c.quad.columns for c in cs])
                                          for cs in zip(*orders)))
    assert hit[:200].sum() > 100 and (hit[:200] | hit[200:]).all()
    for (c_stem, c_wing), y1, y2, h in zip(orders, x1, x2, hit):
        want = _reference_stem_wing_contact(c_stem, c_wing)
        assert h == (want is not None)
        if h:
            assert np.array_equal(y1, want[0]) and np.array_equal(y2, want[1])
            assert _outcome(S.Plane2.span, SP, y1, y2) == _outcome(S.Plane2.span, SP, *want)
