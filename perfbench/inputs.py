"""Seeded raw inputs and closed-form reference verdicts.

Everything here is plain numpy and never imports ein3, so a change to the
package (its oracle samplers included) cannot change what the benchmark
feeds it or what it expects back.  The references restate the paper's
criteria directly:

* torus pair: eta = |<s1, s2>| / sqrt(Q(s1) Q(s2)) for the form
  x^2 + y^2 - z^2 - u v; eta > 1 spacelike circle, eta < 1 timelike circle;
* photon p vs the surface of (u+, u-, v+, v-): with p of unit length,
  m1 = w(p, v+) w(p, u+) and m2 = w(p, v-) w(p, u-); disjoint iff
  m1 > eps and m2 < -eps;
* two crooked surfaces: disjoint iff each of the eight defining photons
  passes that test against the other surface (sixteen inequalities);
* two AdS crooked planes (f, a, b): after left translation by f1^-1, with
  unit directions, disjoint iff w0(x, y)^2 - w0(f x, y)^2 > eps for x in
  {a', b'} and y in {a, b} (four inequalities).

Verdict shares are fixed, not left to chance: exactly `DISJOINT_SHARE` of
the surface-pair and AdS-pair inputs are disjoint by the reference (random
AdS pairs are only ~4-7% disjoint, random quadrilateral pairs <1%), and
`PHOTON_DISJOINT_SHARE` of the photon inputs, about the rate of random
photons.  Away from one half on purpose: a disjoint photon query skips the
witness search, so at one half the median query time would sit on the
boundary between the two costs.
"""

import numpy as np

EPS = 1e-9  # the package's default EPS_ALG; the reference applies the same strictness
DISJOINT_SHARE = 0.5
BATCH = 2048  # candidates drawn at a time
PHOTON_DISJOINT_SHARE = 0.25

# omega(e1, e3) = omega(e2, e4) = 1, the package's standard convention
OMEGA = np.array([[0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [-1.0, 0.0, 0.0, 0.0],
                  [0.0, -1.0, 0.0, 0.0]])
GRAM5 = np.array([[1.0, 0, 0, 0, 0],
                  [0, 1.0, 0, 0, 0],
                  [0, 0, -1.0, 0, 0],
                  [0, 0, 0, 0, -0.5],
                  [0, 0, 0, -0.5, 0]])
QUAD_KEYS = ("u_plus", "u_minus", "v_plus", "v_minus")
# column of g holding each quadrilateral vector: the canonical quadrilateral
# is (e1, e2, e4, e3)
_QUAD_COLUMNS = (0, 1, 3, 2)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def torus_eta(s1, s2):
    """eta for stacked normals (n, 5)."""
    q1 = np.einsum("ni,ij,nj->n", s1, GRAM5, s1)
    q2 = np.einsum("ni,ij,nj->n", s2, GRAM5, s2)
    return np.abs(np.einsum("ni,ij,nj->n", s1, GRAM5, s2)) / np.sqrt(q1 * q2)


def photon_margins(p, quads):
    """(m1, m2) of photons p (n, 4) against surfaces quads (n, 4, 4)."""
    p = p / np.linalg.norm(p, axis=1, keepdims=True)
    w = np.einsum("ni,ij,njk->nk", p, OMEGA, quads)  # w(p, quad vector k)
    return w[:, 2] * w[:, 0], w[:, 3] * w[:, 1]


def photon_disjoint(p, quads):
    m1, m2 = photon_margins(p, quads)
    return (m1 > EPS) & (m2 < -EPS)


def surfaces_disjoint(q1, q2):
    """Sixteen-inequality verdict for stacked quadrilaterals (n, 4, 4);
    columns are (u+, u-, v+, v-)."""
    ok = np.ones(len(q1), dtype=bool)
    for k in range(4):
        ok &= photon_disjoint(q2[:, :, k], q1)
        ok &= photon_disjoint(q1[:, :, k], q2)
    return ok


def _w0(x, y):
    return x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]


def ads_margins(f1, a1, b1, f2, a2, b2):
    """The four reduced margins, (n, 4), in the order a'-b, a'-a, b'-b, b'-a."""
    f = np.linalg.solve(f1, f2)
    unit = lambda v: v / np.linalg.norm(v, axis=1, keepdims=True)
    a, b, ap, bp = unit(a1), unit(b1), unit(a2), unit(b2)
    out = []
    for x in (ap, bp):
        fx = np.einsum("nij,nj->ni", f, x)
        for y in (b, a):
            out.append(_w0(x, y) ** 2 - _w0(fx, y) ** 2)
    return np.stack(out, axis=1)


def ads_disjoint(*planes):
    return np.all(ads_margins(*planes) > EPS, axis=1)


# ---------------------------------------------------------------------------
# raw inputs
# ---------------------------------------------------------------------------

def _sym(rng, n, scale):
    s = rng.normal(scale=scale, size=(n, 2, 2))
    return 0.5 * (s + s.transpose(0, 2, 1))


def random_symplectic(rng, n):
    """Stacked matrices g with g^T OMEGA g = OMEGA, as products of a lower
    shear, a block-diagonal (A, A^-T) and an upper shear; kept to
    condition number <= 50."""
    out = np.empty((0, 4, 4))
    while len(out) < n:
        m = 2 * (n - len(out))
        eye = np.broadcast_to(np.eye(2), (m, 2, 2))
        zero = np.zeros((m, 2, 2))
        lower = np.block([[eye, zero], [_sym(rng, m, 0.6), eye]])
        upper = np.block([[eye, _sym(rng, m, 0.6)], [zero, eye]])
        a = rng.normal(size=(m, 2, 2)) + 1.5 * np.eye(2)
        good = np.abs(np.linalg.det(a)) > 0.2
        a = np.where(good[:, None, None], a, np.eye(2))
        diag = np.block([[a, zero], [zero, np.linalg.inv(a).transpose(0, 2, 1)]])
        g = lower @ diag @ upper
        g = g[good & (np.linalg.cond(g) <= 50.0)]
        out = np.concatenate([out, g])
    return out[:n]


def random_quads(rng, n):
    """Stacked lightlike quadrilaterals (n, 4, 4), columns (u+, u-, v+, v-)."""
    return random_symplectic(rng, n)[:, :, _QUAD_COLUMNS]


def random_spacelike(rng, n):
    out = np.empty((0, 5))
    while len(out) < n:
        s = rng.normal(size=(2 * n, 5))
        q = np.einsum("ni,ij,nj->n", s, GRAM5, s)
        out = np.concatenate([out, s[q > 0.1 * np.einsum("ni,ni->n", s, s)]])
    return out[:n]


def random_sl2(rng, n):
    out = np.empty((0, 2, 2))
    while len(out) < n:
        m = rng.normal(size=(2 * n, 2, 2))
        d = np.linalg.det(m)
        m[d < 0, :, 0] *= -1.0
        d = np.abs(d)
        keep = d > 0.1
        f = m[keep] / np.sqrt(d[keep])[:, None, None]
        out = np.concatenate([out, f[np.abs(f).max(axis=(1, 2)) <= 5.0]])
    return out[:n]


def random_directions(rng, n):
    """Unit direction pairs (a, b) with |w0(a, b)| > 0.1."""
    out_a, out_b = np.empty((0, 2)), np.empty((0, 2))
    while len(out_a) < n:
        a = rng.normal(size=(2 * n, 2))
        b = rng.normal(size=(2 * n, 2))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        keep = np.abs(_w0(a, b)) > 0.1
        out_a = np.concatenate([out_a, a[keep]])
        out_b = np.concatenate([out_b, b[keep]])
    return out_a[:n], out_b[:n]


def _with_share(make, verdict, n, rng, share=DISJOINT_SHARE):
    """n inputs from `make(rng, m)` of which exactly round(n * share) are
    disjoint by `verdict`, in a seeded random order."""
    n_yes = int(round(n * share))
    want = {True: n_yes, False: n - n_yes}
    picked = {True: [], False: []}
    have = {True: 0, False: 0}
    while have[True] < want[True] or have[False] < want[False]:
        # bounded batches keep the generator's peak memory, which counts
        # in the run's peak_rss_mb, independent of n and of the seed
        batch = make(rng, min(4 * n, BATCH))
        v = verdict(batch)
        for flag in (True, False):
            idx = np.flatnonzero(v == flag)[:want[flag] - have[flag]]
            picked[flag].append(tuple(x[idx] for x in batch))
            have[flag] += len(idx)
    merged = tuple(np.concatenate(col)
                   for col in zip(*picked[True], *picked[False]))
    order = rng.permutation(n)
    return tuple(x[order] for x in merged)


def torus_pairs(rng, n):
    s1, s2 = random_spacelike(rng, n), random_spacelike(rng, n)
    return s1, s2, torus_eta(s1, s2)


def photon_cases(rng, n):
    def make(r, m):
        return random_quads(r, m), r.normal(size=(m, 4))
    quads, p = _with_share(make, lambda b: photon_disjoint(b[1], b[0]), n, rng,
                           PHOTON_DISJOINT_SHARE)
    return quads, p, photon_disjoint(p, quads)


def ads_quads(f, a, b):
    """Lightlike quadrilaterals (n, 4, 4) of AdS crooked planes in the
    AdS basis (form w0 (+) -w0): u+ = (a; fa), v+ = (a; -fa),
    u- = -(b; fb) / 2 w0(a, b), v- = (b; -fb) / 2 w0(a, b)."""
    fa = np.einsum("nij,nj->ni", f, a)
    fb = np.einsum("nij,nj->ni", f, b)
    alpha = (2.0 * _w0(a, b))[:, None]
    cols = (np.concatenate([a, fa], axis=1),
            -np.concatenate([b, fb], axis=1) / alpha,
            np.concatenate([a, -fa], axis=1),
            np.concatenate([b, -fb], axis=1) / alpha)
    return np.stack(cols, axis=2)


# symplectic isomorphism from the AdS form to OMEGA: e1, e2, e3, e4 go to
# E1, E3, E2, -E4
ADS_TO_STANDARD = np.array([[1.0, 0.0, 0.0, 0.0],
                            [0.0, 0.0, 1.0, 0.0],
                            [0.0, 1.0, 0.0, 0.0],
                            [0.0, 0.0, 0.0, -1.0]])


def _ads_planes(rng, m):
    a1, b1 = random_directions(rng, m)
    a2, b2 = random_directions(rng, m)
    return random_sl2(rng, m), a1, b1, random_sl2(rng, m), a2, b2


def surface_pairs(rng, n):
    """Standard-basis surface pairs: AdS plane pairs carried over by
    ADS_TO_STANDARD and then moved by one random symplectic matrix per
    pair, which keeps the verdict (random quadrilateral pairs are <1%
    disjoint, too few to draw from)."""
    def make(r, m):
        f1, a1, b1, f2, a2, b2 = _ads_planes(r, m)
        g = random_symplectic(r, m) @ ADS_TO_STANDARD
        return g @ ads_quads(f1, a1, b1), g @ ads_quads(f2, a2, b2)
    q1, q2 = _with_share(make, lambda b: surfaces_disjoint(*b), n, rng)
    return q1, q2, surfaces_disjoint(q1, q2)


def ads_pairs(rng, n):
    planes = _with_share(_ads_planes, lambda b: ads_disjoint(*b), n, rng)
    return planes, ads_disjoint(*planes)
