"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one pass/fail line; the suites behind them are seeded and
deterministic, so failures are reproducible with `ein3 verify`.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from ein3 import oracle


def _gate(name, report):
    status = "PASS" if not report["failures"] else "FAIL"
    print(f"[{status}] {name}: trials={report['trial_count']} "
          f"max_violation={report['max_violation']:.3e}")
    assert not report["failures"], report["failures"][:10]


def test_criterion_1_torus_trichotomy():
    """Kind vs eta sign, carrier signature, and probed causal character on
    1000 seeded unit-spacelike pairs, outside the |eta-1| < 1e-6 band.  The
    probe solves <x, s2> = 0 along torus 1's own angles in closed form and
    classifies 32 central finite-difference tangents of that curve by the
    sign of Q/|t|^2, reading neither eta nor the carrier; four points of the
    same curve must lie on both tori."""
    _gate("criterion 1: torus-pair trichotomy",
          oracle.suite_torus_trichotomy(trials=1000, seed=7))


def test_criterion_2_eta_bridge():
    """|eta_from_det - mu-route eta| < 1e-9 on 1000 splittings and maps
    with |det + 1| > 1e-3."""
    report = oracle.suite_eta_bridge(trials=1000, seed=7)
    _gate("criterion 2: eta bridge", report)
    assert report["max_violation"] < 1e-9


def test_criterion_3_symplectic_identities():
    """omega* normalization, adjugate identity, reflection/complement match,
    transversality vs intersection dimension."""
    _gate("criterion 3: symplectic identities",
          oracle.suite_symplectic_identities(trials=1000, seed=7))


def test_criterion_4_maslov_bridge():
    """Maslov index 2/0/undefined vs timelike/spacelike/lightlike on 1000
    configurations."""
    _gate("criterion 4: Maslov/causal bridge",
          oracle.suite_maslov_bridge(trials=1000, seed=7))


def test_criterion_5_photon_avoidance():
    """Photon disjointness sign test vs the oracle that solves for the
    photon's incidences with the wing vertices and stem planes, and the
    constructive witness with residual < 1e-9, on 1000 pairs with margins
    above 1e-6."""
    report = oracle.suite_photon_avoidance(trials=1000, seed=7)
    _gate("criterion 5: photon avoidance", report)
    assert report["max_violation"] < 1e-9  # witness membership residual


def test_criterion_6_surface_disjointness():
    """200 certified-disjoint pairs (margins > 1e-2, sampled gap > 1e-4 over
    ~10^5 point pairs) and 200 constructed intersecting pairs."""
    report = oracle.suite_surface_disjointness(trials=200, seed=7)
    _gate("criterion 6: surface disjointness", report)
    assert report["max_violation"] > 1e-4  # least sampled gap among disjoint


def test_criterion_7_stem_only_impossibility():
    """200 surface pairs whose stems share a constructed point (checked on
    both stems) all meet stem to wing: a contact solved for in closed
    form along the wing photons and put on one stem and the other wing by
    the membership rule, with membership residual < 1e-9."""
    report = oracle.suite_stem_only(trials=200, seed=7)
    # membership is gated here: a pair whose shared point is off either
    # stem, or with no contact on a stem and a wing, is a failure
    _gate("criterion 7: stem-only impossibility", report)
    # the residual only confirms the construction (L = span{x1, x2} is
    # Lagrangian because S1 and S2 are omega-orthogonal, and x = x1 + x2 lies
    # on L); it cannot tell a wrong contact from a right one
    assert report["max_violation"] < 1e-9


def test_criterion_8_ads_equivalences():
    """ads_disjoint / dgk_criterion / surfaces_disjoint agree on 1000
    configurations with margins above 1e-6; boundary-lift equivariance and
    the trace-form identity hold to 1e-12; exact zero horocycle distance."""
    report = oracle.suite_ads_equivalence(trials=1000, seed=7)
    _gate("criterion 8: AdS equivalences", report)
    assert report["max_violation"] < 1e-12


# sha256 of `ein3 verify --suite all --seed 7` with one BLAS thread; a change
# that moves these bytes on purpose updates the pin and says why
VERIFY_SHA256 = "55eed9e35c826316894c2133b0f3601d18c0673b633e7efbb6b0bfb52ca516b1"


def test_criterion_9_determinism():
    """`ein3 verify --suite all --seed 7` twice gives byte-identical output,
    and the bytes match the pinned digest."""
    cmd = [sys.executable, "-m", "ein3.cli", "verify", "--suite", "all",
           "--seed", "7"]
    # one BLAS thread: same wall time and bytes, without spinning idle
    # threads on 4x4 matrices
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    identical = first.stdout == second.stdout
    status = "PASS" if identical else "FAIL"
    print(f"[{status}] criterion 9: determinism ({len(first.stdout)} bytes)")
    assert identical
    assert hashlib.sha256(first.stdout).hexdigest() == VERIFY_SHA256
    # no warning of a stacked kernel's masked rows (or anything else)
    # reaches stderr, where pytest's warning filters do not reach
    assert first.stderr == second.stderr == b""


def test_every_suite_passes_on_seeds_1_to_20():
    """All eight suites at their default trials on seeds 1-20: none raises
    and none reports a failure, so that a change cannot pass on seed 7
    alone."""
    failing = [(name, seed, failures[:3]) for name in oracle.SUITES for seed in range(1, 21)
               if (failures := oracle.run_suite(name, seed=seed)["failures"])]
    status = "PASS" if not failing else "FAIL"
    print(f"[{status}] seeds 1-20: {20 * len(oracle.SUITES)} suite runs")
    assert failing == []


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
