"""Mutation-scored suites: defects that the eight suites must catch.

A row is one defect, written as one textual change to a kernel: (module,
attribute, old text, new text), and the suites that catch it.  The mutant
is the attribute's source with the old text replaced once, executed in a
copy of its module's namespace, and set on every ein3 module that holds
the original until the row ends.  A row runs only its suites, at their
default trials and seed, with RuntimeWarnings ignored as `verify` ignores
them, so its verdict is the one `verify` would give.  A suite catches the
mutant when it reports a failure or raises; a row passes when each of its
suites does, so a suite that stops reporting fails every row naming it.

A row that no suite catches yet is a strict xfail naming the ROADMAP item
that mends it, with the suite that item extends; that item's change has
to flip it.  The test ids name the defects.
"""

import contextlib
import inspect
import sys
import warnings

import pytest

from ein3 import ads, crooked, einstein, oracle, symplectic


@contextlib.contextmanager
def _mutant(module, attribute, old, new):
    """The attribute's source with old replaced once by new, set in place of
    the original on every ein3 module that holds it, restored on exit."""
    original = getattr(module, attribute)
    source = inspect.getsource(original)
    if old not in source:  # not an AssertionError, which an open row expects
        pytest.fail(f"{module.__name__}.{attribute} no longer reads {old!r}")
    namespace = dict(vars(module))
    exec(source.replace(old, new, 1), namespace)
    holders = [(held, name) for key, held in list(sys.modules.items())
               if key == "ein3" or key.startswith("ein3.")
               for name, value in vars(held).items() if value is original]
    try:
        for held, name in holders:
            setattr(held, name, namespace[attribute])
        yield
    finally:
        for held, name in holders:
            setattr(held, name, original)


def _catching(suites):
    """The suites, in the order given, that report a failure or raise."""
    caught = []
    for name in suites:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                failed = bool(oracle.run_suite(name)["failures"])
            except Exception:
                failed = True
        if failed:
            caught.append(name)
    return caught


def _open(item, row, name):
    return pytest.param(*row, id=name, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason=f"no suite catches it yet; ROADMAP item {item} mends it"))


_PHOTON, _SURFACE, _ADS = "photon-avoidance", "surface-disjointness", "ads-equivalence"
_TORUS, _ETA, _MASLOV = "torus-trichotomy", "eta-bridge", "maslov-bridge"
_STEM, _IDENTITIES = "stem-only", "symplectic-identities"

_CAUGHT = [
    pytest.param(crooked, "_avoids", "(m1 > eps) & (m2 < -eps)", "(m1 > eps) | (m2 < -eps)",
                 (_PHOTON, _SURFACE, _ADS), id="avoids-or-for-and"),
    pytest.param(crooked, "_products", "w[..., 2] * w[..., 0], w[..., 3] * w[..., 1]",
                 "w[..., 2] * w[..., 1], w[..., 3] * w[..., 0]", (_PHOTON, _SURFACE, _ADS),
                 id="products-wrong-columns"),
    pytest.param(ads, "_margin_array", "((f @ x)", "((f.swapaxes(-1, -2) @ x)", (_SURFACE, _ADS),
                 id="margin-array-f-transposed"),
    pytest.param(einstein, "_torus_kinds", "e = abs(s1[..., None, :] @ GRAM @ s2",
                 "e = abs(s1[..., None, :] @ s2", (_TORUS, _ETA), id="torus-kinds-euclidean-dot"),
    pytest.param(einstein, "_torus_kinds", "np.where(e > 1.0, 2, 3)", "np.where(e > 1.0, 3, 2)",
                 (_TORUS, _ETA), id="torus-kinds-circles-swapped"),
    pytest.param(einstein, "_signatures", "inertia(np.linalg.eigvalsh(",
                 "inertia(-np.linalg.eigvalsh(", (_TORUS, _MASLOV), id="signatures-p-q-swapped"),
    pytest.param(crooked, "_quad_regions",
                 "return ((np.abs(p13) <= eps) & (p03 * p23 - p01 * p12 >= -eps),\n"
                 "            (np.abs(p02) <= eps) & (p01 * p03 - p12 * p23 <= eps),",
                 "return ((np.abs(p02) <= eps) & (p01 * p03 - p12 * p23 <= eps),\n"
                 "            (np.abs(p13) <= eps) & (p03 * p23 - p01 * p12 >= -eps),",
                 (_STEM,), id="quad-regions-wings-swapped"),
    pytest.param(crooked, "_quad_regions", "(p01 * p23 < 0)", "(p01 * p23 > 0)",
                 (_PHOTON, _SURFACE, _STEM), id="quad-regions-stem-sign-flipped"),
    pytest.param(crooked, "_quad_regions", " & (p01 * p23 < 0))", ")", (_PHOTON,),
                 id="quad-regions-stem-without-sign"),
    pytest.param(symplectic, "det_omega", "return float(d) if d.ndim == 0 else d",
                 "return -float(d) if d.ndim == 0 else -d", (_IDENTITIES, _ETA),
                 id="det-omega-negated"),
]

_OPEN = [
    # both rows of margins C2's photons against C1
    _open(1, (crooked, "_sixteen_margins",
              "columns[..., ::-1, :, :].swapaxes(-1, -2))\n"
              "    return _products(units @ omega @ columns)",
              "columns[..., [1, 1], :, :].swapaxes(-1, -2))\n"
              "    return _products(units @ omega @ columns[..., [0, 0], :, :])",
              (_SURFACE,)), "sixteen-margins-one-side"),
    _open(9, (crooked, "_avoids", "(m1 > eps) & (m2 < -eps)", "(m1 >= -eps) & (m2 <= eps)",
              (_PHOTON,)), "avoids-touching-counts-disjoint"),
    _open(9, (einstein, "_torus_kinds", "kinds = np.where(gap <= eps + rounding, 1, np.where(",
              "kinds = np.where(False, 1, np.where(", (_TORUS,)), "torus-kinds-never-photon-pair"),
    _open(9, (einstein, "_torus_kinds", "gap <= eps + rounding", "gap <= 1e-9 + rounding",
              (_TORUS,)), "torus-kinds-ignoring-eps"),
    _open(2, (symplectic, "_maslov_rows", "np.subtract(pos, neg)", "np.subtract(neg, pos)",
              (_MASLOV,)), "maslov-sign-flipped"),
]


@pytest.mark.parametrize("module, attribute, old, new, suites", _CAUGHT + _OPEN)
def test_suites_catch_the_mutant(module, attribute, old, new, suites):
    with _mutant(module, attribute, old, new):
        assert _catching(suites) == list(suites)


def test_every_suite_catches_a_mutant():
    # so a suite that stops reporting its failures fails a row
    named = {suite for row in _CAUGHT for suite in row.values[-1]}
    assert named == set(oracle.SUITES)

