import copy
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ein3 import ads, cli, einstein, symplectic
from ein3.sampling import make_rng

from draws import disjoint_ads_pair, random_quadrilateral

QUAD = {"type": "quadrilateral", "u_plus": [1, 0, 0, 0], "u_minus": [0, 1, 0, 0],
        "v_plus": [0, 0, 0, 1], "v_minus": [0, 0, 1, 0]}


def fields(obj, keys=("u_plus", "u_minus", "v_plus", "v_minus")):
    """Document fields of an object: a quadrilateral's four vectors, or the
    given attributes (an AdS plane's base, a and b)."""
    return {k: getattr(obj, k).tolist() for k in keys}


def photon_doc(vector):
    return {"objects": {"P": {"type": "photon", "vector": vector}, "Q": QUAD}}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env():
    """The environment of a child process that imports the ein3 under test."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_classify_tori_normals(tmp_path, capsys):
    path = write_config(tmp_path, {"objects": {
        "T1": {"type": "torus", "normal": [1, 0, 0, 0, 0]},
        "T2": {"type": "torus", "normal": [0, 1, 0, 0, 0]},
    }})
    code, out, _ = run(["classify-tori", path], capsys)
    assert code == 0
    assert "eta=0 kind=timelike" in out
    assert "carrier_signature=(1,2,0)" in out


def test_classify_tori_splitting_and_map(tmp_path, capsys):
    path = write_config(tmp_path, {"objects": {
        "T1": {"type": "torus", "splitting": [[1, 0, 0, 0], [0, 0, 1, 0]]},
        "T2": {"type": "torus", "splitting": [[1, 0, 0, 0], [0, 0, 1, 0]],
               "map": [[3, 0], [0, 1]]},
    }})
    code, out, _ = run(["classify-tori", path], capsys)
    assert code == 0
    assert "kind=timelike" in out
    assert "eta_from_det=0.5" in out
    assert "agreement=true" in out


def test_classify_tori_det_route_needs_the_summand_torus(tmp_path, capsys):
    split = {"type": "torus", "splitting": [[1, 0, 0, 0], [0, 0, 1, 0]]}
    graph = dict(split, map=[[3, 0], [0, 1]])
    # Det(f) is the invariant of (S, graph(f)); the README's pair is another
    readme = {"T1": {"type": "torus", "normal": [1, 0, 0, 0, 0]}, "T2": graph}
    code, out, _ = run(["classify-tori", write_config(tmp_path, {"objects": readme})],
                       capsys)
    assert code == 0 and "kind=timelike" in out
    assert "eta_from_det" not in out and "agreement" not in out
    # the summand torus may come second or first
    path = write_config(tmp_path, {"objects": {"T1": graph, "T2": split}}, "summand.json")
    code, out, _ = run(["classify-tori", path], capsys)
    assert code == 0
    assert "eta_from_det=0.5 det=3 agreement=true\n" in out


def test_classify_tori_reads_an_overflowed_det(tmp_path, capsys):
    # Det(f) = 1e320 overflows to inf, where eta rounds to 1 (|eta - 1| <= 2 /
    # |Det f|); a Det(f) of inf - inf is NaN, and its line is left out
    split = {"type": "torus", "splitting": [[1, 0, 0, 0], [0, 0, 1, 0]]}
    doc = {"objects": {"T1": split, "T2": dict(split, map=[[1e160, 0], [0, 1e160]])}}
    code, out, err = run(["classify-tori", write_config(tmp_path, doc)], capsys)
    assert (code, err) == (0, "")
    assert out == "eta=1 kind=equal\neta_from_det=1 det=inf agreement=true\n"
    doc["objects"]["T2"]["map"] = [[1e200, 2e200], [1e200, 1e200]]
    code, out, err = run(["classify-tori", write_config(tmp_path, doc, "nan.json")], capsys)
    assert (code, out, err) == (0, "eta=1 kind=equal\n", "")


@pytest.mark.parametrize("map_text", ["[[1, 2, 3]]", "[[1e999, 0], [0, 1]]"])
def test_classify_tori_rejects_a_map_that_is_not_a_finite_2x2(map_text, tmp_path,
                                                              capsys):
    path = tmp_path / "config.json"
    path.write_text('{"objects": {"T1": {"type": "torus", "normal": [1, 0, 0, 0, 0]}, '
                    '"T2": {"type": "torus", "splitting": [[1, 0, 0, 0], [0, 0, 1, 0]], '
                    f'"map": {map_text}}}}}}}')
    code, out, err = run(["classify-tori", str(path)], capsys)
    assert code == 2 and out == ""
    assert "'T2'" in err and "finite 2x2" in err


def test_a_lagrangian_splitting_exits_2_with_one_error_line(tmp_path):
    # rejected before its complement, the plane itself, is taken: no
    # warning precedes the error
    path = write_config(tmp_path, {"objects": {
        "T1": {"type": "torus", "splitting": [[1, 0, 0, 0], [0, 1, 0, 0]]}}})
    proc = subprocess.run([sys.executable, "-m", "ein3.cli", "classify-tori", path],
                          capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: object 'T1': splitting summands must be nondegenerate\n"


def test_classify_tori_equal(tmp_path, capsys):
    path = write_config(tmp_path, {"objects": {
        "T1": {"type": "torus", "normal": [1, 0, 0, 0, 0]},
        "T2": {"type": "torus", "normal": [-1, 0, 0, 0, 0]},
    }})
    code, out, _ = run(["classify-tori", path], capsys)
    assert code == 0
    assert "kind=equal" in out


def test_classify_tori_tells_apart_tori_of_allclose_large_normals(tmp_path, capsys):
    # unit normals of entries ~1e4 that agree to an rtol of 1e-5 on each
    # entry, but eta = 0.9975
    doc = {"objects": {
        "T1": {"type": "torus", "normal": [1e4, 1e4, 14142.135588375611, 0, 0]},
        "T2": {"type": "torus", "normal": [10000.05, 9999.95, 14142.135588552388, 0, 0]}}}
    code, out, _ = run(["classify-tori", write_config(tmp_path, doc)], capsys)
    assert code == 0
    assert out.startswith("eta=0.9975")
    assert "kind=timelike carrier_signature=(1,2,0)" in out


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["classify-tori", str(bad)], capsys)
    assert code == 2
    assert "error:" in err
    path = write_config(tmp_path, {"objects": {
        "T1": {"type": "torus", "normal": [1, 0, 1, 0, 0, 0]}}})
    code, _, err = run(["classify-tori", path], capsys)
    assert code == 2
    # a file that is not UTF-8, and one nested past the decoder's recursion
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"objects": {"T\xe9": {}}}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for bad in (latin, deep):
        code, out, err = run(["classify-tori", str(bad)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad} is ")


def test_selection_errors_name_the_document_type(tmp_path, capsys):
    # one torus for classify-tori, and a pair that names a photon for
    # check-crooked: each message names the type as the document writes it
    one = {"objects": {"T1": WELL_FORMED["classify-tori"]["objects"]["T1"]}}
    code, out, err = run(["classify-tori", write_config(tmp_path, one)], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: expected exactly two objects of type 'torus', found 1; "
                   "use 'pair' to disambiguate\n")
    doc = {"objects": {"Q": QUAD, "P": {"type": "photon", "vector": [1, 1, -1, 1]}},
           "pair": ["Q", "P"]}
    code, out, err = run(["check-crooked", write_config(tmp_path, doc, "pair.json")], capsys)
    assert (code, out) == (2, "")
    assert err == "error: 'pair' must name two objects of type 'quadrilateral'\n"


def test_sample_ply_takes_at_most_256_labels(tmp_path, capsys):
    # three labels per quadrilateral and one per torus: 256 fit the ply
    # uchar label, 257 exit 2 before the file is written
    objects = {f"Q{i}": QUAD for i in range(85)}
    objects["T1"] = {"type": "torus", "normal": [1, 0, 0, 0, 0]}
    out_ply = tmp_path / "cloud.ply"
    code, _, _ = run(["sample", write_config(tmp_path, {"objects": objects}), "--count", "30",
                      "--format", "ply", "--out", str(out_ply)], capsys)
    assert code == 0
    labels = sorted([f"Q{i}:{r}" for i in range(85) for r in ("wing_plus", "wing_minus", "stem")]
                    + ["T1"])
    content = out_ply.read_text().splitlines()
    assert content[2:258] == [f"comment label {i} = {lab}" for i, lab in enumerate(labels)]
    assert content[258].startswith("element vertex ")
    out_ply.unlink()
    objects["T2"] = {"type": "torus", "normal": [0, 1, 0, 0, 0]}
    code, out, err = run(["sample", write_config(tmp_path, {"objects": objects}), "--count", "30",
                          "--format", "ply", "--out", str(out_ply)], capsys)
    assert code == 2 and out == ""
    assert "257 labels" in err and "--format csv" in err
    assert not out_ply.exists()


@pytest.mark.parametrize("command", ["classify-tori", "check-photon",
                                     "check-crooked", "check-ads"])
def test_check_commands_reject_seed(command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "config.json", "--seed", "3"])
    assert exc.value.code == 2


def test_check_crooked_identical(tmp_path, capsys):
    quad = {"type": "quadrilateral", "u_plus": [1, 0, 0, 0],
            "u_minus": [0, 1, 0, 0], "v_plus": [0, 0, 0, 1],
            "v_minus": [0, 0, 1, 0]}
    path = write_config(tmp_path, {"objects": {"Q1": quad, "Q2": dict(quad)}})
    code, out, err = run(["check-crooked", path], capsys)
    assert code == 1
    assert "disjoint=false" in out
    assert "ambiguous within tolerance" in err
    assert out.count("wing_plus=") == 8


# well-formed documents for the four check commands; the fuzz test below
# breaks one part of a document at a time
WELL_FORMED = {
    "classify-tori": {"objects": {
        "T1": {"type": "torus", "normal": [1, 0, 0, 0, 0]},
        "T2": {"type": "torus", "normal": [0, 1, 0, 0, 0]}}},
    "check-photon": {"objects": {
        "P": {"type": "photon", "vector": [1, 1, -1, 1]}, "Q": QUAD}},
    "check-crooked": {"objects": {"Q1": QUAD, "Q2": QUAD}},
    "check-ads": {"objects": {
        "A1": {"type": "ads_plane", "base": [[1, 0], [0, 1]], "a": [1, 0], "b": [0, 1]},
        "A2": {"type": "ads_plane", "base": [[0.5, 0.0], [1.0, 2.0]],
               "a": [1, -0.5], "b": [1, -0.55]}}},
}
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.floats(-2, 2), st.text(max_size=3))
NOT_AN_OBJECT = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))


@st.composite
def malformed_documents(draw, command):
    doc = copy.deepcopy(WELL_FORMED[command])
    names = sorted(doc["objects"])
    part = draw(st.sampled_from(["document", "objects", "object", "pair", "eps_alg"]))
    if part == "document":
        return draw(NOT_AN_OBJECT)
    if part == "objects":
        doc["objects"] = draw(NOT_AN_OBJECT)
    elif part == "object":
        doc["objects"][draw(st.sampled_from(names))] = draw(
            st.one_of(NOT_AN_OBJECT, st.fixed_dictionaries({"type": SCALARS})))
    elif part == "pair":
        doc["pair"] = draw(st.one_of(  # null means no pair
            SCALARS.filter(lambda x: x is not None), st.text(min_size=2, max_size=2),
            st.lists(st.one_of(SCALARS, st.sampled_from(names)), max_size=4).filter(
                lambda pair: not (len(pair) == 2 and set(pair) <= set(names)))))
    else:
        doc["eps_alg"] = draw(st.one_of(
            SCALARS.filter(lambda x: not isinstance(x, (int, float)) or isinstance(x, bool)
                           or x <= 0),
            st.sampled_from([math.inf, -math.inf, math.nan, 10 ** 400])))
    return doc


@pytest.mark.parametrize("command", sorted(WELL_FORMED))
def test_well_formed_documents_give_a_verdict(command, tmp_path, capsys):
    code, _, _ = run([command, write_config(tmp_path, WELL_FORMED[command])], capsys)
    assert code in (0, 1)


@pytest.mark.parametrize("command", sorted(WELL_FORMED))
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_malformed_documents_exit_2(command, data, tmp_path_factory):
    doc = data.draw(malformed_documents(command))
    path = tmp_path_factory.getbasetemp() / f"malformed-{command}.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 2


@pytest.mark.parametrize("command, name, field, value, message", [
    ("check-crooked", "Q1", "u_plus", [1, 0, 0], "expected a vector of length 4, got 3"),
    ("check-crooked", "Q1", "v_minus", [[0, 0, 1, 0]],
     "expected a vector, got array of shape (1, 4)"),
    ("check-crooked", "Q2", "u_minus", [0, 1, math.nan, 0], "vector has non-finite entries"),
    ("check-photon", "Q", "v_plus", [0, 0, "x", 1], "could not convert string to float"),
    ("check-ads", "A1", "base", [[1, 0], [0, 1], [0, 0]], "an AdS point is a 2x2 matrix"),
    ("check-ads", "A2", "a", [1, -0.5, 0], "expected a vector of length 2, got 3"),
    ("classify-tori", "T1", "normal", [1, 0, 0, 0], "expected a vector of length 5, got 4"),
], ids=["short", "nested", "nan", "string", "base-3x2", "a-of-length-3", "normal-of-length-4"])
def test_malformed_vector_fields_exit_2(command, name, field, value, message, tmp_path,
                                       capsys):
    doc = copy.deepcopy(WELL_FORMED[command])
    doc["objects"][name] = dict(doc["objects"][name], **{field: value})
    code, out, err = run([command, write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: object {name!r}: ") and message in err


def test_an_integer_too_large_for_a_float_exits_2(tmp_path, capsys):
    doc = copy.deepcopy(WELL_FORMED["check-crooked"])
    doc["objects"]["Q1"] = dict(QUAD, u_plus=[10 ** 400, 0, 0, 0])
    code, out, err = run(["check-crooked", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert out == ""
    assert "too large" in err


@pytest.mark.parametrize("command", sorted(WELL_FORMED))
def test_an_eps_alg_too_large_for_a_float_exits_2(command, tmp_path, capsys):
    doc = dict(WELL_FORMED[command], eps_alg=10 ** 400)  # 401 digits
    code, out, err = run([command, write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: eps_alg must be a finite positive number, got 1000")


def test_classify_tori_takes_a_small_spacelike_normal(tmp_path, capsys):
    doc = {"objects": {"T1": {"type": "torus", "normal": [1e-5, 0, 0, 0, 0]},
                       "T2": {"type": "torus", "normal": [0, 1, 0, 0, 0]}}}
    code, out, _ = run(["classify-tori", write_config(tmp_path, doc)], capsys)
    assert code == 0
    assert out.startswith("eta=0 kind=timelike")


def test_classify_tori_takes_a_normal_whose_form_overflows(tmp_path, capsys):
    doc = {"objects": {"T1": {"type": "torus", "normal": [1e200, 0, 0, 0, 0]},
                       "T2": {"type": "torus", "normal": [0, 0, 0, 1e200, -1e200]}}}
    code, out, _ = run(["classify-tori", write_config(tmp_path, doc)], capsys)
    assert code == 0
    assert out.startswith("eta=0 kind=timelike")

def test_pair_of_the_wrong_type_exits_2(tmp_path, capsys):
    doc = dict(WELL_FORMED["check-photon"], pair=["P", "Q"])
    code, _, err = run(["check-crooked", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert "'pair'" in err


@pytest.mark.parametrize("argv", [
    ["sample", "config.json", "--count", "-3", "--out", "cloud.csv"],
    ["sample", "config.json", "--count", "0", "--out", "cloud.csv"],
    ["verify", "--trials", "-2"],
    ["verify", "--trials", "many"],
])
def test_counts_must_be_positive(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sample", "config.json", "--seed", "-1", "--out", "cloud.csv"],
    ["verify", "--suite", "eta-bridge", "--trials", "2", "--seed", "-3"],
])
def test_seeds_must_be_non_negative(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "expected an integer >= 0" in capsys.readouterr().err


def test_check_crooked_disjoint_pair(tmp_path, capsys):
    p1, p2 = disjoint_ads_pair(make_rng(3))
    q1 = fields(ads.ads_quadrilateral(p1))
    q2 = fields(ads.ads_quadrilateral(p2))
    for q in (q1, q2):
        q.update({"type": "quadrilateral", "space": "ads"})
    path = write_config(tmp_path, {"objects": {"Q1": q1, "Q2": q2}})
    code, out, _ = run(["check-crooked", path], capsys)
    assert code == 0
    assert "disjoint=true" in out


def test_check_photon(tmp_path, capsys):
    quad = {"type": "quadrilateral", "u_plus": [1, 0, 0, 0],
            "u_minus": [0, 1, 0, 0], "v_plus": [0, 0, 0, 1],
            "v_minus": [0, 0, 1, 0]}
    path = write_config(tmp_path, {"objects": {
        "P": {"type": "photon", "vector": [1, 1, -1, 1]}, "Q": quad}})
    code, out, _ = run(["check-photon", path], capsys)
    assert code == 0
    assert "disjoint=true" in out
    path2 = write_config(tmp_path, {"objects": {
        "P": {"type": "photon", "vector": [1, 0, 0, 0]}, "Q": quad}},
        name="touching.json")
    code, out, _ = run(["check-photon", path2], capsys)
    assert code == 1
    assert "disjoint=false" in out


def test_check_photon_with_an_overflowing_norm(tmp_path, capsys):
    outs, errs = [], []
    for vector in ([1, 1, 0, 0], [1e308, 1e308, 0, 0]):
        code, out, err = run(["check-photon", write_config(tmp_path, photon_doc(vector))],
                             capsys)
        assert code == 1
        assert "disjoint=false" in out and "crossing_lagrangian=" in out
        outs.append(out)
        errs.append(err)
    assert outs[0] == outs[1]
    # stderr holds the binding line and nothing else: no numpy overflow warning
    assert errs[0] == errs[1] == "binding: P wing_plus_margin=0\n"


def test_check_photon_rejects_a_photon_of_another_space(tmp_path, capsys):
    doc = {"objects": {"P": {"type": "photon", "vector": [1, 1, -1, 1], "space": "ads"},
                       "Q": QUAD}}
    code, out, err = run(["check-photon", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert "disjoint=" not in out
    assert "different spaces" in err


def test_check_crooked_rejects_quadrilaterals_of_different_spaces(tmp_path, capsys):
    quad = ads.ads_quadrilateral(ads.AdsCrookedPlane(np.eye(2), [1, 0], [0, 1]))
    doc = {"objects": {"C1": dict(QUAD, space="standard"),
                       "C2": dict(type="quadrilateral", space="ads", **fields(quad))}}
    code, out, err = run(["check-crooked", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: the photons and the surface are in different symplectic spaces\n"


def test_sample_names_an_object_whose_surface_is_degenerate(tmp_path, capsys):
    # det 1 and finite, so check-ads decides it; the surface's planes lose
    # rank at this scale
    doc = {"objects": {"A": {"type": "ads_plane", "base": [[1e150, 0], [0, 1e-150]],
                             "a": [1, 0], "b": [0, 1]}}}
    out_csv = str(tmp_path / "cloud.csv")
    code, out, err = run(["sample", write_config(tmp_path, doc), "--count", "20",
                          "--out", out_csv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: object 'A': its crooked surface is numerically "
                          "degenerate at this scale (")
    assert not os.path.exists(out_csv)


def test_sample_passes_eps_alg_to_an_ads_plane_quadrilateral(tmp_path, capsys):
    # at this scale the quadrilateral products miss by 4e-8 to 4e-7: over
    # the default eps, under --eps-alg 1e-6
    r = np.array([[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]])
    doc = {"objects": {"A": {"type": "ads_plane",
                             "base": (r @ np.diag([1e5, 1e-5])).tolist(),
                             "a": [1, 0.3], "b": [0.2, 1]}}}
    path = write_config(tmp_path, doc)
    out_csv = str(tmp_path / "cloud.csv")
    argv = ["sample", path, "--count", "50", "--out", out_csv]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert "quadrilateral products violated" in err
    assert not os.path.exists(out_csv)
    code, out, err = run(["--eps-alg", "1e-6"] + argv, capsys)
    assert code == 0
    assert err == ""
    assert out == f"wrote 50 points to {out_csv}\n"


# omega(v+, v-) = -1e-7: within --eps-alg 1e-6, over the default eps
Q1 = dict(QUAD, v_minus=[0, 1e-7, 1, 0])


@pytest.mark.parametrize("command, objects, want", [
    ("check-photon", {"P": {"type": "photon", "vector": [1, 1, -1, 1]}}, (0, "disjoint=true\n")),
    ("check-crooked", {"Q2": dict(QUAD, u_plus=[3, 0, 0, 0], u_minus=[0, 3, 0, 0],
                                  v_plus=[0, 0, 0, 1 / 3], v_minus=[0, 0, 1 / 3, 0])},
     (1, "disjoint=false\n")),
    ("sample", {}, (0, "wrote 20 points")),
])
def test_eps_alg_reaches_the_surface_plane_tags(command, objects, want, tmp_path, capsys):
    # the quadrilateral's products pass at --eps-alg, and so must the
    # Lagrangian tags of its surface's vertices
    argv = [command, write_config(tmp_path, {"objects": dict(objects, Q1=Q1)})]
    if command == "sample":
        argv += ["--count", "20", "--out", str(tmp_path / "cloud.csv")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: object 'Q1': quadrilateral products violated")
    code, out, err = run(["--eps-alg", "1e-6"] + argv, capsys)
    assert code == want[0]
    assert want[1] in out
    assert "error" not in err


def test_check_ads(tmp_path, capsys):
    path = write_config(tmp_path, {"objects": {
        "A1": {"type": "ads_plane", "base": [[1, 0], [0, 1]],
               "a": [1, 0], "b": [0, 1]},
        "A2": {"type": "ads_plane", "base": [[0.5, 0.0], [1.0, 2.0]],
               "a": [1, -0.5], "b": [1, -0.55]},
    }})
    code, out, _ = run(["check-ads", path], capsys)
    assert "agreement=true" in out
    assert code in (0, 1)
    # degenerate endpoints are an error
    path2 = write_config(tmp_path, {"objects": {
        "A1": {"type": "ads_plane", "base": [[1, 0], [0, 1]],
               "a": [1, 0], "b": [0, 1]},
        "A2": {"type": "ads_plane", "base": [[1, 0], [0, 1]],
               "a": [2, 0], "b": [1, 1]},
    }}, name="degen.json")
    code, _, err = run(["check-ads", path2], capsys)
    assert code == 2
    assert "coincident" in err


@pytest.mark.parametrize("base", [[[1e308, 1e308], [1e308, 1e308]],
                                  [[math.nan, 0.0], [0.0, 1.0]],
                                  [[math.inf, 0.0], [0.0, 1.0]]],
                         ids=["overflowing", "nan", "inf"])
def test_check_ads_rejects_a_base_it_cannot_test(base, tmp_path, capsys):
    doc = copy.deepcopy(WELL_FORMED["check-ads"])
    doc["objects"]["A1"]["base"] = base
    code, out, err = run(["check-ads", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


ADS_DISJOINT = WELL_FORMED["check-ads"]
ADS_CROSSING = {"objects": dict(ADS_DISJOINT["objects"], A2={
    "type": "ads_plane", "base": [[2, 0], [0, 0.5]], "a": [1, -0.5], "b": [1, -0.55]})}


def quads_of(ads_doc):
    """The crooked-surface document of an AdS plane pair."""
    objects = {}
    for name, spec in ads_doc["objects"].items():
        plane = ads.AdsCrookedPlane(np.asarray(spec["base"], dtype=float),
                                    spec["a"], spec["b"])
        quad = fields(ads.ads_quadrilateral(plane))
        objects["Q" + name[1:]] = {"type": "quadrilateral", "space": "ads",
                                   **{k: [float(x) for x in v] for k, v in quad.items()}}
    return {"objects": objects}


@pytest.mark.parametrize("command, doc, want_code, where", [
    ("check-photon", photon_doc([1, 2, -1, 1]), 0, "P wing_minus_margin"),
    ("check-photon", photon_doc([2, 1, 1, -1]), 1, "P wing_minus_margin"),
    ("check-crooked", quads_of(ADS_DISJOINT), 0, "u_minus of C2 vs C1 wing_minus"),
    ("check-crooked", quads_of(ADS_CROSSING), 1, "u_minus of C1 vs C2 wing_minus"),
    ("check-ads", ADS_DISJOINT, 0, "inequality a'-a"),
    ("check-ads", ADS_CROSSING, 1, "inequality a'-b"),
], ids=["photon-disjoint", "photon-crossing", "crooked-disjoint", "crooked-crossing",
        "ads-disjoint", "ads-crossing"])
def test_check_commands_name_the_binding_inequality(command, doc, want_code, where,
                                                    tmp_path, capsys):
    code, out, err = run([command, write_config(tmp_path, doc)], capsys)
    assert code == want_code
    match = re.fullmatch(rf"binding: {re.escape(where)}=(\S+)\n", err)
    assert match
    # the signed margin is the one stdout prints for that inequality
    name = where.split()[-1]
    assert re.search(rf"{re.escape(name)}(=|: ){re.escape(match[1])}(\s|$)", out)


def test_sample_csv_and_ply(tmp_path, capsys):
    doc = {"objects": {
        "T1": {"type": "torus", "normal": [1, 0, 0, 0, 0]},
        "T2": {"type": "torus", "normal": [0, 1, 0, 0, 0]},
    }}
    path = write_config(tmp_path, doc)
    out_csv = str(tmp_path / "cloud.csv")
    code, out, _ = run(["sample", path, "--count", "80", "--seed", "5",
                        "--out", out_csv], capsys)
    assert code == 0
    lines = open(out_csv).read().splitlines()
    assert lines[0] == "x,y,z,label"
    assert all(line.count(",") == 3 for line in lines[1:])
    labels = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert labels == {"T1", "T2"}

    out_ply = str(tmp_path / "cloud.ply")
    code, out, _ = run(["sample", path, "--count", "80", "--seed", "5",
                        "--format", "ply", "--out", out_ply], capsys)
    assert code == 0
    content = open(out_ply).read().splitlines()
    assert content[0] == "ply"
    assert content[1] == "format ascii 1.0"
    assert "property uchar label" in content
    n = int(next(l for l in content if l.startswith("element vertex")).split()[-1])
    header_end = content.index("end_header")
    assert len(content) - header_end - 1 == n


# sha256 of the CSV that `sample` writes for one torus and one ads_plane at
# --count 300 --seed 11, taken since the torus frame is a reflected axis
# frame (`sampling._torus_frame`) and a surface point a bivector product
# (`sampling._surface_cloud`); rows are written from `coords.tolist()`, and a
# change that moves a sampled point or a written digit changes it
_SAMPLE_CSV_SHA256 = "b62fd830817d10db185631b2964f6a40c80c622579c84b5042b4de33453575e6"


def test_sample_csv_bytes_are_pinned(tmp_path, capsys):
    import hashlib

    doc = {"objects": {
        "T": {"type": "torus", "normal": [2, 0, 0, 3, 1]},
        "A": {"type": "ads_plane", "base": [[1, 0], [0, 1]], "a": [1, 0], "b": [0, 1]},
    }}
    out_csv = tmp_path / "cloud.csv"
    code, out, _ = run(["sample", write_config(tmp_path, doc), "--count", "300",
                        "--seed", "11", "--out", str(out_csv)], capsys)
    assert code == 0
    assert out == f"wrote 600 points to {out_csv}\n"
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == _SAMPLE_CSV_SHA256


@pytest.mark.parametrize("count", [str(cli.SAMPLE_COUNT_MAX + 1), "10000000000000"])
def test_sample_count_above_the_ceiling_exits_2(count, tmp_path, capsys):
    doc = {"objects": {"T": {"type": "torus", "normal": [1, 0, 0, 0, 0]}}}
    out_csv = tmp_path / "cloud.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", write_config(tmp_path, doc), "--count", count,
                  "--out", str(out_csv)])
    assert exc.value.code == 2
    assert f"expected an integer <= 1000000, got {count}" in capsys.readouterr().err
    assert not out_csv.exists()

@pytest.mark.parametrize("name", ["T,1\nend_header", "T\r1", "T\t1", "T\x7f", "T\x85"])
def test_a_name_with_a_control_character_exits_2(tmp_path, capsys, name):
    doc = {"objects": {name: {"type": "torus", "normal": [1, 0, 0, 0, 0]}}}
    out_csv = tmp_path / "cloud.csv"
    code, out, err = run(["sample", write_config(tmp_path, doc), "--count", "20",
                          "--out", str(out_csv)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: object name ") and "control character" in err
    assert not out_csv.exists()


def test_sample_csv_quotes_a_name_with_a_comma_or_a_quote(tmp_path, capsys):
    import csv

    doc = {"objects": {'T,"1"': {"type": "torus", "normal": [1, 0, 0, 0, 0]},
                       "T2": {"type": "torus", "normal": [0, 1, 0, 0, 0]}}}
    out_csv = tmp_path / "cloud.csv"
    code, _, _ = run(["sample", write_config(tmp_path, doc), "--count", "40",
                      "--out", str(out_csv)], capsys)
    assert code == 0
    with open(out_csv, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x", "y", "z", "label"]
    assert {len(row) for row in rows} == {4}
    assert {row[3] for row in rows[1:]} == {'T,"1"', "T2"}


def test_sample_to_a_missing_directory_exits_2(tmp_path, capsys):
    doc = {"objects": {"T1": {"type": "torus", "normal": [1, 0, 0, 0, 0]}}}
    out_csv = str(tmp_path / "missing" / "cloud.csv")
    code, out, err = run(["sample", write_config(tmp_path, doc), "--count", "20",
                          "--out", out_csv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ")


def test_sample_reports_dropped_points(tmp_path, capsys):
    # a torus through the improper point loses samples at infinity only by
    # chance; force reporting with count 0 drop tolerance by sampling lots
    doc = {"objects": {"T": {"type": "torus", "normal": [0, 0, 0, -1, 1]}}}
    path = write_config(tmp_path, doc)
    out_csv = str(tmp_path / "h.csv")
    code, out, err = run(["sample", path, "--count", "500", "--seed", "2",
                          "--out", out_csv], capsys)
    assert code == 0
    # written count + dropped count = requested count
    written = int(out.split("wrote ")[1].split()[0])
    dropped = int(err.split("dropped ")[1].split()[0]) if "dropped" in err else 0
    assert written + dropped == 500


def test_verify_subcommand(tmp_path, capsys):
    code, out, _ = run(["verify", "--suite", "eta-bridge", "--trials", "20",
                        "--seed", "11"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["suite"] == "eta-bridge"
    assert record["failures"] == []
    assert record["seed"] == 11


def test_config_roundtrip(tmp_path):
    rng = make_rng(9)
    quad = random_quadrilateral(symplectic.standard_space(), rng)
    doc = {"objects": {"Q": {"type": "quadrilateral", **fields(quad)}}}
    path = write_config(tmp_path, doc)
    cfg = cli.load_config(path, argparse_stub())
    again = cfg.objects["Q"]
    for key in ("u_plus", "u_minus", "v_plus", "v_minus"):
        assert np.allclose(getattr(again, key), getattr(quad, key))
    plane = ads.AdsCrookedPlane(np.eye(2), [1, 0], [0, 1])
    doc2 = {"objects": {"A": {"type": "ads_plane", **fields(plane, ("base", "a", "b"))}}}
    cfg2 = cli.load_config(write_config(tmp_path, doc2, "a.json"),
                           argparse_stub())
    back = cfg2.objects["A"]
    assert np.allclose(back.base, plane.base)
    assert np.allclose(back.a, plane.a)
    assert np.allclose(back.b, plane.b)
    torus = einstein.EinsteinTorus([2, 0, 0, 3, 1])
    doc3 = {"objects": {"T": {"type": "torus", "normal": list(torus.normal)}}}
    cfg3 = cli.load_config(write_config(tmp_path, doc3, "t.json"),
                           argparse_stub())
    assert cfg3.objects["T"] == torus


def test_verify_rejects_eps_alg(capsys):
    code, out, err = run(["--eps-alg", "1e-3", "verify", "--suite", "eta-bridge",
                          "--trials", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "--eps-alg" in err


def test_verify_unknown_suite_exits_2(capsys):
    code, out, err = run(["verify", "--suite", "no-such-suite"], capsys)
    assert code == 2
    assert out == ""
    assert "unknown suite 'no-such-suite'" in err
    assert "'eta-bridge'" in err and "'dgk-equivalence'" in err


# the ein3 modules each command loads besides ein3 and ein3.cli: a process
# with no cached bytecode compiles every module it imports, so none is
# loaded that the command does not run, and none loads scipy
_LOADS = {
    "classify-tori": {"linalg", "einstein"},
    "check-photon": {"linalg", "einstein", "symplectic", "crooked"},
    "check-crooked": {"linalg", "einstein", "symplectic", "crooked"},
    "check-ads": {"linalg", "einstein", "symplectic", "crooked", "ads"},
    "sample": {"linalg", "einstein", "symplectic", "crooked", "sampling"},
}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    child = textwrap.dedent("""
        import contextlib, io, json, sys
        from ein3 import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(sys.argv[1:]) in (0, 1)
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("ein3", "scipy"))))
    """)
    loaded = {}
    for command in _LOADS:  # sample draws the two quadrilaterals of check-crooked
        doc = WELL_FORMED.get(command, WELL_FORMED["check-crooked"])
        argv = [command, write_config(tmp_path, doc, f"{command}.json")]
        if command == "sample":
            argv += ["--count", "50", "--out", str(tmp_path / "cloud.csv")]
        proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                              text=True, env=child_env(), check=True)
        loaded[command] = json.loads(proc.stdout)
    assert loaded == {command: sorted({"ein3", "ein3.cli"} | {f"ein3.{m}" for m in loads})
                      for command, loads in _LOADS.items()}


def test_verify_runs_without_scipy():
    # every suite's draws, the Hamiltonian exponentials included, on numpy alone
    child = textwrap.dedent("""
        import contextlib, io, json, sys
        from ein3 import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--suite", "all", "--trials", "5", "--seed", "3"]) == 0
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """)
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=child_env(), check=True)
    assert json.loads(proc.stdout) == []


def test_verify_suite_alias(capsys):
    code = cli.main(["verify", "--suite", "dgk-equivalence",
                     "--trials", "10", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["suite"] == "ads-equivalence"


class argparse_stub:
    eps_alg = None
    seed = None
