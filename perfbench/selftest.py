"""Self-test of the benchmark harness at tiny sizes (~10 s).

    python3 perfbench/selftest.py

Not part of the repository's test suite: the file name keeps pytest from
collecting it.  It checks that the references agree with ein3 on small
seeded pools, that the calibration sampler leaves no timer behind, that
the tracer's self times partition its root spans, that each workload's
operations run and pass their checks, and that run.py prints the result
line BENCHMARK.json asks for, and fails without one in a directory that
lacks the package.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_references_agree_with_package():
    from ein3 import ads, crooked, einstein, symplectic
    rng = np.random.default_rng(5)
    n = 24
    quads, p, photon_ref = inputs.photon_cases(rng, n)
    q1, q2, surface_ref = inputs.surface_pairs(rng, n)
    planes, ads_ref = inputs.ads_pairs(rng, n)
    s1, s2, eta = inputs.torus_pairs(rng, n)
    assert photon_ref.sum() == round(n * inputs.PHOTON_DISJOINT_SHARE)
    assert surface_ref.sum() == ads_ref.sum() == round(n * inputs.DISJOINT_SHARE)
    space = symplectic.standard_space()
    for i in range(n):
        surface = crooked.CrookedSurface(workloads._quad(space, quads[i]))
        assert crooked.photon_disjoint(p[i], surface) == photon_ref[i]
        c1 = crooked.CrookedSurface(workloads._quad(space, q1[i]))
        c2 = crooked.CrookedSurface(workloads._quad(space, q2[i]))
        assert crooked.surfaces_disjoint(c1, c2) == surface_ref[i]
        f1, a1, b1, f2, a2, b2 = (x[i] for x in planes)
        pair = ads.AdsCrookedPlane(f1, a1, b1), ads.AdsCrookedPlane(f2, a2, b2)
        assert ads.ads_disjoint(*pair) == ads_ref[i]
        t = einstein.classify_torus_pair(einstein.EinsteinTorus(s1[i]),
                                         einstein.EinsteinTorus(s2[i]))
        assert abs(t.eta - eta[i]) <= 1e-9 * max(1.0, eta[i])


def test_same_seed_same_inputs():
    a = workloads.make_queries(3, 8)
    b = workloads.make_queries(3, 8)
    for kind in workloads.QUERY_KINDS:
        for x, y in zip(a[kind][0], b[kind][0]):
            assert all(np.array_equal(u, v) for u, v in zip(x, y))


def test_workload_operations():
    verify = workloads.VerifySuites(7, trials=2)
    ops, _ = verify.fixed()
    assert [op.kind for op in ops] == list(workloads.SUITE_ORDER)
    assert verify.malformed == 0
    mix = workloads.PredicateMix(7, per_kind=8)
    ops, _ = mix.fixed(n=32)
    assert len(ops) == 32 and not any(op.failed for op in ops)
    cli = workloads.CliCold(7, per_command=1)
    try:
        ops = [cli.request(command, 0) for command in workloads.CLI_COMMANDS]
    finally:
        cli.close()
    assert all(op.completed and not op.failed for op in ops), ops
    assert all(op.ref > 0 for op in ops)


def test_calibration_sampler():
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(period=0.01) as sampler:
        sum(i * i for i in range(2_000_000))  # long enough for a few alarms
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.units) > 2 and sampler.pause > 0
    assert sampler.scale() > 0


def test_tracer_partitions_root_spans():
    # installs wrappers for the rest of this process, so it runs after the
    # untraced tests
    tracer = Tracer(keep=50)
    tracer.install()
    mix = workloads.PredicateMix(11, per_kind=4)
    mix.fixed(tracer, n=16)
    stats = tracer.stats()
    assert stats["einstein.classify_torus_pair"][0] == 4
    assert stats["op.torus"][0] == 4
    assert len(tracer.spans) == 50 and tracer.total_spans > 50
    total_self = sum(s for _, s in stats.values())
    assert abs(total_self - tracer.root_s) <= 1e-9 * tracer.root_s


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_result_line():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    proc = _run(ROOT, "--workload", "predicate-mix", "--seed", "2", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_package():
    os.makedirs(workloads.WORK, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=workloads.WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "predicate-mix", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip()


def main():
    tests = [test_references_agree_with_package, test_same_seed_same_inputs,
             test_calibration_sampler, test_workload_operations, test_run_prints_result_line,
             test_run_fails_without_package, test_tracer_partitions_root_spans]
    for test in tests:
        test()
        print(f"ok {test.__name__}")


if __name__ == "__main__":
    main()
