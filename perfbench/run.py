"""The ein3 benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the package is imported from ./src).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it,
prefixed `perfbench-meta `, records the machine, the versions and the
BLAS threads in force.  With `--trace 0` the metrics are the end-to-end
metrics of BENCHMARK.json, measured untraced for S seconds; with
`--trace 1` they are its per-layer metrics, from a fixed amount of work
done once untraced and once traced.  End-to-end times are scaled to a
reference core speed (calibrate.py); per-layer times are wall times.
See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

# workloads pins the BLAS / OpenMP threads before it loads numpy
from workloads import (CLI_COMMANDS, PINNED_ENV, SUITE_ORDER, WORK, WORKLOADS, BenchError,
                       child_env, run_child)
from tracer import Tracer
import calibrate

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
N_SETUP = 7  # fresh-process set-ups per run; setup_s is their median


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spawn_seconds(argv, env, ref=False):
    """Wall time of a child process from spawn to exit; with `ref`, scaled
    to the reference core speed by calibration units timed around it."""
    units = [calibrate.unit_seconds() for _ in range(3)] if ref else []
    t0 = perf_counter()
    code, _, err = run_child(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
    seconds = perf_counter() - t0
    if code != 0:
        raise BenchError(f"{' '.join(argv)} exited {code}: {err.strip()[-300:]}")
    if ref:
        units += [calibrate.unit_seconds() for _ in range(3)]
        seconds *= calibrate.scale(units)
    return seconds


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def collect_meta():
    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "ein3", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "thread_env": PINNED_ENV,
        "git_commit": commit,  # "unknown" outside a git checkout
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def kind_medians(ops, kinds, attr="ref"):
    """{kind: median of its completed operations' `ref` (or wall) times}."""
    med = {}
    for kind in kinds:
        times = [getattr(op, attr) for op in ops if op.kind == kind and op.completed]
        if not times:
            raise BenchError(f"no completed {kind} operation to time")
        med[kind] = statistics.median(times)
    return med


def timing(workload, ops):
    """verify_s, ops_per_s, op_p50_us, op_p90_us of a list of operations,
    from their times at the reference core speed.

    verify_s is the sum of the per-kind median times: one operation of
    each kind.  op_p50_us and op_p90_us are percentiles of the per-kind
    medians: on a shared machine the tail of raw latencies follows other
    tenants' load (a millisecond query that loses a time slice lands in
    it), while per-kind medians follow the program.  ops_per_s is
    completed operations per second of operation time.

    On verify-suites the operation is one sweep of all eight suites, timed
    as verify_s from the per-suite medians: the suites differ tenfold in
    length and a raising stem-only call ends early, so per-call figures
    would follow a seed's raise pattern rather than the program.
    """
    med = kind_medians(ops, workload.kinds)
    verify_s = sum(med.values())
    if workload.name == "verify-suites":
        return {"verify_s": verify_s, "ops_per_s": 1.0 / verify_s,
                "op_p50_us": verify_s * 1e6, "op_p90_us": verify_s * 1e6}
    p50, p90 = np.percentile(list(med.values()), [50, 90])
    busy = sum(op.ref for op in ops)
    return {"verify_s": verify_s, "ops_per_s": sum(op.completed for op in ops) / busy,
            "op_p50_us": float(p50) * 1e6, "op_p90_us": float(p90) * 1e6}


def raw_latency_us(ops):
    """p50 and p99 of every completed operation's latency."""
    p50, p99 = np.percentile([op.seconds for op in ops if op.completed], [50, 99])
    return float(p50) * 1e6, float(p99) * 1e6


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def end_to_end(workload, seconds):
    env = child_env()
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.name,
             str(workload.seed)]
    setups = [spawn_seconds(probe, env, ref=True) for _ in range(N_SETUP)]
    workload.warm_up()
    ops, _ = workload.timed(seconds)
    metrics = timing(workload, ops)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb(workload)
    return ops, metrics


def layer_metrics(stats):
    """Per-layer numbers from {span name: (calls, self seconds)}."""
    def calls(*names):
        return sum(stats.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0))[1] for n in names)

    def layer(prefix):
        return sum(s for n, (_, s) in stats.items() if n.startswith(prefix + "."))

    refine = ("oracle.refined_stem_stem_gap", "oracle.refined_stem_wing_gap")
    out = {
        "linalg.as_vector.calls": calls("linalg.as_vector"),
        "linalg.intersect.calls": calls("linalg.intersect"),
        "symplectic.Plane2.calls": calls("symplectic.Plane2"),
        "symplectic.Plane2.self_s": self_s("symplectic.Plane2"),
        "symplectic.maslov.calls": calls("symplectic.maslov"),
        "symplectic.transverse.calls": calls("symplectic.SympSpace.transverse"),
        "einstein.classify_torus_pair.calls": calls("einstein.classify_torus_pair"),
        "crooked.CrookedSurface.calls": calls("crooked.CrookedSurface"),
        "crooked.CrookedSurface.self_s": self_s("crooked.CrookedSurface"),
        "crooked.photon_margins.calls": calls("crooked.photon_margins"),
        "crooked.surfaces_disjoint.self_s": self_s("crooked.surfaces_disjoint"),
        "crooked.surface_contains.self_s": self_s("crooked.surface_contains"),
        "ads.ads_disjoint.self_s": self_s("ads.ads_disjoint"),
        "ads.dgk_criterion.self_s": self_s("ads.dgk_criterion"),
        "oracle.refined_gap.calls": calls(*refine),
        "oracle.refined_gap.self_s": self_s(*refine),
    }
    for name in ("photon_crossing_oracle", "eta_bridge_values", "sample_surface",
                 "min_gap", "probe_intersection_type"):
        out[f"oracle.{name}.self_s"] = self_s(f"oracle.{name}")
    for name in ("linalg", "einstein", "symplectic", "crooked", "ads", "oracle", "cli"):
        out[f"{name}.self_s"] = layer(name)
    return out


def accept_ratios(per_op_stats):
    """Useful-to-attempted ratios of the oracle's rejection loops, counted
    at the function boundaries within each suite's calls."""
    totals = {}
    for kind, stats in per_op_stats:
        for name, (c, _) in stats.items():
            totals[kind, name] = totals.get((kind, name), 0) + c

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        # a detected stem-stem contact is followed by two stem-wing refinements
        "oracle.stem_only.accept_ratio": ratio(
            totals.get(("stem-only", "oracle.refined_stem_wing_gap"), 0) / 2,
            totals.get(("stem-only", "oracle.stem_crossing_pair"), 0)),
        # one ads_disjoint evaluation per accepted trial
        "oracle.ads_equivalence.accept_ratio": ratio(
            totals.get(("ads-equivalence", "ads.ads_disjoint"), 0),
            totals.get(("ads-equivalence", "oracle.random_ads_config"), 0)),
        "oracle.disjoint_ads_pair.accept_ratio": ratio(
            totals.get(("surface-disjointness", "oracle.disjoint_ads_pair"), 0),
            totals.get(("surface-disjointness", "oracle.random_ads_config"), 0)),
    }


def cli_import_s(env):
    bare = [spawn_seconds([sys.executable, "-c", "pass"], env) for _ in range(N_SETUP)]
    cli = [spawn_seconds([sys.executable, "-c", "import ein3.cli"], env)
           for _ in range(N_SETUP)]
    return statistics.median(cli) - statistics.median(bare)


def per_layer(workload):
    """Fixed work once untraced and once traced; per-layer metrics."""
    env = child_env()
    import_s = cli_import_s(env)
    workload.warm_up()
    cpu0 = cpu_seconds()
    plain_ops, plain_elapsed = workload.fixed()
    cpu = cpu_seconds() - cpu0
    plain = timing(workload, plain_ops)
    if workload.name == "cli-cold":
        traced_ops, _ = workload.fixed(traced=True)
        stats, root_s, spans = workload.layer_stats, workload.root_s, workload.spans
    else:
        tracer = Tracer()
        tracer.install()
        traced_ops, _ = workload.fixed(tracer)
        stats, root_s, spans = tracer.stats(), tracer.root_s, tracer.total_spans
        os.makedirs(WORK, exist_ok=True)
        tracer.write_spans(os.path.join(
            WORK, f"spans-{workload.name}-seed{workload.seed}.tsv"))
    traced = timing(workload, traced_ops)
    metrics = layer_metrics(stats)
    metrics.update(accept_ratios(getattr(workload, "per_op_stats", [])))
    suite_ops = plain_ops if workload.name == "verify-suites" else []
    metrics["oracle.suite_errors"] = sum(1 for op in suite_ops if not op.completed)
    metrics["oracle.suite_failures"] = sum(1 for op in suite_ops
                                           if op.completed and op.failed)
    metrics.update({f"oracle.{kind}.wall_s": 0.0 for kind in SUITE_ORDER})
    metrics.update({f"cli.{kind}.p50_ms": 0.0 for kind in CLI_COMMANDS})
    for kind, seconds in kind_medians(plain_ops, workload.kinds, "seconds").items():
        if workload.name == "verify-suites":
            metrics[f"oracle.{kind}.wall_s"] = seconds
        elif workload.name == "cli-cold":
            metrics[f"cli.{kind}.p50_ms"] = seconds * 1e3
    metrics["cli.import_s"] = import_s
    metrics["process.cpu_s"] = cpu
    metrics["process.wall_s"] = plain_elapsed
    metrics["latency.p50_us"], metrics["latency.p99_us"] = raw_latency_us(plain_ops)
    all_ops = plain_ops + traced_ops
    metrics["ops_failed_ratio"] = sum(op.failed for op in all_ops) / len(all_ops)
    metrics["trace.overhead_verify_s"] = traced["verify_s"] - plain["verify_s"]
    metrics["trace.overhead_op_p50_us"] = traced["op_p50_us"] - plain["op_p50_us"]
    # self times partition the root spans: their sum must equal the roots' total
    metrics["trace.self_gap_s"] = root_s - sum(s for _, s in stats.values())
    metrics["trace.spans"] = spans
    consistent = abs(metrics["trace.self_gap_s"]) <= 1e-6 * max(1.0, root_s)
    return all_ops, metrics, consistent


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ein3", "__init__.py")):
        die(f"no ein3 package under {os.path.join(ROOT, 'src')}; run from a checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        die("--seconds must be positive")

    meta = collect_meta()
    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            ops, values, consistent = per_layer(workload)
            wanted = spec["per_layer"]
        else:
            ops, values = end_to_end(workload, args.seconds)
            consistent = True
            wanted = spec["end_to_end"]
    finally:
        if hasattr(workload, "close"):
            workload.close()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die(f"metrics not computed: {missing}")
    result = {
        "correct": workload.incorrect == 0 and consistent,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        die(str(exc))
