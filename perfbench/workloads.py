"""The three workloads: what one operation is, how a run loops over them,
and how each operation's output is checked.

Every workload is a closed loop in one process: the next operation starts
when the previous one has finished.  An operation record is
(kind, seconds, ref, completed, failed): `seconds` is its wall time,
`ref` the same time scaled to the reference core speed by the calibration
unit timed next to it (calibrate.py); `completed` means it ran to the end
(no exception, or a CLI exit with a verdict code), `failed` means it
raised, exited unexpectedly, or its output failed a check.  Timing
statistics use completed operations; failures are counted against the
number attempted.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# BLAS / OpenMP pools pinned to one thread; 4x4 products gain nothing from
# more and spinning helper threads double CPU time and add noise
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_ENV)  # before numpy loads its BLAS

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import inputs  # noqa: E402
from tracer import merge_stats  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


@dataclass(slots=True)  # tens of thousands per run: keep them small
class Op:
    kind: str
    seconds: float  # wall time
    ref: float  # seconds at the reference core speed
    completed: bool
    failed: bool


def child_env():
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = SRC + os.pathsep + os.path.dirname(os.path.abspath(__file__))
    return env


CHILD_TIMEOUT_S = 120


def run_child(argv, **kwargs):
    """(exit code, stdout, stderr) of a child process.

    Unlike subprocess.run with a timeout, which polls the child with sleeps
    of up to 50 ms and so rounds every measured time up to that grid, this
    blocks in waitpid; a timer kills a child that runs past CHILD_TIMEOUT_S.
    """
    with subprocess.Popen(argv, **kwargs) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
            timer.join()
    return proc.returncode, out, err


def _note(msg):
    print(f"perfbench: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# verify-suites: oracle.run_suite for all eight suites at default trials
# ---------------------------------------------------------------------------

SUITE_ORDER = ("stem-only", "torus-trichotomy", "eta-bridge",
               "symplectic-identities", "maslov-bridge", "photon-avoidance",
               "surface-disjointness", "ads-equivalence")
# stem-only runs first in each round: it is ~40% of a round, and going
# first gives it two calls within a run of two rounds' length
REPORT_NAMES = {"stem-only": "stem-only-impossibility"}
DEFAULT_TRIALS = {"surface-disjointness": 200, "stem-only": 200}
# acceptance bounds on max_violation, as the suites state them
BOUNDS = {
    "eta-bridge": lambda v: v < 1e-9,
    "photon-avoidance": lambda v: v < 1e-9,
    "surface-disjointness": lambda v: v > 1e-4,
    "stem-only": lambda v: v < 1e-4,
    "ads-equivalence": lambda v: v < 1e-12,
}
# calls of a suite past its round while it has no completed call yet
MAX_EXTRA_CALLS = 6
# a timed run makes one round per ROUND_S of --seconds, at least one, so
# that a seed always gives the same calls (and the same failures)
ROUND_S = 25


def check_suite_report(name, seed, trials, report):
    """(well_formed, passed) for one suite report."""
    reported_trials = trials or DEFAULT_TRIALS.get(name, 1000)
    if name == "surface-disjointness":
        reported_trials *= 2  # disjoint and intersecting pairs
    well_formed = (isinstance(report, dict)
                   and report.get("suite") == REPORT_NAMES.get(name, name)
                   and report.get("seed") == seed
                   and report.get("trial_count") == reported_trials
                   and isinstance(report.get("failures"), list)
                   and isinstance(report.get("max_violation"), float))
    if not well_formed:
        return False, False
    bound = BOUNDS.get(name)
    passed = not report["failures"] and (bound is None or bound(report["max_violation"]))
    return True, passed


class VerifySuites:
    name = "verify-suites"
    kinds = SUITE_ORDER

    def __init__(self, seed, trials=None):
        self.seed = seed
        self.trials = trials  # None: each suite's default
        self.malformed = 0
        self.per_op_stats = []  # (kind, tracer stats) when traced

    def warm_up(self):
        from ein3 import oracle
        for name in SUITE_ORDER:
            with contextlib.suppress(Exception):
                oracle.run_suite(name, trials=1, seed=self.seed)

    def call(self, name, seed, tracer=None):
        from ein3 import oracle
        before = tracer.snapshot() if tracer else None
        report, error = None, None
        with calibrate.Sampler() as sampler:
            t0 = perf_counter()
            try:
                with tracer.op(f"op.{name}") if tracer else contextlib.nullcontext():
                    report = oracle.run_suite(name, trials=self.trials, seed=seed)
            except Exception as exc:  # a raising suite is a failed call, not a crash
                error = exc
            dt = perf_counter() - t0 - sampler.pause
        ref = dt * sampler.scale()
        if error is not None:
            _note(f"{name} seed {seed} raised {type(error).__name__}: {error}")
            op = Op(name, dt, ref, False, True)
        else:
            well_formed, passed = check_suite_report(name, seed, self.trials, report)
            if not well_formed:
                self.malformed += 1
                _note(f"{name} seed {seed}: malformed report {report!r}")
            elif not passed:
                _note(f"{name} seed {seed}: {len(report['failures'])} failure(s), "
                      f"max_violation {report['max_violation']!r}")
            op = Op(name, dt, ref, True, not passed)
        if tracer:
            self.per_op_stats.append((name, tracer.stats(since=before)))
        return op

    def _complete(self, ops, next_seed, tracer=None):
        """Call each suite that has no completed call yet again, at its next
        seeds, up to MAX_EXTRA_CALLS times: a raising call is counted as
        failed, never as a short time, so every suite needs one timing."""
        for name in SUITE_ORDER:
            extra = 0
            while not any(op.completed for op in ops if op.kind == name):
                if extra == MAX_EXTRA_CALLS:
                    raise BenchError(f"suite {name} raised on every seed from "
                                     f"{self.seed} to {next_seed[name] - 1}")
                ops.append(self.call(name, next_seed[name], tracer))
                next_seed[name] += 1
                extra += 1
        return ops

    def timed(self, seconds):
        """max(1, seconds // ROUND_S) rounds of all eight suites, round r at
        suite seed seed + r, then `_complete`.  A round takes about ROUND_S
        seconds; counting rounds rather than watching the clock keeps the
        calls, and so the failures, of a seed the same on every run."""
        rounds = max(1, int(seconds // ROUND_S))
        ops = []
        start = perf_counter()
        for r in range(rounds):
            ops += [self.call(name, self.seed + r) for name in SUITE_ORDER]
        self._complete(ops, {name: self.seed + rounds for name in SUITE_ORDER})
        return ops, perf_counter() - start

    def fixed(self, tracer=None):
        """One round at the workload seed, then `_complete` (the traced
        run's fixed work)."""
        start = perf_counter()
        ops = [self.call(name, self.seed, tracer) for name in SUITE_ORDER]
        self._complete(ops, {name: self.seed + 1 for name in SUITE_ORDER}, tracer)
        return ops, perf_counter() - start

    @property
    def incorrect(self):
        return self.malformed


# ---------------------------------------------------------------------------
# predicate-mix: one-shot library queries built from raw arrays
# ---------------------------------------------------------------------------

QUERY_KINDS = ("torus", "photon", "surface", "ads")


def make_queries(seed, per_kind):
    """{kind: (list of raw argument tuples, list of reference answers)}."""
    rng = np.random.default_rng([seed, 2024])
    s1, s2, eta = inputs.torus_pairs(rng, per_kind)
    quads, p, photon_ref = inputs.photon_cases(rng, per_kind)
    q1, q2, surface_ref = inputs.surface_pairs(rng, per_kind)
    planes, ads_ref = inputs.ads_pairs(rng, per_kind)
    return {
        "torus": (list(zip(s1, s2)), list(eta)),
        "photon": (list(zip(quads, p)), list(photon_ref)),
        "surface": (list(zip(q1, q2)), list(surface_ref)),
        "ads": (list(zip(*planes)), list(ads_ref)),
    }


def _quad(space, m):
    from ein3 import crooked
    return crooked.LightlikeQuadrilateral(space, m[:, 0], m[:, 1], m[:, 2], m[:, 3])


def q_torus(s1, s2):
    from ein3 import einstein
    cls = einstein.classify_torus_pair(einstein.EinsteinTorus(s1),
                                       einstein.EinsteinTorus(s2))
    return cls.kind.value, cls.eta


def q_photon(quad, p):
    from ein3 import crooked, symplectic
    surface = crooked.CrookedSurface(_quad(symplectic.standard_space(), quad))
    if crooked.photon_disjoint(p, surface):
        return True, True
    witness = crooked.find_crossing_lagrangian(p, surface)
    return False, witness is not None and crooked.surface_contains(surface, witness) is not None


def q_surface(q1, q2):
    from ein3 import crooked, symplectic
    space = symplectic.standard_space()
    return crooked.surfaces_disjoint(crooked.CrookedSurface(_quad(space, q1)),
                                     crooked.CrookedSurface(_quad(space, q2)))


def q_ads(f1, a1, b1, f2, a2, b2):
    from ein3 import ads, crooked
    p1, p2 = ads.AdsCrookedPlane(f1, a1, b1), ads.AdsCrookedPlane(f2, a2, b2)
    four = ads.ads_disjoint(p1, p2)
    dgk = ads.dgk_criterion(p1, p2)
    sixteen = crooked.surfaces_disjoint(
        crooked.CrookedSurface(ads.ads_quadrilateral(p1)),
        crooked.CrookedSurface(ads.ads_quadrilateral(p2)))
    return four, dgk, sixteen


QUERIES = {"torus": q_torus, "photon": q_photon, "surface": q_surface, "ads": q_ads}


def check_query(kind, answer, ref):
    if kind == "torus":
        want = "spacelike_circle" if ref > 1.0 else "timelike_circle"
        return answer[0] == want and abs(answer[1] - ref) <= 1e-9 * max(1.0, ref)
    if kind == "photon":
        return answer == (bool(ref), True)
    if kind == "surface":
        return answer == bool(ref)
    return answer == (bool(ref),) * 3  # four, DGK and sixteen routes


class PredicateMix:
    name = "predicate-mix"
    kinds = QUERY_KINDS

    def __init__(self, seed, per_kind=8192):
        self.seed = seed
        self.queries = make_queries(seed, per_kind)
        self.per_kind = per_kind
        self.disagreements = 0

    def warm_up(self):
        for kind in QUERY_KINDS:
            args, _ = self.queries[kind]
            with contextlib.suppress(Exception):
                QUERIES[kind](*args[-1])

    def _loop(self, stop, tracer=None):
        kinds = [(k, QUERIES[k], *self.queries[k]) for k in QUERY_KINDS]
        ops = []
        i = 0
        start = perf_counter()
        while not stop(i, start):
            kind, fn, args, refs = kinds[i % 4]
            j = (i // 4) % self.per_kind
            k = calibrate.REF_UNIT_S / calibrate.unit_seconds()
            t0 = perf_counter()
            try:
                if tracer:
                    with tracer.op(f"op.{kind}"):
                        answer = fn(*args[j])
                else:
                    answer = fn(*args[j])
            except Exception as exc:  # a raising query is a failed query
                dt = perf_counter() - t0
                ops.append(Op(kind, dt, dt * k, False, True))
                _note(f"{kind} query {j} raised {type(exc).__name__}: {exc}")
            else:
                dt = perf_counter() - t0
                op = Op(kind, dt, dt * k, True, False)
                ops.append(op)
                if not check_query(kind, answer, refs[j]):
                    self.disagreements += 1
                    op.failed = True
                    _note(f"{kind} query {j}: answer {answer!r} disagrees with the "
                          f"reference {refs[j]!r}")
            i += 1
        return ops, perf_counter() - start

    def timed(self, seconds):
        return self._loop(lambda i, start: i % 4 == 0 and perf_counter() - start >= seconds)

    def fixed(self, tracer=None, n=2000):
        return self._loop(lambda i, start: i >= n, tracer)

    @property
    def incorrect(self):
        return self.disagreements


# ---------------------------------------------------------------------------
# cli-cold: a fresh `python -m ein3.cli` per request
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("check-crooked", "check-ads", "check-photon", "classify-tori", "sample")
# one sample request, then four rounds of the four check commands (1 in 17
# requests is a sample; it comes first so that even a short run times one)
CLI_CYCLE = ("sample",) + CLI_COMMANDS[:4] * 4
SAMPLE_COUNT = 1000
# calibration units timed just before and just after each request
CLI_UNITS = 3


def _quad_spec(m):
    return dict({"type": "quadrilateral"},
                **{k: m[:, i].tolist() for i, k in enumerate(inputs.QUAD_KEYS)})


def cli_documents(seed, n):
    """n config documents per command, with their reference verdicts."""
    rng = np.random.default_rng([seed, 4242])
    s1, s2, eta = inputs.torus_pairs(rng, n)
    quads, p, photon_ref = inputs.photon_cases(rng, n)
    q1, q2, surface_ref = inputs.surface_pairs(rng, n)
    (f1, a1, b1, f2, a2, b2), ads_ref = inputs.ads_pairs(rng, n)
    docs = {c: [] for c in CLI_COMMANDS}
    for i in range(n):
        surfaces = {"objects": {"Q1": _quad_spec(q1[i]), "Q2": _quad_spec(q2[i])},
                    "seed": seed + i}
        docs["check-crooked"].append((surfaces, bool(surface_ref[i])))
        docs["sample"].append((surfaces, None))
        docs["check-ads"].append(({"objects": {
            "A1": {"type": "ads_plane", "base": f1[i].tolist(),
                   "a": a1[i].tolist(), "b": b1[i].tolist()},
            "A2": {"type": "ads_plane", "base": f2[i].tolist(),
                   "a": a2[i].tolist(), "b": b2[i].tolist()}}}, bool(ads_ref[i])))
        docs["check-photon"].append(({"objects": {
            "Q": _quad_spec(quads[i]),
            "P": {"type": "photon", "vector": p[i].tolist()}}}, bool(photon_ref[i])))
        docs["classify-tori"].append(({"objects": {
            "T1": {"type": "torus", "normal": s1[i].tolist()},
            "T2": {"type": "torus", "normal": s2[i].tolist()}}}, float(eta[i])))
    return docs


def _field(lines, key):
    for line in lines:
        for token in line.split():
            if token.startswith(key + "="):
                return token[len(key) + 1:]
    return None


def check_cli(command, ref, out, out_path):
    """(expected exit code, output agrees)."""
    lines = out.splitlines()
    if command == "classify-tori":
        eta = _field(lines, "eta")
        want = "spacelike" if ref > 1.0 else "timelike"
        ok = (eta is not None and abs(float(eta) - ref) <= 1e-9 * max(1.0, ref)
              and _field(lines, "kind") == want)
        return 0, ok
    if command == "sample":
        ok = False
        if lines and lines[-1].startswith("wrote ") and os.path.exists(out_path):
            with open(out_path) as handle:
                rows = handle.read().splitlines()
            ok = rows[:1] == ["x,y,z,label"] and len(rows) - 1 == int(lines[-1].split()[1])
        return 0, ok
    verdict = "true" if ref else "false"
    if command == "check-ads":
        ok = (_field(lines, "ads_disjoint") == verdict
              and _field(lines, "dgk_criterion") == verdict
              and _field(lines, "agreement") == "true")
    elif command == "check-crooked":
        ok = _field(lines, "disjoint") == verdict and len(lines) == 9  # 8 photons
    else:
        ok = _field(lines, "disjoint") == verdict and (
            ref or _field(lines, "crossing_lagrangian") is not None)
    return (0 if ref else 1), ok


class CliCold:
    name = "cli-cold"
    kinds = CLI_COMMANDS

    def __init__(self, seed, per_command=64):
        self.seed = seed
        os.makedirs(WORK, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=WORK)
        self.docs = cli_documents(seed, per_command)
        self.paths = {}
        for command, docs in self.docs.items():
            for i, (doc, _) in enumerate(docs):
                path = os.path.join(self.tmp, f"{command}-{i}.json")
                with open(path, "w") as handle:
                    json.dump(doc, handle)
                self.paths[command, i] = path
        self.per_command = per_command
        self.env = child_env()
        self.mismatches = 0
        self.layer_stats = {}
        self.root_s = 0.0
        self.self_sum = 0.0
        self.spans = 0

    def close(self):
        for name in os.listdir(self.tmp):
            os.remove(os.path.join(self.tmp, name))
        os.rmdir(self.tmp)

    def argv(self, command, i):
        args = [command, self.paths[command, i]]
        if command == "sample":
            args += ["--count", str(SAMPLE_COUNT), "--format", "csv",
                     "--out", os.path.join(self.tmp, "cloud.csv")]
        return args

    def warm_up(self):
        from ein3 import cli
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for command in CLI_COMMANDS:
                with contextlib.suppress(Exception):
                    cli.main(self.argv(command, self.per_command - 1))

    def request(self, command, i, traced=False):
        if traced:
            stats_path = os.path.join(self.tmp, "stats.json")
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "traced_cli.py"),
                   stats_path]
        else:
            cmd = [sys.executable, "-m", "ein3.cli"]
        out_path = os.path.join(self.tmp, "cloud.csv")
        units = [calibrate.unit_seconds() for _ in range(CLI_UNITS)]
        t0 = perf_counter()
        code, stdout, stderr = run_child(cmd + self.argv(command, i), env=self.env, cwd=ROOT,
                                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                         text=True)
        dt = perf_counter() - t0
        units += [calibrate.unit_seconds() for _ in range(CLI_UNITS)]
        _doc, ref = self.docs[command][i]
        want_code, ok = check_cli(command, ref, stdout, out_path)
        if os.path.exists(out_path):
            os.remove(out_path)
        completed = code in (0, 1) and "Traceback" not in stderr
        failed = code != want_code or not ok
        if code != want_code:
            _note(f"{command} config {i}: exit {code}, expected "
                  f"{want_code}: {stderr.strip()[-300:]}")
        elif not ok:
            self.mismatches += 1
            _note(f"{command} config {i}: output disagrees with the reference: "
                  f"{stdout[-300:]!r}")
        if traced:
            with open(stats_path) as handle:
                data = json.load(handle)
            os.remove(stats_path)
            merge_stats(self.layer_stats, data["stats"])
            self.root_s += data["root_s"]
            self.self_sum += sum(s for _, s in data["stats"].values())
            self.spans += data["spans"]
        return Op(command, dt, dt * calibrate.scale(units), completed, failed)

    def _loop(self, stop, traced=False):
        ops, i = [], 0
        start = perf_counter()
        while not stop(i, start):
            command = CLI_CYCLE[i % len(CLI_CYCLE)]
            ops.append(self.request(command, (i // len(CLI_CYCLE)) % self.per_command,
                                    traced))
            i += 1
        return ops, perf_counter() - start

    def timed(self, seconds):
        return self._loop(lambda i, start: perf_counter() - start >= seconds)

    def fixed(self, traced=False):
        """One cycle of the request mix (the traced run's fixed work)."""
        return self._loop(lambda i, start: i >= len(CLI_CYCLE), traced)

    @property
    def incorrect(self):
        return self.mismatches


WORKLOADS = {cls.name: cls for cls in (VerifySuites, PredicateMix, CliCold)}
