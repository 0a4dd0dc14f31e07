"""Command-line front end: predicate invocation, verification suites, and
point-cloud export.

Objects are defined in a JSON configuration document under "objects", keyed
by name, and commands pick the ones they need (explicitly through "pair",
or implicitly when the file defines exactly the right objects).  Supported
object types:

* torus: {"type": "torus", "normal": [5 floats]} or
  {"type": "torus", "splitting": [[4 floats], [4 floats]], "map": [[2x2]]}
  (the splitting lists a basis of one summand; with "map" the torus is the
  graph of that matrix over the splitting)
* quadrilateral: {"type": "quadrilateral", "u_plus": [...], "u_minus": ...,
  "v_plus": ..., "v_minus": ..., "space": "standard" | "ads"}
* photon: {"type": "photon", "vector": [4 floats], "space": ...}
* ads_plane: {"type": "ads_plane", "base": [[2x2]], "a": [2], "b": [2]}

Global keys "seed" and "eps_alg" are overridden by the `--seed` flag of
`sample` and the global `--eps-alg` flag.  All floats are printed with 17
significant digits; diagnostics go to stderr.

Each command imports the model modules it runs, and no others: a process
that finds no cached bytecode and writes none compiles every module it
imports, so `classify-tori` on normal vectors compiles `einstein` alone
and `sample` no oracle.
"""

import argparse
import json
import sys

import numpy as np

from ein3 import linalg
from ein3.linalg import GeometryError


def _fmt(x):
    return f"{float(x):.17g}"


def _print_binding(candidates):
    """Name the inequality with the least slack on stderr; candidates are
    (slack, label, margin name, signed margin)."""
    _, label, name, margin = min(candidates, key=lambda c: c[0])
    print(f"binding: {label} {name}={_fmt(margin)}", file=sys.stderr)


class ConfigError(GeometryError):
    pass


class Config:
    """Validated contents of a configuration document."""

    def __init__(self, doc, eps_alg=None, seed=None):
        if not isinstance(doc, dict):
            raise ConfigError("configuration must be a JSON object")
        self.eps_alg = eps_alg if eps_alg is not None else doc.get("eps_alg", linalg.EPS_ALG)
        if isinstance(self.eps_alg, bool) or not (  # an int compares exactly, so none overflows
                isinstance(self.eps_alg, (int, float)) and 0 < self.eps_alg <= sys.float_info.max):
            raise ConfigError(f"eps_alg must be a finite positive number, got {self.eps_alg!r}")
        self.eps_alg = float(self.eps_alg)
        self.seed = seed if seed is not None else doc.get("seed", 7)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        objects = doc.get("objects", {})
        if not (isinstance(objects, dict)
                and all(isinstance(spec, dict) for spec in objects.values())):
            raise ConfigError("'objects' must map names to object specifications")
        for name in objects:  # names reach the exports' lines and headers as they are
            if any(ord(c) < 32 or 127 <= ord(c) < 160 for c in name):
                raise ConfigError(f"object name {name!r} contains a control character")
        self.pair = doc.get("pair")
        if self.pair is not None and not (
                isinstance(self.pair, list) and len(self.pair) == 2
                and all(isinstance(n, str) and n in objects for n in self.pair)):
            raise ConfigError("'pair' must list exactly two defined object names")
        # torus name -> (its "map" f, torus of the splitting's summand S),
        # for classify-tori: Det(f) gives the invariant of (S, graph(f)) only
        self.det_routes = {}
        self.objects = {name: self._build(name, spec) for name, spec in objects.items()}
        self.types = {name: spec["type"] for name, spec in objects.items()}

    def _space(self, spec):
        tag = spec.get("space", "standard")
        if tag == "standard":
            from ein3 import symplectic
            return symplectic.standard_space()
        if tag == "ads":
            from ein3 import ads
            return ads.ads_space()
        raise ConfigError(f"unknown space tag {tag!r}")

    def _build(self, name, spec):
        try:
            kind = spec["type"]
            if kind == "torus":
                return self._build_torus(name, spec)
            if kind == "quadrilateral":
                from ein3 import crooked
                space = self._space(spec)
                return crooked.LightlikeQuadrilateral(
                    space, spec["u_plus"], spec["u_minus"],
                    spec["v_plus"], spec["v_minus"], eps=self.eps_alg)
            if kind == "photon":
                vec = linalg.as_vector(spec["vector"], 4)
                if not np.any(vec):
                    raise ConfigError("photon vector must be nonzero")
                return vec, self._space(spec)
            if kind == "ads_plane":
                from ein3 import ads
                return ads.AdsCrookedPlane(
                    np.asarray(spec["base"], dtype=float), spec["a"], spec["b"])
            raise ConfigError(f"unknown object type {kind!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"object {name!r}: {exc}") from exc

    def _build_torus(self, name, spec):
        if "normal" in spec:
            from ein3 import einstein
            return einstein.EinsteinTorus(spec["normal"], eps=self.eps_alg)
        if "splitting" in spec:
            from ein3 import symplectic
            space = symplectic.standard_space()
            basis = np.asarray(spec["splitting"], dtype=float).T
            plane = symplectic.Plane2(space, basis)
            split = symplectic.Splitting.from_plane(space, plane)
            if "map" in spec:
                f = np.asarray(spec["map"], dtype=float)
                if f.shape != (2, 2) or not np.isfinite(f).all():
                    raise ConfigError("'map' must be a finite 2x2 matrix")
                plane = symplectic.graph(space, f, split)
                self.det_routes[name] = (f, symplectic.torus_from_plane(space, split.s))
            return symplectic.torus_from_plane(space, plane)
        raise ConfigError("torus needs a 'normal' or a 'splitting'")

    def of_type(self, kind):
        """(name, object) of every object whose document "type" is kind."""
        return [(name, obj) for name, obj in self.objects.items() if self.types[name] == kind]

    def select_pair(self, kind):
        """The two objects named by "pair", or the only two of the type."""
        picked = self.of_type(kind)
        if self.pair is not None:
            named = dict(picked)
            if not all(n in named for n in self.pair):
                raise ConfigError(f"'pair' must name two objects of type {kind!r}")
            return [(n, named[n]) for n in self.pair]
        if len(picked) != 2:
            raise ConfigError(
                f"expected exactly two objects of type {kind!r}, found {len(picked)}; "
                "use 'pair' to disambiguate")
        return picked


def load_config(path, args):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path} is nested too deeply to read") from exc
    return Config(doc,
                  eps_alg=getattr(args, "eps_alg", None),
                  seed=getattr(args, "seed", None))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify_tori(args):
    from ein3 import einstein
    cfg = load_config(args.config, args)
    (n1, t1), (n2, t2) = cfg.select_pair("torus")
    cls = einstein.classify_torus_pair(t1, t2, eps=cfg.eps_alg)
    line = f"eta={_fmt(cls.eta)} kind={cls.kind.value.removesuffix('_circle')}"
    if cls.normals is not None:
        sig = einstein._carrier_signatures(*cls.normals)
        line += f" carrier_signature=({sig[0]},{sig[1]},{sig[2]})"
    print(line)
    for name, other in ((n1, t2), (n2, t1)):
        f, summand = cfg.det_routes.get(name, (None, None))
        if f is None or other != summand:
            continue
        from ein3 import symplectic  # loaded by the splitting's torus
        try:
            eta_det = symplectic.eta_from_det(f, eps=cfg.eps_alg)
        except GeometryError:
            continue  # undefined at Det(f) = -1 or NaN
        det = symplectic.det_omega(f)
        print(f"eta_from_det={_fmt(eta_det)} det={_fmt(det)} "
              f"agreement={'true' if abs(eta_det - cls.eta) < 1e-6 else 'false'}")
        break
    return 0


def cmd_check_photon(args):
    from ein3 import crooked
    cfg = load_config(args.config, args)
    photons, quads = cfg.of_type("photon"), cfg.of_type("quadrilateral")
    if len(photons) != 1 or len(quads) != 1:
        raise ConfigError("check-photon needs exactly one photon and one quadrilateral")
    (name, (vec, space)), (_, quad) = photons[0], quads[0]
    if space is not quad.space:
        raise ConfigError("the photon and the quadrilateral are in different spaces")
    surface = crooked.CrookedSurface(quad)
    m1, m2 = crooked.photon_margins(vec, surface)
    disjoint = crooked.photon_disjoint(vec, surface, eps=cfg.eps_alg)
    print(f"wing_plus_margin={_fmt(m1)} wing_minus_margin={_fmt(m2)}")
    _print_binding([(m1, name, "wing_plus_margin", m1),
                    (-m2, name, "wing_minus_margin", m2)])
    print(f"disjoint={'true' if disjoint else 'false'}")
    if not disjoint:
        witness = crooked.find_crossing_lagrangian(vec, surface, eps=cfg.eps_alg)
        if witness is not None:
            flat = " ".join(_fmt(x) for x in witness.onb.T.ravel())
            print(f"crossing_lagrangian={flat}")
    return 0 if disjoint else 1


def cmd_check_crooked(args):
    from ein3 import crooked
    cfg = load_config(args.config, args)
    (n1, q1), (n2, q2) = cfg.select_pair("quadrilateral")
    c1, c2 = crooked.CrookedSurface(q1), crooked.CrookedSurface(q2)
    report = crooked.disjointness_report(c1, c2, eps=cfg.eps_alg)
    disjoint = all(test.passed for test in report)
    ambiguous = False
    for test in report:
        print(f"{test.label}: wing_plus={_fmt(test.wing_plus_margin)} "
              f"wing_minus={_fmt(test.wing_minus_margin)}")
        if min(abs(test.wing_plus_margin), abs(test.wing_minus_margin)) <= 10 * cfg.eps_alg:
            ambiguous = True
    if ambiguous:
        print("warning: a margin is ambiguous within tolerance; "
              "reporting not disjoint", file=sys.stderr)
    _print_binding([c for t in report for c in (
        (t.wing_plus_margin, t.label, "wing_plus", t.wing_plus_margin),
        (-t.wing_minus_margin, t.label, "wing_minus", t.wing_minus_margin))])
    print(f"disjoint={'true' if disjoint else 'false'}")
    return 0 if disjoint else 1


def cmd_check_ads(args):
    from ein3 import ads
    cfg = load_config(args.config, args)
    (n1, p1), (n2, p2) = cfg.select_pair("ads_plane")
    margins, coincident = ads.dgk_margins(p1, p2)
    if coincident:
        raise ConfigError(
            "degenerate configuration: coincident ideal endpoints "
            + ", ".join(coincident))
    four = ads.ads_disjoint(p1, p2, eps=cfg.eps_alg)
    dgk = ads.dgk_criterion(p1, p2, eps=cfg.eps_alg)
    reduced = ads.ads_margins(p1, p2)
    for key, value in reduced.items():
        print(f"inequality {key}: {_fmt(value)}")
    _print_binding([(v, "inequality", k, v) for k, v in reduced.items()])
    print(f"ads_disjoint={'true' if four else 'false'} "
          f"dgk_criterion={'true' if dgk else 'false'} "
          f"agreement={'true' if four == dgk else 'false'}")
    return 0 if four else 1


def _sample_clouds(cfg, count):
    from ein3 import crooked, sampling
    rng = sampling.make_rng(cfg.seed)
    clouds = []
    names = cfg.pair if cfg.pair is not None else list(cfg.objects)
    for name in names:
        kind, obj = cfg.types[name], cfg.objects[name]
        if kind == "torus":
            cloud = sampling.sample_torus(obj, count, rng)
            cloud.labels = [name] * len(cloud)
        elif kind == "photon":  # nothing to sample
            continue
        else:
            try:
                if kind == "ads_plane":
                    from ein3 import ads
                    obj = ads.ads_quadrilateral(obj, eps=cfg.eps_alg)
                surface = crooked.CrookedSurface(obj)
            except GeometryError as exc:
                raise ConfigError(
                    f"object {name!r}: its crooked surface is numerically "
                    f"degenerate at this scale ({exc})") from exc
            cloud = sampling.sample_surface(surface, count, rng)
            cloud.labels = [f"{name}:{lab}" for lab in cloud.labels]
        clouds.append(cloud)
    if not clouds:
        raise ConfigError("nothing to sample: define a torus, quadrilateral "
                          "or ads_plane")
    return clouds


def cmd_sample(args):
    cfg = load_config(args.config, args)
    clouds = _sample_clouds(cfg, args.count)
    rows, labels = [], []
    dropped = 0
    for cloud in clouds:
        coords, keep = cloud.minkowski_points()
        rows.append(coords)
        labels += [lab for lab, k in zip(cloud.labels, keep) if k]
        dropped += len(keep) - len(coords)
    coords = np.vstack(rows)
    if dropped:
        print(f"dropped {dropped} point(s) at infinity", file=sys.stderr)
    write = _write_csv if args.format == "csv" else _write_ply
    try:
        write(args.out, coords, labels)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {len(coords)} points to {args.out}")
    return 0


def _write_csv(path, coords, labels):
    with open(path, "w", newline="\n") as handle:
        handle.write("x,y,z,label\n")
        for (x, y, z), lab in zip(coords.tolist(), labels):
            if "," in lab or '"' in lab:  # quoted, with its quotes doubled (RFC 4180)
                lab = '"' + lab.replace('"', '""') + '"'
            handle.write(f"{x:.17g},{y:.17g},{z:.17g},{lab}\n")


def _write_ply(path, coords, labels):
    codes = sorted(set(labels))
    if len(codes) > 256:
        raise ConfigError(f"{len(codes)} labels exceed the ply uchar's 256; use --format csv")
    index = {lab: i for i, lab in enumerate(codes)}
    with open(path, "w", newline="\n") as handle:
        handle.write("ply\nformat ascii 1.0\n")
        for i, lab in enumerate(codes):
            handle.write(f"comment label {i} = {lab}\n")
        handle.write(f"element vertex {len(coords)}\n")
        handle.write("property double x\nproperty double y\nproperty double z\n")
        handle.write("property uchar label\nend_header\n")
        for (x, y, z), lab in zip(coords.tolist(), labels):
            handle.write(f"{x:.17g} {y:.17g} {z:.17g} {index[lab]}\n")


def cmd_verify(args):
    if args.eps_alg is not None:
        raise ConfigError("verify runs its suites at their fixed tolerances; "
                          "--eps-alg does not apply to it")
    from ein3 import oracle
    names = list(oracle.SUITES) if args.suite == "all" else [args.suite]
    reports = [oracle.run_suite(name, trials=args.trials, seed=args.seed)
               for name in names]
    sys.stdout.write(oracle.report_lines(reports))
    return 0 if all(not r["failures"] for r in reports) else 1


# points per sampled object: a larger --count exits 2 before anything is
# drawn.  A torus and a surface at 100,000 points each raise peak RSS by
# ~45 MB, so ~0.45 GB at this ceiling
SAMPLE_COUNT_MAX = 1_000_000


def _sample_count(text):
    """argparse type of `sample --count`: an integer in [1, SAMPLE_COUNT_MAX]."""
    value = _int_at_least(1)(text)
    if value > SAMPLE_COUNT_MAX:
        raise argparse.ArgumentTypeError(
            f"expected an integer <= {SAMPLE_COUNT_MAX}, got {text}")
    return value


def _int_at_least(least):
    """argparse type: an integer >= least."""
    def integer(text):
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text}")
        return value
    return integer


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ein3",
        description="Einstein-universe predicates: torus intersections, "
                    "crooked-surface disjointness, AdS crooked planes.")
    parser.add_argument("--eps-alg", type=float, default=None,
                        help="algebraic tolerance override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify-tori", help="classify a torus pair intersection")
    p.add_argument("config")
    p.set_defaults(func=cmd_classify_tori)

    p = sub.add_parser("check-photon", help="photon vs crooked surface")
    p.add_argument("config")
    p.set_defaults(func=cmd_check_photon)

    p = sub.add_parser("check-crooked", help="crooked surface disjointness")
    p.add_argument("config")
    p.set_defaults(func=cmd_check_crooked)

    p = sub.add_parser("check-ads", help="AdS crooked plane disjointness")
    p.add_argument("config")
    p.set_defaults(func=cmd_check_ads)

    p = sub.add_parser("sample", help="export sampled point clouds")
    p.add_argument("config")
    p.add_argument("--count", type=_sample_count, default=2000,
                   help=f"points per object, 1 to {SAMPLE_COUNT_MAX} (default 2000)")
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--format", choices=["csv", "ply"], default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run the sampling verification suites")
    # no argparse choices: listing them would load the oracle for every
    # command; oracle.run_suite rejects an unknown name (exit 2)
    p.add_argument("--suite", default="all", help="a suite name, or all")
    p.add_argument("--trials", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=7)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        # a photon whose norm overflows is rescaled (crooked._unit_photons);
        # numpy's overflow warning would only add noise to stderr
        with np.errstate(over="ignore"):
            return args.func(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
