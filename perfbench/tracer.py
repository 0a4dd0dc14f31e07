"""Outside-in layer tracing of the ein3 package.

`Tracer.install()` wraps, from outside the package, every public function
and every public class's constructor and methods defined in the layer
modules, and rebinds the names other ein3 modules imported with `from ... import`,
so calls between modules are caught too.  Nothing under src/ changes; a
process that never installs a tracer runs the package untouched.

Each wrapped call is a span (name, start, end, parent, root).  Self time
(span minus the part of it its child spans cover) and call counts are
accumulated for every span as it closes; the spans themselves are kept in
memory up to `keep` of them and written out by `write_spans`.  Root spans
are opened by the benchmark around each operation (`Tracer.op`), so the
sum of all self times equals the sum of the root spans' durations.
"""

import contextlib
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("linalg", "einstein", "symplectic", "crooked", "ads", "oracle", "cli")


def _public_targets(module):
    """(span name, owner, attribute, raw attribute) for everything wrapped in
    one layer module."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{module.__name__[5:]}.{name}", module, name, obj))
        elif inspect.isclass(obj) and not issubclass(obj, (BaseException,)) \
                and type(obj) is type:  # skips Enum classes
            prefix = f"{module.__name__[5:]}.{name}"
            for attr, raw in vars(obj).items():
                if attr == "__init__":
                    out.append((prefix, obj, attr, raw))
                elif attr.startswith("_"):
                    continue
                elif inspect.isfunction(raw) or isinstance(raw, classmethod):
                    out.append((f"{prefix}.{attr}", obj, attr, raw))
    return out


class Tracer:
    def __init__(self, keep=100_000):
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.keep = keep
        self.spans = []  # (name index, start, end, span id, parent id, root id)
        self.total_spans = 0
        self.root_s = 0.0  # summed duration of root spans
        self._stack = []  # [span id, child time] per open span
        self._root = 0
        self._next_id = 1

    def _index(self, name):
        if name in self._ids:
            return self._ids[name]
        self._ids[name] = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        if not self._stack:
            self._root = sid
        self._stack.append([sid, 0.0])
        return sid

    def _exit(self, idx, sid, t0, t1):
        _, child = self._stack.pop()
        dur = t1 - t0
        self.calls[idx] += 1
        self.self_s[idx] += dur - child
        parent = 0
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][0]
        else:
            self.root_s += dur
        self.total_spans += 1
        if len(self.spans) < self.keep:
            self.spans.append((idx, t0, t1, sid, parent, self._root))

    def _wrap(self, fn, idx):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            sid = enter()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx, sid, t0, perf_counter())
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def op(self, name):
        """A root span around one benchmark operation."""
        idx = self._index(name)
        sid = self._enter()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(idx, sid, t0, perf_counter())

    def install(self, layers=LAYERS):
        """Wrap the layers' public callables; returns the number wrapped."""
        modules = [importlib.import_module(f"ein3.{layer}") for layer in layers]
        replaced = {}
        for module in modules:
            for span, owner, attr, raw in _public_targets(module):
                idx = self._index(span)
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, idx)))
                else:
                    wrapped = self._wrap(raw, idx)
                    setattr(owner, attr, wrapped)
                    if owner is module:
                        replaced[id(raw)] = wrapped
        # names bound by `from ein3.x import f` in other modules
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, name, replaced[id(obj)])
        return len(self.names)

    def snapshot(self):
        return list(self.calls), list(self.self_s)

    def stats(self, since=None):
        """{span name: (calls, self seconds)}, optionally as the difference
        from an earlier `snapshot()`."""
        calls0, self0 = since if since else ([], [])
        out = {}
        for i, name in enumerate(self.names):
            c = self.calls[i] - (calls0[i] if i < len(calls0) else 0)
            s = self.self_s[i] - (self0[i] if i < len(self0) else 0.0)
            out[name] = (c, s)
        return out

    def write_spans(self, path):
        with open(path, "w") as handle:
            handle.write(json.dumps({"names": self.names, "kept": len(self.spans),
                                     "total": self.total_spans}) + "\n")
            for idx, t0, t1, sid, parent, root in self.spans:
                handle.write(f"{idx}\t{t0:.9f}\t{t1:.9f}\t{sid}\t{parent}\t{root}\n")


def merge_stats(into, stats):
    """Add {name: (calls, self_s)} into an accumulator of the same shape."""
    for name, (c, s) in stats.items():
        c0, s0 = into.get(name, (0, 0.0))
        into[name] = (c0 + c, s0 + s)
    return into
