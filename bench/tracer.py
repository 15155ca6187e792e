"""Spans around the public functions of each `inversive` layer, recorded
from outside the package.

`install()` replaces each listed function by a wrapper on every `inversive.*`
module attribute bound to the same object (`from .geom import sphere_through`
makes several bindings), and on the class attribute for methods. Spans (name,
start, end, parent, job) are kept in flat arrays while a pass runs; self time
and call counts are derived from them afterwards, so the timed pass pays
only for the appends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# (metric prefix, module, class or None, attribute)
FUNCTIONS = (
    ("exactnum.Quartic2.__mul__", "exactnum", "Quartic2", "__mul__"),
    ("exactnum.Quartic2.inverse", "exactnum", "Quartic2", "inverse"),
    ("exactnum.quartic_sign", "exactnum", None, "quartic_sign"),
    ("linalg.rref", "_linalg", None, "rref"),
    ("geom.on_common_sphere", "geom", None, "on_common_sphere"),
    ("geom.concyclic", "geom", None, "concyclic"),
    ("geom.sphere_through", "geom", None, "sphere_through"),
    ("geom.smallest_sphere", "geom", None, "smallest_sphere"),
    ("geom.Hypersphere.make", "geom", "Hypersphere", "make"),
    ("geom.Hypersphere.contains", "geom", "Hypersphere", "contains"),
    ("geom.SubSphere.contains", "geom", "SubSphere", "contains"),
    ("moebius.normalize", "moebius", None, "normalize"),
    ("moebius.MoebiusMap.apply", "moebius", "MoebiusMap", "apply"),
    ("moebius.MoebiusMap.image_sphere", "moebius", "MoebiusMap", "image_sphere"),
    ("chromatic.max_polychromatic", "chromatic", None, "max_polychromatic"),
    ("chromatic.find_polychromatic", "chromatic", None, "find_polychromatic"),
    ("chromatic.verify_flag", "chromatic", None, "verify_flag"),
    ("chromatic.verify_generic", "chromatic", None, "verify_generic"),
    ("chromatic.verify_two_line", "chromatic", None, "verify_two_line"),
    ("chromatic.separating_circle_5pts", "chromatic", None, "separating_circle_5pts"),
    ("chromatic.separating_sphere_bruteforce", "chromatic", None,
     "separating_sphere_bruteforce"),
    ("euclid.verify_flag_euclidean", "euclid", None, "verify_flag_euclidean"),
    ("wcp.wcp_check", "wcp", None, "wcp_check"),
    ("wcp.circular_general_position", "wcp", None, "circular_general_position"),
    # generic-point sampling calls on_common_sphere too; its own span keeps
    # those calls from counting as work of verify_generic
    ("colorings.generic_position_points", "colorings", None,
     "generic_position_points"),
    ("cli.main", "cli", None, "main"),
    ("svg.emit_svg", "svg", None, "emit_svg"),
)

# jsonio is traced as two spans: every public decode_* and every public
# encode_* plus canonical_json. The per-scalar and per-point codecs are left
# inside their callers' spans, where a span per scalar would cost more than
# the work it measures.
JSONIO_LEAVES = ("decode_scalar", "encode_scalar", "decode_point", "encode_point")
SPAN_NAMES = tuple(name for name, *_ in FUNCTIONS) + ("jsonio.decode", "jsonio.encode")

# Backend split: spans of these names are tagged by the scalar type they ran on.
BACKENDS = ("rational", "quartic", "float")
SPLIT = ("geom.sphere_through", "geom.Hypersphere.contains")

MAX_POLY = "chromatic.max_polychromatic"
SPHERE_BUILDERS = ("geom.sphere_through", "geom.smallest_sphere")
CONTAINS = ("geom.Hypersphere.contains", "geom.SubSphere.contains")


def _backend_of_scalar(x) -> str:
    name = type(x).__name__
    if name == "Quartic2":
        return "quartic"
    return "float" if name == "float" else "rational"


def _backend_of_points(args) -> str:
    kinds = {_backend_of_scalar(x) for p in args[0] if p.coords is not None
             for x in p.coords}
    for k in ("float", "quartic"):
        if k in kinds:
            return k
    return "rational"


def _backend_of_sphere(args) -> str:
    return _backend_of_scalar(args[0].c)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.failed: Counter = Counter()
        self.counters: Counter = Counter()
        self.current_job = -1
        self._stack: List[int] = []
        self._built: List[Tuple[int, object]] = []
        self._undo: List[Tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str,
              tag: Optional[Callable] = None,
              observe: Optional[Callable] = None) -> Callable:
        nid = self.intern(name)
        tagged = ({b: self.intern("%s.%s" % (name, b)) for b in BACKENDS}
                  if tag is not None else None)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        failed = self.failed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            stack.append(idx)
            starts.append(clock())
            ends.append(0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                failed[nid] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if tag is not None:
                names[idx] = tagged[tag(args)]
            if observe is not None:
                observe(idx, result)
            return result

        return wrapper

    def _keep_sphere(self, idx: int, sphere) -> None:
        parent = self.parent[idx]
        if parent >= 0 and self.names[self.name[parent]] == MAX_POLY:
            self._built.append((parent, sphere))

    def _count_bytes(self, idx: int, text: str) -> None:
        self.counters["jsonio.bytes_out"] += len(text.encode("utf-8"))

    def _rebind(self, original, wrapped, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced function of the already imported package."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "inversive" or k.startswith("inversive."))]
        for name, mod_name, cls_name, attr in FUNCTIONS:
            mod = importlib.import_module("inversive." + mod_name)
            tag = observe = None
            if name == "geom.sphere_through":
                tag = _backend_of_points
            elif name == "geom.Hypersphere.contains":
                tag = _backend_of_sphere
            if name in SPHERE_BUILDERS:
                observe = self._keep_sphere
            if cls_name is None:
                original = getattr(mod, attr)
                self._rebind(original, self._wrap(original, name, tag, observe),
                             modules)
                continue
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, tag, observe))
            else:
                wrapped = self._wrap(raw, name, tag, observe)
            self._rebind(raw, wrapped, [cls])
        jsonio = importlib.import_module("inversive.jsonio")
        for attr, fn in list(vars(jsonio).items()):
            if not callable(fn) or getattr(fn, "__module__", "") != jsonio.__name__:
                continue
            if attr in JSONIO_LEAVES or isinstance(fn, type):
                continue
            if attr.startswith("decode_"):
                self._rebind(fn, self._wrap(fn, "jsonio.decode"), modules)
            elif attr.startswith("encode_"):
                self._rebind(fn, self._wrap(fn, "jsonio.encode"), modules)
            elif attr == "canonical_json":
                self._rebind(fn, self._wrap(fn, "jsonio.encode",
                                            observe=self._count_bytes), modules)

    def uninstall(self) -> None:
        """Restore every binding install() replaced, then settle the spheres
        kept during the pass (their keys are computed untraced)."""
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()
        by_call: Dict[int, set] = {}
        for parent, sphere in self._built:
            by_call.setdefault(parent, set()).add(sphere.key())
        self.counters[MAX_POLY + ".spheres_built"] += len(self._built)
        self.counters[MAX_POLY + ".distinct_spheres"] += sum(
            len(keys) for keys in by_call.values())
        self._built.clear()

    # -- merging and summaries ----------------------------------------------

    def dump(self) -> Dict:
        return {
            "names": self.names,
            "name": self.name.tolist(), "parent": self.parent.tolist(),
            "job": self.job.tolist(), "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "failed": {self.names[k]: v for k, v in self.failed.items()},
            "counters": dict(self.counters),
        }

    def merge(self, doc: Dict, job: int) -> None:
        """Append the spans a child process dumped, under job index `job`."""
        remap = [self.intern(n) for n in doc["names"]]
        offset = len(self.start)
        self.name.extend(remap[i] for i in doc["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in doc["parent"])
        self.job.extend(job for _ in doc["job"])
        self.start.extend(doc["start_ns"])
        self.end.extend(doc["end_ns"])
        for name, count in doc["failed"].items():
            self.failed[self.intern(name)] += count
        self.counters.update(doc["counters"])

    def base_name(self, nid: int) -> str:
        name = self.names[nid]
        head, _, last = name.rpartition(".")
        return head if last in BACKENDS and head in SPLIT else name

    def summarize(self) -> Dict:
        """Per-name calls, inclusive and self nanoseconds; per (name, parent
        name) and per (name, job) call counts."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        base = [self.base_name(i) for i in range(len(self.names))]
        stats: Dict[str, List[int]] = {}
        under: Counter = Counter()
        in_job: Counter = Counter()
        for i in range(n):
            nid = self.name[i]
            for key in {base[nid], self.names[nid]}:
                row = stats.setdefault(key, [0, 0, 0])
                row[0] += 1
                row[1] += dur[i]
                row[2] += dur[i] - child[i]
            p = self.parent[i]
            under[(base[nid], base[self.name[p]] if p >= 0 else "")] += 1
            in_job[(base[nid], self.job[i])] += 1
        return {"stats": stats, "under": under, "in_job": in_job,
                "failed": {self.base_name(k): v for k, v in self.failed.items()},
                "counters": self.counters}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def calls_under(summary: Dict, name: str, parents: Iterable[str]) -> int:
    return sum(summary["under"][(name, p)] for p in parents)


def per_layer_metrics(summary: Dict, passes: int) -> Dict[str, Tuple[float, str]]:
    """The traced per-layer numbers of one pass (totals over `passes` traced
    passes divided by `passes`), as name -> (value, unit)."""
    stats, counters = summary["stats"], summary["counters"]
    out: Dict[str, Tuple[float, str]] = {}
    for name in SPAN_NAMES:
        calls, incl, own = stats.get(name, (0, 0, 0))
        out[name + ".calls"] = (calls / passes, "count")
        out[name + ".self_s"] = (own / passes / 1e9, "s")
        out[name + ".us_per_call"] = ((incl / calls / 1e3) if calls else 0.0, "us")
    out["geom.sphere_through.failed"] = (
        summary["failed"].get("geom.sphere_through", 0) / passes, "count")
    for name in SPLIT:
        for b in ("rational", "quartic"):
            calls, incl, _ = stats.get("%s.%s" % (name, b), (0, 0, 0))
            out["%s.%s.us_per_call" % (name, b)] = (
                (incl / calls / 1e3) if calls else 0.0, "us")
    built = counters[MAX_POLY + ".spheres_built"]
    distinct = counters[MAX_POLY + ".distinct_spheres"]
    incidence = sum(calls_under(summary, c, (MAX_POLY,)) for c in CONTAINS)
    out[MAX_POLY + ".spheres_built"] = (built / passes, "count")
    out[MAX_POLY + ".distinct_spheres"] = (distinct / passes, "count")
    out[MAX_POLY + ".distinct_sphere_ratio"] = (
        (distinct / built) if built else 0.0, "ratio")
    out[MAX_POLY + ".incidence_tests"] = (incidence / passes, "count")
    out[MAX_POLY + ".incidence_per_sphere"] = (
        (incidence / built) if built else 0.0, "ratio")
    out["jsonio.bytes_out"] = (counters["jsonio.bytes_out"] / passes, "bytes")
    return out
