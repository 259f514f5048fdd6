"""Outside-in layer tracing: wrap the public functions of cylpack's modules.

Each wrapped call records a span ``[name, start, end, parent, op, thread,
error, note]`` in memory; ``summarize`` derives per-layer calls, inclusive
busy time, self time and counters from them after the run.  Only module
attributes are replaced, so a call reaches a wrapper when it goes through a
module global (``geom.contains_points(...)`` or a bare ``contains_points(...)``
inside ``geom``).  Names copied into another module by ``from .x import y``
(``falconer``'s imports from ``bounds``) and private helpers are not traced.
"""

import gzip
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict

LAYER_MODULES = ("geom", "cylinders", "multiplicity", "cappack", "bounds",
                 "falconer", "instances", "cli")
# third-party entry points reached through geom's module globals
FOREIGN = ("geom.linprog", "geom.HalfspaceIntersection", "geom.ConvexHull")

NAME, START, END, PARENT, OP, THREAD, ERROR, NOTE = range(8)


def _rows(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is not None:
        return shape[0] if len(shape) == 2 else 1
    return len(points)


def _contains_note(args, kwargs, result):
    # polytopes only: a ball or ellipsoid test has no facets to count
    body, points = args[0], args[1] if len(args) > 1 else kwargs["points"]
    eq = getattr(body, "equations", None)
    return None if eq is None else _rows(points) * eq.shape[0]


def _sample_note(args, kwargs, result):
    return len(result)


def _slice_note(args, kwargs, result):
    return bool(result == 0.0)


def _sepset_note(args, kwargs, result):
    # identical arguments hit cappack's set cache
    key = repr((args, sorted(kwargs.items())))
    return [key, len(result), bool(result.maximal)]


def _counts_note(args, kwargs, result):
    family, pts = args[1], args[2]
    return len(pts) * len(family)


# counters derived from arguments and return values, keyed by span name
NOTES = {
    "geom.contains_points": _contains_note,
    "geom.sample_in_body": _sample_note,
    "geom.affine_slice_volume": _slice_note,
    "cappack.build_separated_set": _sepset_note,
    "multiplicity.multiplicity_counts": _counts_note,
}
CPU_SPANS = ("cli.cmd_bounds",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[list] = []
        self.op = None
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        note = NOTES.get(name)
        cpu = name in CPU_SPANS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # pool threads: attribute to the main thread's open span
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = [name, clock(), None, parent, tracer.op,
                    threading.get_ident(), False, None]
            tracer.spans.append(span)
            stack.append(span)
            cpu0 = time.process_time() if cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            elif cpu:
                span[NOTE] = time.process_time() - cpu0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> list[str]:
        """Replace every public function of the layer modules (plus FOREIGN)
        by a traced wrapper; returns the traced names."""
        names = []
        for mod_name in LAYER_MODULES:
            mod = importlib.import_module(f"cylpack.{mod_name}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                names.append(self._replace(mod, mod_name, attr, obj))
        geom = importlib.import_module("cylpack.geom")
        for full in FOREIGN:
            attr = full.split(".", 1)[1]
            names.append(self._replace(geom, "geom", attr, getattr(geom, attr)))
        return names

    def _replace(self, mod, mod_name, attr, obj) -> str:
        name = f"{mod_name}.{attr}"
        self._restore.append((mod, attr, obj))
        setattr(mod, attr, self.wrap(name, obj))
        return name

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def begin_op(self, op_id: int) -> list:
        self.op = op_id
        span = ["op", time.perf_counter(), None, None, op_id,
                threading.get_ident(), False, None]
        self.spans.append(span)
        self._main_stack.append(span)
        return span

    def end_op(self, span: list, failed: bool) -> None:
        span[END] = time.perf_counter()
        span[ERROR] = failed
        self._main_stack.pop()
        self.op = None

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines, parents as span indices."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                parent = index.get(id(s[PARENT])) if s[PARENT] is not None else None
                fh.write(json.dumps([i, s[NAME], s[START], s[END], parent,
                                     s[OP], s[THREAD], s[ERROR], s[NOTE]]) + "\n")


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, busy_s (outermost spans only, so recursion and
    pool fan-out are not counted twice), self_s (duration minus the union of
    child spans), errors, and the list of per-span counters."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append((s[START], s[END]))
    stats: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                       "errors": 0, "notes": []})
    for s in spans:
        st = stats[s[NAME]]
        dur = s[END] - s[START]
        st["calls"] += 1
        st["errors"] += bool(s[ERROR])
        kids = children.get(id(s))
        st["self_s"] += dur - (_union_length(kids) if kids else 0.0)
        p = s[PARENT]
        while p is not None and p[NAME] != s[NAME]:
            p = p[PARENT]
        if p is None:
            st["busy_s"] += dur
        if s[NOTE] is not None:
            st["notes"].append(s[NOTE])
    return dict(stats)


def layer_metrics(spans: list[list], n_ops: int) -> dict:
    """Flat ``<module>.<function>.<stat>`` values from the spans of one run."""
    stats = summarize(spans)
    out: dict = {}
    for name, st in stats.items():
        if name == "op":
            continue
        for key in ("calls", "busy_s", "self_s", "errors"):
            out[f"{name}.{key}"] = st[key]

    def stat(name, key):
        return stats[name][key] if name in stats else ([] if key == "notes" else 0)

    def ratio(num, den):
        return num / den if den else 0.0

    zeros = stat("geom.affine_slice_volume", "notes")
    out["geom.affine_slice_volume.zero_frac"] = ratio(sum(zeros), len(zeros))
    evals = sum(1 for s in spans if s[NAME] == "geom.affine_slice_volume"
                and s[PARENT] is not None
                and s[PARENT][NAME] == "bounds.max_translate_slice")
    out["bounds.max_translate_slice.evals_per_call"] = ratio(
        evals, stat("bounds.max_translate_slice", "calls"))
    out["geom.contains_points.point_facets"] = sum(
        stat("geom.contains_points", "notes"))
    out["geom.sample_in_body.points"] = sum(stat("geom.sample_in_body", "notes"))
    seen, repeats, points, nonmaximal = set(), 0, 0, 0
    for key, size, maximal in stat("cappack.build_separated_set", "notes"):
        if key in seen:
            repeats += 1
            continue
        seen.add(key)
        points += size
        nonmaximal += not maximal
    out["cappack.build_separated_set.repeat_calls"] = repeats
    out["cappack.build_separated_set.points"] = points
    out["cappack.build_separated_set.nonmaximal"] = nonmaximal
    pc = sum(stat("multiplicity.multiplicity_counts", "notes"))
    out["multiplicity.multiplicity_counts.point_cylinders"] = pc
    out["multiplicity.multiplicity_counts.ns_per_point_cylinder"] = ratio(
        stat("multiplicity.multiplicity_counts", "self_s") * 1e9, pc)
    out["multiplicity.estimate_multiplicity.calls_per_op"] = ratio(
        stat("multiplicity.estimate_multiplicity", "calls"), n_ops)
    out["cli.cmd_bounds.cpu_util"] = ratio(
        sum(stat("cli.cmd_bounds", "notes")), stat("cli.cmd_bounds", "busy_s"))
    return out
