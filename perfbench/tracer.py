"""Spans around the package's public functions, for the traced run.

The traced run leaves the package's files alone.  In memory, it replaces
each public function of each nullsatz module by a wrapper, everywhere the
function object is bound (``decompose.track`` as well as
``rootfind.track``), and restores the originals afterwards.  A span records its name ("module.function"), start,
end, parent span and case id; spans stay in memory until the run ends.

classify tests components on a thread pool.  A span that opens on a thread
with no open span of its own takes the innermost open span of the thread
that runs the cases as its parent, so component work nests under classify.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

MODULES = ("polyalg", "rootfind", "decompose", "nullsatz", "bergman", "hopf", "cli")
GCD_FAMILY = ("polyalg.gcd_many", "polyalg.gcd2", "polyalg.unipoly_gcd")


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "counts")

    def __init__(self, name, parent, case):
        self.name = name
        self.parent = parent
        self.case = case
        self.start = self.end = 0.0
        self.counts = None


def _track_counts(args, kwargs, path):
    fiber0 = kwargs.get("fiber0", args[2] if len(args) > 2 else None)
    accepted = len(path.samples) - 1
    solves = accepted + path.refinements + (1 if fiber0 is None else 0)
    return {"accepted": accepted, "solves": solves, "bisections": path.refinements}


def _solve_fibers_counts(args, kwargs, result):
    return {"points": len(result[0])}


def _decompose_counts(args, kwargs, dec):
    return {"components": len(dec.curve_components), "points": len(dec.points)}


def _intersect_counts(args, kwargs, res):
    return {
        "grid_points": res.trace.get("grid_points", 0),
        "nm_iters": res.trace.get("refine_steps", 0),
    }


def _rotation_counts(args, kwargs, rot):
    return {"polish_steps": rot.trace.get("polish_steps", 0)}


COUNTERS = {
    "rootfind.track": _track_counts,
    "rootfind.solve_fibers": _solve_fibers_counts,
    "decompose.decompose_ideal": _decompose_counts,
    "nullsatz.intersect_curve": _intersect_counts,
    "hopf.find_rotation": _rotation_counts,
}


class Tracer:
    """Installs the wrappers, collects spans and derives the layer metrics."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.case = None
        self._local = threading.local()
        self._case_stack: list[Span] = []
        self._evals = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_case(self, case_id: str) -> None:
        self.case = case_id
        self._case_stack = self._stack()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._case_stack[-1] if self._case_stack else None
            span = Span(name, parent, self.case)
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        mods = {m: getattr(self.package, m) for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in (self.package, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])

        bipoly = self.package.polyalg.BiPoly
        evaluate = bipoly.eval
        counter = self._evals

        @functools.wraps(evaluate)
        def counted_eval(poly, x1, x2):
            next(counter)
            return evaluate(poly, x1, x2)

        self._patch(bipoly, "eval", counted_eval)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- derived quantities -----------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that child spans cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[id(s)] = (s.end - s.start) - covered
        return out

    def layer_metrics(self, cases: int, report_bytes: int) -> dict[str, float]:
        """Per-case layer totals (times in s, counts) plus the accept ratio."""
        selfs = self.self_times()
        total = {}
        calls = {}
        self_t = {}
        outer_gcd_s = 0.0
        outer_gcd_n = 0
        counts: dict[str, float] = {}
        continuation = 0
        for s in self.spans:
            dur = s.end - s.start
            total[s.name] = total.get(s.name, 0.0) + dur
            calls[s.name] = calls.get(s.name, 0) + 1
            self_t[s.name] = self_t.get(s.name, 0.0) + selfs[id(s)]
            if s.counts:
                for k, v in s.counts.items():
                    key = f"{s.name}:{k}"
                    counts[key] = counts.get(key, 0) + v
            if s.name in GCD_FAMILY and not self._has_ancestor(s, GCD_FAMILY):
                outer_gcd_s += dur
                outer_gcd_n += 1
            if s.name == "rootfind.track" and self._has_ancestor(
                s, ("nullsatz.intersect_curve",)
            ):
                continuation += 1

        # next() on the shared counter returns the number of evals so far;
        # itertools.count is used because it cannot lose concurrent updates.
        exact_evals = next(self._evals)
        cli_self = sum(v for k, v in self_t.items() if k.startswith("cli."))
        solves = counts.get("rootfind.track:solves", 0)
        per_case = {
            "polyalg.resultant_s": total.get("polyalg.resultant_z2", 0.0),
            "polyalg.resultant_calls": calls.get("polyalg.resultant_z2", 0),
            "polyalg.gcd_s": outer_gcd_s,
            "polyalg.gcd_calls": outer_gcd_n,
            "polyalg.squarefree_s": total.get("polyalg.squarefree", 0.0),
            "polyalg.exact_evals": exact_evals,
            "rootfind.track_s": total.get("rootfind.track", 0.0),
            "rootfind.track_calls": calls.get("rootfind.track", 0),
            "rootfind.fiber_solves": solves,
            "rootfind.bisections": counts.get("rootfind.track:bisections", 0),
            "rootfind.solve_fibers_s": total.get("rootfind.solve_fibers", 0.0),
            "rootfind.solve_fibers_points": counts.get("rootfind.solve_fibers:points", 0),
            "rootfind.all_roots_s": total.get("rootfind.all_roots", 0.0),
            "rootfind.all_roots_calls": calls.get("rootfind.all_roots", 0),
            "decompose.curve_self_s": self_t.get("decompose.decompose_curve", 0.0),
            "decompose.zero_dim_self_s": self_t.get("decompose.zero_dim_solve", 0.0),
            "decompose.components": counts.get("decompose.decompose_ideal:components", 0),
            "decompose.points": counts.get("decompose.decompose_ideal:points", 0),
            "nullsatz.intersect_curve_self_s": self_t.get("nullsatz.intersect_curve", 0.0),
            "nullsatz.intersect_curve_calls": calls.get("nullsatz.intersect_curve", 0),
            "nullsatz.grid_points": counts.get("nullsatz.intersect_curve:grid_points", 0),
            "nullsatz.nm_iters": counts.get("nullsatz.intersect_curve:nm_iters", 0),
            "nullsatz.continuation_tracks": continuation,
            "nullsatz.classify_self_s": self_t.get("nullsatz.classify", 0.0),
            "bergman.density_certificate_self_s": self_t.get("bergman.density_certificate", 0.0),
            "bergman.projection_s": total.get("bergman.projection_distance", 0.0),
            "bergman.projection_calls": calls.get("bergman.projection_distance", 0),
            "bergman.sample_s": total.get("bergman.sample_interior", 0.0)
            + total.get("bergman.sample_closure", 0.0),
            "bergman.ratio_sup_s": total.get("bergman.ratio_sup", 0.0),
            "bergman.kernel_diag_s": total.get("bergman.kernel_diag", 0.0),
            "hopf.find_rotation_self_s": self_t.get("hopf.find_rotation", 0.0),
            "hopf.circle_evals": calls.get("hopf.circle_min_modulus", 0),
            "hopf.polish_steps": counts.get("hopf.find_rotation:polish_steps", 0),
            "hopf.ball_ratio_s": total.get("hopf.ball_ratio_sup", 0.0),
            "cli.self_s": cli_self,
            "cli.report_bytes": report_bytes,
        }
        out = {k: v / cases for k, v in per_case.items()}
        accepted = counts.get("rootfind.track:accepted", 0)
        out["rootfind.step_accept_ratio"] = accepted / solves if solves else 0.0
        return out

    @staticmethod
    def _has_ancestor(span: Span, names) -> bool:
        p = span.parent
        while p is not None:
            if p.name in names:
                return True
            p = p.parent
        return False

    def modules_seen(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            mod = s.name.split(".", 1)[0]
            out[mod] = out.get(mod, 0) + 1
        return out

    def dump(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, case."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "case": s.case,
                    **({"counts": s.counts} if s.counts else {}),
                }) + "\n")
