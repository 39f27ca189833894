"""Spans around calls into floersurgery's modules, recorded from outside.

The library's modules bind each other's functions with ``from .x import
y``, so a wrapper is installed at every module attribute that refers to
a traced function, not only in the module that defines it.  A span is
(name, start, end, parent); spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the
durations of its direct children (one thread, so children never
overlap).
"""

from __future__ import annotations

import functools
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path
from time import perf_counter_ns

# (module, attribute) of every traced function.  The span name is
# "<module>.<function>", whichever module's binding the caller used.
TRACED = (
    ("cone", "build_cone"),
    ("cone", "cone_homology"),
    ("cone", "default_depth"),
    ("cone", "surgery"),
    ("fmod", "validate"),
    ("fmod", "barcode"),
    ("gf2", "mat_mul"),
    ("gf2", "nullspace"),
    ("knotmodel", "load_model"),
    ("knotmodel", "KnotModel.max_reduced_bar"),
    ("numth", "lens_d"),
    ("numth", "dedekind"),
    ("numth", "lens_invariants"),
    ("obstruct", "cosmetic_pair_scan"),
)

PACKAGE = "floersurgery"
NS = 1e-9
COUNT = "count"
RATIO = "ratio"
EXCLUDED = 0  # name index of spans for work that is not the library's


class Tracer:
    """Records spans while ``active``; ``install`` puts the wrappers in place."""

    def __init__(self) -> None:
        self.names: list[str] = ["excluded"]  # index EXCLUDED
        self.name_of = array("h")  # index into names, per span
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")  # -1 for a root span
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # counts taken at the boundaries
        self.depth_max = 0
        self.cone_gens = 0
        self.barcode_dim = 0
        self.models_seen: set[int] = set()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        observers = {
            "cone.build_cone": _observe_build_cone,
            "fmod.barcode": _observe_barcode,
            "knotmodel.max_reduced_bar": _observe_max_reduced_bar,
        }
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module_name, attr in TRACED:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = getattr(owner, method)
                wrapper = self._wrap(name, original, observers.get(name))
                self._patch(owner, method, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, observers.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn, observe):
        self.names.append(name)
        index = len(self.names) - 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- spans -------------------------------------------------------------

    def open(self, name_index: int) -> int:
        span = len(self.start)
        self.name_of.append(name_index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(span)
        self.start.append(perf_counter_ns())
        return span

    def close(self, span: int) -> None:
        self.end[span] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def excluded(self):
        """A span for work that is not the library's: it counts as a
        child of whatever span is open, so that span's self time
        excludes it, and no metric reads it."""
        span = self.open(EXCLUDED)
        try:
            yield
        finally:
            self.close(span)

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name_of[i]]}\t{self.start[i]}\t"
                    f"{self.end[i]}\t{self.parent[i]}\n"
                )

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded so far, as (value, unit).

        Counts (unit "count") are exact and repeat from run to run on the
        same inputs; times are in seconds.
        """
        names = [self.names[i] for i in self.name_of]
        own = self_times(self.parent, self.start, self.end)
        # excluded spans sit wholly inside every span open when they ran
        gaps = [i for i in range(len(names)) if self.name_of[i] == EXCLUDED]
        gap_starts = [self.start[i] for i in gaps]
        gap_ends = list(accumulate(self.end[i] - self.start[i] for i in gaps))

        def busy_ns(start: int, end: int) -> int:
            """end - start, less the excluded spans that began in between."""
            lo = bisect_left(gap_starts, start)
            hi = bisect_left(gap_starts, end)
            inside = (gap_ends[hi - 1] if hi else 0) - (gap_ends[lo - 1] if lo else 0)
            return end - start - inside

        calls: Counter = Counter(names)
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        children: dict[int, list[int]] = {}
        for i, name in enumerate(names):
            total_ns[name] += busy_ns(self.start[i], self.end[i])
            self_ns[name] += own[i]
            if self.parent[i] >= 0:
                children.setdefault(self.parent[i], []).append(i)

        rerun_ns = 0
        pairs = 0
        for i, name in enumerate(names):
            kids = children.get(i, [])
            if name == "cone.cone_homology":
                # the second build_cone child starts the depth+2 pass
                builds = [c for c in kids if names[c] == "cone.build_cone"]
                if len(builds) >= 2:
                    rerun_ns += busy_ns(self.start[builds[1]], self.end[i])
            elif name == "obstruct.cosmetic_pair_scan":
                n = sum(1 for c in kids if names[c] == "cone.surgery")
                pairs += n * (n - 1) // 2

        homology_ns = total_ns["cone.cone_homology"]
        mrb_calls = calls["knotmodel.max_reduced_bar"]
        return {
            "cone.depth.max": (self.depth_max, COUNT),
            "cone.build_cone.gens": (self.cone_gens, COUNT),
            "cone.build_cone.calls": (calls["cone.build_cone"], COUNT),
            "cone.build_cone.self_s": (self_ns["cone.build_cone"] * NS, "s"),
            "cone.cone_homology.calls": (calls["cone.cone_homology"], COUNT),
            "cone.cone_homology.self_s": (self_ns["cone.cone_homology"] * NS, "s"),
            "cone.rerun_share": (rerun_ns / homology_ns if homology_ns else 0.0, RATIO),
            "cone.default_depth.s": (total_ns["cone.default_depth"] * NS, "s"),
            "fmod.validate.calls": (calls["fmod.validate"], COUNT),
            "fmod.validate.self_s": (self_ns["fmod.validate"] * NS, "s"),
            "fmod.barcode.calls": (calls["fmod.barcode"], COUNT),
            "fmod.barcode.self_s": (self_ns["fmod.barcode"] * NS, "s"),
            "fmod.barcode.dim": (self.barcode_dim, COUNT),
            "gf2.mat_mul.calls": (calls["gf2.mat_mul"], COUNT),
            "gf2.mat_mul.s": (total_ns["gf2.mat_mul"] * NS, "s"),
            "gf2.nullspace.calls": (calls["gf2.nullspace"], COUNT),
            "gf2.nullspace.s": (total_ns["gf2.nullspace"] * NS, "s"),
            "knotmodel.max_reduced_bar.calls": (mrb_calls, COUNT),
            "knotmodel.max_reduced_bar.s": (
                total_ns["knotmodel.max_reduced_bar"] * NS,
                "s",
            ),
            "knotmodel.max_reduced_bar.useful_ratio": (
                len(self.models_seen) / mrb_calls if mrb_calls else 0.0,
                RATIO,
            ),
            "knotmodel.load_model.s": (total_ns["knotmodel.load_model"] * NS, "s"),
            "numth.lens_d.calls": (calls["numth.lens_d"], COUNT),
            "numth.lens_d.s": (total_ns["numth.lens_d"] * NS, "s"),
            "numth.dedekind.calls": (calls["numth.dedekind"], COUNT),
            "numth.dedekind.s": (total_ns["numth.dedekind"] * NS, "s"),
            "numth.lens_invariants.s": (total_ns["numth.lens_invariants"] * NS, "s"),
            "obstruct.cosmetic_pair_scan.self_s": (
                self_ns["obstruct.cosmetic_pair_scan"] * NS,
                "s",
            ),
            "obstruct.cosmetic_pair_scan.pairs": (pairs, COUNT),
        }


def self_times(parent, start, end) -> list[int]:
    """Duration of each span minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def _observe_build_cone(tracer: Tracer, args, kwargs, pres) -> None:
    depth = args[2] if len(args) > 2 else kwargs["depth"]
    tracer.depth_max = max(tracer.depth_max, depth)
    tracer.cone_gens += len(pres.dom_gradings) + len(pres.cod_gradings)


def _observe_barcode(tracer: Tracer, args, kwargs, bars) -> None:
    tracer.barcode_dim += (args[0] if args else kwargs["m"]).dim


def _observe_max_reduced_bar(tracer: Tracer, args, kwargs, longest) -> None:
    tracer.models_seen.add(id(args[0]))
