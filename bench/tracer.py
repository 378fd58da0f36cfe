"""Per-layer spans and counters for one altfrob job, installed from outside.

``install()`` wraps the functions named in ``SPANS`` at every name where
callers look them up: the defining module, every other loaded ``altfrob``
module that imported the name (``altfrob.cli.rimhook_oracle``,
``altfrob.grassmann.det``, ...), and the class dict for methods, aliases such
as ``Laurent.__rmul__`` included.  Nothing under ``src/`` changes.

Each wrapped function reports ``<metric>.calls``, ``<metric>.s`` (inclusive
seconds) and ``<metric>.self_s`` (inclusive seconds minus the child spans).
Scalar operations get a span only at the outermost scalar depth, so their
``.s`` sums to ``rings.busy_s``; their calls and counters count every call.
A name missing from the program (a later version may delete it) is skipped
and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, module, attribute; "Class.method" for methods, scalar?)
SPANS = [
    ("rings.laurent_mul", "altfrob.rings", "Laurent.__mul__", True),
    ("rings.qfrac_new", "altfrob.rings", "QFrac.__init__", True),
    ("rings.series_mul", "altfrob.rings", "Series.__mul__", True),
    ("linalg.charpoly", "altfrob.linalg", "charpoly", False),
    ("linalg.det", "altfrob.linalg", "det", False),
    ("linalg.inv_series", "altfrob.linalg", "inv_series", False),
    ("linalg.matmul", "altfrob.linalg", "Mat.__matmul__", False),
    ("linalg.wedge_of_sum", "altfrob.linalg", "wedge_of_sum", False),
    ("grassmann.schur_poly", "altfrob.grassmann", "schur_poly", False),
    ("grassmann.alt_structure_constants", "altfrob.grassmann",
     "alt_structure_constants", False),
    ("grassmann.bialternant_reduce", "altfrob.grassmann", "bialternant_reduce", False),
    ("grassmann.rimhook_oracle", "altfrob.grassmann", "rimhook_oracle", False),
    ("mirror.box_echelon", "altfrob.mirror", "_box_echelon", False),
    ("mirror.jacobian_algebra", "altfrob.mirror", "jacobian_algebra", False),
    ("mirror.subset_sum_charpoly", "altfrob.mirror", "subset_sum_charpoly", False),
    ("deform.hm_extend", "altfrob.deform", "hm_extend", False),
    ("deform.word_basis", "altfrob.deform", "word_basis", False),
    ("deform.potential", "altfrob.deform", "potential", False),
    ("deform.wdvv_oracle", "altfrob.deform", "wdvv_oracle", False),
    ("presaito.check_pre_saito", "altfrob.presaito", "check_pre_saito", False),
    ("presaito.check_metric", "altfrob.presaito", "check_metric", False),
    ("presaito.loads_family", "altfrob.presaito", "loads_family", False),
    ("presaito.dumps_family", "altfrob.presaito", "dumps_family", False),
    ("presaito.wedge_restrict", "altfrob.presaito", "wedge_restrict", False),
    ("projective.pn_small_family", "altfrob.projective", "pn_small_family", False),
    ("projective.build_pn", "altfrob.projective", "build_pn", False),
]

# Counters summed over the jobs of a pass, besides calls/s/self_s.
COUNTERS = [
    "rings.laurent_mul.pairs",
    "rings.series_mul.pairs",
    "rings.series_mul.terms_out",
    "grassmann.bialternant.in_terms",
    "grassmann.bialternant.out_terms",
    "mirror.box_echelon.pivots",
    "mirror.brieskorn_cache.hits",
    "mirror.brieskorn_cache.misses",
    "deform.hm_extend.orders",
    "presaito.family_json_bytes",
]

# What each layer's metrics should move, and where (from the benchmark issue).
LAYERS = {
    "rings": {"moves": "wall_s, cpu_s",
              "workloads": "all three: Laurent counters in grassmann and mirror, "
                           "QFrac in mirror, Series in deform"},
    "linalg": {"moves": "wall_s",
               "workloads": "charpoly in grassmann and mirror, inv_series in "
                            "deform; inv_series is bypassed by grassmann"},
    "grassmann": {"moves": "wall_s", "workloads": "grassmann; bypassed by mirror, deform"},
    "mirror": {"moves": "wall_s, peak_rss_mb",
               "workloads": "mirror; bypassed by grassmann, deform"},
    "deform": {"moves": "wall_s", "workloads": "deform; bypassed by grassmann, mirror"},
    "presaito": {"moves": "wall_s",
                 "workloads": "checkers and JSON in deform, wedge_restrict in "
                              "mirror; bypassed by grassmann"},
    "projective": {"moves": "setup_s, wall_s",
                   "workloads": "cheap everywhere; records that it stays cheap"},
    "cli": {"moves": "setup_s, wall_s",
            "workloads": "table and matrix emission in grassmann and mirror"},
}


def metric_names() -> list[str]:
    """Every metric one traced job reports, before pass-level derivation."""
    names = []
    for prefix, _, _, scalar in SPANS:
        names += [f"{prefix}.calls", f"{prefix}.s"]
        if not scalar:
            names.append(f"{prefix}.self_s")
    return names + ["rings.busy_s"] + COUNTERS


def _n_terms(x) -> int:
    terms = getattr(x, "terms", None)
    return len(terms) if terms is not None else 1


def _count_laurent_mul(tr, args, result):
    tr.counters["rings.laurent_mul.pairs"] += _n_terms(args[0]) * _n_terms(args[1])


def _count_series_mul(tr, args, result):
    tr.counters["rings.series_mul.pairs"] += _n_terms(args[0]) * _n_terms(args[1])
    tr.counters["rings.series_mul.terms_out"] += _n_terms(result)


def _count_bialternant(tr, args, result):
    tr.counters["grassmann.bialternant.in_terms"] += _n_terms(args[0])
    tr.counters["grassmann.bialternant.out_terms"] += sum(
        _n_terms(c) for c in result.values())


def _count_box(tr, args, result):
    tr.counters["mirror.box_echelon.pivots"] += len(getattr(result, "rewrites", ()))


def _count_dumps(tr, args, result):
    tr.counters["presaito.family_json_bytes"] += len(result)


def _count_loads(tr, args, result):
    tr.counters["presaito.family_json_bytes"] += len(args[0])


def _count_inv_series(tr, args, result):
    if tr.active.get("deform.hm_extend"):
        tr.counters["deform.hm_extend.orders"] += 1


# Counters measured where the work happens, from a call's inputs and result.
HOOKS = {
    "rings.laurent_mul": _count_laurent_mul,
    "rings.series_mul": _count_series_mul,
    "grassmann.bialternant_reduce": _count_bialternant,
    "mirror.box_echelon": _count_box,
    "presaito.dumps_family": _count_dumps,
    "presaito.loads_family": _count_loads,
    "linalg.inv_series": _count_inv_series,
}


class Tracer:
    """Spans and counters of one process; ``install`` once, read ``metrics`` at the end."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # prefix -> [calls, inclusive s, self s]
        self.counters = {name: 0 for name in COUNTERS}
        self.active: dict[str, int] = {}
        self.stack: list[list[float]] = []    # child seconds of each open span
        self.top = 0.0                        # seconds in outermost spans
        self.busy = 0.0                       # seconds in outermost scalar spans
        self.scalar_depth = 0

    def _close(self, dt: float) -> None:
        if self.stack:
            self.stack[-1][0] += dt
        else:
            self.top += dt

    def wrap(self, prefix: str, fn, scalar: bool):
        st = self.stats.setdefault(prefix, [0, 0.0, 0.0])
        hook = HOOKS.get(prefix)
        active, clock = self.active, time.perf_counter

        if scalar:
            @functools.wraps(fn)
            def scalar_wrapper(*args, **kwargs):
                st[0] += 1
                if self.scalar_depth:
                    result = fn(*args, **kwargs)
                else:
                    self.scalar_depth = 1
                    t = clock()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        dt = clock() - t
                        self.scalar_depth = 0
                        st[1] += dt
                        self.busy += dt
                        self._close(dt)
                if hook:
                    hook(self, args, result)
                return result
            return scalar_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st[0] += 1
            active[prefix] = active.get(prefix, 0) + 1
            frame = [0.0]
            self.stack.append(frame)
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t
                self.stack.pop()
                active[prefix] -= 1
                if not active[prefix]:      # recursion counts once
                    st[1] += dt
                st[2] += dt - frame[0]
                self._close(dt)
            if hook:
                hook(self, args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "altfrob" or name.startswith("altfrob."))]
        for prefix, modname, attr, scalar in SPANS:
            owner = sys.modules.get(modname)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            if len(path) > 1:                 # a method: patch the class dict
                orig = vars(owner).get(path[-1])
                targets = [owner]
            else:
                orig = getattr(owner, path[-1], None)
                targets = modules
            if orig is None:
                continue
            wrapped = self.wrap(prefix, orig, scalar)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        setattr(target, key, wrapped)

    def metrics(self) -> dict:
        out: dict = {}
        for prefix, _, _, scalar in SPANS:
            calls, incl, self_s = self.stats.get(prefix, (0, 0.0, 0.0))
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.s"] = incl
            if not scalar:
                out[f"{prefix}.self_s"] = self_s
        out["rings.busy_s"] = self.busy
        out.update(self.counters)
        mirror = sys.modules.get("altfrob.mirror")
        info = getattr(getattr(mirror, "mirror_brieskorn", None), "cache_info", None)
        if info is not None:
            ci = info()
            out["mirror.brieskorn_cache.hits"] = ci.hits
            out["mirror.brieskorn_cache.misses"] = ci.misses
        return out
