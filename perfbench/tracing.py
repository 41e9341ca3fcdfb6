"""Layer-boundary tracing from outside the library.

``Tracer.install`` replaces the module-level bindings through which one
vallab module calls another (and the entry points the workloads call)
with wrappers that record a span per call: name, start, end and the
index of the enclosing span.  Nothing in ``src/`` changes; ``uninstall``
puts every original binding back.  Spans are recorded only between
``begin_op`` and ``end_op``, so output checks run untraced.

Spans live in flat arrays while the run lasts and are written out once
at the end.  A span's self time is its duration minus its children's
durations; children never overlap because the program is single
threaded, so the self times of one operation add up exactly to the
duration of its root span ``bench.op``.
"""

import gzip
import sys
import time
from array import array
from functools import update_wrapper

ROOT_SPAN = "bench.op"


def _len_first(args, result):
    return {"points_in": len(args[0])} if hasattr(args[0], "__len__") else {}


COUNTERS = {
    "geometry.critical_rays": lambda a, r: {"rays_out": len(r)},
    "geometry.newton_polyhedron": lambda a, r: {"facets": len(r.facets)},
    "jumping.lct": lambda a, r: {"certificates": len(r.certificates),
                                 "minimizers": len(r.minimizing_rays)},
    "tian.lower_envelope": lambda a, r: {"lines_in": len(a[0]),
                                         "pieces_out": len(r)},
    "ideals.minimal_antichain": _len_first,
    "oracle.howald_multiplier":
        lambda a, r: {"generators_out": len(r.ideal.generators)},
}


def _bindings():
    """(module, attribute, span name) for every wrapped binding.

    An attribute "Class.method" wraps a method on a class of that module.
    Modules that are not imported (vallab.cli outside cli-readme) are
    skipped at install time.
    """
    v = "vallab."
    out = []

    def add(modules, attr, name):
        out.extend((v + m, attr, name) for m in modules)

    add(["jumping", "zhou"], "critical_rays", "geometry.critical_rays")
    add(["geometry"], "kernel_basis", "geometry.kernel_basis")
    add(["geometry", "oracle"], "newton_polyhedron",
        "geometry.newton_polyhedron")
    add(["jumping", "zhou", "tian", "oracle", "cli", "valuations"],
        "value_on_ideal", "valuations.value_on_ideal")
    add(["jumping", "zhou", "cli", "valuations"], "value_on_graded",
        "valuations.value_on_graded")
    add(["jumping", "zhou", "cli"], "lct_mixed", "jumping.lct")
    add(["jumping", "zhou", "tian", "cli"], "lct_mixed_graded", "jumping.lct")
    add(["jumping"], "compute_transfer_check",
        "jumping.compute_transfer_check")
    add(["tian", "cli"], "tian_function", "tian.tian_function")
    add(["tian"], "lower_envelope", "tian.lower_envelope")
    add(["tian", "cli"], "zhou_criterion", "tian.zhou_criterion")
    add(["tian", "cli"], "default_test_family", "tian.default_test_family")
    add(["tian", "cli"], "slope_report", "tian.slope_report")
    for fn in ("zhou_rescale", "val_membership", "singularity_compare",
               "power_sandwich"):
        add(["zhou", "cli"], fn, "zhou." + fn)
    for fn in ("singularity_compare_graded", "asymptotic_membership"):
        add(["zhou"], fn, "zhou." + fn)
    add(["ideals", "oracle", "valuations", "geometry"], "minimal_antichain",
        "ideals.minimal_antichain")
    add(["ideals"], "MonomialIdeal.product", "ideals.product")
    add(["ideals"], "MonomialIdeal.power", "ideals.power")
    add(["oracle", "zhou", "cli"], "howald_multiplier",
        "oracle.howald_multiplier")
    add(["oracle", "cli"], "jumping_number_oracle",
        "oracle.jumping_number_oracle")
    add(["oracle", "cli"], "controlled_growth_check",
        "oracle.controlled_growth_check")
    for fn in ("run", "build_parser", "build_problem", "run_command"):
        add(["cli"], fn, "cli." + fn)
    for fn in ("a_disc_2d", "min_zhou_N", "sigma_profile", "zv1_member"):
        add(["tree2d", "cli"], fn, "tree2d." + fn)
    add(["tree2d"], "ApproxSeq2D.of", "tree2d.ApproxSeq2D.of")
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.info = {}
        self.stack = []
        self.patched = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        stack, info, open_, close = self.stack, self.info, self._open, \
            self._close

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                info[idx] = counter(args, result)
            return result

        return update_wrapper(wrapper, fn)

    def install(self):
        for module_name, attr, name in _bindings():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            if owner:
                raw = target.__dict__[leaf]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
            else:
                raw = getattr(target, leaf)
                new = self.wrap(name, raw)
            self.patched.append((target, leaf, raw))
            setattr(target, leaf, new)

    def uninstall(self):
        while self.patched:
            target, leaf, raw = self.patched.pop()
            setattr(target, leaf, raw)

    def begin_op(self):
        return self._open(self._name_id(ROOT_SPAN))

    def end_op(self, idx):
        self._close(idx)

    # -- analysis ---------------------------------------------------------

    def summary(self):
        """Per span name: calls, self ns and summed counters; plus the
        derived cross-layer counts."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        names = [self.names[k] for k in self.name_of]
        by_name = {}
        under_oracle = [False] * n
        for i in range(n):
            name = names[i]
            entry = by_name.setdefault(name, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += self.end[i] - self.start[i] - child[i]
            for key, value in self.info.get(i, {}).items():
                entry[key] = entry.get(key, 0) + value
            p = self.parent[i]
            if p >= 0:
                under_oracle[i] = under_oracle[p] or \
                    names[p] == "oracle.jumping_number_oracle"
        derived = {"kernel_under_critical": 0, "lattice_candidates": 0,
                   "engine_calls": 0}
        for i in range(n):
            p = self.parent[i]
            parent = names[p] if p >= 0 else None
            if names[i] == "geometry.kernel_basis" and \
                    parent == "geometry.critical_rays":
                derived["kernel_under_critical"] += 1
            elif names[i] == "ideals.minimal_antichain" and \
                    parent == "oracle.howald_multiplier":
                derived["lattice_candidates"] += \
                    self.info.get(i, {}).get("points_in", 0)
            elif names[i] == "jumping.lct" and under_oracle[i]:
                derived["engine_calls"] += 1
        return by_name, derived

    def write(self, path):
        """Spans as gzip TSV: index, parent, name, start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t"
                          f"{self.names[self.name_of[i]]}\t{self.start[i]}\t"
                          f"{self.end[i]}\n")
