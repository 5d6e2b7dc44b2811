"""Span recording around homcap's public functions, from outside the package.

:func:`install` rebinds every public function of the five layers (the
functions named in each module's ``__all__``) in every ``homcap``
namespace that holds it, and the ``FgAbelianGroup.from_orders``
classmethod, with a wrapper that records one span per call: name, start,
end, parent span and operation id.  Spans are kept in compact arrays in
memory; :func:`layer_metrics` reduces them to the per-layer metrics and
:meth:`Recorder.write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
import types
from array import array
from collections import Counter

LAYERS = ("grammar", "spaces", "abelian", "capacity", "cli")


class Recorder:
    """Spans of one traced pass, in parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.active: list[int] = []  # open spans per name; 0 means outermost
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.ids[name]

    def wrap(self, fn, name: str, after=None):
        nid = self.name_id(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.op.append(self.op_id)
            self.outer.append(self.active[nid] == 0)
            self.start.append(0.0)
            self.end.append(0.0)
            self.active[nid] += 1
            self.stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                self.stack.pop()
                self.active[nid] -= 1
                self.start[idx] = start
                self.end[idx] = end
            if after is not None:
                after(self, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def write(self, path) -> None:
        """Gzipped, one tab-separated line per span: id, name, start, end,
        parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.name)):
                f.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )

    def totals(self) -> tuple[Counter, Counter]:
        """Calls and self time per span name.

        A call counts once however deep it recurses: only spans with no
        open span of the same name around them are counted.  Self time is
        a span's duration minus the durations of its child spans, which
        do not overlap because the program runs on one thread."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            self_s[name] += dur[i] - child[i]
            calls[name] += self.outer[i]
        return calls, self_s


# ratio counters, read from results as each wrapper returns


def _after_from_orders(rec: Recorder, g) -> None:
    if not g.free_rank and not g.invariant_factors:
        rec.counters["from_orders_trivial"] += 1


def _after_capacity(rec: Recorder, count) -> None:
    if count.kind == "lower-bound":
        rec.counters["lower_bound_sum"] += count.value


def _after_homology_profile(rec: Recorder, _profile) -> None:
    if rec.active[rec.name_id("capacity.capacity")]:
        rec.counters["profiles_in_capacity"] += 1


def _after_smith_normal_form(rec: Recorder, udv) -> None:
    u, _, v = udv
    bits = max((abs(e).bit_length() for m in (u, v) for e in m.entries), default=0)
    rec.counters["max_transform_bits"] = max(rec.counters["max_transform_bits"], bits)


AFTER = {
    "abelian.from_orders": _after_from_orders,
    "capacity.capacity": _after_capacity,
    "spaces.homology_profile": _after_homology_profile,
    "abelian.smith_normal_form": _after_smith_normal_form,
}


def install(rec: Recorder):
    """Rebind homcap's public functions to recording wrappers; returns a
    function that restores the original bindings."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"homcap.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                wrappers[fn] = rec.wrap(fn, name, AFTER.get(name))
    saved = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "homcap" and not mod_name.startswith("homcap."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    group_cls = sys.modules["homcap.abelian"].FgAbelianGroup
    original = group_cls.__dict__["from_orders"]
    saved.append((group_cls, "from_orders", original))
    group_cls.from_orders = classmethod(
        rec.wrap(original.__func__, "abelian.from_orders", AFTER["abelian.from_orders"])
    )

    def restore() -> None:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, ops: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass over ``ops`` operations."""
    calls, self_s = rec.totals()

    def n(*names: str) -> int:
        return sum(calls[name] for name in names)

    def t(*names: str) -> float:
        return sum(self_s[name] for name in names)

    def layer(prefix: str) -> float:
        return sum(v for name, v in self_s.items() if name.startswith(prefix + "."))

    counters = rec.counters
    capacity_calls = n("capacity.capacity")
    profiles = counters["profiles_in_capacity"]
    return {
        "grammar.parse.calls": n("grammar.parse_space", "grammar.parse_group"),
        "grammar.parse.self_s": t("grammar.parse_space", "grammar.parse_group"),
        "grammar.render.self_s": t("grammar.render_space", "grammar.render_group"),
        "grammar.self_s": layer("grammar"),
        "cli.main.calls": n("cli.main"),
        "cli.main.self_s": t("cli.main"),
        "spaces.canonicalize.calls": n("spaces.canonicalize"),
        "spaces.canonicalize.per_request": _ratio(n("spaces.canonicalize"), ops),
        "spaces.canonicalize.self_s": t("spaces.canonicalize"),
        "spaces.homology_profile.calls": n("spaces.homology_profile"),
        "spaces.homology_profile.self_s": t("spaces.homology_profile"),
        "spaces.self_s": layer("spaces"),
        "capacity.capacity.calls": capacity_calls,
        "capacity.self_s": layer("capacity"),
        "capacity.profiles_per_answer": _ratio(profiles, capacity_calls),
        "capacity.distinct_profile_frac": _ratio(counters["lower_bound_sum"], profiles),
        "abelian.from_orders.calls": n("abelian.from_orders"),
        "abelian.from_orders.self_s": t("abelian.from_orders"),
        "abelian.from_orders.trivial_frac": _ratio(
            counters["from_orders_trivial"], n("abelian.from_orders")
        ),
        "abelian.tensor.calls": n("abelian.tensor"),
        "abelian.tor.calls": n("abelian.tor"),
        "abelian.direct_sum.calls": n("abelian.direct_sum"),
        "abelian.summands.self_s": t(
            "abelian.count_direct_summands",
            "abelian.enumerate_direct_summands",
            "abelian.primary_decomposition",
        ),
        "abelian.smith_normal_form.calls": n("abelian.smith_normal_form"),
        "abelian.smith_normal_form.self_s": t("abelian.smith_normal_form"),
        "abelian.smith_normal_form.max_transform_bits": counters["max_transform_bits"],
        "abelian.self_s": layer("abelian"),
        "trace.spans": len(rec.name),
    }
