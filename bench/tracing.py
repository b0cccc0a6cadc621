"""Per-layer spans and counts for the benchmark's traced runs.

``install()`` wraps the public functions of each ``voazhu`` layer from
outside the package.  A module-level function is rebound in every
``voazhu.*`` module that holds it (``binom`` is imported by name into five
of them); a method is replaced on its class.  Each call becomes a span
(name, start, end, parent).  Self time is a span's duration minus the part
its child spans cover, accumulated while the program runs, so the
per-layer totals stay exact even when the span list is capped.

A name that no longer exists after a refactor is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

SPAN_CAP = 200_000   # spans kept in memory and written out; totals cover all

# group -> wrapped names, as (module, qualified name)
TARGETS = {
    "formal.binom": [("voazhu.formal", "binom")],
    "identities.verify": [("voazhu.identities", "verify_telescoping_binomial_sum"),
                          ("voazhu.identities", "alternating_binomial_sum"),
                          ("voazhu.identities", "verify_bivariate_binomial_cancellation")],
    "modules.mode_action": [("voazhu.modules", "GenModule.mode_action")],
    "ops.ywv_mode": [("voazhu.ops", "ywv_mode")],
    "zhu.products": [("voazhu.zhu", n) for n in
                     ("star_product", "circ_residue", "o_action", "lp_element")],
    "bimodule.products": [("voazhu.bimodule", n) for n in
                          ("left_star", "right_star", "right_star_alt", "circ_w",
                           "axiom_defect")],
    "window": [("voazhu.zhu", "ZhuContext.__init__"),
               ("voazhu.bimodule", "BimoduleContext.__init__")],
    "linalg.insert": [("voazhu.linalg", "SparseEchelon.insert_rational")],
    "linalg.reduce": [("voazhu.linalg", "SparseEchelon.reduce")],
    "membership": [("voazhu.zhu", "ZhuContext.membership"),
                   ("voazhu.bimodule", "BimoduleContext.membership")],
    "intertwiner.induced_hom": [("voazhu.intertwiner", "induced_hom")],
    "intertwiner.fusion": [("voazhu.intertwiner", "fusion_dim")],
}

# Per-layer metrics: name -> (unit, better).  Same order as BENCHMARK.json.
METRICS = {
    "formal.binom.calls": ("count", "lower"),
    "formal.binom.self_s": ("s", "lower"),
    "identities.verify.calls": ("count", "lower"),
    "identities.verify.self_s": ("s", "lower"),
    "modules.mode_action.calls": ("count", "lower"),
    "modules.mode_action.self_s": ("s", "lower"),
    "modules.mode_cache.entries": ("count", "lower"),
    "ops.ywv_mode.calls": ("count", "lower"),
    "ops.ywv_mode.self_s": ("s", "lower"),
    "zhu.products.calls": ("count", "lower"),
    "zhu.products.self_s": ("s", "lower"),
    "bimodule.products.calls": ("count", "lower"),
    "bimodule.products.self_s": ("s", "lower"),
    "window.count": ("count", "lower"),
    "window.build_s": ("s", "lower"),
    "window.generate_s": ("s", "lower"),
    "window.eliminate_s": ("s", "lower"),
    "window.generators": ("count", "lower"),
    "window.rank": ("count", "lower"),
    "window.useful_ratio": ("ratio", "higher"),
    "linalg.insert.calls": ("count", "lower"),
    "linalg.insert.self_s": ("s", "lower"),
    "linalg.insert.rank_gain_ratio": ("ratio", "higher"),
    "linalg.reduce.calls": ("count", "lower"),
    "linalg.reduce.self_s": ("s", "lower"),
    "membership.calls": ("count", "lower"),
    "membership.self_s": ("s", "lower"),
    "membership.certified_ratio": ("ratio", "higher"),
    "membership.witness_terms_mean": ("count", "lower"),
    "intertwiner.induced_hom.calls": ("count", "lower"),
    "intertwiner.induced_hom.self_s": ("s", "lower"),
    "intertwiner.fusion.assemble_s": ("s", "lower"),
    "intertwiner.fusion.solve_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(num, den):
    """A ratio whose base is 0 reads 0 (the table marks it n/a)."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.stack = []       # open frames: [span id, start, time covered by children]
        self.totals = {}      # group -> [calls, total seconds, self seconds]
        self.spans = []       # (id, parent id, name, start, end), first SPAN_CAP only
        self.next_id = 0
        self.dropped = 0
        self.missing = set()
        self.open = {"window": 0, "intertwiner.fusion": 0}
        self.count = dict.fromkeys(("insert_gains", "window_eliminate_s", "window_generators",
                                    "window_rank", "fusion_window_s", "fusion_solve_s",
                                    "certified", "witness_terms"), 0)
        self.modules_seen = {}

    def wrap(self, group, name, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        totals = self.totals.setdefault(group, [0, 0.0, 0.0])
        after = {"linalg.insert": self._after_insert, "window": self._after_window,
                 "membership": self._after_membership,
                 "modules.mode_action": self._after_mode_action}.get(group)
        scoped = group in self.open
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            if scoped:
                tracer.open[group] += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if scoped:
                    tracer.open[group] -= 1
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[2]
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, name, frame[1], end))
                else:
                    tracer.dropped += 1
                if after is not None:
                    after(args, result, dur)
        return traced

    # hooks called after each wrapped call of their group returns or raises

    def _after_insert(self, args, result, dur):
        if result:
            self.count["insert_gains"] += 1
        if self.open["window"]:
            self.count["window_eliminate_s"] += dur
        elif self.open["intertwiner.fusion"]:
            self.count["fusion_solve_s"] += dur

    def _after_window(self, args, result, dur):
        subspace = getattr(args[0], "subspace", None)
        if subspace is not None:
            self.count["window_generators"] += len(subspace.gens)
            self.count["window_rank"] += subspace.rank
        if self.open["intertwiner.fusion"]:
            self.count["fusion_window_s"] += dur

    def _after_membership(self, args, result, dur):
        if result is not None and result.certified:
            self.count["certified"] += 1
            self.count["witness_terms"] += result.witness_size()

    def _after_mode_action(self, args, result, dur):
        self.modules_seen[id(args[0])] = args[0]

    def metrics(self) -> dict:
        """Per-layer metric -> value (None when its layer is missing).

        ``trace.overhead_frac`` needs an untraced run and is left to the caller.
        """
        t, c = self.totals, self.count
        calls = {g: v[0] for g, v in t.items()}
        self_s = {g: v[2] for g, v in t.items()}
        caches = [getattr(m, "_mode_cache", None) for m in self.modules_seen.values()]
        fusion_s = t.get("intertwiner.fusion", [0, 0.0, 0.0])[1]
        window_s = t.get("window", [0, 0.0, 0.0])[1]
        out = {
            "modules.mode_cache.entries": (None if None in caches
                                           else sum(len(x) for x in caches)),
            "window.count": calls.get("window"),
            "window.build_s": window_s,
            "window.generate_s": window_s - c["window_eliminate_s"],
            "window.eliminate_s": c["window_eliminate_s"],
            "window.generators": c["window_generators"],
            "window.rank": c["window_rank"],
            "window.useful_ratio": _ratio(c["window_rank"], c["window_generators"]),
            "linalg.insert.rank_gain_ratio": _ratio(c["insert_gains"],
                                                    calls.get("linalg.insert", 0)),
            "membership.certified_ratio": _ratio(c["certified"], calls.get("membership", 0)),
            "membership.witness_terms_mean": _ratio(c["witness_terms"], c["certified"]),
            "intertwiner.fusion.assemble_s": (fusion_s - c["fusion_window_s"]
                                              - c["fusion_solve_s"]),
            "intertwiner.fusion.solve_s": c["fusion_solve_s"],
        }
        for group in TARGETS:
            out.setdefault(f"{group}.calls", calls.get(group))
            out.setdefault(f"{group}.self_s", self_s.get(group))
        missing = set(self.missing)
        if "modules.mode_action" in missing:
            missing.add("modules.mode_cache")
        return {name: None if name.rsplit(".", 1)[0] in missing else out.get(name)
                for name in METRICS}

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start", "end"],
                                 "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install() -> Tracer:
    """Wrap the traced names in every loaded voazhu module.

    Call it before anything imports names from ``voazhu``: modules loaded
    later (the report, the CLI, the workloads) then import the wrapped ones.
    """
    tracer = Tracer()
    for group, names in TARGETS.items():
        for modname, _ in names:
            try:
                importlib.import_module(modname)
            except ModuleNotFoundError:
                tracer.missing.add(group)
    package = [m for n, m in sys.modules.items() if n == "voazhu" or n.startswith("voazhu.")]
    for group, names in TARGETS.items():
        for modname, qualname in names:
            owner = sys.modules.get(modname)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                tracer.missing.add(group)
                continue
            span_name = f"{modname.split('.', 1)[1]}.{qualname}"
            traced = tracer.wrap(group, span_name, fn)
            if path:
                setattr(owner, attr, traced)
            else:
                for module in package:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, traced)
    return tracer
