"""Spans around calls into the package, installed from the benchmark's side.

Tracer.install() replaces each traced function with a wrapper in every
planebundles module namespace that binds it (and on the class, for methods
and dataclass construction through __post_init__); uninstall() puts the
originals back.  The package itself is never edited, and untraced runs
never install anything.

Each span records (id, name, start_ns, end_ns, parent id, request id).
Per-name calls, self time (span time minus the time of its child spans)
and inclusive time are aggregated exactly; span records are kept in memory
up to SPAN_CAP and written out by dump().
"""

from __future__ import annotations

import sys
import time

# (metric prefix, module, attribute path) for every traced function.
TRACED = (
    ("chow.pb_mul", "chow", "pb_mul"),
    ("chow.PBRing.element", "chow", "PBRing.element"),
    ("chow.triple_self_product", "chow", "triple_self_product"),
    ("chow.p2_mul", "chow", "p2_mul"),
    ("chow.p2_unit_inverse", "chow", "p2_unit_inverse"),
    ("chern.ChernPair", "chern", "ChernPair.__post_init__"),
    ("chern.twist", "chern", "twist"),
    ("chern.monad_cohomology_chern", "chern", "monad_cohomology_chern"),
    ("orbits.normalize", "orbits", "normalize"),
    ("orbits.same_orbit", "orbits", "same_orbit"),
    ("orbits.orbit_witness", "orbits", "orbit_witness"),
    ("orbits.discriminant", "orbits", "discriminant"),
    ("cubic.picard_cubic", "cubic", "picard_cubic"),
    ("cubic.picard_discriminant", "cubic", "picard_discriminant"),
    ("cubic.cubic_discriminant_standard", "cubic", "cubic_discriminant_standard"),
    ("moduli.q1", "moduli", "q1"),
    ("moduli.gamma", "moduli", "gamma"),
    ("moduli.moduli_dim", "moduli", "moduli_dim"),
    ("moduli.q_values", "moduli", "q_values"),
    ("moduli.stromme_threshold", "moduli", "stromme_threshold"),
    ("moduli.non_cobordant_types", "moduli", "non_cobordant_types"),
    ("ruled.generic_hirzebruch", "ruled", "generic_hirzebruch"),
    ("ruled.unique_structure", "ruled", "unique_structure"),
    ("classify.weak_equivalent", "classify", "weak_equivalent"),
    ("classify.h_cobordant", "classify", "h_cobordant"),
    ("classify.concordance_to_split", "classify", "concordance_to_split"),
    ("classify.split_twist", "classify", "split_twist"),
    ("classify.complex_report", "classify", "complex_report"),
    ("classify.Verdict", "classify", "Verdict.__post_init__"),
    ("oracles.orbit_oracle", "oracles", "orbit_oracle"),
    ("oracles.ring_iso_search", "oracles", "ring_iso_search"),
    ("oracles.gl2z_form_search", "oracles", "gl2z_form_search"),
    ("oracles.integer_root_search", "oracles", "integer_root_search"),
    ("oracles.orbit_agreement_sweep", "oracles", "orbit_agreement_sweep"),
    ("oracles.split_root_agreement_sweep", "oracles", "split_root_agreement_sweep"),
    ("oracles.iso_equivalence_sweep", "oracles", "iso_equivalence_sweep"),
)
# CLI boundaries, reported as inclusive times rather than calls/self time.
CLI_SPANS = (("cli.command", "cli", "run"), ("cli.build_parser", "cli", "build_parser"))

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TRACED + CLI_SPANS]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.total_ns = [0] * len(self.names)
        self.spans = []
        self.span_count = 0
        self.request = 0
        self._stack = []  # [span id, child ns] of open spans
        self._undo = []

    def _wrap(self, index, fn):
        calls, self_ns, total_ns, spans, stack = (
            self.calls, self.self_ns, self.total_ns, self.spans, self._stack)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            tracer.span_count += 1
            span_id = tracer.span_count
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[index] += 1
                total_ns[index] += dur
                self_ns[index] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, index, start, end,
                                  parent[0] if parent else 0, tracer.request))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for index, (_, module, path) in enumerate(TRACED + CLI_SPANS):
            owner = sys.modules["planebundles." + module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(index, original))
                self._undo.append((cls, attr, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(index, original)
            for name, mod in list(sys.modules.items()):
                if name != "planebundles" and not name.startswith("planebundles."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self):
        out = {}
        for i, name in enumerate(self.names):
            if name.startswith("cli."):
                out[name + "_ms"] = (self.total_ns[i] / 1e6, "ms")
            else:
                out[name + ".calls"] = (self.calls[i], "count")
                out[name + ".self_ms"] = (self.self_ns[i] / 1e6, "ms")
        return out

    def dump(self, path):
        """Write the recorded spans as tab-separated lines, one span a line."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for span_id, index, start, end, parent, request in self.spans:
                fh.write(f"{span_id}\t{self.names[index]}\t{start}\t{end}\t{parent}\t{request}\n")
