"""Spans around calls into qsinglet's modules, recorded from outside the program.

``Tracer.install`` replaces each listed public function at every ``qsinglet.*``
module binding that refers to it (``apply_controlled`` is imported by name into
three modules, and all three calls are seen), and wraps ``State.__init__`` on
the class, so every construction and its validation is one span. A listed name
that no longer exists is reported as absent. Spans are kept in memory as
(name, start, end, parent, operation) and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

ENTRIES_FLOOR = 1e-12

TRACED = {
    "cli": ("main", "run_experiment", "validate_config", "resolve_gate"),
    "linalg": ("require_unitary", "eigendecompose_2x2_unitary", "haar_random_unitary"),
    "register": (
        "State", "product_state", "apply_unitary", "apply_controlled",
        "outcome_distribution", "collapse", "extract_subsystem",
    ),
    "singlet": ("make_singlet",),
    "discrimination": ("build_idp_povm",),
    "protocols": (
        "protocol_pm1", "protocol_square_trick", "protocol_known_phases",
        "protocol_quartet", "tomography_baseline",
    ),
    "qudit": ("run_qudit_minus_one", "spectrum_check_minus_one"),
    "phase_estimation": ("run_double_pe", "double_pe_output_state", "inverse_qft"),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)
SPAN_STATS = (("calls", "calls/op", "lower"), ("self_ms", "ms/op", "lower"), ("total_ms", "ms/op", "lower"))

# counts taken at the span boundaries, per traced operation unless noted
COUNTS = (
    ("register.apply_unitary.amps", "amps/op", "lower"),
    # amplitudes through apply_unitary per second of its span time; computed
    # from state sizes, with no roofline ratio
    ("register.apply_unitary.amps_per_s", "amps/s", "higher"),
    ("register.State.amps", "amps/op", "lower"),
    # per run_double_pe call with shots = 0: joint entries above 1e-12 in the
    # returned report, and analysed branches over those entries
    ("phase_estimation.run_double_pe.entries_ranked", "entries/call", "lower"),
    ("phase_estimation.run_double_pe.keep_ratio", "ratio", "higher"),
    ("cli.run_experiment.shots", "shots/op", "lower"),
    ("cli.main.report_bytes", "B/op", "lower"),
    # traced over untraced wall time of the same operations, minus one
    ("trace.overhead_frac", "ratio", "lower"),
    # summed self time of every span over the traced wall time of the operations
    ("trace.self_coverage", "ratio", "higher"),
)


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    spans = [(f"{span}.{stat}", unit, better) for span in SPAN_NAMES for stat, unit, better in SPAN_STATS]
    return spans + list(COUNTS)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover. ``spans`` holds (name, start, end, parent, op)
    with parent the index of the enclosing span or -1."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


class Tracer:
    """Collects spans and boundary counts for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.operation = -1
        self.absent = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.operation)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_apply_unitary(self, args, kwargs, result):
        self.counts["register.apply_unitary.amps"] += result.amps.shape[0]

    def _count_state(self, args, kwargs, result):
        self.counts["register.State.amps"] += args[0].amps.shape[0]

    def _count_run_experiment(self, args, kwargs, result):
        self.counts["cli.run_experiment.shots"] += args[0]["shots"]

    def _count_run_double_pe(self, args, kwargs, result):
        shots = kwargs.get("shots", args[2] if len(args) > 2 else 0)
        if shots == 0:
            self.counts["double_pe_calls"] += 1
            self.counts["entries_ranked"] += int(np.count_nonzero(result.exact_joint > ENTRIES_FLOOR))
            self.counts["branches_kept"] += len(result.branches)

    def install(self) -> None:
        """Wrap every listed function at each of its qsinglet module bindings."""
        modules = {m: importlib.import_module(f"qsinglet.{m}") for m in TRACED}
        bound = [mod for key, mod in sorted(sys.modules.items())
                 if mod is not None and (key == "qsinglet" or key.startswith("qsinglet."))]
        hooks = {
            "register.apply_unitary": self._count_apply_unitary,
            "cli.run_experiment": self._count_run_experiment,
            "phase_estimation.run_double_pe": self._count_run_double_pe,
        }
        for module, names in TRACED.items():
            for name in names:
                span = f"{module}.{name}"
                original = getattr(modules[module], name, None)
                if original is None:
                    self.absent.append(span)
                elif isinstance(original, type):
                    init = original.__init__
                    self._patches.append((original, "__init__", init))
                    setattr(original, "__init__", self._wrap(span, init, self._count_state))
                else:
                    wrapper = self._wrap(span, original, hooks.get(span))
                    for mod in bound:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patches.append((mod, attr, original))
                                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def per_layer(self, operations: int, traced_s: float, untraced_s: float, report_bytes: int) -> dict:
        """Per-layer metrics over ``operations`` traced operations."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            self_s[span[0]] += own
            total_s[span[0]] += span[2] - span[1]
        ops = max(operations, 1)
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = calls[name] / ops
            metrics[f"{name}.self_ms"] = 1e3 * self_s[name] / ops
            metrics[f"{name}.total_ms"] = 1e3 * total_s[name] / ops
        amps = self.counts["register.apply_unitary.amps"]
        apply_s = total_s["register.apply_unitary"]
        dpe_calls = self.counts["double_pe_calls"]
        ranked = self.counts["entries_ranked"]
        metrics.update({
            "register.apply_unitary.amps": amps / ops,
            "register.apply_unitary.amps_per_s": amps / apply_s if apply_s else 0.0,
            "register.State.amps": self.counts["register.State.amps"] / ops,
            "phase_estimation.run_double_pe.entries_ranked": ranked / dpe_calls if dpe_calls else 0.0,
            "phase_estimation.run_double_pe.keep_ratio": self.counts["branches_kept"] / ranked if ranked else 0.0,
            "cli.run_experiment.shots": self.counts["cli.run_experiment.shots"] / ops,
            "cli.main.report_bytes": report_bytes / ops,
            "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
            "trace.self_coverage": sum(self_s.values()) / traced_s if traced_s else 0.0,
        })
        return metrics

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent, operation."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\toperation\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
