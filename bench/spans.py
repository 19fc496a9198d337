"""Spans timed from outside horus, around calls into its public functions.

Each wrapper is installed at the name its caller looks up, so nothing under
``src/`` changes: ``Simulation`` trains a client through the module global
``horus.sim.local_train``, the server step scores clients through
``horus.aggregation.client_features``, and so on. The first part of a span's
name is its layer (the horus module it times). Spans are kept in memory and
reduced to per-layer metrics when the traced pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

ROUND = "sim.round"

# (module, attribute at which the caller looks the function up, span name)
SITES = (
    ("horus.sim", "Simulation.run_round", ROUND),
    ("horus.sim", "Simulation.warm_up", "sim.warmup"),
    ("horus.sim", "generate_task", "sim.task"),
    ("horus.sim", "dirichlet_partition", "sim.task"),
    ("horus.sim", "local_train", "sim.train"),
    ("horus.sim", "lora_gradients", "sim.gradients"),
    ("horus.sim", "evaluate", "sim.evaluate"),
    ("horus.sim", "LocalModel.backbone_hash", "sim.backbone_hash"),
    ("horus.sim", "pad_to_global", "lora.pad"),
    ("horus.aggregation", "pad_to_global", "lora.pad"),
    ("horus.sim", "trim_to_local", "lora.trim"),
    ("horus.sim", "flatten_padded", "lora.flatten"),
    ("horus.sim", "unflatten_padded", "lora.flatten"),
    ("horus.aggregation", "flatten_padded", "lora.flatten"),
    ("horus.detection", "thin_svd", "spectral.svd"),
    ("horus.aggregation", "first_right_singular_vector", "spectral.svd"),
    # the per-round diagnostics in horus.sim; reported on their own as well
    ("horus.sim", "thin_svd", "spectral.svd"),
    ("horus.aggregation", "client_features", "detection.features"),
    ("horus.aggregation", "detect_round", "detection.flag"),
    ("horus.sim", "horus_aggregate", "aggregation.server"),
    ("horus.sim", "baseline_aggregate", "aggregation.server"),
    ("horus.aggregation", "projection_weights", "aggregation.weights"),
    ("horus.aggregation", "weighted_masked_average", "aggregation.average"),
    ("horus.aggregation", "masked_average", "aggregation.average"),
    ("horus.aggregation", "update_global_directions", "aggregation.directions"),
    ("horus.aggregation", "krum_select", "aggregation.krum"),
    ("horus.aggregation", "masked_median", "aggregation.median"),
    ("horus.aggregation", "masked_trimmed_mean", "aggregation.trimmed_mean"),
    ("horus.attacks", "craft_malicious_vectors", "attacks.craft"),
)
DIAGNOSTICS_SITE = "horus.sim"

LAYERS = ("sim", "lora", "spectral", "detection", "aggregation", "attacks")

# per-round times reported as "<span name>_ms"
TIMED = (
    "sim.train", "sim.gradients", "sim.evaluate", "sim.backbone_hash",
    "lora.pad", "lora.trim", "lora.flatten", "spectral.svd",
    "detection.features", "detection.flag",
    "aggregation.server", "aggregation.weights", "aggregation.average",
    "aggregation.directions", "aggregation.krum", "aggregation.median",
    "aggregation.trimmed_mean", "attacks.craft",
)
# per-round call counts: metric name -> span name
COUNTED = {
    "sim.train_steps": "sim.gradients",
    "sim.evaluate_calls": "sim.evaluate",
    "lora.pad_calls": "lora.pad",
    "lora.trim_calls": "lora.trim",
    "spectral.svd_calls": "spectral.svd",
    "attacks.craft_calls": "attacks.craft",
}

# span record fields
NAME, SITE, START, END, PARENT, ROUND_OF, CHILD_NS = range(7)


class Recorder:
    """Spans as [name, site, start_ns, end_ns, parent, round, child_ns].

    ``parent`` and ``round`` index the enclosing span and the enclosing round
    span (-1 outside rounds); ``child_ns`` sums the durations of the direct
    children. Calls nest on one thread, so the children of a span never
    overlap and self time is the duration minus ``child_ns``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, site: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            in_round = idx if name == ROUND else (spans[parent][ROUND_OF] if parent >= 0 else -1)
            rec = [name, site, clock(), 0, parent, in_round, 0]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_NS] += rec[END] - rec[START]

        return timed

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block.

        A site whose attribute no longer exists is listed in ``missing`` and
        left out; its metrics then read 0.
        """
        undo = []
        self.missing = []
        try:
            for module, path, name in SITES:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                if not hasattr(owner, attr):
                    self.missing.append(f"{module}.{path}")
                    continue
                orig = getattr(owner, attr)
                undo.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, module))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def layer_metrics(self, simulations: int, updates: int) -> tuple[dict, list[str]]:
        """Per-layer metrics, per round unless named per simulation, and the
        problems found in the accounting (an empty list when it adds up)."""
        total = defaultdict(int)
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        setup = defaultdict(int)
        diagnostics = rounds = round_ns = round_self = 0
        for name, site, start, end, _, in_round, child in self.spans:
            dur = end - start
            if name == ROUND:
                rounds += 1
                round_ns += dur
                round_self += dur - child
            elif in_round < 0:
                setup[name] += dur
            else:
                total[name] += dur
                calls[name] += 1
                self_ns[name.split(".")[0]] += dur - child
                if name == "spectral.svd" and site == DIAGNOSTICS_SITE:
                    diagnostics += dur
        problems = []
        if rounds == 0:
            return {}, ["no round spans recorded"]
        if sum(self_ns.values()) + round_self != round_ns:
            problems.append("layer self times do not add up to the round time")

        def per_round_ms(ns):
            return ns / rounds / 1e6

        m = {
            "sim.round_ms": (per_round_ms(round_ns), "ms"),
            "sim.round_self_ms": (per_round_ms(round_self), "ms"),
            "sim.task_ms": (setup["sim.task"] / simulations / 1e6, "ms"),
            "sim.warmup_ms": (setup["sim.warmup"] / simulations / 1e6, "ms"),
            "sim.updates": (updates / rounds, "count"),
            "spectral.diagnostics_svd_ms": (per_round_ms(diagnostics), "ms"),
            "spectral.svd_per_update": (calls["spectral.svd"] / max(1, updates), "calls/update"),
        }
        for name in TIMED:
            m[f"{name}_ms"] = (per_round_ms(total[name]), "ms")
        for metric, name in COUNTED.items():
            m[metric] = (calls[name] / rounds, "count")
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = (per_round_ms(self_ns[layer]), "ms")
        return m, problems

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, site, start/end ns, parent, round."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:CHILD_NS]) + "\n")
