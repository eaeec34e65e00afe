"""In-memory span tracing around the package's public functions.

A traced run replaces selected module attributes with timing wrappers at
the place where each caller looks the function up (``harness.simulate_uplink``
rather than ``channelmodel.simulate_uplink``) and puts the originals back
when it ends, so the package itself is never edited. Each span records
(name, start, end, parent, op id); layer self time is a span's duration
minus the part of it that its child spans cover. Spans are timed on the
process CPU clock, like the end-to-end metrics (see ``workloads.clock``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import process_time as clock

from relay_sentinel import cli, detector, harness, manipulability
from relay_sentinel.lpkernel import LpStatus

# (module, attribute looked up by the caller, span name)
PATCH_POINTS = (
    (harness, "run_trial", "harness.run_trial"),
    (harness, "simulate_uplink", "channelmodel.simulate_uplink"),
    (harness, "simulate_downlink", "channelmodel.simulate_downlink"),
    (harness, "apply_attack", "attackmodel.apply_attack"),
    (harness, "extract_attack_channel", "attackmodel.extract_attack_channel"),
    (harness, "truth_statistic", "attackmodel.truth_statistic"),
    (harness, "run_detection", "detector.run_detection"),
    (detector, "conditional_histogram", "detector.conditional_histogram"),
    (detector, "column_space_projector", "numlinalg.projector"),
    (detector, "row_space_projector", "numlinalg.projector"),
    (detector, "solve_lp", "lpkernel.solve_lp"),
    (manipulability, "check_algorithm1", "manipulability.check_algorithm1"),
    (manipulability, "find_witness", "manipulability.find_witness"),
    (manipulability, "dpv_search_algorithm2", "manipulability.dpv_search"),
    (manipulability, "rank", "numlinalg.rank"),
    (manipulability, "solve_lp", "lpkernel.solve_lp"),
    (cli, "run_experiment", "harness.run_experiment"),
    (cli, "trial_traces", "harness.trial_traces"),
    (cli, "read_trace", "cli.read_trace"),
    (cli, "run_detection", "detector.run_detection"),
)

# spans that define the unit a per-op metric is divided by; every span
# belongs to its nearest enclosing scope
SCOPES = (
    "harness.run_trial",
    "harness.trial_traces",
    "manipulability.certify",
    "cli.simulate",
    "cli.detect",
)


class Tracer:
    """Collects spans while enabled; a disabled tracer only calls through."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, op id]
        self.lp: dict[int, tuple[int, int, bool]] = {}  # span -> rows, cols, infeasible
        self._stack: list[int] = []
        self.op_id = None

    def call(self, name, op_id, fn, *args, **kwargs):
        """Run ``fn`` inside a span; ``op_id`` (if given) tags it and its children."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index, saved = self._open(name, op_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index, saved)

    def _open(self, name, op_id):
        saved = self.op_id
        if op_id is not None:
            self.op_id = op_id
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        self.spans[index][1] = clock()
        return index, saved

    def _close(self, index, saved):
        self.spans[index][2] = clock()
        self._stack.pop()
        self.op_id = saved

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            op_id = None
            if name == "harness.run_trial":  # (scenario, trial_index)
                op_id = f"{self.op_id}#{args[1]}"
            index, saved = self._open(name, op_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, saved)
            if name == "lpkernel.solve_lp":
                problem = args[0]
                rows = sum(m.shape[0] for m in (problem.a_eq, problem.a_ub) if m is not None)
                self.lp[index] = (
                    rows,
                    problem.objective.size,
                    result.status is LpStatus.INFEASIBLE,
                )
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every PATCH_POINTS attribute for the duration of the block."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCH_POINTS]
        self.enabled = True
        try:
            for module, attr, name in PATCH_POINTS:
                setattr(module, attr, self._wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)
            self.enabled = False

    def write(self, path):
        """Dump the spans as JSON lines (CPU seconds from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "op": op_id,
                }
                out.write(json.dumps(record) + "\n")


def _aggregate(spans):
    """Per-span duration, self time and nearest enclosing scope span index."""
    count = len(spans)
    duration = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * count
    root = [-1] * count
    for index, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += duration[index]
        if name in SCOPES:
            root[index] = index
        elif parent >= 0:
            root[index] = root[parent]
    self_time = [d - c for d, c in zip(duration, covered)]
    return duration, self_time, root


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (ms, counts and fractions)."""
    spans = tracer.spans
    duration, self_time, root = _aggregate(spans)
    names = [span[0] for span in spans]
    # (span name, enclosing scope name) -> [ms, self ms, calls]
    acc = defaultdict(lambda: [0.0, 0.0, 0])
    witness_lps = 0
    for index, name in enumerate(names):
        scope = names[root[index]] if root[index] >= 0 else None
        entry = acc[name, scope]
        entry[0] += 1000.0 * duration[index]
        entry[1] += 1000.0 * self_time[index]
        entry[2] += 1
        parent = spans[index][3]
        if (
            name == "lpkernel.solve_lp"
            and parent >= 0
            and names[parent] == "manipulability.find_witness"
        ):
            witness_lps += 1
    units = {scope: names.count(scope) for scope in SCOPES}

    def per(scope, span_names, field=0, any_scope=False):
        value = sum(
            entry[field]
            for (name, where), entry in acc.items()
            if name in span_names and (any_scope or where == scope)
        )
        return value / units[scope] if units[scope] else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    trial, certify = "harness.run_trial", "manipulability.certify"
    detect, simulate, traces = "cli.detect", "cli.simulate", "harness.trial_traces"
    ms, self_ms, calls = 0, 1, 2
    shapes = list(tracer.lp.values())
    return {
        "harness.self_ms_per_trial": per(
            trial, {"harness.run_experiment", trial}, self_ms, any_scope=True
        ),
        "channelmodel.simulate_uplink.ms_per_trial": per(
            trial, {"channelmodel.simulate_uplink"}
        ),
        "channelmodel.simulate_downlink.ms_per_trial": per(
            trial, {"channelmodel.simulate_downlink"}
        ),
        "attackmodel.apply_attack.ms_per_trial": per(trial, {"attackmodel.apply_attack"}),
        "attackmodel.truth.ms_per_trial": per(
            trial, {"attackmodel.extract_attack_channel", "attackmodel.truth_statistic"}
        ),
        "detector.conditional_histogram.ms_per_trial": per(
            trial, {"detector.conditional_histogram"}
        ),
        "detector.run_detection.self_ms_per_trial": per(
            trial, {"detector.run_detection"}, self_ms
        ),
        "numlinalg.projector.calls_per_trial": per(trial, {"numlinalg.projector"}, calls),
        "numlinalg.projector.ms_per_trial": per(trial, {"numlinalg.projector"}),
        "numlinalg.rank.calls_per_certify": per(certify, {"numlinalg.rank"}, calls),
        "lpkernel.solve_lp.ms_per_trial": per(trial, {"lpkernel.solve_lp"}),
        "lpkernel.solve_lp.calls_per_trial": per(trial, {"lpkernel.solve_lp"}, calls),
        "lpkernel.solve_lp.ms_per_certify": per(certify, {"lpkernel.solve_lp"}),
        "lpkernel.solve_lp.calls_per_certify": per(certify, {"lpkernel.solve_lp"}, calls),
        "lpkernel.problem_rows": mean([rows for rows, _, _ in shapes]),
        "lpkernel.problem_cols": mean([cols for _, cols, _ in shapes]),
        "lpkernel.infeasible_frac": mean([float(bad) for _, _, bad in shapes]),
        "manipulability.check_algorithm1.ms_per_certify": per(
            certify, {"manipulability.check_algorithm1"}
        ),
        "manipulability.find_witness.ms_per_certify": per(
            certify, {"manipulability.find_witness"}
        ),
        "manipulability.find_witness.lps_per_certify": (
            witness_lps / units[certify] if units[certify] else 0.0
        ),
        "manipulability.dpv_search.ms_per_certify": per(
            certify, {"manipulability.dpv_search"}
        ),
        "cli.read_trace.ms_per_detect": per(detect, {"cli.read_trace"}),
        "cli.detect.self_ms": per(detect, {detect}, self_ms),
        "harness.trial_traces.ms_per_trace": per(traces, {traces}),
        "cli.simulate.self_ms_per_trace": (
            acc[simulate, simulate][self_ms] / units[traces] if units[traces] else 0.0
        ),
    }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_frac"):
        return "1"
    return "ms" if "ms" in last.split("_") else "count"


def per_trial_counts(tracer: Tracer) -> dict[str, dict]:
    """Projector and LP calls of each traced trial, grouped by curve.

    Exact counts: they show how many SVD projectors and LP solves one trial
    costs, separately for trials whose estimator LP was infeasible.
    """
    spans = tracer.spans
    _, _, root = _aggregate(spans)
    trials = {}
    for index, (name, _, _, _, op_id) in enumerate(spans):
        if name == "harness.run_trial":
            trials[index] = {"curve": str(op_id).split("@")[0], "proj": 0, "lp": 0, "infeasible": False}
    for index, (name, *_rest) in enumerate(spans):
        trial = trials.get(root[index])
        if trial is None:
            continue
        if name == "numlinalg.projector":
            trial["proj"] += 1
        elif name == "lpkernel.solve_lp":
            trial["lp"] += 1
            trial["infeasible"] |= tracer.lp[index][2]
    grouped: dict[str, dict] = {}
    for trial in trials.values():
        kind = "infeasible" if trial["infeasible"] else "feasible"
        entry = grouped.setdefault(trial["curve"], {})
        bucket = entry.setdefault(
            kind, {"trials": 0, "projector_calls": set(), "solve_lp_calls": set()}
        )
        bucket["trials"] += 1
        bucket["projector_calls"].add(trial["proj"])
        bucket["solve_lp_calls"].add(trial["lp"])
    for entry in grouped.values():
        for bucket in entry.values():
            bucket["projector_calls"] = sorted(bucket["projector_calls"])
            bucket["solve_lp_calls"] = sorted(bucket["solve_lp_calls"])
    return grouped
