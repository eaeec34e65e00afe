"""relay-sentinel benchmark: one workload per process, closed loop.

    python3 benchmark/run.py --workload short_block --seed 7 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 7 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``. The
program prints one detail line (environment, sample counts, the metrics
under their per-workload names, failures) and then, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured untraced; with ``--trace 1`` they are the per-layer ones, taken
from traced reruns of each round, and the spans are written to
``.bench_out/``. Times are CPU time of the process in reference seconds
(see ``reference``). Exit status: 0 when every output
check passed, 1 when any failed, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("short_block", "long_block", "certify_sweep", "trace_roundtrip")
# set-up (input building plus one warm-up pass) repeats; setup_s is their median
SETUP_REPEATS = 5
# the package's own name for what one operation is, per workload
OP_UNITS = {
    "short_block": "trial",
    "long_block": "trial",
    "certify_sweep": "certify",
    "trace_roundtrip": "detect",
}


# Times the package's import in a fresh interpreter, after NumPy's import
# (not the package's cost), and prints it in reference seconds.
_IMPORT_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import reference
reference.kernel()
start = time.process_time()
import relay_sentinel, relay_sentinel.cli
print((time.process_time() - start) * reference.scale())
"""


def import_package():
    """Import relay_sentinel from ``src/``, refusing any other copy."""
    init = SRC / "relay_sentinel" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import relay_sentinel
    import relay_sentinel.cli  # noqa: F401

    if Path(relay_sentinel.__file__).resolve() != init.resolve():
        raise ImportError(f"relay_sentinel was imported from {relay_sentinel.__file__}")


def import_seconds():
    """Median import time of the package over SETUP_REPEATS fresh interpreters."""
    probe = _IMPORT_PROBE.format(src=str(SRC), bench=str(Path(__file__).parent))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count of the OpenBLAS that NumPy bundles, if it reports one."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def environment(operations):
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "operations": operations,
    }


def percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q)) if values else float("nan")


def metric(value, unit, samples=None):
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


def measure(workload, plain, seconds, traced=None):
    """Run rounds until ``seconds`` of wall time have passed (at least one).

    With ``traced``, each round runs once untraced into ``plain`` and then
    again, on the same inputs, with the tracer installed; alternating the
    two keeps machine drift out of the tracing overhead.
    """
    start = perf_counter()
    done = 0
    while done == 0 or perf_counter() - start < seconds:
        plain.run_round(workload, done)
        if traced is not None:
            with traced.tracer.installed():
                traced.run_round(workload, done)
        done += 1
    for rec in (plain, traced) if traced is not None else (plain,):
        workload.finish(rec)


def run_workload(name, seed, seconds, trace, import_s, tiny=False):
    """One run: set-up repeats, then the measured (or traced) phase.

    ``import_s`` (the package's import time) goes to the details only:
    across fresh interpreters it was bimodal (about 0.06 and 0.11
    reference seconds), which made set-up times that included it spread
    by up to 0.28 between runs. Returns (result line dict, detail dict).
    """
    import reference
    from tracing import Tracer, layer_metrics, layer_unit, per_trial_counts
    from workloads import Recorder, make

    reference.kernel()  # its first call pays NumPy's own lazy set-up
    workdir = OUT / f"work-{name}-{os.getpid()}"
    recorders = []
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            rec = Recorder(Tracer(), calibrated=False)
            start = process_time()
            workload = make(name, seed, workdir, tiny)
            workload.warm_up(rec)
            setup.append((process_time() - start) * reference.scale())
            recorders.append(rec)

        plain = Recorder(Tracer())
        tracer = Tracer()
        traced = Recorder(tracer) if trace else None
        recorders += [plain, traced] if trace else [plain]
        measure(workload, plain, seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in recorders)
    failures = [message for r in recorders for message in r.failures]
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup)
    unit = OP_UNITS[name]
    # the median round filters out bursts of contention on a shared machine
    ops_per_s = statistics.median(plain.round_rates)
    p50, p90 = percentile(plain.op_ms, 50), percentile(plain.op_ms, 90)
    named = {
        "setup_s": metric(setup_s, "s", SETUP_REPEATS),
        "fail_frac": metric(len(failures) / max(attempted, 1), "1", attempted),
        "peak_rss_mb": metric(peak_rss, "MiB", 1),
    }
    if unit == "trial":
        named["trials_per_s"] = metric(ops_per_s, "1/s", plain.ops)
    else:
        named[f"{unit}_ms_p50"] = metric(p50, "ms", len(plain.op_ms))
        named[f"{unit}_ms_p90"] = metric(p90, "ms", len(plain.op_ms))
    if plain.emit_ms:
        named["emit_ms_p50"] = metric(percentile(plain.emit_ms, 50), "ms", len(plain.emit_ms))
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "operation": unit,
        "environment": environment(attempted),
        "named_metrics": named,
        "import_s": import_s,
        "setup_runs_s": setup,
        "reference_kernel_ms": 1000.0 * reference.REFERENCE_S / statistics.median(plain.scales),
        "cpu_ops_per_s": plain.ops / plain.busy_s,
        "wall_ops_per_s": plain.ops / plain.wall_s,
        "failures": failures[:20],
    }
    if not trace:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "ops_per_ref_s": metric(ops_per_s, "1/s"),
            "op_ref_ms_p50": metric(p50, "ms"),
            "op_ref_ms_p90": metric(p90, "ms"),
            "peak_rss_mb": metric(peak_rss, "MiB"),
        }
    else:
        scale = statistics.median(traced.scales)
        layers = {
            key: value * scale if layer_unit(key) == "ms" else value
            for key, value in layer_metrics(tracer).items()
        }
        layers["trace_overhead_frac"] = traced.scaled_s / plain.scaled_s - 1.0
        metrics = {key: metric(value, layer_unit(key)) for key, value in layers.items()}
        detail["per_trial_counts"] = per_trial_counts(tracer)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{name}-{seed}.jsonl"
        tracer.write(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, detail


def run_all(args):
    """Each workload in its own process, so each reports its own peak RSS."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, cwd=ROOT, check=False).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = import_seconds()
    # the CLI reads this variable as a master-seed override; inputs come from --seed only
    os.environ.pop("RELAY_SENTINEL_SEED", None)
    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace, import_s)
    for message in detail["failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
