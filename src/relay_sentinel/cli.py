"""Command-line surface: scenario files, trace files, and result tables.

Commands
--------
``certify``    decide whether an observation channel admits undetectable
               symbol substitution, printing a JSON report.
``simulate``   run a seeded Monte Carlo experiment to a results CSV,
               optionally emitting per-trial symbol traces.
``detect``     run the trace detector on a recorded source-side trace.
``reproduce``  write the empirical-CDF tables of a named preset, one CSV
               per manipulation curve, plus an error-rate summary.

Exit codes: 0 = clean / non-manipulable, 2 = malicious / manipulable,
1 = any error (bad usage, unreadable files, invalid documents).  The
environment variable ``RELAY_SENTINEL_SEED`` overrides the master seed
of whatever scenario a command runs.

Scenario documents are JSON with keys ``sources`` (``p1``, ``p2``),
``mac`` (``{"type": "adder"}`` or ``{"type": "table", "u_size": n,
"table": [[...]]}``), ``bc_marginal`` (row-major matrix, one column per
relay symbol), ``attack`` (``identity`` | ``iid`` | ``gated``), and
``sim`` (``N``, ``trials``, ``mu``, ``delta``, ``seed``).  Trace files
are CSV with header ``n,x1,y1`` (source side) or ``n,u,v`` (relay side),
zero-based base-10 int64 symbol indices, and ``#``-prefixed metadata lines.
Both trace paths share cached byte tables of rows, one per index width
(``_row_skeleton``): ``simulate --emit-trace`` fills in copies of them,
and a trace in that layout with alphabets of at most 10 symbols is
checked byte by byte against them and parsed as bytes; any other trace is
read line by line, with the same result.
"""

import argparse
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .attackmodel import AttackSpec
from .channelmodel import MacModel, marginalize_mac
from .detector import DetectorConfig, run_detection
from .harness import (
    DESK_TRIALS,
    Scenario,
    empirical_cdf,
    error_rates,
    preset,
    preset_curves,
    run_experiment,
    score_trial,
    trial_seed,
    trial_traces,
)
from .lpkernel import LpFailure
from .manipulability import CertificationFailure, ConsistencyFailure, certify
from .stochcore import (
    frozen,
    trace_blocks,
    validate_column_stochastic,
    validate_count,
    validate_pmf,
    validate_positive,
)

__all__ = [
    "main",
    "scenario_document",
    "scenario_from_document",
    "scenario_hash",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2


class ScenarioFileError(ValueError):
    """Invalid scenario/trace document; the message names the bad key."""


class _UsageError(Exception):
    pass


# ---------- document loading ----------


def _get(mapping, key, path=""):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioFileError(f"{path}{key}: missing")
    return mapping[key]


def load_channel(doc):
    """(p1, p2, mac, a, b) from a scenario/channel document.

    The uplink matrix A that p2 and the MAC give is checked too, and its
    faults (a column sum only their product pushes out of tolerance, an
    unreachable relay symbol) are named by their keys.
    """
    sources = _get(doc, "sources")
    p1 = validate_pmf(_get(sources, "p1", "sources."), "sources.p1")
    p2 = validate_pmf(_get(sources, "p2", "sources."), "sources.p2")
    mac_doc = _get(doc, "mac")
    mac_type = _get(mac_doc, "type", "mac.")
    if mac_type == "adder":
        mac = MacModel.adder(p1.size, p2.size)
    elif mac_type == "table":
        u_size = validate_count(_get(mac_doc, "u_size", "mac."), "mac.u_size")
        table = validate_column_stochastic(_get(mac_doc, "table", "mac."), "mac.table")
        if table.shape[0] != u_size:
            raise ScenarioFileError(
                f"mac.table: has {table.shape[0]} rows, u_size says {u_size}"
            )
        try:
            mac = MacModel(table, p1.size, p2.size)
        except ValueError as exc:
            raise ScenarioFileError(f"mac.table: {exc}") from None
    else:
        raise ScenarioFileError(f"mac.type: unknown type {mac_type!r}")
    b = validate_column_stochastic(_get(doc, "bc_marginal"), "bc_marginal")
    if b.shape[1] != mac.u_size:
        raise ScenarioFileError(
            f"bc_marginal: has {b.shape[1]} columns, expected one per relay symbol"
            f" ({mac.u_size})"
        )
    try:
        a = marginalize_mac(mac, p2)
    except ValueError as exc:
        keys = "sources.p2 and mac.table" if mac_type == "table" else "sources.p2"
        raise ScenarioFileError(f"{keys}: uplink matrix A: {exc}") from None
    return p1, p2, mac, a, b


def _load_attack(doc, u_size):
    attack_doc = _get(doc, "attack")
    attack_type = _get(attack_doc, "type", "attack.")
    if attack_type == "identity":
        return AttackSpec()
    if attack_type not in ("iid", "gated"):
        raise ScenarioFileError(f"attack.type: unknown type {attack_type!r}")
    phi = validate_column_stochastic(_get(attack_doc, "phi", "attack."), "attack.phi")
    if phi.shape != (u_size, u_size):
        raise ScenarioFileError(
            f"attack.phi: expected a {u_size}x{u_size} matrix, got {phi.shape[0]}x{phi.shape[1]}"
        )
    if attack_type == "iid":
        return AttackSpec(phi)
    gate = _get(attack_doc, "gate", "attack.")
    if gate not in ("even", "odd"):
        raise ScenarioFileError(f"attack.gate: expected 'even' or 'odd', got {gate!r}")
    return AttackSpec(phi, gate)


def scenario_from_document(doc) -> Scenario:
    """Validate a scenario document into a Scenario."""
    p1, p2, mac, _a, b = load_channel(doc)
    attack = _load_attack(doc, mac.u_size)
    sim = _get(doc, "sim")
    return Scenario(
        p1=p1,
        p2=p2,
        mac=mac,
        b=b,
        attack=attack,
        n=validate_count(_get(sim, "N", "sim."), "sim.N"),
        trials=validate_count(_get(sim, "trials", "sim."), "sim.trials"),
        mu=_positive(sim, "mu"),
        delta=_positive(sim, "delta"),
        master_seed=validate_count(_get(sim, "seed", "sim."), "sim.seed", minimum=0),
    )


def _positive(sim, key):
    """sim[key] as a positive finite number, or ValueError naming ``sim.{key}``."""
    return validate_positive(_get(sim, key, "sim."), f"sim.{key}")


def scenario_document(scenario: Scenario) -> dict:
    """Canonical JSON-ready document for a Scenario (round-trips exactly)."""
    attack = {"type": scenario.attack.kind}
    if scenario.attack.phi is not None:
        attack["phi"] = scenario.attack.phi.tolist()
    if scenario.attack.gate_parity is not None:
        attack["gate"] = scenario.attack.gate_parity
    return {
        "sources": {"p1": scenario.p1.tolist(), "p2": scenario.p2.tolist()},
        "mac": {
            "type": "table",
            "u_size": scenario.mac.u_size,
            "table": scenario.mac.table.tolist(),
        },
        "bc_marginal": scenario.b.tolist(),
        "attack": attack,
        "sim": {
            "N": scenario.n,
            "trials": scenario.trials,
            "mu": scenario.mu,
            "delta": scenario.delta,
            "seed": scenario.master_seed,
        },
    }


def scenario_hash(scenario: Scenario) -> str:
    """SHA-256 of the canonical scenario document."""
    canonical = json.dumps(
        scenario_document(scenario), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _read_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioFileError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:  # its message gives the byte offset
        raise ScenarioFileError(f"{path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"{path}: not valid JSON ({exc})") from None


# ---------- trace files ----------


def _content_lines(lines, metadata):
    """The stripped non-blank lines that are not ``#`` lines.

    ``#`` lines are read into ``metadata`` as ``key = value`` pairs.
    """
    for line in lines:
        line = line.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                metadata[key.strip()] = value.strip()
        elif line:
            yield line


_HEADERS = (("n", "x1", "y1"), ("n", "u", "v"))

# a head line of printable ASCII and tabs: str.splitlines() ends it at its
# newline and nowhere else, and every ASCII-based encoding decodes it alike
_PLAIN_LINE = re.compile(rb"([\t -~]*)\n")

_ZERO, _COMMA, _NEWLINE = b"0,\n"


def _header(line):
    """The stripped comma-separated parts of a header line; None stays None."""
    return None if line is None else tuple(part.strip() for part in line.split(","))


def _plain_trace(data):
    """(metadata, header, columns) of a trace in the writer's layout, or None.

    The layout is what ``simulate --emit-trace`` writes for alphabets of at
    most 10 symbols: plain lines (`_PLAIN_LINE`) up to the header, then the
    rows ``n,a,b`` for n = 0, 1, 2, ..., each a one-digit symbol pair and
    a newline, so a row whose index has w digits takes w + 5 bytes. Each
    run of rows (`_runs`) is checked as one table against its rows of the
    writer's skeleton; any other file is None, for the line-by-line reader
    to read or reject.
    """
    metadata, start, header = {}, 0, None
    while header is None:
        line = _PLAIN_LINE.match(data, start)
        if line is None:
            return None
        start = line.end()
        header = _header(next(_content_lines([line[1].decode()], metadata), None))
    rows = _plain_row_count(len(data) - start)
    if header not in _HEADERS or not rows:
        return None
    body = np.frombuffer(data, np.uint8, offset=start)
    first, second = np.empty(rows, np.int64), np.empty(rows, np.int64)
    offset = 0
    # a run holds at most 10 000 rows and makes no 8-byte temporary, so it
    # needs no `trace_blocks` bound
    for row, stop, lead, skeleton in _runs(0, rows, 1, 1):
        table = body[offset : offset + skeleton.size].reshape(skeleton.shape)
        # each byte less its skeleton's, the leading digits less the run's
        # own, wrapping below zero: every byte but a symbol's must come to
        # 0, and a symbol byte below the digit 0 wraps past 9
        diff = table - skeleton
        if lead is not None:
            diff[:, : lead.size] -= lead
        width = skeleton.shape[1] - 5
        symbols = np.subtract(diff[:, width + 1 :: 2].T, _ZERO, order="C")
        # two digits per row, so the other bytes are 0 iff no more are non-zero
        if symbols.max() > 9 or np.count_nonzero(diff) != symbols.size:
            return None
        first[row:stop], second[row:stop] = symbols
        offset += skeleton.size
    return metadata, header, (first, second)


def _plain_row_count(size):
    """The number of rows 0, 1, 2, ... of w + 5 bytes each that fill ``size`` bytes, or 0."""
    rows = 0
    while size > 0:
        width = len(str(rows)) + 5
        run = min(size // width, 10 ** (width - 5) - rows)
        if not run:
            return 0
        rows += run
        size -= run * width
    return rows


def _integer_rows(lines):
    """The lines parsed as comma-separated int64 fields, or None if one is not.

    NumPy before 2.0 truncates a float field to an integer and only warns
    (DeprecationWarning); that warning is a failure here too.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(
                lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2
            )
        except (ValueError, DeprecationWarning):
            return None


def _filtered_trace(text):
    """(metadata, header, columns) of any trace text, read line by line.

    The ``#`` and blank lines are filtered out, then the rows are parsed by
    loadtxt. loadtxt strips U+001F from around a field, which int() never
    did, so a row that still holds one after the filter is rejected.
    """
    metadata = {}
    rest = iter(text.splitlines())
    # the generator stops at the header, so ``rest`` then holds the body
    header = _header(next(_content_lines(rest, metadata), None))
    if header not in _HEADERS:
        raise ScenarioFileError("trace: header must be 'n,x1,y1' or 'n,u,v'")
    body = list(_content_lines(rest, metadata))
    if not body:
        raise ScenarioFileError("trace: no data rows")
    data = None if any("\x1f" in line for line in body) else _integer_rows(body)
    if data is None:
        raise ScenarioFileError("trace: rows must be comma-separated integers")
    if data.shape[1] != 3:
        raise ScenarioFileError("trace: every row needs exactly three fields")
    if not np.array_equal(data[:, 0], np.arange(data.shape[0])):
        raise ScenarioFileError("trace: n must be contiguous from 0")
    if (data[:, 1:] < 0).any():
        raise ScenarioFileError("trace: symbol indices must be non-negative")
    return metadata, header, (data[:, 1], data[:, 2])


def read_trace(path):
    """(metadata, header tuple, (first column, second column)) of a trace CSV.

    A trace in the writer's layout with one-digit symbols (`_plain_trace`)
    is parsed as bytes, one run of equally wide rows at a time; any other
    is decoded as ``Path.read_text`` decodes it and read line by line.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ScenarioFileError(f"{path}: {exc.strerror or exc}") from None
    # the line-by-line reader decodes as Path.read_text: the locale's
    # encoding, with universal newlines
    try:
        return _plain_trace(data) or _filtered_trace(io.TextIOWrapper(io.BytesIO(data)).read())
    except UnicodeDecodeError as exc:  # its message gives the byte offset
        raise ScenarioFileError(f"{path}: {exc}") from None


def _write_csv(path, metadata, header, body):
    """Write ``# key = value`` lines and the header, then the body's byte chunks."""
    head = "".join(f"# {key} = {value}\n" for key, value in metadata) + f"{header}\n"
    with open(path, "wb") as file:
        file.write(head.encode())
        file.writelines(body)


def _text_body(rows):
    """Text rows as one bytes chunk, each row ending in a newline."""
    return ["".join(f"{row}\n" for row in rows).encode()]


def _tool_metadata():
    return [("tool", f"relay-sentinel {__version__}"), ("rng", "PCG64")]


# runs of rows past 9 999 share every index digit but the last four
_LOW_DIGITS = 10_000


def _first_row(width):
    """The index of a ``width``-digit skeleton's first row: the first index
    of that width up to four digits, else the last four digits 0000."""
    return 10 ** (width - 1) if 1 < width <= 4 else 0


@functools.lru_cache(maxsize=32)
def _row_skeleton(width, first_width, second_width):
    """The frozen byte table of the rows ``n,a,b\\n`` whose index n has ``width`` digits.

    Up to four digits it holds one row per such index; from five on, one
    per last four digits 0, ..., 9 999, its leading digits zero for a run
    to fill in. The symbol slots, ``first_width`` and ``second_width``
    bytes wide, are zero in every row.
    """
    low = min(width, 4)
    numbers = np.arange(_first_row(width), 10**low)
    table = np.zeros((numbers.size, width + first_width + second_width + 3), np.uint8)
    table[:, width - low : width] = numbers[:, None] // 10 ** np.arange(low - 1, -1, -1) % 10 + _ZERO
    table[:, width] = table[:, width + first_width + 1] = _COMMA
    table[:, -1] = _NEWLINE
    return frozen(table)


def _runs(start, stop, first_width, second_width):
    """(start, stop, leading digits, skeleton rows) of each run of rows in [start, stop).

    A run's indices have one width and, from 10 000 on, share their leading
    digits (a uint8 array of them; None below 10 000).
    """
    while start < stop:
        width = len(str(start))
        lead = start // _LOW_DIGITS
        end = min(stop, 10**width, (lead + 1) * _LOW_DIGITS)
        first = start % _LOW_DIGITS - _first_row(width)
        skeleton = _row_skeleton(width, first_width, second_width)[first : first + end - start]
        digits = np.frombuffer(str(lead).encode(), np.uint8) if width > 4 else None
        yield start, end, digits, skeleton
        start = end


def _symbol_digits(size):
    """The digits of 0, ..., size - 1 as void items, each zero-padded to the widest."""
    width = len(str(size - 1))
    return np.arange(size).astype(f"S{width}").view(f"V{width}")


def _fill_slot(slot, symbols, digits):
    """Write each symbol's `_symbol_digits` item into its row of a byte slot
    of their width; one-digit symbols are written as the digit character."""
    if digits.itemsize == 1:
        np.add(symbols, _ZERO, out=slot[:, 0], casting="unsafe")
    else:
        slot.view(digits.dtype)[:, 0] = digits.take(symbols)


def _trace_rows(first, second, first_size, second_size):
    """``n,first,second`` rows of two symbol columns, one bytes chunk per trace block.

    Each run of a block's rows (`_runs`) is a copy of its skeleton rows with
    the run's leading digits and both symbol slots (`_fill_slot`) written
    in. When an alphabet has symbols of two or more digits, dropping the
    zero bytes left after the shorter ones (``bytes.translate``, faster
    here than a boolean mask) leaves every row at its own width.
    """
    left, right = _symbol_digits(first_size), _symbol_digits(second_size)
    first_width, second_width = left.itemsize, right.itemsize
    compact = first_width > 1 or second_width > 1
    for block in trace_blocks(len(first)):
        runs = list(_runs(block.start, block.stop, first_width, second_width))
        chunk = np.empty(sum(skeleton.size for *_, skeleton in runs), np.uint8)
        offset = 0
        for start, stop, lead, skeleton in runs:
            table = chunk[offset : offset + skeleton.size].reshape(skeleton.shape)
            table[...] = skeleton
            if lead is not None:
                table[:, : lead.size] = lead
            slot = skeleton.shape[1] - first_width - second_width - 2
            _fill_slot(table[:, slot : slot + first_width], first[start:stop], left)
            slot += first_width + 1
            _fill_slot(table[:, slot : slot + second_width], second[start:stop], right)
            offset += skeleton.size
        yield chunk.tobytes().translate(None, b"\0") if compact else chunk.tobytes()


def _write_trial_traces(directory, scenario, digest, index, seed, traces):
    """The source and relay trace files of one trial."""
    x1, y1, u, v = traces
    x1_size = scenario.mac.x1_size
    y1_size = scenario.b.shape[0]
    u_size = scenario.mac.u_size
    shared = _tool_metadata() + [
        ("scenario_hash", digest),
        ("trial", index),
        ("seed", seed),
    ]
    stem = f"trace_{index:04d}"
    _write_csv(
        Path(directory) / f"{stem}_source.csv",
        shared + [("x1_size", x1_size), ("y1_size", y1_size)],
        "n,x1,y1",
        _trace_rows(x1, y1, x1_size, y1_size),
    )
    _write_csv(
        Path(directory) / f"{stem}_relay.csv",
        shared + [("u_size", u_size)],
        "n,u,v",
        _trace_rows(u, v, u_size, u_size),
    )


# ---------- commands ----------


def _cmd_certify(args):
    _p1, _p2, _mac, a, b = load_channel(_read_json(args.channel_file))
    verdict = certify(a, b)
    report = {
        "manipulable": verdict.manipulable,
        "lp_value": verdict.lp_optimal_value,
        "method": verdict.method,
    }
    if verdict.witness is not None:
        report["witness"] = verdict.witness.tolist()
    if verdict.induced_attack is not None:
        report["induced_attack"] = verdict.induced_attack.tolist()
    print(json.dumps(report, indent=2))
    return EXIT_FLAGGED if verdict.manipulable else EXIT_OK


def _with_overrides(scenario, args):
    """The scenario with the RELAY_SENTINEL_SEED master seed and --trials applied.

    Each is read as a trace field is: optional surrounding ASCII whitespace
    and sign, then ASCII digits. A count check names the variable or the flag.
    """
    overrides = {}
    for field, name, raw, minimum in (
        ("master_seed", "RELAY_SENTINEL_SEED", os.environ.get("RELAY_SENTINEL_SEED"), 0),
        ("trials", "--trials", args.trials, 1),
    ):
        if raw is not None:
            value = int(raw) if re.fullmatch(r"\s*[+-]?[0-9]+\s*", raw, re.ASCII) else raw
            overrides[field] = validate_count(value, name, minimum)
    return dataclasses.replace(scenario, **overrides) if overrides else scenario


def _scenario_for_simulate(args):
    if (args.scenario_file is None) == (args.preset is None):
        raise _UsageError("provide exactly one of a scenario file or --preset")
    if args.preset is not None:
        scenario = preset(args.preset)
    else:
        scenario = scenario_from_document(_read_json(args.scenario_file))
    return _with_overrides(scenario, args)


def _simulate_metadata(args, scenario, digest):
    metadata = _tool_metadata()
    if args.preset is not None:
        metadata.append(("preset", args.preset))
    metadata.extend(
        [
            ("scenario_hash", digest),
            ("master_seed", scenario.master_seed),
            ("n", scenario.n),
            ("trials", scenario.trials),
        ]
    )
    return metadata


def _cmd_simulate(args):
    scenario = _scenario_for_simulate(args)
    digest = scenario_hash(scenario)
    if args.emit_trace is not None:
        os.makedirs(args.emit_trace, exist_ok=True)
    rows = []
    for index in range(scenario.trials):
        # one draw per trial, scored and (with --emit-trace) written out
        traces = trial_traces(scenario, index)
        result = score_trial(scenario, index, *traces)
        seed = trial_seed(scenario, index)
        rows.append(
            f"{index},{result.statistic!r},{result.truth_stat!r},"
            f"{'true' if result.feasible else 'false'},{seed}"
        )
        if args.emit_trace is not None:
            _write_trial_traces(args.emit_trace, scenario, digest, index, seed, traces)
    _write_csv(
        args.output,
        _simulate_metadata(args, scenario, digest),
        "trial,D,truth_stat,feasible,seed",
        _text_body(rows),
    )
    return EXIT_OK


def _cmd_detect(args):
    doc = _read_json(args.channel_file)
    _p1, _p2, _mac, a, b = load_channel(doc)
    sim = _get(doc, "sim")
    mu, delta = _positive(sim, "mu"), _positive(sim, "delta")

    metadata, header, (x1, y1) = read_trace(args.trace_file)
    if header != ("n", "x1", "y1"):
        raise ScenarioFileError(
            "trace: detection needs a source-side trace with header n,x1,y1"
        )
    x1_size, y1_size = a.shape[1], b.shape[0]
    for key, size in (("x1_size", x1_size), ("y1_size", y1_size)):
        declared = metadata.get(key)
        if declared is not None and declared != str(size):
            raise ScenarioFileError(
                f"trace: {key}: declared {declared!r}, but the channel's alphabet"
                f" size is {size}"
            )

    report = run_detection(DetectorConfig(a=a, b=b, mu=mu, delta=delta), x1, y1)
    # every report field, in field order with the arrays last
    fields = sorted(vars(report).items(), key=lambda item: isinstance(item[1], np.ndarray))
    fields = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields}
    print(json.dumps(fields, indent=2))
    return EXIT_FLAGGED if report.verdict == "malicious" else EXIT_OK


def _cmd_reproduce(args):
    curves = {label: _with_overrides(s, args) for label, s in preset_curves(args.figure).items()}
    os.makedirs(args.output_dir, exist_ok=True)

    statistics = {}
    delta = None
    for label, scenario in curves.items():
        results = run_experiment(scenario)
        statistics[label] = [r.statistic for r in results]
        values, fractions = empirical_cdf(statistics[label])
        metadata = _tool_metadata() + [
            ("preset", args.figure),
            ("curve", label),
            ("scenario_hash", scenario_hash(scenario)),
            ("master_seed", scenario.master_seed),
            ("n", scenario.n),
            ("mu", scenario.mu),
            ("delta", scenario.delta),
            ("trials", scenario.trials),
        ]
        rows = [
            f"{value!r},{fraction!r}"
            for value, fraction in zip(values.tolist(), fractions.tolist())
        ]
        _write_csv(
            Path(args.output_dir) / f"{args.figure}_{label}.csv",
            metadata,
            "value,cum_fraction",
            _text_body(rows),
        )
        delta = scenario.delta

    # preset_curves lists the honest relay's curve first
    null_label, *attacked = statistics
    summary_rows = []
    for label in attacked:
        false_alarm, miss = error_rates(statistics[null_label], statistics[label], delta)
        summary_rows.append(f"{label},{delta!r},{false_alarm!r},{miss!r}")
    summary_metadata = _tool_metadata() + [
        ("preset", args.figure),
        ("null_curve", null_label),
        ("trials", next(iter(curves.values())).trials),
    ]
    _write_csv(
        Path(args.output_dir) / f"{args.figure}_error_rates.csv",
        summary_metadata,
        "curve,delta,false_alarm,miss",
        _text_body(summary_rows),
    )
    return EXIT_OK


# ---------- argument parsing ----------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="relay-sentinel",
        description="Certify, simulate, and detect relay symbol manipulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runs = argparse.ArgumentParser(add_help=False)  # options of every seeded run
    runs.add_argument("--trials", help=f"override the trial count (presets run {DESK_TRIALS})")

    certify_parser = sub.add_parser(
        "certify", help="decide whether a channel admits undetectable manipulation"
    )
    certify_parser.add_argument("channel_file")
    certify_parser.set_defaults(func=_cmd_certify)

    simulate_parser = sub.add_parser(
        "simulate", parents=[runs], help="run a seeded Monte Carlo experiment to a results CSV"
    )
    simulate_parser.add_argument("scenario_file", nargs="?")
    simulate_parser.add_argument("--preset", help="named preset scenario")
    simulate_parser.add_argument(
        "--emit-trace", metavar="DIR", help="also write per-trial symbol traces"
    )
    simulate_parser.add_argument("-o", "--output", required=True)
    simulate_parser.set_defaults(func=_cmd_simulate)

    detect_parser = sub.add_parser(
        "detect", help="run the detector on a recorded source-side trace"
    )
    detect_parser.add_argument("channel_file")
    detect_parser.add_argument("trace_file")
    detect_parser.set_defaults(func=_cmd_detect)

    reproduce_parser = sub.add_parser(
        "reproduce", parents=[runs], help="write the CDF tables of a named preset"
    )
    reproduce_parser.add_argument("figure")
    reproduce_parser.add_argument("-o", "--output-dir", required=True)
    reproduce_parser.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError, LpFailure, CertificationFailure, ConsistencyFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
