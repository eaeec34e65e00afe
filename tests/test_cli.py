"""Tests for the command-line surface: file formats, exit codes, reports.

Exit-code contract: 0 = clean/non-manipulable, 2 = malicious/manipulable,
1 = any error (including usage errors, so scripting can rely on 2
meaning exactly one thing).
"""

import dataclasses
import hashlib
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from relay_sentinel import cli
from relay_sentinel.attackmodel import AttackSpec, apply_attack
from relay_sentinel.channelmodel import MacModel, sample_trace
from relay_sentinel.cli import (
    ScenarioFileError,
    _trace_rows,
    main,
    read_trace,
    scenario_document,
    scenario_from_document,
    scenario_hash,
)
from relay_sentinel.detector import DetectionReport, run_detection
from relay_sentinel.harness import Scenario, preset, preset_curves, trial_traces
from relay_sentinel.lpkernel import LpFailure
from relay_sentinel.stochcore import BLOCK_SIZE, joint_counts, trace_blocks

THIRD = 1 / 3


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("RELAY_SENTINEL_SEED", raising=False)


def binary_adder_doc(**sim_overrides):
    sim = {"N": 1_000, "trials": 2, "mu": 0.2, "delta": 0.065, "seed": 20240501}
    sim.update(sim_overrides)
    return {
        "sources": {"p1": [0.5, 0.5], "p2": [0.5, 0.5]},
        "mac": {"type": "adder"},
        "bc_marginal": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "attack": {"type": "identity"},
        "sim": sim,
    }


def square_channel_doc():
    return {
        "sources": {"p1": [THIRD, THIRD, THIRD], "p2": [THIRD, THIRD, THIRD]},
        "mac": {"type": "adder"},
        "bc_marginal": [
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.3, 0.2],
            [0.0, 0.0, 0.5, 0.2, 0.3],
            [0.0, 0.3, 0.2, 0.5, 0.0],
            [0.0, 0.2, 0.3, 0.0, 0.5],
        ],
        "attack": {"type": "identity"},
        "sim": {"N": 1_000, "trials": 1, "mu": 0.05, "delta": 0.07, "seed": 7},
    }


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv_lines(path):
    text = path.read_text().splitlines()
    meta = [line for line in text if line.startswith("#")]
    rest = [line for line in text if not line.startswith("#")]
    return meta, rest


# ---------- certify ----------


def test_certify_square_channel_is_manipulable(tmp_path, capsys):
    code = main(["certify", write_doc(tmp_path, square_channel_doc())])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["manipulable"] is True
    assert report["lp_value"] == pytest.approx(3.0, abs=1e-6)
    assert report["method"] == "Algorithm1"
    witness = np.array(report["witness"])
    assert witness.shape == (5, 5)
    induced = np.array(report["induced_attack"])
    assert np.allclose(induced.sum(axis=0), 1.0)


def test_certify_binary_adder_is_clean(tmp_path, capsys):
    code = main(["certify", write_doc(tmp_path, binary_adder_doc())])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["manipulable"] is False
    assert report["method"] == "Both"
    assert "witness" not in report and "induced_attack" not in report


def test_certify_names_bad_column(tmp_path, capsys):
    doc = binary_adder_doc()
    doc["bc_marginal"][0][2] = 0.5  # column 2 now sums to 1.5
    code = main(["certify", write_doc(tmp_path, doc)])
    assert code == 1
    assert "bc_marginal[.][2]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, key_path",
    [(("bc_marginal", 0, 0), "bc_marginal[.][0]"), (("sources", "p1", 0), "sources.p1")],
)
def test_simulate_names_sum_off_by_more_than_the_core_tolerance(tmp_path, capsys, where, key_path):
    # 1 + 5e-7 is outside the core's 1e-9 tolerance: the CLI must reject it
    # with the key path, not hand it on to fail inside Scenario
    doc = scenario_document(preset("fig3a"))
    outer, inner, index = where
    doc[outer][inner][index] += 5e-7
    code = main(["simulate", write_doc(tmp_path, doc), "-o", str(tmp_path / "out.csv")])
    assert code == 1
    assert key_path in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, value, key_path",
    [
        (("sources", "p1"), [float("nan"), 1.0], "sources.p1[0]"),
        (("sources", "p2"), ["a", "b"], "sources.p2"),
        (("mac", "table", 0, 0), float("nan"), "mac.table[0][0]"),
        (("bc_marginal", 1, 2), float("inf"), "bc_marginal[1][2]"),
        (("attack", "phi", 0, 0), float("nan"), "attack.phi[0][0]"),
    ],
    ids=["p1-nan", "p2-strings", "table-nan", "bc_marginal-inf", "phi-nan"],
)
def test_simulate_rejects_non_finite_or_non_numeric_entries(
    tmp_path, capsys, where, value, key_path
):
    # json writes these as NaN / Infinity, which json.loads reads back
    doc = scenario_document(preset("fig3a"))
    *outer, last = where
    node = doc
    for key in outer:
        node = node[key]
    node[last] = value
    code = main(["simulate", write_doc(tmp_path, doc), "-o", str(tmp_path / "out.csv")])
    assert code == 1
    assert key_path in capsys.readouterr().err


def test_certify_names_missing_key(tmp_path, capsys):
    doc = binary_adder_doc()
    del doc["mac"]
    code = main(["certify", write_doc(tmp_path, doc)])
    assert code == 1
    assert "mac" in capsys.readouterr().err


def test_certify_missing_file(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "nope.json")]) == 1
    assert capsys.readouterr().err != ""


def test_certify_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["certify", str(path)]) == 1


@pytest.mark.parametrize("command", ["certify", "simulate", "detect-channel", "detect-trace"])
def test_an_undecodable_file_is_named_with_the_offending_byte(tmp_path, capsys, command):
    doc_path = write_doc(tmp_path, binary_adder_doc())
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"n,x1,y1\n0,0,0\n1,1,2\n")
    bad = tmp_path / "bad.bin"
    if command == "detect-trace":
        bad.write_bytes("# note = caf\u00e9\nn,x1,y1\n0,0,0\n".encode("latin-1"))
        argv, offset = ["detect", doc_path, str(bad)], 12
    else:
        bad.write_bytes(b'{"sim": \xff}')
        argv, offset = {
            "certify": ["certify", str(bad)],
            "simulate": ["simulate", str(bad), "-o", str(tmp_path / "out.csv")],
            "detect-channel": ["detect", str(bad), str(trace)],
        }[command], 8
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and f"in position {offset}:" in err, err


@pytest.mark.parametrize("command", ["certify", "detect"])
def test_lp_failure_is_an_error_line_not_a_traceback(tmp_path, capsys, monkeypatch, command):
    def breakdown(*args):
        raise LpFailure("basis matrix singular during refactorization")

    monkeypatch.setattr(cli, "certify", breakdown)
    monkeypatch.setattr(cli, "run_detection", breakdown)
    path = write_doc(tmp_path, binary_adder_doc())
    trace = tmp_path / "trace.csv"
    trace.write_text("n,x1,y1\n0,0,0\n1,1,2\n")
    argv = ["certify", path] if command == "certify" else ["detect", path, str(trace)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: basis matrix singular during refactorization\n"


# ---------- scenario round-trip ----------


def test_scenario_document_round_trip():
    scenario = preset("fig5b")
    rebuilt = scenario_from_document(scenario_document(scenario))
    assert np.array_equal(rebuilt.p1, scenario.p1)
    assert np.array_equal(rebuilt.p2, scenario.p2)
    assert np.array_equal(rebuilt.mac.table, scenario.mac.table)
    assert np.array_equal(rebuilt.b, scenario.b)
    assert rebuilt.attack.kind == scenario.attack.kind
    assert np.array_equal(rebuilt.attack.phi, scenario.attack.phi)
    assert (rebuilt.n, rebuilt.mu, rebuilt.delta) == (
        scenario.n,
        scenario.mu,
        scenario.delta,
    )
    assert rebuilt.trials == scenario.trials
    assert rebuilt.master_seed == scenario.master_seed
    # canonical serialization: writing the rebuilt scenario matches exactly
    assert scenario_document(rebuilt) == scenario_document(scenario)


def test_every_preset_curve_round_trips_through_its_document():
    # fig3d's curves take the gated branch of the attack loader
    kinds = set()
    for name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig5a", "fig5b"):
        for label, scenario in preset_curves(name).items():
            rebuilt = scenario_from_document(json.loads(json.dumps(scenario_document(scenario))))
            assert scenario_hash(rebuilt) == scenario_hash(scenario), (name, label)
            assert rebuilt.attack.kind == scenario.attack.kind, (name, label)
            assert rebuilt.attack.gate_parity == scenario.attack.gate_parity, (name, label)
            kinds.add(rebuilt.attack.kind)
    assert kinds == {"identity", "iid", "gated"}


def _gated_doc():
    doc = scenario_document(preset("fig3d"))
    doc["sim"].update(N=200, trials=1)
    return doc


@pytest.mark.parametrize(
    "change, key_path",
    [
        (lambda doc: doc["mac"].update(type="lut"), "mac.type: unknown type 'lut'"),
        (lambda doc: doc["mac"].update(u_size=4), "mac.table: has 3 rows, u_size says 4"),
        (
            lambda doc: doc["mac"].update(table=np.eye(3)[:, [0, 1, 1]].tolist()),
            "mac.table: table has 3 columns, expected 4",
        ),
        (
            lambda doc: doc.update(bc_marginal=np.eye(4).tolist()),
            r"bc_marginal: has 4 columns, expected one per relay symbol \(3\)",
        ),
        (
            lambda doc: doc["attack"].update(phi=np.eye(2).tolist()),
            "attack.phi: expected a 3x3 matrix, got 2x2",
        ),
        (lambda doc: doc["attack"].update(gate="both"), "attack.gate: expected 'even' or 'odd'"),
        (lambda doc: doc["attack"].pop("gate"), "attack.gate: missing"),
    ],
    ids=["mac-type", "table-rows", "table-columns", "bc-width", "phi-shape", "gate", "no-gate"],
)
def test_document_rejections_name_the_key_path(tmp_path, capsys, change, key_path):
    doc = _gated_doc()
    assert main(["simulate", write_doc(tmp_path, doc), "-o", str(tmp_path / "o.csv")]) == 0
    capsys.readouterr()
    change(doc)
    code = main(["simulate", write_doc(tmp_path, doc), "-o", str(tmp_path / "o.csv")])
    assert code == 1
    assert re.match(rf"^error: {key_path}", capsys.readouterr().err)


@pytest.mark.parametrize("command", ["certify", "simulate"])
def test_uplink_matrix_out_of_tolerance_is_named_by_the_document_keys(tmp_path, capsys, command):
    # each entry passes the 1e-9 check on its own; their product A does not
    doc = scenario_document(preset("fig3a"))
    doc["sim"]["trials"] = 1
    doc["sources"]["p2"] = [0.5 + 9e-10, 0.5]
    doc["mac"]["table"][0][0] = 1.0 + 9e-10
    argv = [command, write_doc(tmp_path, doc)]
    if command == "simulate":
        argv += ["-o", str(tmp_path / "o.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sources.p2 and mac.table: uplink matrix A: A[.][0]: column sums")
    assert "to 1.00000000135" in err
    doc["mac"] = {"type": "adder"}
    assert main([command, write_doc(tmp_path, doc)] + argv[2:]) == 0
    capsys.readouterr()
    # an adder's third symbol needs x2 = 1, which this p2 never sends
    doc["sources"]["p2"] = [1.0, 0.0]
    assert main([command, write_doc(tmp_path, doc)] + argv[2:]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: sources.p2: uplink matrix A: relay-input symbols [2] are unreachable; prune U\n"
    )


def test_scenario_rejects_unknown_attack_type(tmp_path, capsys):
    doc = binary_adder_doc()
    doc["attack"] = {"type": "zap"}
    code = main(["simulate", write_doc(tmp_path, doc), "-o", str(tmp_path / "o.csv")])
    assert code == 1
    assert "attack.type" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        (section, key, value)
        for section, key in [("sim", "N"), ("sim", "mu"), ("sim", "seed"), ("mac", "u_size")]
        for value in (True, "1", 0, -1)
        if (key, value) != ("seed", 0)  # seed 0 is a valid master seed
    ],
)
def test_bad_count_or_parameter_is_named_by_key_path(tmp_path, capsys, section, key, value):
    doc = scenario_document(preset("fig3a"))  # a "table" mac, so mac.u_size is read
    doc[section][key] = value
    code = main(["simulate", write_doc(tmp_path, doc), "-o", str(tmp_path / "o.csv")])
    assert code == 1
    assert re.match(rf"^error: {section}\.{key} must be ", capsys.readouterr().err)


# ---------- simulate ----------


def test_simulate_preset_with_trial_override(tmp_path):
    out = tmp_path / "out.csv"
    code = main(["simulate", "--preset", "fig3a", "--trials", "5", "-o", str(out)])
    assert code == 0
    meta, rest = read_csv_lines(out)
    assert rest[0] == "trial,D,truth_stat,feasible,seed"
    assert len(rest) == 1 + 5
    assert any(line.startswith("# rng = PCG64") for line in meta)
    assert any(line.startswith("# scenario_hash = ") for line in meta)
    assert any(line == "# master_seed = 20240501" for line in meta)
    assert any(line == "# preset = fig3a" for line in meta)
    first_row = rest[1].split(",")
    assert first_row[0] == "0"
    assert first_row[3] in ("true", "false")


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c", "fig3d", "fig5a", "fig5b"])
def test_simulate_preset_runs_the_preset_headline(tmp_path, name):
    # simulate --preset used to take phi2 wherever a preset had one, so
    # fig3d ran phi2 where preset("fig3d") is phi4
    out = tmp_path / "out.csv"
    assert main(["simulate", "--preset", name, "--trials", "1", "-o", str(out)]) == 0
    meta, _ = read_csv_lines(out)
    expected = scenario_hash(dataclasses.replace(preset(name), trials=1))
    assert f"# scenario_hash = {expected}" in meta


# sha256 of a file scenario's results CSV and trial 0's traces, written
# before simulate scored and emitted each trial from one draw
FILE_SCENARIO_DIGESTS = {
    "out.csv": "0745418e03af68427ce117b39d861754be18f9ca4dcb9c5987e909bf6f021021",
    "traces/trace_0000_source.csv": "aef7fdf17dbf89c5a5ff190bb3b14c0d710d53b9fba8c1075ab26dc4bc049c88",
    "traces/trace_0000_relay.csv": "a7d5ad0960fe7a89ce6e77c3ffd833b0e53bfeb8441edde4f9e4779bd5f70b9e",
}


def test_simulate_file_scenario_outputs_are_pinned(tmp_path):
    doc = binary_adder_doc(trials=3)
    doc["attack"] = {"type": "iid", "phi": preset("fig3a").attack.phi.tolist()}
    argv = ["simulate", write_doc(tmp_path, doc), "-o", str(tmp_path / "out.csv")]
    assert main(argv + ["--emit-trace", str(tmp_path / "traces")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in FILE_SCENARIO_DIGESTS
    }
    assert digests == FILE_SCENARIO_DIGESTS
    # each trial's traces come from the draw that was scored
    for trial in range(3):
        _, _, (x1, y1) = read_trace(tmp_path / "traces" / f"trace_{trial:04d}_source.csv")
        _, _, (u, v) = read_trace(tmp_path / "traces" / f"trace_{trial:04d}_relay.csv")
        for written, drawn in zip((x1, y1, u, v), trial_traces(scenario_from_document(doc), trial)):
            assert np.array_equal(written, drawn)


def test_main_builds_the_parser_once(tmp_path):
    main(["simulate", "--preset", "fig3a", "--trials", "1", "-o", str(tmp_path / "a.csv")])
    built = cli._build_parser.cache_info().misses
    assert main(["reproduce", "fig3a", "--trials", "1", "-o", str(tmp_path)]) == 0
    assert main(["certify", str(tmp_path / "missing.json")]) == 1
    assert cli._build_parser.cache_info().misses == built == 1


def test_simulate_identity_single_trial(tmp_path):
    doc = binary_adder_doc(trials=1)
    out = tmp_path / "out.csv"
    assert main(["simulate", write_doc(tmp_path, doc), "-o", str(out)]) == 0
    _, rest = read_csv_lines(out)
    assert len(rest) == 2
    assert rest[1].split(",")[2] == "0.0"  # truth_stat of an untouched trace


def test_simulate_same_seed_byte_identical(tmp_path):
    doc = binary_adder_doc()
    path = write_doc(tmp_path, doc)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", path, "-o", str(out1)]) == 0
    assert main(["simulate", path, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_env_seed_override(tmp_path, monkeypatch):
    doc = binary_adder_doc()
    path = write_doc(tmp_path, doc)
    base, overridden = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", path, "-o", str(base)]) == 0
    monkeypatch.setenv("RELAY_SENTINEL_SEED", "999")
    assert main(["simulate", path, "-o", str(overridden)]) == 0
    meta, _ = read_csv_lines(overridden)
    assert any(line == "# master_seed = 999" for line in meta)
    assert base.read_bytes() != overridden.read_bytes()


def test_simulate_env_seed_must_be_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RELAY_SENTINEL_SEED", "not-a-number")
    code = main(
        ["simulate", write_doc(tmp_path, binary_adder_doc()), "-o", str(tmp_path / "o.csv")]
    )
    assert code == 1
    assert "RELAY_SENTINEL_SEED" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, shown",
    [
        ("--trials", "1_0", "'1_0'"),
        ("--trials", "\u0663", "'\u0663'"),  # an Arabic-Indic 3
        ("--trials", "0", "0"),
        ("RELAY_SENTINEL_SEED", "1_000", "'1_000'"),
        ("RELAY_SENTINEL_SEED", "\u0663", "'\u0663'"),
        ("RELAY_SENTINEL_SEED", "-1", "-1"),
        # \s matches U+001C-U+001F, which int() does not strip
        ("--trials", "1\x1c", "'1\\x1c'"),
        ("RELAY_SENTINEL_SEED", "5\x1f", "'5\\x1f'"),
    ],
)
def test_text_integers_follow_the_trace_field_rule(tmp_path, monkeypatch, capsys, name, text, shown):
    # int() read 1_0 as 10 and an Arabic-Indic 3 as 3, and a value out of
    # range was named as the Scenario field (trials, master_seed)
    out = tmp_path / "o.csv"
    argv = ["simulate", "--preset", "fig3a", "-o", str(out)]
    if name == "--trials":
        argv += ["--trials", text]
    else:
        monkeypatch.setenv(name, text)
    assert main(argv) == 1
    minimum = 1 if name == "--trials" else 0
    assert capsys.readouterr().err == f"error: {name} must be an integer >= {minimum}, got {shown}\n"
    assert not out.exists()


def test_text_integers_take_surrounding_whitespace_and_a_sign(tmp_path, monkeypatch):
    monkeypatch.setenv("RELAY_SENTINEL_SEED", " +007\t")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--preset", "fig3a", "--trials", " +2 ", "-o", str(out)]) == 0
    meta, rest = read_csv_lines(out)
    assert "# master_seed = 7" in meta and "# trials = 2" in meta
    assert len(rest) == 1 + 2


@pytest.mark.parametrize("command", [["simulate", "--preset", "nope"], ["reproduce", "nope"]])
def test_an_unknown_preset_is_one_error_line(tmp_path, capsys, command):
    assert main(command + ["-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: unknown preset 'nope'\n"


def test_simulate_requires_exactly_one_source(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    assert main(["simulate", "-o", out]) == 1
    assert main(
        ["simulate", write_doc(tmp_path, binary_adder_doc()), "--preset", "fig3a", "-o", out]
    ) == 1


def test_simulate_file_rejects_full_scale(tmp_path, capsys):
    # --trials alone sets the trial count; --full-scale is not an option
    out = tmp_path / "o.csv"
    argv = ["simulate", write_doc(tmp_path, binary_adder_doc()), "--full-scale", "-o", str(out)]
    assert main(argv) == 1
    assert "usage error: unrecognized arguments: --full-scale" in capsys.readouterr().err
    assert not out.exists()


# ---------- traces + detect ----------


def detect_wiring_doc(attack):
    # mu=0.1 with a wide threshold: an untouched trace scores well under
    # 0.8 while a wholesale 0<->2 swap scores about 4, so the verdict
    # exercises both exits without sitting near the boundary.
    doc = binary_adder_doc(N=10_000, trials=1, mu=0.1, delta=0.8)
    doc["attack"] = attack
    return doc


def test_simulate_emit_trace_then_detect_clean(tmp_path, capsys):
    doc = detect_wiring_doc({"type": "identity"})
    path = write_doc(tmp_path, doc)
    trace_dir = tmp_path / "traces"
    out = tmp_path / "out.csv"
    assert main(["simulate", path, "-o", str(out), "--emit-trace", str(trace_dir)]) == 0
    source = trace_dir / "trace_0000_source.csv"
    relay = trace_dir / "trace_0000_relay.csv"
    assert source.exists() and relay.exists()

    meta, rest = read_csv_lines(source)
    assert rest[0] == "n,x1,y1"
    assert rest[1].split(",")[0] == "0"  # contiguous n from 0
    assert len(rest) == 1 + 10_000
    assert any(line == "# x1_size = 2" for line in meta)
    assert any(line == "# y1_size = 3" for line in meta)
    assert any(line.startswith("# seed = ") for line in meta)
    relay_meta, relay_rest = read_csv_lines(relay)
    assert relay_rest[0] == "n,u,v"
    assert any(line == "# u_size = 3" for line in relay_meta)

    capsys.readouterr()
    code = main(["detect", path, str(source)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "clean"
    assert report["feasible"] is True
    assert 0.0 <= report["statistic"] <= 0.8
    assert np.array(report["phi_hat"]).shape == (3, 3)
    assert np.array(report["gamma_hat"]).shape == (3, 2)
    assert 0.0 <= report["residual"] <= doc["sim"]["mu"] + 1e-9
    assert report["unseen_x1_columns"] == []
    # the binary adder's floor kappa * mu with kappa = 6
    assert report["noiseless_floor"] == pytest.approx(6 * doc["sim"]["mu"], abs=1e-9)
    # the estimator LP is answered from the restart compiled for this channel
    assert report["lp_path"] in ("start", "dual")
    assert isinstance(report["lp_pivots"], int) and report["lp_pivots"] >= 0


def test_detect_prints_every_report_field(tmp_path, capsys):
    doc = detect_wiring_doc({"type": "identity"})
    path = write_doc(tmp_path, doc)
    trace_dir = tmp_path / "traces"
    assert main(["simulate", path, "-o", str(tmp_path / "o.csv"), "--emit-trace", str(trace_dir)]) == 0
    capsys.readouterr()
    source = trace_dir / "trace_0000_source.csv"
    assert main(["detect", path, str(source)]) == 0
    printed = json.loads(capsys.readouterr().out)

    scenario = scenario_from_document(doc)
    _, _, (x1, y1) = read_trace(source)
    report = run_detection(scenario.detector_config, x1, y1)
    assert list(printed) == sorted(
        (f.name for f in dataclasses.fields(DetectionReport)),
        key=lambda name: name in ("gamma_hat", "phi_hat"),
    )
    for name, value in vars(report).items():
        expected = value.tolist() if isinstance(value, np.ndarray) else value
        assert printed[name] == expected, name


def test_detect_checks_each_document_array_once(tmp_path, capsys, full_checks):
    # detect used to check nine arrays in full: the MAC table, p2 and A twice
    # each (loader, MacModel, marginalize_mac, DetectorConfig), B twice
    path = write_doc(tmp_path, scenario_document(preset_curves("fig3b")["phi2"]))
    trace = tmp_path / "trace.csv"
    trace.write_text("n,x1,y1\n0,0,0\n1,1,2\n")
    full_checks.clear()
    assert main(["detect", path, str(trace)]) in (0, 2)
    capsys.readouterr()
    # one check per array of the document, and one for the A they give
    assert sorted(full_checks) == ["A", "bc_marginal", "mac.table", "sources.p1", "sources.p2"]


def test_detect_flags_swapped_symbols(tmp_path, capsys):
    doc = detect_wiring_doc(
        {
            "type": "iid",
            "phi": [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
        }
    )
    path = write_doc(tmp_path, doc)
    trace_dir = tmp_path / "traces"
    assert main(
        ["simulate", path, "-o", str(tmp_path / "out.csv"), "--emit-trace", str(trace_dir)]
    ) == 0
    capsys.readouterr()
    code = main(["detect", path, str(trace_dir / "trace_0000_source.csv")])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["verdict"] == "malicious"
    assert report["statistic"] > 0.8


def test_detect_rejects_alphabet_mismatch(tmp_path, capsys):
    path = write_doc(tmp_path, detect_wiring_doc({"type": "identity"}))
    trace = tmp_path / "trace.csv"
    trace.write_text("n,x1,y1\n0,5,1\n1,0,2\n")  # x1=5 outside {0,1}
    assert main(["detect", path, str(trace)]) == 1
    assert "alphabet" in capsys.readouterr().err


def test_detect_rejects_declared_size_mismatch(tmp_path, capsys):
    path = write_doc(tmp_path, detect_wiring_doc({"type": "identity"}))
    trace = tmp_path / "trace.csv"
    trace.write_text("# x1_size = 4\nn,x1,y1\n0,1,1\n")
    assert main(["detect", path, str(trace)]) == 1
    capsys.readouterr()
    trace.write_text("# x1_size = two\nn,x1,y1\n0,1,1\n")
    assert main(["detect", path, str(trace)]) == 1
    assert "trace: x1_size" in capsys.readouterr().err


def test_detect_rejects_empty_trace(tmp_path, capsys):
    path = write_doc(tmp_path, detect_wiring_doc({"type": "identity"}))
    trace = tmp_path / "trace.csv"
    trace.write_text("# x1_size = 2\nn,x1,y1\n")
    assert main(["detect", path, str(trace)]) == 1


def test_detect_rejects_relay_side_trace(tmp_path, capsys):
    path = write_doc(tmp_path, detect_wiring_doc({"type": "identity"}))
    trace = tmp_path / "trace.csv"
    trace.write_text("n,u,v\n0,1,1\n")
    assert main(["detect", path, str(trace)]) == 1


def test_detect_rejects_gapped_index(tmp_path, capsys):
    path = write_doc(tmp_path, detect_wiring_doc({"type": "identity"}))
    trace = tmp_path / "trace.csv"
    trace.write_text("n,x1,y1\n0,1,1\n2,0,2\n")
    assert main(["detect", path, str(trace)]) == 1


# ---------- trace files ----------


def _old_read_trace(path):
    """(metadata, header tuple, (first column, second column)) of a trace CSV."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ScenarioFileError(f"{path}: {exc.strerror or exc}") from None
    metadata = {}
    header = None
    rows = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                metadata[key.strip()] = value.strip()
            continue
        if header is None:
            header = tuple(part.strip() for part in line.split(","))
            continue
        rows.append(line.split(","))
    if header not in (("n", "x1", "y1"), ("n", "u", "v")):
        raise ScenarioFileError("trace: header must be 'n,x1,y1' or 'n,u,v'")
    if not rows:
        raise ScenarioFileError("trace: no data rows")
    try:
        data = np.array(rows, dtype=int)
    except ValueError:
        raise ScenarioFileError("trace: rows must be comma-separated integers") from None
    if data.shape[1] != 3:
        raise ScenarioFileError("trace: every row needs exactly three fields")
    if not np.array_equal(data[:, 0], np.arange(data.shape[0])):
        raise ScenarioFileError("trace: n must be contiguous from 0")
    if (data[:, 1:] < 0).any():
        raise ScenarioFileError("trace: symbol indices must be non-negative")
    return metadata, header, (data[:, 1], data[:, 2])


def _old_trace_rows(first, second):
    return (f"{i},{a},{b}" for i, (a, b) in enumerate(zip(first.tolist(), second.tolist())))


# _old_read_trace and _old_trace_rows are the line-by-line reader and the
# per-row formatter that read_trace and _trace_rows replaced, kept verbatim
# as their oracles.  The readers differ on purpose in one way: int() took
# "1_0" as 10 and non-ASCII digits, and crashed with an OverflowError on a
# field beyond int64, and read_trace rejects all three.
NOT_INTEGERS = "trace: rows must be comma-separated integers"


def _tightened(text):
    return re.search(r"\d_\d", text) or any(ch.isdigit() and not ch.isascii() for ch in text)


def _reading(reader, path):
    try:
        return reader(path)
    except (ScenarioFileError, OverflowError) as exc:
        return exc


def _compare_readers(path, text):
    """How the two readers agree on ``text``: 'read', 'rejected' or 'tightened'."""
    path.write_text(text, encoding="utf-8", newline="")
    old = _reading(_old_read_trace, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on an empty body
        new = _reading(read_trace, path)
    if isinstance(old, OverflowError):
        assert isinstance(new, ScenarioFileError), (text, new)
        assert str(new) == NOT_INTEGERS, text
        return "tightened"
    if isinstance(new, ScenarioFileError):
        if isinstance(old, ScenarioFileError) and str(old) == str(new):
            return "rejected"
        assert str(new) == NOT_INTEGERS and _tightened(text), (text, old, new)
        return "tightened"
    assert not isinstance(old, Exception), (text, old)
    (old_meta, old_header, old_cols), (meta, header, cols) = old, new
    assert meta == old_meta and header == old_header, text
    for old_col, col in zip(old_cols, cols):
        assert col.dtype == old_col.dtype and np.array_equal(col, old_col), text
    return "read"


# name: (how the two readers agree, trace text)
NAMED_TRACES = {
    "plain": ("read", "# x1_size = 2\nn,x1,y1\n0,1,2\n1,0,0\n"),
    "crlf": ("read", "# x1_size = 2\r\nn,x1,y1\r\n0,1,2\r\n1,0,0\r\n"),
    "form_feed": ("read", "n,x1,y1\x0c0,1,2\x0c1,0,0"),
    "next_line": ("read", "n,x1,y1\x850,1,2\x851,0,0\x85"),
    "line_separator": ("read", "n,x1,y1\u20280,1,2\u20281,0,0"),
    "nbsp_before_hash": ("read", "n,x1,y1\n0,1,2\n\xa0# late = 1\n1,0,0\n"),
    "whitespace_lines": ("read", "n,x1,y1\n \t\n0,1,2\n\xa0\u3000\n1,0,0\n  \n"),
    "leading_blank_lines": ("read", "\n\n  \nn,x1,y1\n0,1,2\n"),
    "interior_blank_lines": ("read", "n,x1,y1\n0,1,2\n\n\n1,0,0\n"),
    "late_comment": ("read", "n,x1,y1\n0,1,2\n# x1_size = 4\n1,0,0\n"),
    "inline_hash": ("rejected", "n,x1,y1\n0,1,2 # note\n1,0,0\n"),
    "two_fields": ("rejected", "n,x1,y1\n0,1\n1,0\n"),
    "four_fields": ("rejected", "n,x1,y1\n0,1,2,3\n1,0,0,0\n"),
    "ragged": ("rejected", "n,x1,y1\n0,1,2\n1,0\n"),
    "empty_field": ("rejected", "n,x1,y1\n0,,2\n"),
    "signs": ("read", "n,x1,y1\n+0,+1,-0\n1,+0,2\n"),
    "negative": ("rejected", "n,x1,y1\n0,-1,2\n"),
    "float": ("rejected", "n,x1,y1\n0,1.5,2\n"),
    "integral_float": ("rejected", "n,x1,y1\n0,1.0,2\n"),
    "huge": ("tightened", "n,x1,y1\n0,99999999999999999999,1\n"),
    "int64_max": ("read", "n,x1,y1\n0,9223372036854775807,1\n"),
    "underscore": ("tightened", "n,x1,y1\n0,1_0,1\n"),
    "arabic_indic_digit": ("tightened", "n,x1,y1\n0,\u0661,1\n"),
    "padded_fields": ("read", "n,x1,y1\n 0 ,\xa01\u2007,\t2\u3000\n"),
    "unit_separator_inside": ("rejected", "n,x1,y1\n0,1\x1f,2\n"),
    "unit_separator_around": ("read", "\x1fn,x1,y1\x1f\n\x1f0,1,2\x1f\n"),
    "header_only": ("rejected", "# x1_size = 2\nn,x1,y1\n"),
    "header_and_comments_only": ("rejected", "n,x1,y1\n# a = 1\n\n"),
    "header_and_blank_lines": ("rejected", "n,x1,y1\n\n\n"),
    "relay_header": ("read", "n,u,v\n0,1,2\n"),
    "padded_header": ("read", " n , x1 ,y1\t\n0,1,2\n"),
    "bad_header": ("rejected", "n,x1\n0,1,2\n"),
    "no_header": ("rejected", "# x1_size = 2\n\n"),
    "gapped": ("rejected", "n,x1,y1\n0,1,2\n2,0,0\n"),
    "duplicate_key": ("read", "# a = 1\n# a = 2 = 3\n#novalue\nn,x1,y1\n0,1,2\n"),
    "leading_zeros": ("read", "n,x1,y1\n00,01,1\n"),
    "no_final_newline": ("read", "n,x1,y1\n0,1,2\n1,0,0"),
    "unterminated_digit": ("rejected", "n,x1,y1\n0,1,2\n1"),
    # row 5 001 follows row 4 999, in the body's second trace block
    "gap_after_first_chunk": (
        "rejected",
        "n,x1,y1\n" + "".join(f"{i},0,1\n" for i in range(5_000)) + "5001,0,1\n",
    ),
    "comma_first": ("rejected", "n,x1,y1\n,1,2\n"),
    "nineteen_digit_index": ("read", "n,x1,y1\n" + "0" * 19 + ",1,2\n"),
    # one 18-digit x1 among one-digit ones, each read over 18 places
    "eighteen_digit_field": (
        "read",
        "n,x1,y1\n" + "".join(f"{i},{10**18 - 1 if i == 7 else 5},1\n" for i in range(40)),
    ),
    "space_inside_a_field": ("rejected", "n,x1,y1\n0,1 2\n"),
    "two_digit_symbol": ("read", "n,x1,y1\n0,1,12\n1,0,0\n"),
    "ragged_in_threes": ("rejected", "n,x1,y1\n0,1\n1,0,0,0\n"),
    "form_feed_in_a_comment": ("read", "# k = v\x0c# j = w\nn,x1,y1\n0,1,2\n"),
}


@pytest.mark.parametrize("name", sorted(NAMED_TRACES))
def test_read_trace_matches_the_line_by_line_reader(tmp_path, name):
    expected, text = NAMED_TRACES[name]
    assert _compare_readers(tmp_path / "trace.csv", text) == expected


class _LeftThePlainPass(Exception):
    pass


def _refuse_the_line_by_line_reader(monkeypatch):
    def refuse(text):
        raise _LeftThePlainPass

    monkeypatch.setattr(cli, "_filtered_trace", refuse)


# a name of NAMED_TRACES: whether read_trace parses it as bytes
@pytest.mark.parametrize(
    "name, plain",
    [
        ("plain", True),
        ("leading_zeros", False),
        ("duplicate_key", True),
        ("padded_header", True),
        ("relay_header", True),
        ("eighteen_digit_field", False),
        ("two_digit_symbol", False),
        ("no_final_newline", False),
        ("nineteen_digit_index", False),
        ("gap_after_first_chunk", False),
        ("comma_first", False),
        ("crlf", False),
        ("padded_fields", False),
        ("signs", False),
        ("late_comment", False),
        ("unit_separator_around", False),
        ("form_feed_in_a_comment", False),
    ],
)
def test_read_trace_parses_only_plain_traces_as_bytes(tmp_path, monkeypatch, name, plain):
    path = tmp_path / "trace.csv"
    path.write_text(NAMED_TRACES[name][1], encoding="utf-8", newline="")
    _refuse_the_line_by_line_reader(monkeypatch)
    if plain:
        _, _, (first, second) = read_trace(path)
        assert first.dtype == second.dtype == np.int64
    else:
        with pytest.raises(_LeftThePlainPass):
            read_trace(path)


# every preset at its own N, and fig3b across the edges of the index digit
# widths and of the trace blocks that cut the body into runs of rows; a
# body of more than 2 * BLOCK_SIZE rows spans more than two trace blocks
@pytest.mark.parametrize(
    "name, n",
    [(name, None) for name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig5a", "fig5b")]
    + [
        ("fig3b", n)
        for n in sorted(
            {1, 10, 100, 1_000, 4_096, 4_097, 8_193, 9_999, 10_000, 10_001, 20_001, 100_000}
            | {BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 1}
        )
    ],
)
def test_emitted_traces_are_parsed_as_bytes(tmp_path, monkeypatch, name, n):
    scenario = preset(name) if n is None else dataclasses.replace(preset(name), n=n)
    traces = trial_traces(scenario, 0)
    cli._write_trial_traces(tmp_path, scenario, "0" * 64, 0, 0, traces)
    _refuse_the_line_by_line_reader(monkeypatch)
    for side, columns in (("source", traces[:2]), ("relay", traces[2:])):
        path = tmp_path / f"trace_0000_{side}.csv"
        meta, header, read = read_trace(path)
        if scenario.n > 2 * BLOCK_SIZE:
            assert len(trace_blocks(read[0].size)) > 2
        old_meta, old_header, old_read = _old_read_trace(path)
        assert meta == old_meta and header == old_header
        for column, trace, old_column in zip(read, columns, old_read):
            assert column.dtype == old_column.dtype == np.int64
            np.testing.assert_array_equal(column, trace.astype(np.int64))
            np.testing.assert_array_equal(column, old_column)


def test_a_fifteen_symbol_trace_pair_is_read_line_by_line(tmp_path, monkeypatch):
    # an 8 x 8 adder's relay symbols run to 14, so both files hold two-digit
    # symbols and leave the byte pass whole for the line-by-line reader
    scenario = Scenario(
        p1=np.full(8, 1 / 8),
        p2=np.full(8, 1 / 8),
        mac=MacModel.adder(8, 8),
        b=np.eye(15),
        attack=AttackSpec(),
        n=10_000,
        mu=0.05,
        delta=0.07,
        trials=1,
        master_seed=7,
    )
    traces = trial_traces(scenario, 0)
    cli._write_trial_traces(tmp_path, scenario, "0" * 64, 0, 0, traces)
    filtered, calls = cli._filtered_trace, []

    def counted(text):
        calls.append(len(text))
        return filtered(text)

    monkeypatch.setattr(cli, "_filtered_trace", counted)
    for side, columns in (("source", traces[:2]), ("relay", traces[2:])):
        path = tmp_path / f"trace_0000_{side}.csv"
        meta, header, read = read_trace(path)
        old_meta, old_header, old_read = _old_read_trace(path)
        assert meta == old_meta and header == old_header
        assert columns[1].max() >= 10
        for column, trace, old_column in zip(read, columns, old_read):
            np.testing.assert_array_equal(column, trace.astype(np.int64))
            np.testing.assert_array_equal(column, old_column)
    assert len(calls) == 2


# rows on both sides of each index width edge, and what a mutation puts in
_EDGE_ROWS = (9, 10, 99, 100, 999, 1_000)
_MUTANT_BYTES = "0123456789,\n\r -+#"


def test_read_trace_matches_the_line_by_line_reader_on_mutated_width_edges(tmp_path):
    scenario = dataclasses.replace(preset("fig3b"), n=1_100)
    cli._write_trial_traces(tmp_path, scenario, "0" * 64, 0, 0, trial_traces(scenario, 0))
    text = (tmp_path / "trace_0000_source.csv").read_text()
    body = text.index("n,x1,y1\n") + len("n,x1,y1\n")
    starts = [body] + [body + 1 + i for i, byte in enumerate(text[body:]) if byte == "\n"]
    rng = np.random.default_rng(20261019)
    path = tmp_path / "trace.csv"
    outcomes, drawn = {}, set()
    for _ in range(600):
        row = _EDGE_ROWS[int(rng.integers(len(_EDGE_ROWS)))]
        # any byte of the row, its newline included
        at = starts[row] + int(rng.integers(starts[row + 1] - starts[row]))
        kind = ("substitute", "insert", "delete")[int(rng.integers(3))]
        byte = _MUTANT_BYTES[int(rng.integers(len(_MUTANT_BYTES)))]
        rest = text[at + 1 :] if kind != "insert" else text[at:]
        mutant = text[:at] + (byte if kind != "delete" else "") + rest
        outcome = _compare_readers(path, mutant)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        drawn.add((row, kind))
    assert len(drawn) == 3 * len(_EDGE_ROWS)
    assert min(outcomes.get(k, 0) for k in ("read", "rejected")) >= 50, outcomes


def test_read_trace_checks_every_index_digit_at_ten_thousand(tmp_path):
    # past 9 999 the leading index digits are checked as columns and the
    # last four as one word; a changed digit anywhere in rows 9 999 and
    # 10 000 leaves a gap that both readers reject
    scenario = dataclasses.replace(preset("fig3b"), n=10_001)
    cli._write_trial_traces(tmp_path, scenario, "0" * 64, 0, 0, trial_traces(scenario, 0))
    text = (tmp_path / "trace_0000_source.csv").read_text()
    for row in (9_999, 10_000):
        at = text.index(f"\n{row},") + 1
        for digit in range(len(str(row))):
            changed = "1" if text[at + digit] != "1" else "2"
            mutant = text[: at + digit] + changed + text[at + digit + 1 :]
            assert _compare_readers(tmp_path / "trace.csv", mutant) == "rejected", (row, digit)


def test_read_trace_checks_the_leading_index_digits_past_ten_thousand(tmp_path):
    # from 10 000 on a run's skeleton rows hold the last four index digits
    # only, and the run's leading digits are checked on their own: changing
    # one of them, to another digit or to the byte after 9, leaves a row that
    # both readers reject
    for n, rows in ((20_001, (10_000, 10_001, 19_999, 20_000)), (100_001, (99_999, 100_000))):
        scenario = dataclasses.replace(preset("fig3b"), n=n)
        cli._write_trial_traces(tmp_path, scenario, "0" * 64, 0, 0, trial_traces(scenario, 0))
        text = (tmp_path / "trace_0000_source.csv").read_text()
        assert _compare_readers(tmp_path / "trace.csv", text) == "read"
        for row in rows:
            at = text.index(f"\n{row},") + 1
            for digit in range(len(str(row)) - 4):
                for byte in ("1" if text[at + digit] != "1" else "2", ":"):
                    mutant = text[: at + digit] + byte + text[at + digit + 1 :]
                    assert _compare_readers(tmp_path / "trace.csv", mutant) == "rejected", (row, digit, byte)


_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SPACES = [" ", "\t", "\xa0", "\u1680", "\u2007", "\u202f", "\u3000", "\x1f"]
_FIELDS = [
    "+1", "-1", "-0", "+0", "1.0", "1.5", "1e3", "", "0x1", "a", "1 # c",
    "99999999999999999999", "9223372036854775807", "-9223372036854775809",
    "1_0", "\u0661", "\uff11",
]
_COMMENTS = ["# x1_size = 4", "#", "  # a = b = c", "\xa0# late = 1", "#=", "# key only"]
_HEADERS = ["n,u,v", " n , x1 , y1 ", "n,x1", "x1,y1,n", "\ufeffn,x1,y1", "n;x1;y1"]


def _fuzzed_trace(rng):
    """(text, mutation names) of a random small trace with random mutations."""
    n = int(rng.integers(1, 7))
    rows = [[str(i), str(rng.integers(0, 12)), str(rng.integers(0, 12))] for i in range(n)]
    lines = [f"# k{i} = {rng.integers(0, 9)}" for i in range(int(rng.integers(0, 3)))]
    header = "n,x1,y1"
    done = set()
    for mutation in rng.choice(
        ["field", "pad", "arity", "gap", "header", "no_rows", "comment", "blank", "inline"],
        size=int(rng.integers(0, 4)),
    ):
        done.add(str(mutation))
        row = rows[int(rng.integers(0, len(rows)))] if rows else None
        if mutation == "field" and row:
            row[int(rng.integers(0, len(row)))] = str(rng.choice(_FIELDS))
        elif mutation == "pad" and row:
            k = int(rng.integers(0, len(row)))
            row[k] = str(rng.choice(_SPACES)) + row[k] + str(rng.choice(_SPACES))
        elif mutation == "arity" and row:
            if rng.random() < 0.5:
                row.pop()
            else:
                row.append(str(rng.integers(0, 3)))
        elif mutation == "gap" and row:
            row[0] = str(int(rng.integers(0, n + 2)))
        elif mutation == "header":
            header = str(rng.choice(_HEADERS))
        elif mutation == "no_rows":
            rows = []
    lines += [header] + [",".join(row) for row in rows]
    if "inline" in done and rows:
        lines[-1] += " # note"
    for kind, pool in (("comment", _COMMENTS), ("blank", ["", "  ", "\t", "\xa0", "\u3000 "])):
        if kind in done:
            for _ in range(int(rng.integers(1, 3))):
                lines.insert(int(rng.integers(0, len(lines) + 1)), str(rng.choice(pool)))
    separator = str(rng.choice(_SEPARATORS))
    done.add(repr(separator))
    return separator.join(lines) + (separator if rng.random() < 0.7 else ""), done


def test_read_trace_matches_the_line_by_line_reader_on_fuzzed_traces(tmp_path):
    rng = np.random.default_rng(20240811)
    path = tmp_path / "trace.csv"
    outcomes, mutations = {}, {}
    for _ in range(2_000):
        text, done = _fuzzed_trace(rng)
        outcome = _compare_readers(path, text)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        for name in done:
            mutations[name] = mutations.get(name, 0) + 1
    # every kind of mutation and separator was drawn, and the readers both
    # accepted, both rejected and (on a tightening) parted ways
    assert len(mutations) == 9 + len(_SEPARATORS)
    assert min(mutations.values()) >= 50
    assert min(outcomes.get(k, 0) for k in ("read", "rejected", "tightened")) >= 20


def test_read_trace_rejects_underscores_non_ascii_digits_floats_and_overflow(tmp_path):
    path = tmp_path / "trace.csv"
    for field in ("1_0", "\u0661", "\uff11", "1.5", "1.0", "1e0", "99999999999999999999"):
        path.write_text(f"n,x1,y1\n0,{field},1\n", encoding="utf-8")
        with pytest.raises(ScenarioFileError, match=NOT_INTEGERS):
            read_trace(path)


def test_read_trace_fails_closed_when_loadtxt_truncates_a_float(tmp_path, monkeypatch):
    # NumPy 1.23-1.26 read "1.5" into an integer column as 1 and only warned;
    # the space keeps the row out of the plain form, so loadtxt parses it
    loadtxt = np.loadtxt
    calls = []

    def truncating_loadtxt(*args, **kwargs):
        calls.append(args)
        warnings.warn("loadtxt(): Parsing an integer via a float", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    path = tmp_path / "trace.csv"
    path.write_text("n,x1,y1\n0, 1,1\n")
    with pytest.raises(ScenarioFileError, match=NOT_INTEGERS):
        read_trace(path)
    assert len(calls) == 1


def test_detect_reports_an_overflowing_field(tmp_path, capsys):
    path = write_doc(tmp_path, detect_wiring_doc({"type": "identity"}))
    trace = tmp_path / "trace.csv"
    trace.write_text("n,x1,y1\n0,99999999999999999999,1\n")
    assert main(["detect", path, str(trace)]) == 1
    assert capsys.readouterr().err.strip() == f"error: {NOT_INTEGERS}"


def test_detect_checks_a_size_declared_after_the_header(tmp_path, capsys):
    path = write_doc(tmp_path, detect_wiring_doc({"type": "identity"}))
    trace = tmp_path / "trace.csv"
    trace.write_text("n,x1,y1\n0,1,1\n# x1_size = 4\n1,0,2\n")
    assert main(["detect", path, str(trace)]) == 1
    assert "trace: x1_size" in capsys.readouterr().err


def _old_trace_bytes(first, second):
    """The per-row formatter's rows as the file body they made."""
    return ("\n".join(_old_trace_rows(first, second)) + "\n").encode()


def test_trace_rows_match_the_per_row_formatter():
    rng = np.random.default_rng(7)
    for first_size, second_size in [(2, 3), (3, 3), (5, 5), (11, 13), (13, 11), (12, 12)]:
        n = int(rng.integers(1, 2_000))
        first = rng.integers(0, first_size, n)
        second = rng.integers(0, second_size, n)
        first[0], second[-1] = first_size - 1, second_size - 1
        rows = b"".join(_trace_rows(first, second, first_size, second_size))
        assert rows == _old_trace_bytes(first, second)


# index digit edges (9 -> 10, 9 999 -> 10 000, 99 999 -> 100 000), and the
# edges of the BLOCK_SIZE-row blocks the writer formats one at a time
@pytest.mark.parametrize(
    "n",
    sorted(
        {1, 9, 10, 11, 4_095, 4_096, 4_097, 10_000, 10_001, 100_001}
        | {BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 1}
    ),
)
def test_trace_rows_match_the_per_row_formatter_at_digit_and_block_edges(n):
    rng = np.random.default_rng(n)
    for first_size, second_size, dtype in [(3, 5, np.uint8), (11, 13, np.uint8), (300, 300, np.uint16)]:
        first = rng.integers(0, first_size, n).astype(dtype)
        second = rng.integers(0, second_size, n).astype(dtype)
        first[-1], second[-1] = first_size - 1, second_size - 1
        chunks = list(_trace_rows(first, second, first_size, second_size))
        assert len(chunks) == -(-n // BLOCK_SIZE)
        assert b"".join(chunks) == _old_trace_bytes(first, second), (n, first_size)


@pytest.mark.parametrize("size, dtype", [(17, np.uint8), (300, np.uint16)])
def test_compact_relay_traces_agree_with_their_int64_casts(size, dtype):
    # the pair (size - 1, size - 1) has key size**2 - 1, past the traces' dtype
    rng = np.random.default_rng(size)
    pmf = np.full(size, 1.0 / size)
    u, v = sample_trace(pmf, 5_000, rng), sample_trace(pmf, 5_000, rng)
    u[-1] = v[-1] = size - 1
    assert u.dtype == v.dtype == dtype
    wide_u, wide_v = u.astype(np.int64), v.astype(np.int64)
    rows = b"".join(_trace_rows(u, v, size, size))
    assert rows == _old_trace_bytes(wide_u, wide_v) == b"".join(_trace_rows(wide_u, wide_v, size, size))
    assert rows.endswith(f"\n4999,{size - 1},{size - 1}\n".encode())
    counts = joint_counts((v, u), (size, size), ("v", "u"))
    np.testing.assert_array_equal(counts, joint_counts((wide_v, wide_u), (size, size), ("v", "u")))
    assert counts[size - 1, size - 1] >= 1 and counts.sum() == u.size
    phi = np.full((size, size), 1.0 / size)
    for parity in ("even", "odd"):
        spec = AttackSpec(phi, parity)
        np.testing.assert_array_equal(
            apply_attack(spec, u, np.random.default_rng(1)),
            apply_attack(spec, wide_u, np.random.default_rng(1)),
        )


def test_row_skeletons_are_read_only_rows_of_one_index_width():
    for width, first_width, second_width in ((1, 1, 1), (4, 1, 2), (5, 1, 1), (6, 2, 3)):
        skeleton = cli._row_skeleton(width, first_width, second_width)
        assert cli._row_skeleton(width, first_width, second_width) is skeleton
        low = range(10 ** (width - 1) if 1 < width <= 4 else 0, 10 ** min(width, 4))
        slots = "\0" * first_width, "\0" * second_width
        expected = "".join(f"{i:0{width}d},{slots[0]},{slots[1]}\n" for i in low)
        if width > 4:  # the leading digits are left zero
            expected = re.sub(f"^0{{{width - 4}}}", "\0" * (width - 4), expected, flags=re.M)
        assert skeleton.dtype == np.uint8 and skeleton.shape == (len(low), width + first_width + second_width + 3)
        assert skeleton.tobytes() == expected.encode()
        with pytest.raises(ValueError, match="read-only"):
            skeleton[0, 0] = 1
        with pytest.raises(ValueError):
            skeleton.setflags(write=True)


# 10 symbols is the widest alphabet whose rows need no compaction and the
# byte reader still parses; 11 the narrowest that compacts and is read line
# by line. Each pair is checked at the index digit edges (9 -> 10,
# 9 999 -> 10 000, 99 999 -> 100 000) and at the trace block edges
@pytest.mark.parametrize(
    "n",
    sorted(
        {9, 10, 11, 9_999, 10_000, 10_001, 99_999, 100_000, 100_001}
        | {BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 1}
    ),
)
def test_the_one_digit_boundary_matches_the_per_row_formatter_and_reader(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(n)
    path = tmp_path / "trace.csv"
    for first_size, second_size in ((10, 10), (10, 11), (11, 10), (11, 11)):
        first = rng.integers(0, first_size, n).astype(np.uint8)
        second = rng.integers(0, second_size, n).astype(np.uint8)
        first[-1], second[-1] = first_size - 1, second_size - 1
        chunks = list(_trace_rows(first, second, first_size, second_size))
        assert len(chunks) == len(trace_blocks(n))
        assert b"".join(chunks) == _old_trace_bytes(first, second), (first_size, second_size)
        if first_size != second_size:
            continue  # read back once per width below
        cli._write_csv(path, [("x1_size", first_size)], "n,x1,y1", chunks)
        plain = first_size == 10
        with monkeypatch.context() as patch:
            if plain:
                _refuse_the_line_by_line_reader(patch)
            meta, header, read = read_trace(path)
        old_meta, old_header, old_read = _old_read_trace(path)
        assert meta == old_meta and header == old_header == ("n", "x1", "y1")
        for column, trace, old_column in zip(read, (first, second), old_read):
            assert column.dtype == np.int64
            np.testing.assert_array_equal(column, trace)
            np.testing.assert_array_equal(column, old_column)
        assert (cli._plain_trace(path.read_bytes()) is not None) == plain
        if plain and n < 20_000:
            # the bytes either side of the digits, in the last row's symbol 9
            text = path.read_text()
            for byte in "/:":
                assert _compare_readers(path, text[:-2] + byte + "\n") == "rejected", byte


# sha256 of fig3b trial 0's emitted traces, as the per-row formatter wrote them
FIG3B_TRACE_DIGESTS = {
    "trace_0000_source.csv": "d1107af1b6532718f3e5ee8218d56bb8d86aa25168064d47aa13f1a2af92d6c6",
    "trace_0000_relay.csv": "0d9419c10ad24d9b39d7efa9dc765191ee302a76c56b1f80f600c66705222ab8",
}


def test_emitted_fig3b_traces_are_pinned_and_detect_repeats_the_statistic(tmp_path, capsys):
    out, traces = tmp_path / "out.csv", tmp_path / "traces"
    argv = ["simulate", "--preset", "fig3b", "--trials", "1", "-o", str(out)]
    assert main(argv + ["--emit-trace", str(traces)]) == 0
    digests = {
        name: hashlib.sha256((traces / name).read_bytes()).hexdigest()
        for name in FIG3B_TRACE_DIGESTS
    }
    assert digests == FIG3B_TRACE_DIGESTS

    _, rest = read_csv_lines(out)
    statistic = float(rest[1].split(",")[1])
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scenario_document(preset_curves("fig3b")["phi2"])))
    capsys.readouterr()
    code = main(["detect", str(scenario), str(traces / "trace_0000_source.csv")])
    assert code in (0, 2)
    assert json.loads(capsys.readouterr().out)["statistic"] == statistic


def test_detect_counts_read_int64_columns_as_the_sampled_uint8_traces(tmp_path, capsys):
    # read_trace hands joint_counts int64 columns, which the compact
    # pair keys take by an unsafe cast inside their alphabets
    out, traces = tmp_path / "out.csv", tmp_path / "traces"
    argv = ["simulate", "--preset", "fig3b", "--trials", "1", "-o", str(out)]
    assert main(argv + ["--emit-trace", str(traces)]) == 0
    curve = preset_curves("fig3b")["phi2"]
    sampled = trial_traces(curve, 0)
    sizes = {"x1": 2, "y1": 3, "u": 3, "v": 3}
    for kind, (given, observed) in (("source", sampled[:2]), ("relay", sampled[2:])):
        _, header, (first, second) = read_trace(traces / f"trace_0000_{kind}.csv")
        assert first.dtype == second.dtype == np.int64 and given.dtype == np.uint8
        given_size, observed_size = sizes[header[1]], sizes[header[2]]
        shape, names = (observed_size, given_size), header[:0:-1]
        counts = joint_counts((second, first), shape, names)
        np.testing.assert_array_equal(counts, joint_counts((observed, given), shape, names))
        wide = np.bincount(second * given_size + first, minlength=given_size * observed_size)
        np.testing.assert_array_equal(counts, wide.reshape(observed_size, given_size))

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scenario_document(curve)))
    capsys.readouterr()
    code = main(["detect", str(scenario), str(traces / "trace_0000_source.csv")])
    printed = json.loads(capsys.readouterr().out)
    report = run_detection(curve.detector_config, *sampled[:2])
    assert code == (2 if report.verdict == "malicious" else 0)
    assert printed["statistic"] == report.statistic
    assert printed["gamma_hat"] == report.gamma_hat.tolist()


def test_emitted_traces_read_back_as_the_trial_traces(tmp_path):
    out, traces = tmp_path / "out.csv", tmp_path / "traces"
    argv = ["simulate", "--preset", "fig5b", "--trials", "2", "-o", str(out)]
    assert main(argv + ["--emit-trace", str(traces)]) == 0
    scenario = dataclasses.replace(preset("fig5b"), trials=2)
    for trial in range(2):
        x1, y1, u, v = trial_traces(scenario, trial)
        meta, header, (first, second) = read_trace(traces / f"trace_{trial:04d}_source.csv")
        assert header == ("n", "x1", "y1") and meta["trial"] == str(trial)
        np.testing.assert_array_equal(first, x1)
        np.testing.assert_array_equal(second, y1)
        _, header, (first, second) = read_trace(traces / f"trace_{trial:04d}_relay.csv")
        assert header == ("n", "u", "v")
        np.testing.assert_array_equal(first, u)
        np.testing.assert_array_equal(second, v)


def test_writing_a_long_trace_pair_stays_under_one_mib(tmp_path):
    # the rows are written one block at a time, each run of a block a copy
    # of its cached row skeleton filled in; the per-row formatter's list of
    # row strings put this peak at about 9 MiB
    scenario = preset("fig5a")
    assert scenario.n == 100_000
    traces = trial_traces(scenario, 0)
    cli._write_trial_traces(tmp_path, scenario, "0" * 64, 0, 0, traces)  # builds the row skeletons
    tracemalloc.start()
    try:
        cli._write_trial_traces(tmp_path, scenario, "0" * 64, 1, 0, traces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    _, _, (u, v) = read_trace(tmp_path / "trace_0001_relay.csv")
    np.testing.assert_array_equal(u, traces[2])
    np.testing.assert_array_equal(v, traces[3])


def test_reading_a_long_trace_stays_under_five_mib(tmp_path):
    # the file's bytes, the two int64 columns and one chunk's temporaries;
    # loadtxt's pass over the whole body put this peak at about 10.4 MiB
    scenario = preset("fig5a")
    traces = trial_traces(scenario, 0)
    cli._write_trial_traces(tmp_path, scenario, "0" * 64, 0, 0, traces)
    tracemalloc.start()
    try:
        _, _, (x1, y1) = read_trace(tmp_path / "trace_0000_source.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20, peak
    np.testing.assert_array_equal(x1, traces[0])
    np.testing.assert_array_equal(y1, traces[1])


# ---------- reproduce ----------


def test_reproduce_square_channel_pair(tmp_path):
    out_dir = tmp_path / "figs"
    code = main(["reproduce", "fig5b", "-o", str(out_dir), "--trials", "3"])
    assert code == 0
    clean = out_dir / "fig5b_clean.csv"
    attacked = out_dir / "fig5b_phi2.csv"
    summary = out_dir / "fig5b_error_rates.csv"
    assert clean.exists() and attacked.exists() and summary.exists()
    meta, rest = read_csv_lines(clean)
    assert rest[0] == "value,cum_fraction"
    assert len(rest) == 1 + 3
    assert rest[-1].split(",")[1] == "1.0"  # cdf reaches one
    assert any(line == "# curve = clean" for line in meta)
    _, summary_rest = read_csv_lines(summary)
    assert summary_rest[0] == "curve,delta,false_alarm,miss"
    assert len(summary_rest) == 2
    assert summary_rest[1].startswith("phi2,0.07,")


def test_reproduce_four_curve_csvs(tmp_path):
    out_dir = tmp_path / "figs"
    assert main(["reproduce", "fig3a", "-o", str(out_dir), "--trials", "2"]) == 0
    for label in ("phi1", "phi2", "phi3", "phi4"):
        assert (out_dir / f"fig3a_{label}.csv").exists()
    _, summary_rest = read_csv_lines(out_dir / "fig3a_error_rates.csv")
    assert len(summary_rest) == 4  # header + one row per malicious curve


def test_reproduce_unknown_figure(tmp_path, capsys):
    assert main(["reproduce", "fig9z", "-o", str(tmp_path)]) == 1
    assert "fig9z" in capsys.readouterr().err


def test_reproduce_is_deterministic(tmp_path):
    dir1, dir2 = tmp_path / "a", tmp_path / "b"
    assert main(["reproduce", "fig5b", "-o", str(dir1), "--trials", "2"]) == 0
    assert main(["reproduce", "fig5b", "-o", str(dir2), "--trials", "2"]) == 0
    for name in ("fig5b_clean.csv", "fig5b_phi2.csv", "fig5b_error_rates.csv"):
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()


# ---------- usage ----------


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
