"""Tests for the command-line surface: file formats, exit codes, reports.

Exit-code contract: 0 = clean/non-manipulable, 2 = malicious/manipulable,
1 = any error (including usage errors, so scripting can rely on 2
meaning exactly one thing).
"""

import json

import numpy as np
import pytest

from relay_sentinel.cli import main, scenario_document, scenario_from_document
from relay_sentinel.harness import preset

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


def test_scenario_rejects_unknown_attack_type(tmp_path, capsys):
    doc = binary_adder_doc()
    doc["attack"] = {"type": "zap"}
    code = main(["simulate", write_doc(tmp_path, doc), "-o", str(tmp_path / "o.csv")])
    assert code == 1
    assert "attack.type" in capsys.readouterr().err


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


def test_simulate_requires_exactly_one_source(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    assert main(["simulate", "-o", out]) == 1
    assert main(
        ["simulate", write_doc(tmp_path, binary_adder_doc()), "--preset", "fig3a", "-o", out]
    ) == 1


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
