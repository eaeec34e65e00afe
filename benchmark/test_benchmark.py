"""Tests of the benchmark itself: ``python3 -m pytest benchmark``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import checks  # noqa: E402
import workloads  # noqa: E402
from relay_sentinel import MacModel, manipulability, marginalize_mac  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_its_checks_and_reports_every_metric(name, trace):
    result, detail = run.run_workload(name, seed=3, seconds=0.0, trace=trace, import_s=0.01, tiny=True)
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        key: entry["unit"] for key, entry in result["metrics"].items()
    }


def test_fig3a_trial_costs_four_projectors_and_one_lp():
    result, detail = run.run_workload("short_block", seed=5, seconds=0.0, trace=1, import_s=0.01, tiny=True)
    counts = detail["per_trial_counts"]
    for curve in ("fig3a/phi1", "fig3a/phi2", "fig3a/phi3", "fig3a/phi4"):
        assert counts[curve] == {
            "feasible": {"trials": 1, "projector_calls": [4], "solve_lp_calls": [1]}
        }


def test_flipped_certify_verdict_counts_as_failed(monkeypatch):
    sweep = workloads.CertifySweep(seed=0)
    label, a, b, expect = sweep.references[2]
    honest = manipulability.certify

    def flipped(a, b):
        verdict = honest(a, b)
        return dataclasses.replace(verdict, manipulable=not verdict.manipulable)

    rec = workloads.Recorder(Tracer())
    sweep.certify(rec, label, a, b, expect)
    assert rec.failures == []
    monkeypatch.setattr(manipulability, "certify", flipped)
    sweep.certify(rec, label, a, b, expect)
    assert rec.attempted == 2 and len(rec.failures) >= 1


# Random 3x3 adder channels on which certify raises ConsistencyFailure.
# certify_sweep draws rational channels because of them; each case turns
# into an XPASS, which fails as strict, once certify answers it.
_CERTIFY_FAILURES = {
    # Dirichlet(1) second source (p2[0] = 0.018) and B: the witness LPs find
    # a deviation that the Algorithm 1 LP (value ~1e-12) does not
    "rare-second-source": (
        [0.017592881858045042, 0.7761553690024643, 0.20625174913949082],
        [
            [0.01244058458114982, 0.3218042072559544, 0.18856891648445556, 0.3478113902844681, 0.017083099993625436],
            [0.057698465025503104, 0.04598628283852273, 0.010651732726492698, 0.21700244559277784, 0.1278627132481286],
            [0.2187406463971531, 0.2128501856677125, 0.14200393663200797, 0.08717452130755353, 0.3512910085641379],
            [0.41711496926729325, 0.08907519796380786, 0.5031272263050476, 0.15507020941009014, 0.2361223055923616],
            [0.2940053347289007, 0.3302841262740025, 0.15564818785199624, 0.19294143340511033, 0.2676408726017464],
        ],
    ),
    # uniform second source: the Algorithm 1 LP reports 0.0888 (manipulable)
    # where the witness LPs and the null-space search find no deviation
    "uniform-second-source": (
        [1 / 3, 1 / 3, 1 / 3],
        [
            [0.21924028491630554, 0.14445328223034146, 0.05711872868900613, 0.4207029967658535, 0.04894198667161547],
            [0.31835701355597074, 0.041156379985545326, 0.008814732260614262, 0.22078788743168673, 0.3078547664036734],
            [0.08326905069958766, 0.565552425128963, 0.00779639627252059, 0.04994208933504919, 0.46273385137204703],
            [0.20515909696283952, 0.23058117727367802, 0.9157181572537983, 0.20492030707361997, 0.00218702633500728],
            [0.17397455386529648, 0.018256735381472364, 0.010551985524060808, 0.10364671939379075, 0.17828236921765694],
        ],
    ),
}


@pytest.mark.xfail(raises=manipulability.ConsistencyFailure, strict=True)
@pytest.mark.parametrize("case", sorted(_CERTIFY_FAILURES))
def test_certify_answers_random_continuous_channels(case):
    p2, b = _CERTIFY_FAILURES[case]
    manipulability.certify(marginalize_mac(MacModel.adder(3, 3), p2), b)


@pytest.mark.parametrize(
    "statistic, verdict, exit_code",
    [(0.7 + 1e-9, "malicious", 2), (0.7, "clean", 2), (0.7, "malicious", 0)],
)
def test_wrong_detect_output_is_caught(statistic, verdict, exit_code):
    report = {"statistic": statistic, "verdict": verdict}
    assert checks.cli_detect("t", exit_code, report, 0.7, delta=0.065)


def test_changed_fraction_far_from_expectation_is_caught():
    assert checks.pooled_changed_fraction("t", changed=100, symbols=10_000, expected=0.01) == []
    assert checks.pooled_changed_fraction("t", changed=200, symbols=10_000, expected=0.01)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "benchmark/run.py", "--workload", "short_block"]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
