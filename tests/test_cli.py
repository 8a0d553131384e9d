import json
import math

import numpy as np
import pytest

from bellgeo.cli import main
from bellgeo.realization import TwoQubitRealization

P_JSON = TwoQubitRealization(
    thetaA=[0.0, math.pi / 2], thetaB=[1e-9, -math.pi / 4], chi=math.pi / 12
).to_json()

TSIRELSON_JSON = json.dumps(
    {
        "cA": [0.0, 0.0],
        "cB": [0.0, 0.0],
        "c": [
            [1 / math.sqrt(2), 1 / math.sqrt(2)],
            [1 / math.sqrt(2), -1 / math.sqrt(2)],
        ],
    }
)


def test_simulate_realization(capsys):
    assert main(["simulate", "-i", P_JSON]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cbehavior"]["cA"][0] == pytest.approx(0.8660254, abs=1e-6)
    assert report["dbehavior"]["deltaB"] == pytest.approx([1.0, 0.25], abs=1e-6)


def test_simulate_malformed_json(capsys):
    assert main(["simulate", "-i", "{not json"]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_out_of_range_parameter(capsys):
    bad = json.dumps({"thetaA": [0, 1], "thetaB": [0, 1], "chi": 2.0})
    assert main(["simulate", "-i", bad]) == 1


def test_check_tsirelson_passes(capsys):
    assert main(["check", "-i", TSIRELSON_JSON]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["conjecture1Candidate"] is True
    assert report["sin2chiSquared"] == pytest.approx(1.0, abs=1e-9)
    assert report["uniquenessTrivial"] is False


def test_check_off_branch_behavior_fails(capsys):
    # nonlocal, but no consistent S^+ branch: a FAIL verdict with no common value
    r = TwoQubitRealization(
        thetaA=[4.1491352244035369, 1.5428503976869685],
        thetaB=[4.8287347157826961, 1.3299916326525307],
        chi=0.65288172842398529,
    )
    assert main(["check", "-i", r.to_json()]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["conditionSPlus"] is False
    assert report["conjecture1Candidate"] is False
    assert report["sin2chiSquared"] is None


def test_check_local_behavior_is_error():
    uniform = json.dumps({"cA": [0, 0], "cB": [0, 0], "c": [[0, 0], [0, 0]]})
    assert main(["check", "-i", uniform]) == 1


def test_check_dbehavior_membership(capsys):
    inside = json.dumps({"deltaB": [1, 1], "deltaA": [1, 1], "c": [[0, 0], [0, 0]]})
    assert main(["check", "-i", inside]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is True
    outside = json.dumps(
        {"deltaB": [0.25, 0.25], "deltaA": [0.25, 0.25], "c": [[0.9, 0.9], [0.9, 0.9]]}
    )
    assert main(["check", "-i", outside]) == 2


def test_geometry_file_round_trip(tmp_path, capsys):
    src = tmp_path / "realization.json"
    src.write_text(P_JSON)
    dst = tmp_path / "geometry.json"
    assert main(["geometry", "-i", str(src), "-o", str(dst), "--tol", "1e-7"]) == 0
    report = json.loads(dst.read_text())
    assert report["chi"] == pytest.approx(math.pi / 12, abs=1e-7)
    assert report["chiDegrees"] == pytest.approx(15.0, abs=1e-5)
    assert report["thetaA"] == pytest.approx([0.0, math.pi / 2], abs=1e-6)


def test_geometry_failure_exit_code(capsys):
    generic = json.dumps(
        {"cA": [0.3, -0.2], "cB": [0.1, 0.4], "c": [[0.5, 0.1], [-0.3, 0.2]]}
    )
    assert main(["geometry", "-i", generic]) == 2
    assert "error" in json.loads(capsys.readouterr().out)


def test_qbell_reference_point(capsys):
    # a slightly rotated first setting keeps the uniqueness system
    # nondegenerate (at theta^B_0 = 0 one hyperplane coefficient vanishes)
    r = TwoQubitRealization(
        thetaA=[0.0, math.pi / 2], thetaB=[0.05, -math.pi / 4], chi=math.pi / 12
    )
    assert main(["qbell", "-i", r.to_json(), "--tol", "1e-7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trivialOnly"] is True
    assert report["valueB"] == pytest.approx(report["inequalityB"]["bound"], abs=1e-7)
    assert report["valueA"] == pytest.approx(report["inequalityA"]["bound"], abs=1e-7)


def test_qbell_malformed_geometry(capsys):
    short = json.dumps(
        {"thetaA": [0.1, 1.0], "thetaB": [0.3], "phiB": [0.1, 0.2], "phiA": [0.2, 0.3],
         "chi": 0.3, "psiPrimeNorm": 0.5}
    )
    assert main(["qbell", "-i", short]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "thetaB" in err[0]


def test_selftest_pass_and_fail(capsys):
    base = json.loads(P_JSON)
    good = json.dumps({"base": base, "B2": [[1, 0], [0, 0], [0, 0], [-1, 0]], "protocol": "addedZ"})
    assert main(["selftest", "-i", good]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selfTested"] is True
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-6)
    bad = json.dumps({"base": base, "B2": [[0, 0], [1, 0], [1, 0], [0, 0]], "protocol": "addedZ"})
    assert main(["selftest", "-i", bad]) == 2


def test_selftest_paired_protocol(capsys):
    base = json.loads(
        TwoQubitRealization(thetaA=[0.3, 1.9], thetaB=[0.7, -0.9], chi=0.3).to_json()
    )
    req = json.dumps({"base": base, "thetaB2": -0.258, "protocol": "paired"})
    assert main(["selftest", "-i", req]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selfTested"] is True
    assert abs(abs(report["thetaB2"]) - 0.258) < 1e-6


def test_selftest_schema_errors():
    assert main(["selftest", "-i", json.dumps({"B2": [[1, 0]]})]) == 1
    base = json.loads(P_JSON)
    assert main(["selftest", "-i", json.dumps({"base": base})]) == 1
    assert main(
        ["selftest", "-i", json.dumps({"base": base, "thetaB2": 0.0, "protocol": "nope"})]
    ) == 1


def test_counterexample_verdict_and_tolerance(capsys):
    assert main(["counterexample", "--epsilon", "0.01"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["LIsLocal"] is True
    assert report["LInCryptSet"] is False
    assert abs(report["lambda"] - report["lambdaLimit"]) < 2e-2
    assert report["chshL"] == pytest.approx(2.0, abs=1e-9)


def test_counterexample_tighter_epsilon(capsys):
    assert main(["counterexample", "--epsilon", "0.001"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["lambda"] - report["lambdaLimit"]) < 2e-3


def test_counterexample_epsilon_range():
    assert main(["counterexample", "--epsilon", "0.5"]) == 1
    assert main(["counterexample", "--epsilon", "0"]) == 1


def test_counterexample_csv_sections(tmp_path):
    out = tmp_path / "sections.csv"
    assert main(
        ["counterexample", "--epsilon", "0.01", "--format", "csv", "--samples", "11", "-o", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "section,label,c11,deltaMin,deltaMax"
    labels = {line.split(",")[1] for line in lines[1:]}
    assert {"boundary", "P", "Q", "L"} <= labels


def test_sweep_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["sweep", "--seed", "42", "--samples", "50", "-o", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("index,thetaA0")


def test_sweep_chi_grid(capsys):
    assert main(["sweep", "--mode", "chi-grid", "--samples", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(math.pi / 4, abs=1e-9)
    assert float(last[2]) == pytest.approx(1.0, abs=1e-9)


def test_samples_must_be_positive(capsys):
    assert main(["sweep", "--samples", "-3"]) == 1
    assert main(["sweep", "--mode", "chi-grid", "--samples", "0"]) == 1
    assert main(["counterexample", "--format", "csv", "--samples", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 3


def test_tol_env_variable(monkeypatch, capsys):
    monkeypatch.setenv("NONLOC_TOL", "1e-7")
    assert main(["geometry", "-i", P_JSON]) == 0
    capsys.readouterr()
    monkeypatch.setenv("NONLOC_TOL", "1e-13")
    # overly tight tolerance makes the reconstruction reject the same input
    assert main(["geometry", "-i", P_JSON]) == 2
