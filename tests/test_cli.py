import json

import pytest

from relaybuf import cli
from relaybuf.cli import main


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def test_solve_reference_config(tmp_path):
    code = run(tmp_path, "solve", "--rs", "1", "--rr", "2", "--nr", "14",
               "--ps", "0.5", "--pr", "0.5")
    assert code == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["threshold"]["rvia"] == 11
    assert report["threshold"]["relay_activation_state"] == 12
    assert report["threshold"]["optimal_set"] == [11]
    assert report["agreement"]["ok"] is True
    assert abs(report["theta"]["rvia"] - report["theta"]["sweep"]) <= 1e-7
    # value function export carries theta up front, then one row per state
    vf_lines = (tmp_path / "value_function.csv").read_text().strip().splitlines()
    assert vf_lines[0].startswith("theta,")
    assert vf_lines[1] == "q,v"
    assert len(vf_lines) == 2 + 15
    trace_lines = (tmp_path / "sweep_trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) == 1 + 15
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    listed = {p.rsplit("/", 1)[-1] for p in manifest["outputs"]}
    assert listed == {"solve_report.json", "value_function.csv",
                      "sweep_trace.csv", "manifest.json"}


def test_solve_symmetric_reports_closed_form(tmp_path):
    code = run(tmp_path, "solve", "--rs", "1", "--rr", "1", "--nr", "14",
               "--ps", "0.5", "--pr", "0.5")
    assert code == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["symmetric"]["applicable"] is True
    assert report["symmetric"]["optimal_threshold_set"] == [6, 7]
    assert report["symmetric"]["matches_sweep"] is True
    assert report["threshold"]["optimal_set"] == [6, 7]
    assert report["threshold"]["rvia"] == 7


@pytest.mark.parametrize("cfg", [
    ("2", "2", "300", ".5", ".5"),    # closed-form set inside a flat plateau
    ("3", "3", "150", ".7", ".7"),
    ("4", "2", "400", ".3", ".7"),    # RVIA's threshold is outside the 1e-11 tie set
])
def test_solve_accepts_thresholds_on_a_roundoff_plateau(tmp_path, cfg):
    rs, rr, nr, ps, pr = cfg
    code = run(tmp_path, "solve", "--rs", rs, "--rr", rr, "--nr", nr, "--ps", ps, "--pr", pr)
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert code == 0, report["agreement"]
    assert report["agreement"]["ok"] is True
    assert report["symmetric"].get("matches_sweep", True) is True


def test_solve_flags_a_threshold_off_the_plateau(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "extract_threshold", lambda vf, cfg: 0)
    code = run(tmp_path, "solve", "--rs", "1", "--rr", "2", "--nr", "14",
               "--ps", "0.5", "--pr", "0.5")
    assert code == 3
    assert json.loads((tmp_path / "solve_report.json").read_text())["agreement"]["ok"] is False


def test_solve_symmetric_where_closed_form_powers_underflow(tmp_path):
    # p_bar**(n+1) underflows here; the closed form once raised ZeroDivisionError
    code = run(tmp_path, "solve", "--rs", "1", "--rr", "1", "--nr", "400",
               "--ps", "0.9", "--pr", "0.9")
    assert code == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["symmetric"]["matches_sweep"] is True


def test_solve_rejects_bad_config(tmp_path):
    assert run(tmp_path, "solve", "--rs", "2", "--rr", "2", "--nr", "2",
               "--ps", "0.5", "--pr", "0.5") == 2
    assert run(tmp_path, "solve", "--rs", "1", "--rr", "1", "--nr", "4",
               "--ps", "1.5", "--pr", "0.5") == 2


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "system.cfg"
    cfg_file.write_text("rs=1\nrr=2\nnr=6\nps=0.5\npr=0.5\n")
    code = run(tmp_path, "solve", "--config", str(cfg_file), "--nr", "14")
    assert code == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["config"]["nr"] == 14  # flag wins over the file


def test_simulate_deterministic_and_threshold_policy(tmp_path):
    args = ("simulate", "--rs", "1", "--rr", "2", "--nr", "8", "--ps", "0.5",
            "--pr", "0.5", "--policy", "threshold:3", "--horizon", "20000",
            "--seed", "7")
    assert run(tmp_path, *args) == 0
    first = (tmp_path / "sim_result.csv").read_bytes()
    summary = json.loads((tmp_path / "sim_summary.json").read_text())
    assert summary["policy"] == "threshold:3"
    assert run(tmp_path, *args) == 0
    assert (tmp_path / "sim_result.csv").read_bytes() == first
    occ = (tmp_path / "occupancy.csv").read_text().strip().splitlines()
    assert len(occ) == 1 + 9


def test_simulate_baseline_and_optimal(tmp_path):
    assert run(tmp_path, "simulate", "--rs", "3", "--rr", "2", "--nr", "7",
               "--ps", "0.5", "--pr", "0.5", "--policy", "dopn",
               "--horizon", "5000", "--seed", "1") == 0
    summary = json.loads((tmp_path / "sim_summary.json").read_text())
    assert summary["policy"] == "threshold:0"

    assert run(tmp_path, "simulate", "--rs", "1", "--rr", "1", "--nr", "2",
               "--ps", "0.5", "--pr", "0.5", "--policy", "optimal",
               "--horizon", "200000", "--seed", "5") == 0
    summary = json.loads((tmp_path / "sim_summary.json").read_text())
    assert summary["mean_throughput"] == pytest.approx(0.3, abs=5e-3)


def test_simulate_rejects_unknown_policy(tmp_path):
    assert run(tmp_path, "simulate", "--rs", "1", "--rr", "1", "--nr", "4",
               "--ps", "0.5", "--pr", "0.5", "--policy", "wat",
               "--horizon", "100") == 2


def test_simulate_rejects_sigma_outside_unit_interval(tmp_path):
    assert run(tmp_path, "simulate", "--rs", "1", "--rr", "1", "--nr", "4",
               "--ps", "0.5", "--pr", "0.5", "--policy", "csi:1.5",
               "--horizon", "100") == 2


def test_compare_rows(tmp_path):
    code = run(tmp_path, "compare", "--rs", "3", "--rr", "2", "--nr", "20",
               "--ps", "0.5", "--pr", "0.5", "--policies", "dopn,adop,csi:0.5",
               "--horizon", "20000", "--seed", "3")
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "policy,mean_throughput,std_error"
    assert len(lines) == 4
    assert lines[1].startswith("threshold:0,")


def test_sweep_trace(tmp_path):
    code = run(tmp_path, "sweep", "--rs", "2", "--rr", "2", "--nr", "8",
               "--ps", "0.4", "--pr", "0.6")
    assert code == 0
    lines = (tmp_path / "sweep_trace.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 5  # lattice {0,2,4,6,8}


def test_sweep_symmetric_fast_path(tmp_path):
    args = ("sweep", "--rs", "2", "--rr", "2", "--nr", "8", "--ps", "0.4", "--pr", "0.4")
    assert run(tmp_path, *args) == 0
    general = (tmp_path / "sweep_trace.csv").read_text().strip().splitlines()
    assert run(tmp_path, *args, "--symmetric") == 0
    closed = (tmp_path / "sweep_trace.csv").read_text().strip().splitlines()
    assert closed[0] == general[0] and len(closed) == len(general)
    for a, b in zip(general[1:], closed[1:]):
        qa, va = a.split(",")
        qb, vb = b.split(",")
        assert qa == qb
        assert abs(float(va) - float(vb)) < 1e-10
    # fast path refuses asymmetric systems
    assert run(tmp_path, "sweep", "--rs", "2", "--rr", "1", "--nr", "8",
               "--ps", "0.4", "--pr", "0.4", "--symmetric") == 2


def test_bench_small(tmp_path):
    code = run(tmp_path, "bench", "--rs", "2", "--rr", "1", "--ps", "0.5",
               "--pr", "0.5", "--nr-list", "8,12", "--repeats", "1")
    assert code == 0
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert lines[0].startswith("nr,c_size,t_pia,t_rvia,t_brute,t_alg3")
    assert len(lines) == 3
    for row in lines[1:]:
        fields = row.split(",")
        assert int(fields[6]) > 0 and int(fields[7]) > 0


def test_bench_rejects_bad_range(tmp_path):
    assert run(tmp_path, "bench", "--rs", "2", "--rr", "1", "--ps", "0.5",
               "--pr", "0.5", "--nr-list", "2,8") == 2


def test_csv_float_precision(tmp_path):
    run(tmp_path, "solve", "--rs", "1", "--rr", "2", "--nr", "14",
        "--ps", "0.5", "--pr", "0.5")
    theta_line = (tmp_path / "value_function.csv").read_text().splitlines()[0]
    value = theta_line.split(",")[1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 10
