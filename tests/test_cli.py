import csv
import dataclasses
import logging
import subprocess
import sys

import pytest

from lacg import cli, driver
from lacg.dssr import DssrResult
from lacg.routes import make_route
from lacg.cli import main, DATASET1, DATASET2
from lacg.instances import InstanceError, read_instance, generate_instance, write_instance


def test_dataset_row_counts():
    # per-row instance counts of the two published benchmark tables
    assert [c for _, _, c in DATASET1] == [10, 10, 10, 10, 10, 7, 1, 10, 7]
    assert sum(c for _, _, c in DATASET1) == 75
    assert sum(c for _, _, c in DATASET2) == 75


def test_gen_dataset1(tmp_path):
    out = tmp_path / "d1"
    assert main(["gen", "--dataset", "1", "--out", str(out)]) == 0
    files = sorted(out.glob("*.txt"))
    assert len(files) == 75
    inst = read_instance(files[0])
    assert all(inst.demand[u] == 1 for u in inst.customers)


def test_gen_regeneration_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "--dataset", "2", "--out", str(a)])
    main(["gen", "--dataset", "2", "--out", str(b)])
    fa = sorted(a.glob("*.txt"))
    fb = sorted(b.glob("*.txt"))
    assert len(fa) == 75
    for x, y in zip(fa, fb):
        assert x.read_bytes() == y.read_bytes()


def test_solve_speedup_roundtrip(tmp_path):
    inst = generate_instance(4, 7, 4, "unit")
    ipath = tmp_path / "tiny.txt"
    write_instance(inst, ipath)
    out = tmp_path / "results"
    for k in ("0", "5"):
        rc = main([
            "solve", "--instance", str(ipath), "--la-neighbors", k,
            "--out", str(out),
        ])
        assert rc == 0
    traces = sorted(out.glob("trace_*.csv"))
    summaries = sorted(out.glob("summary_*.csv"))
    assert len(traces) == 2 and len(summaries) == 2
    with open(summaries[0]) as f:
        row = next(csv.DictReader(f))
    assert row["status"] == "optimal"
    assert row["repeated_columns"] == "0"
    assert float(row["pricing_secs"]) <= float(row["total_secs"])

    assert main(["speedup", "--dir", str(out), "--min-baseline-secs", "0"]) == 0
    with open(out / "speedup.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows, "aggregate table must not be empty"
    # proportions are non-increasing in the factor threshold
    for metric in ("total", "pricing"):
        props = [float(r["proportion"]) for r in rows
                 if r["metric"] == metric and r["arm"] == "la5"]
        assert all(b <= a for a, b in zip(props, props[1:]))
    with open(out / "speedup_instances.csv") as f:
        per = list(csv.DictReader(f))
    assert per[0]["instance"] == inst.name


def test_solve_trace_byte_identical(tmp_path):
    inst = generate_instance(5, 7, 4, "unit")
    ipath = tmp_path / "tiny.txt"
    write_instance(inst, ipath)
    o1, o2 = tmp_path / "r1", tmp_path / "r2"
    for out in (o1, o2):
        main(["solve", "--instance", str(ipath), "--la-neighbors", "5", "--out", str(out)])
    t1 = next(o1.glob("trace_*.csv"))
    t2 = next(o2.glob("trace_*.csv"))
    assert t1.read_bytes() == t2.read_bytes()


def test_solve_missing_instance_exit_2(tmp_path):
    assert main(["solve", "--instance", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path)]) == 2


def test_solve_fleet_too_small_exit_2(tmp_path, capsys):
    # six customers with demands up to 10 need more than one vehicle of
    # capacity 10, so the first restricted master is infeasible
    inst = dataclasses.replace(generate_instance(3, 6, 10, "uniform_1_10"), fleet=1)
    ipath = tmp_path / "tiny.txt"
    write_instance(inst, ipath)
    with pytest.raises(InstanceError, match="FLEET 1"):
        driver.solve(inst, driver.CgConfig(la_k=0))
    assert main(["solve", "--instance", str(ipath), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "FLEET 1" in err[0]


def test_solve_short_fleet_packs_first_fit_decreasing(tmp_path, capsys):
    # demands 6, 6, 4, 4 under capacity 10: packed in id order they need
    # three routes, but {1, 3} and {2, 4} serve them with the two vehicles
    ipath = tmp_path / "pack2.txt"
    ipath.write_text("NAME pack2\nN 4\nCAPACITY 10\nFLEET 2\nDEPOT 0 0\n"
                     "CUST 1 10 0 6\nCUST 2 0 10 6\nCUST 3 -10 0 4\nCUST 4 0 -10 4\n")
    out = tmp_path / "r"
    assert main(["solve", "--instance", str(ipath), "--out", str(out)]) == 0
    assert "certificate holds: min_cover=" in capsys.readouterr().out
    with open(next(out.glob("summary_*.csv"))) as f:
        row = next(csv.DictReader(f))
    assert row["status"] == "optimal"
    assert float(row["min_cover"]) >= 1 - 1e-6
    assert float(row["theta_sum"]) <= 2 + 1e-6


def test_speedup_missing_arm_exit_2(tmp_path):
    (tmp_path / "summary_x_la0.csv").write_text(
        "instance,arm,status,objective,iterations,total_secs,pricing_secs,rmp_secs,setup_secs\n"
        "x,la0,optimal,1.0,1,1.0,0.5,0.2,0.1\n"
    )
    assert main(["speedup", "--dir", str(tmp_path)]) == 2


def test_oracle_suite():
    assert main(["oracle-suite", "--max-n", "5", "--trials", "2"]) == 0


def test_cli_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lacg.cli", "oracle-suite", "--max-n", "4", "--trials", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_speedup_refuses_non_optimal_run(tmp_path, capsys):
    header = "instance,arm,status,objective,iterations,total_secs,pricing_secs,rmp_secs,setup_secs\n"
    (tmp_path / "summary_x_la0.csv").write_text(header + "x,la0,optimal,1.0,9,4.0,3.0,0.5,0.1\n")
    (tmp_path / "summary_x_la5.csv").write_text(header + "x,la5,time_limit,1.2,3,1.0,0.5,0.2,0.1\n")
    assert main(["speedup", "--dir", str(tmp_path), "--min-baseline-secs", "0"]) == 2
    err = capsys.readouterr().err
    assert "la5 run for x has status time_limit" in err
    assert not (tmp_path / "speedup.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("total_secs", None), ("pricing_secs", "abc"), ("total_secs", "nan"), ("total_secs", "0"),
    ("pricing_secs", "-1.0"), ("pricing_secs", "inf"),
])
def test_speedup_malformed_summary_exit_2(tmp_path, capsys, field, value):
    # a summary without a time column, or with a time that is not a
    # positive finite number: a speed-up factor over it means nothing
    header = ["instance", "arm", "status", "total_secs", "pricing_secs"]
    row = ["x", "la0", "optimal", "4.0", "3.0"]
    at = header.index(field)
    if value is None:
        del header[at], row[at]
    else:
        row[at] = value
    path = tmp_path / "summary_x_la0.csv"
    path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
    assert main(["speedup", "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


@pytest.mark.parametrize("limit", ["nan", "-5"])
def test_solve_rejects_invalid_time_limit(tmp_path, capsys, limit):
    ipath = tmp_path / "tiny.txt"
    write_instance(generate_instance(4, 7, 4, "unit"), ipath)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", str(ipath), "--time-limit", limit,
              "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "--time-limit" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_solve_exit_code_time_limit(tmp_path, capsys):
    inst = generate_instance(4, 7, 4, "unit")
    ipath = tmp_path / "tiny.txt"
    write_instance(inst, ipath)
    out = tmp_path / "r"
    rc = main(["solve", "--instance", str(ipath), "--time-limit", "0", "--out", str(out)])
    assert rc == 3
    with open(next(out.glob("summary_*.csv"))) as f:
        assert next(csv.DictReader(f))["status"] == "time_limit"
    printed = capsys.readouterr().out
    assert "time_limit" in printed and "pivots=" in printed and "replayed=" in printed


def test_solve_writes_certificate(tmp_path, capsys):
    inst = generate_instance(4, 7, 4, "unit")
    ipath = tmp_path / "tiny.txt"
    write_instance(inst, ipath)
    out = tmp_path / "r"
    assert main(["solve", "--instance", str(ipath), "--la-neighbors", "5",
                 "--out", str(out)]) == 0
    assert "certificate holds: min_cover=" in capsys.readouterr().out
    with open(next(out.glob("summary_*.csv"))) as f:
        row = next(csv.DictReader(f))
    assert float(row["min_cover"]) >= 1 - 1e-6
    assert float(row["min_theta"]) >= -1e-6
    assert float(row["theta_sum"]) <= inst.fleet + 1e-6
    assert min(float(row["min_pool_rc"]), float(row["min_pricing_rc"])) >= -1e-6
    assert abs(float(row["dual_objective"]) - float(row["objective"])) <= 1e-6
    # a run stopped early has no certificate
    assert main(["solve", "--instance", str(ipath), "--time-limit", "0",
                 "--out", str(tmp_path / "t")]) == 3
    assert "certificate" not in capsys.readouterr().out
    with open(next((tmp_path / "t").glob("summary_*.csv"))) as f:
        assert next(csv.DictReader(f))["min_cover"] == ""


def test_solve_exit_code_stalled(tmp_path, monkeypatch):
    real = cli.solve

    def stalled(inst, config):
        res = real(inst, config)
        res.status = "stalled"
        return res

    monkeypatch.setattr(cli, "solve", stalled)
    inst = generate_instance(4, 7, 4, "unit")
    ipath = tmp_path / "tiny.txt"
    write_instance(inst, ipath)
    assert main(["solve", "--instance", str(ipath), "--out", str(tmp_path / "r")]) == 1


def test_solve_exit_code_failed_certificate(tmp_path, monkeypatch, capsys, caplog):
    # a certificate that does not hold turns an optimal run's exit code to 1
    real = driver.certify

    def broken(*args):
        return dataclasses.replace(real(*args), min_pool_rc=-1.0)

    monkeypatch.setattr(driver, "certify", broken)
    inst = generate_instance(4, 7, 4, "unit")
    ipath = tmp_path / "tiny.txt"
    write_instance(inst, ipath)
    assert main(["solve", "--instance", str(ipath), "--out", str(tmp_path / "r")]) == 1
    assert "certificate FAILS" in capsys.readouterr().out
    assert any("fails its check" in r.getMessage() for r in caplog.records)
    with open(next((tmp_path / "r").glob("summary_*.csv"))) as f:
        row = next(csv.DictReader(f))
    assert row["status"] == "optimal" and float(row["min_pool_rc"]) == -1.0


def test_log_level_toggles_driver_warning(tmp_path, monkeypatch, caplog):
    # pricing that hands back a pool column makes the driver warn
    def price_pool_route(inst, sets, table, duals, **kwargs):
        route = make_route([1], inst)
        return DssrResult(route=route, reduced_cost=-1.0, early_columns=[],
                          iterations=1, exact=True)

    monkeypatch.setattr(driver, "price_elementary", price_pool_route)
    inst = generate_instance(38, 7, 4, "unit")
    ipath = tmp_path / "tiny.txt"
    write_instance(inst, ipath)
    lacg_log = logging.getLogger("lacg")
    old = lacg_log.level
    try:
        for level, warned in (("warning", 1), ("error", 0), ("debug", 1)):
            caplog.clear()
            assert main(["solve", "--instance", str(ipath), "--log-level", level,
                         "--out", str(tmp_path / level)]) == 1
            got = [r for r in caplog.records if "existing column" in r.getMessage()]
            assert len(got) == warned
            assert lacg_log.level == getattr(logging, level.upper())
    finally:
        lacg_log.setLevel(old)


def test_log_level_debug_logs_each_iteration(tmp_path):
    inst = generate_instance(4, 7, 4, "unit")
    ipath = tmp_path / "tiny.txt"
    write_instance(inst, ipath)
    err = {}
    for level in ("debug", "warning"):
        proc = subprocess.run(
            [sys.executable, "-m", "lacg.cli", "solve", "--instance", str(ipath),
             "--log-level", level, "--out", str(tmp_path / level)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        err[level] = proc.stderr
    assert "DEBUG lacg.driver: iteration 1: rmp objective" in err["debug"]
    assert err["warning"] == ""


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_speedup_rejects_invalid_min_baseline(tmp_path, value):
    with pytest.raises(SystemExit) as exc:
        main(["speedup", "--dir", str(tmp_path), "--min-baseline-secs", value])
    assert exc.value.code == 2


def test_speedup_rejects_duplicate_run(tmp_path, capsys):
    # two files holding one (instance, arm) run: neither may win silently
    header = "instance,arm,status,total_secs,pricing_secs\n"
    (tmp_path / "summary_x_la0.csv").write_text(header + "x,la0,optimal,8.0,6.0\n")
    (tmp_path / "summary_x_la0_rerun.csv").write_text(header + "x,la0,optimal,1.0,0.5\n")
    (tmp_path / "summary_x_la10.csv").write_text(header + "x,la10,optimal,2.0,1.0\n")
    assert main(["speedup", "--dir", str(tmp_path), "--min-baseline-secs", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "summary_x_la0.csv" in err[0] and "summary_x_la0_rerun.csv" in err[0]
    assert not (tmp_path / "speedup.csv").exists()
