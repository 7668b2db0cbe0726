import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qmetro import cli, protocol


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTableCommand:
    def test_closed_form_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--nbar", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        rows = {r["state_id"]: r for r in doc["rows"]}
        assert rows["noon"]["q"] == 1.0
        assert rows["noon"]["j"] == -1.0
        assert rows["noon"]["qfi"] == 16.0
        assert rows["amplified_bell"]["note"] == "formula-only"

    def test_oracle_columns(self, capsys):
        code, out, _ = run(capsys, "table", "--nbar", "2", "--oracle", "--format", "json")
        assert code == 0
        rows = {r["state_id"]: r for r in json.loads(out)["rows"]}
        assert rows["twin_fock"]["max_rel_dev"] < 1e-8
        assert rows["caves"]["max_rel_dev"] < 1e-8
        assert "oracle_q" not in rows["amplified_bell"]

    def test_rejects_empty_probe(self, capsys):
        code, _, err = run(capsys, "table", "--nbar", "0")
        assert code == 2
        assert "positive" in err

    def test_csv_layout(self, capsys):
        code, out, _ = run(capsys, "table", "--nbar", "2")
        lines = out.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(cli.TABLE_COLUMNS)
        assert len(lines) == 2 + 8

    def test_oracle_cutoff_failure_is_per_row(self, capsys):
        # a cutoff too small for the squeezed families must not kill the table
        code, out, _ = run(
            capsys, "table", "--nbar", "2", "--oracle", "--cutoff", "8", "--format", "json")
        assert code == 0
        rows = {r["state_id"]: r for r in json.loads(out)["rows"]}
        assert "oracle unavailable" in rows["twin_squeezed_vacuum"]["note"]
        assert rows["twin_fock"]["max_rel_dev"] < 1e-8

    def test_oracle_names_the_beam_splitter_cutoff(self, capsys):
        # |1,1> at cutoff 1 sits wholly in a total-photon block the beam
        # splitter cannot represent; the row names the cutoff that can
        code, out, _ = run(
            capsys, "table", "--nbar", "2", "--oracle", "--cutoff", "1", "--format", "json")
        assert code == 0
        rows = {r["state_id"]: r for r in json.loads(out)["rows"]}
        assert "oracle unavailable" in rows["twin_fock"]["note"]
        assert "cutoff of at least 2" in rows["twin_fock"]["note"]

    @pytest.mark.parametrize("cutoff", ["-3", "0"])
    @pytest.mark.parametrize("oracle", [("--oracle",), ()], ids=["oracle", "closed-form"])
    def test_rejects_a_cutoff_below_one(self, capsys, cutoff, oracle):
        code, out, err = run(capsys, "table", "--nbar", "2", *oracle, "--cutoff", cutoff)
        assert code == 2
        assert out == ""
        assert "--cutoff must be >= 1" in err

    @pytest.mark.parametrize("n_bar", ["6e153", "1.3e154", "1e155", "1e300"])
    def test_refuses_an_nbar_whose_closed_forms_overflow(self, capsys, n_bar):
        code, out, err = run(capsys, "table", "--nbar", n_bar)
        assert code == 2
        assert out == ""
        assert "too large" in err and "5e+153" in err

    def test_largest_nbar_gives_finite_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--nbar", "5e153", "--format", "json")
        assert code == 0
        rows = {r["state_id"]: r for r in json.loads(out)["rows"]}
        assert all(math.isfinite(row[key]) for row in rows.values() if "q" in row
                   for key in ("q", "j", "qfi"))
        assert rows["amplified_bell"]["j"] == pytest.approx(-0.2)


class TestProtocolCommand:
    def test_reference_signal(self, capsys):
        code, out, _ = run(
            capsys, "protocol", "--nbar", "1", "--phi", "1.5707963", "--eta", "1",
            "--format", "json",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["signal"] == pytest.approx(8.0, rel=1e-9)

    def test_headline_ratio(self, capsys):
        code, out, _ = run(
            capsys, "protocol", "--nbar", "15000", "--phi", "0.001", "--eta", "0.99",
            "--format", "json",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["snl_ratio"] == pytest.approx(5.0, rel=0.10)

    def test_singular_operating_point(self, capsys):
        code, _, err = run(capsys, "protocol", "--nbar", "1", "--phi", "0", "--eta", "0.9")
        assert code == 2
        assert "singular" in err

    def test_both_engines_report_deviation(self, capsys):
        code, out, _ = run(
            capsys, "protocol", "--nbar", "1", "--phi", "0.3", "--eta", "0.9",
            "--engine", "both", "--cutoff", "60", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert float(doc["meta"]["signal_rel_dev"]) < 1e-6
        engines = [r["engine"] for r in doc["rows"]]
        assert engines == ["gaussian", "fock"]

    def test_nbar_r_exclusive(self, capsys):
        code, _, err = run(capsys, "protocol", "--phi", "0.1")
        assert code == 2

    def test_unknown_engine_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["protocol", "--nbar", "1", "--phi", "0.1", "--engine", "exact"])
        assert exc.value.code == 2
        assert "invalid choice: 'exact'" in capsys.readouterr().err


class TestSweepCommand:
    def test_deterministic_output(self, capsys, tmp_path):
        args = ("sweep", "--nbar", "1,10,100", "--phi", "0.001,0.002", "--eta", "0.9,0.99")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second
        assert first[0] == 0

    def test_row_order_and_schema(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--nbar", "1,10", "--phi", "0.001", "--eta", "0.9,0.99")
        lines = out.splitlines()
        assert lines[1] == "n_bar,phi,eta,signal,variance,delta_phi,snl,snl_ratio"
        data = [line.split(",") for line in lines[2:]]
        keys = [(float(r[0]), float(r[1]), float(r[2])) for r in data]
        assert keys == sorted(keys)
        assert len(keys) == 4

    def test_single_point_matches_protocol(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--nbar", "1.5", "--phi", "0.3", "--eta", "0.9",
            "--format", "json",
        )
        sweep_row = json.loads(out)["rows"][0]
        code, out, _ = run(
            capsys, "protocol", "--nbar", "1.5", "--phi", "0.3", "--eta", "0.9",
            "--format", "json",
        )
        proto_row = json.loads(out)["rows"][0]
        assert sweep_row["signal"] == proto_row["signal"]
        assert sweep_row["variance"] == proto_row["variance"]
        assert sweep_row["delta_phi"] == proto_row["delta_phi"]

    def test_logspace_grid(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--nbar-logspace", "10", "100000", "5",
            "--phi", "0.001", "--eta", "0.99", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        n_bars = [r["n_bar"] for r in rows]
        assert n_bars[0] == pytest.approx(10.0)
        assert n_bars[-1] == pytest.approx(1e5)
        # sub-shot-noise beyond the crossover, classical below it
        assert rows[0]["snl_ratio"] < 1.0
        assert rows[-1]["snl_ratio"] > 1.0

    def test_unit_transmission_ratio_form(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--nbar", "1,4,10", "--phi", "0.00001", "--eta", "1",
            "--format", "json",
        )
        # the phi -> 0 limit; the exact ratio falls below it by ~ n^2 phi^2 relative
        for row in json.loads(out)["rows"]:
            expected = math.sqrt(2.0 * (row["n_bar"] + 1.0))
            assert row["snl_ratio"] == pytest.approx(expected, rel=1e-6)

    def test_grid_validation(self, capsys):
        code, _, err = run(capsys, "sweep", "--nbar", "5,2", "--phi", "0.1", "--eta", "0.9")
        assert code == 2
        code, _, err = run(capsys, "sweep", "--nbar", "2", "--phi", "2.0", "--eta", "0.9")
        assert code == 2

    def test_unwritable_output(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--nbar", "2", "--phi", "0.1", "--eta", "0.9",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 2

    def test_file_output_bit_identical(self, capsys, tmp_path):
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (path_a, path_b):
            code = cli.main([
                "sweep", "--nbar", "1,10", "--phi", "0.001", "--eta", "0.99",
                "--out", str(path),
            ])
            assert code == 0
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_csv_and_json_rows_agree(self, capsys):
        # eta 1e-320 leaves no signal slope: delta_phi and snl_ratio are empty
        args = ("sweep", "--nbar", "1,10", "--phi", "0.001,0.3", "--eta", "1e-320,0.9,1")
        code, csv_out, _ = run(capsys, *args)
        assert code == 0
        code, json_out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        doc = json.loads(json_out)
        meta_line, header, *lines = csv_out.splitlines()
        assert header.split(",") == doc["columns"]
        assert len(lines) == len(doc["rows"]) == 12
        assert f"points={len(lines)} " in meta_line
        assert doc["meta"]["points"] == len(doc["rows"])
        empty = 0
        for line, row in zip(lines, doc["rows"]):
            cells = line.split(",")
            assert list(row) == doc["columns"]
            assert [None if c == "" else float(c) for c in cells] == list(row.values())
            empty += cells[5] == cells[7] == ""
        assert empty == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_point_writes_nothing(self, capsys, tmp_path, fmt):
        # n_bar 1e200 overflows the variance after the n_bar 1 row is computed
        args = ("sweep", "--nbar", "1,1e200", "--phi", "0.1", "--eta", "0.9", "--format", fmt)
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert "too large" in err
        path = tmp_path / "sweep.out"
        code, out, _ = run(capsys, *args, "--out", str(path))
        assert (code, out) == (2, "")
        assert not path.exists()


SWEEP_PHI_10 = "0.001,0.002,0.005,0.01,0.02,0.05,0.1,0.2,0.5,1.0"
SWEEP_ETA_10 = "0.8,0.82,0.84,0.86,0.88,0.9,0.92,0.94,0.96,0.99"
SWEEP_ETA_1000 = ",".join(repr(0.5 + 0.0004 * i) for i in range(1000))


@pytest.mark.parametrize("grid", [
    ("--nbar-logspace", "1", "1e6", "100", "--phi", SWEEP_PHI_10, "--eta", SWEEP_ETA_10),
    ("--nbar", "3", "--phi", SWEEP_PHI_10, "--eta", SWEEP_ETA_1000),
], ids=["100x10x10", "1x10x1000"])
def test_sweep_holds_its_output_once(tmp_path, grid):
    # the rows are held as bounded blocks of finished text and written one
    # block at a time: no row list, joined document or encoded copy beside them
    path = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        code = cli.main(["sweep", *grid, "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(path.read_bytes().splitlines()) == 2 + 10**4
    assert peak <= 1.5 * path.stat().st_size


def test_sweep_into_a_closed_pipe_exits_quietly():
    # the reader leaves after one line, long before the 1.2 MB of output is
    # written: the rest is dropped without a traceback
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmetro", "sweep", "--nbar-logspace", "1", "1e6", "100",
         "--phi", SWEEP_PHI_10, "--eta", SWEEP_ETA_10],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# command=sweep")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


NON_FINITE_INPUT = [
    ("protocol", "--nbar", "nan", "--phi", "0.3"),
    ("protocol", "--nbar", "inf", "--phi", "0.3"),
    ("protocol", "--r", "nan", "--phi", "0.3"),
    ("protocol", "--r", "inf", "--phi", "0.3"),
    ("protocol", "--nbar", "1", "--phi", "nan"),
    ("protocol", "--nbar", "1", "--phi", "0.3", "--eta", "nan"),
    ("protocol", "--nbar", "1", "--phi", "0.3", "--eta1", "inf"),
    ("sweep", "--nbar", "nan", "--phi", "0.1", "--eta", "0.9"),
    ("sweep", "--nbar", "1,inf", "--phi", "0.1", "--eta", "0.9"),
    ("sweep", "--nbar", "1", "--phi", "nan", "--eta", "0.9"),
    ("sweep", "--nbar", "1", "--phi", "0.1", "--eta", "inf"),
    ("sweep", "--nbar-logspace", "nan", "10", "5", "--phi", "0.1", "--eta", "0.9"),
    ("sweep", "--nbar-logspace", "1", "inf", "5", "--phi", "0.1", "--eta", "0.9"),
    ("sweep", "--nbar-logspace", "1", "10", "inf", "--phi", "0.1", "--eta", "0.9"),
    ("table", "--nbar", "nan"),
    ("table", "--nbar", "inf"),
]


@pytest.mark.parametrize("argv", NON_FINITE_INPUT, ids=" ".join)
def test_non_finite_input_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


#: 0 < phi < 1e-150: sin^2 phi and the squared variance terms underflow, so
#: delta_phi would come out wrong (lossless) or infinite (lossy).
TINY_PHI_INPUT = [
    ("protocol", "--nbar", "1", "--phi", "1e-160", "--eta", "1"),
    ("protocol", "--nbar", "1", "--phi", "1e-310", "--eta", "1"),
    ("protocol", "--nbar", "1", "--phi", "1e-320", "--eta", "0.9"),
    ("protocol", "--nbar", "1", "--phi", "1e-200", "--engine", "fock"),
    ("sweep", "--nbar", "1", "--phi", "1e-320", "--eta", "0.9"),
    ("sweep", "--nbar", "1", "--phi", "1e-170,0.1", "--eta", "1"),
]


@pytest.mark.parametrize("argv", TINY_PHI_INPUT, ids=" ".join)
def test_tiny_phi_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "1e-150" in err


#: n_bar and phi so small that the variance underflows while the slope does
#: not: delta_phi would come out 0.0 (the true value is ~3.5e69).
TINY_VARIANCE_INPUT = [
    ("protocol", "--nbar", "1e-140", "--phi", "1e-100", "--eta", "1"),
    ("sweep", "--nbar", "1e-140", "--phi", "1e-100", "--eta", "1"),
    ("sweep", "--nbar", "1e-140,1", "--phi", "1e-100,0.1", "--eta", "0.5,1"),
]


@pytest.mark.parametrize("argv", TINY_VARIANCE_INPUT, ids=" ".join)
def test_underflowing_variance_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "n_bar=1e-140 and phi=1e-100" in err
    assert "underflows" in err


#: 0 < n_bar < 1e-150: the slope 4 n (n+1) sin 2phi underflows at small phi,
#: so delta_phi would come out empty (the true value is ~3.5e149 at 1e-300).
TINY_NBAR_INPUT = [
    ("protocol", "--nbar", "1e-300", "--phi", "1e-100", "--eta", "1"),
    ("protocol", "--nbar", "1e-200", "--phi", "1e-100", "--eta", "1"),
    ("protocol", "--r", "1e-160", "--phi", "0.1", "--engine", "fock"),
    ("sweep", "--nbar", "1e-300", "--phi", "1e-100", "--eta", "1"),
    ("sweep", "--nbar", "1e-200,1", "--phi", "1e-100,0.1", "--eta", "0.5,1"),
]


@pytest.mark.parametrize("argv", TINY_NBAR_INPUT, ids=" ".join)
def test_tiny_nbar_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "smallest mean photon number 1e-150" in err


def test_smallest_accepted_nbar_gives_a_phase_error(capsys):
    code, out, _ = run(capsys, "protocol", "--nbar", "1e-150", "--phi", "0.7", "--format",
                       "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["delta_phi"] > 0.0


@pytest.mark.parametrize("phi,expected", [("0", 0.25), ("1e-150", 0.25)])
def test_smallest_accepted_phi_keeps_the_lossless_limit(capsys, phi, expected):
    code, out, _ = run(capsys, "protocol", "--nbar", "1", "--phi", phi, "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["delta_phi"] == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("count", ["2.5", "1.5", "10.01"])
def test_fractional_logspace_count_is_refused(capsys, count):
    code, out, err = run(capsys, "sweep", "--nbar-logspace", "1", "10", count,
                         "--phi", "0.1", "--eta", "0.9")
    assert code == 2
    assert out == ""
    assert "COUNT" in err


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--level", "quick")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "noisy-phase-error-transcription" in names
        assert "engine-equivalence" in names

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "validate", "--level", "quick", "--out", str(path))
        assert code == 0
        report = json.loads(path.read_text())
        assert report["level"] == "quick"
        assert "PASS" in out


@pytest.mark.parametrize("n_bar", ["0.01", "0.1", "0.5", "1", "2", "9"])
def test_default_fock_cutoff_works(capsys, n_bar):
    code, out, _ = run(
        capsys, "protocol", "--nbar", n_bar, "--phi", "0.3", "--eta", "0.9",
        "--engine", "both", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    for key in ("signal_rel_dev", "variance_rel_dev", "m_aa_rel_dev"):
        assert float(doc["meta"][key]) <= 1e-6
    assert doc["rows"][1]["trace_deficit"] <= 1e-8


def test_default_fock_cutoff_names_the_cutoff_it_needs(capsys):
    code, out, err = run(capsys, "protocol", "--nbar", "1e4", "--phi", "0.3",
                         "--engine", "fock")
    assert code == 2
    assert out == ""
    assert "needs a cutoff of" in err
    assert "--cutoff" in err


def test_squeeze_overflow_names_the_cutoff_it_needs(capsys):
    code, out, err = run(capsys, "protocol", "--nbar", "10", "--phi", "0.1", "--eta", "0.9",
                         "--engine", "fock", "--cutoff", "60")
    assert code == 2
    assert out == ""
    assert "squeeze stage" in err
    assert f"use a cutoff of at least {protocol.squeeze_cutoff(10.0)[0]}" in err


def test_snl_ratio_curves_script_writes_its_four_files(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "snl_ratio_curves.py"
    spec = importlib.util.spec_from_file_location("snl_ratio_curves", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.run(tmp_path, points=5)
    files = {
        "ratio_eta0.99.csv": {"0.99"},
        "ratio_eta0.95.csv": {"0.95"},
        "ratio_eta0.90.csv": {"0.9"},
        "error_vs_nbar_phi1e-3.csv": {"0.9", "0.95", "0.99"},
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for name, etas in files.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].startswith("# command=sweep")
        rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
        # 5 n_bar points times 3 phases (ratio files) or 3 etas (error file)
        assert len(rows) == 15
        assert {row["eta"] for row in rows} == etas
        assert all(float(row["snl_ratio"]) > 0.0 for row in rows)
    assert capsys.readouterr().out.count("wrote ") == 4
