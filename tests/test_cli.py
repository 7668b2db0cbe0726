import contextlib
import csv
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qmetro import cli, cmd_sweep, cmd_table, gaussian, protocol


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pure_rel_deviations(rows):
    """The JSON meta's three deviations of `protocol --engine both`, recomputed
    from its rows purely relative (the meta floors the denominator at 1)."""
    g, f = rows

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    def m_aa(row):
        return complex(row["m_aa_re"], row["m_aa_im"])

    return {
        "signal_rel_dev": rel(g["signal"], f["signal"]),
        "variance_rel_dev": rel(g["variance"], f["variance"]),
        "m_aa_rel_dev": rel(m_aa(g), m_aa(f)),
    }


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
        assert rows["amplified_bell"]["oracle_q"] is None

    def test_rejects_empty_probe(self, capsys):
        code, out, err = run(capsys, "table", "--nbar", "0")
        assert (code, out) == (2, "")
        assert err == f"error: {NBAR_FLOOR_REFUSAL.format('0.0')}\n"

    def test_csv_layout(self, capsys):
        code, out, _ = run(capsys, "table", "--nbar", "2")
        lines = out.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(cmd_table.TABLE_COLUMNS)
        assert len(lines) == 2 + 8

    def test_oracle_cutoff_failure_is_per_row(self, capsys):
        # a cutoff too small for the squeezed families must not kill the table
        code, out, _ = run(
            capsys, "table", "--nbar", "2", "--oracle", "--cutoff", "8", "--format", "json")
        assert code == 0
        rows = {r["state_id"]: r for r in json.loads(out)["rows"]}
        assert "oracle unavailable" in rows["twin_squeezed_vacuum"]["note"]
        assert rows["twin_fock"]["max_rel_dev"] < 1e-8

    def test_csv_quotes_notes_that_hold_a_comma(self, capsys):
        # the refusals at cutoff 8 name the constructor's arguments, commas
        # included; every data row must still parse to the header's width
        code, out, _ = run(capsys, "table", "--nbar", "2", "--oracle", "--cutoff", "8")
        assert code == 0
        _, header, *rows = csv.reader(out.splitlines())
        assert header == list(cmd_table.TABLE_COLUMNS)
        assert len(rows) == 8
        assert all(len(row) == len(header) for row in rows)
        notes = {row[0]: row[-1] for row in rows}
        assert notes["laser"] == (
            "oracle unavailable: coherent(alpha=1j, cutoff=8): truncated "
            "norm deficit 1.125e-06 exceeds 1e-06; increase the cutoff"
        )
        # the JSON rows hold the same note, unquoted
        _, out, _ = run(
            capsys, "table", "--nbar", "2", "--oracle", "--cutoff", "8", "--format", "json")
        assert {r["state_id"]: r["note"] for r in json.loads(out)["rows"]} == notes

    def test_oracle_names_the_beam_splitter_cutoff(self, capsys):
        # the twin-Fock probe of 2 photons does not fit in cutoff 1; the
        # row names the cutoff that holds it
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
        assert err == f"error: --cutoff={cutoff} outside [1, inf)\n"

    @pytest.mark.parametrize("n_bar", ["0.5", "0.9"])
    def test_amplified_bell_row_below_one_photon_is_unavailable(self, capsys, n_bar):
        # below n_bar 1 its closed forms give unphysical Q, J and QFI
        code, out, _ = run(capsys, "table", "--nbar", n_bar, "--format", "json")
        assert code == 0
        rows = {r["state_id"]: r for r in json.loads(out)["rows"]}
        assert rows["amplified_bell"] == {
            **dict.fromkeys(cmd_table.TABLE_COLUMNS), "state_id": "amplified_bell",
            "n_bar": float(n_bar),
            "note": "closed form unavailable: amplified-Bell closed forms need n_bar >= 1; "
                    f"got n_bar={n_bar}",
        }
        assert rows["noon"]["qfi"] == float(n_bar) ** 2

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
        assert all(math.isfinite(row[key]) for row in rows.values() if row["q"] is not None
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
        assert pure_rel_deviations(doc["rows"])["signal_rel_dev"] < 1e-6
        engines = [r["engine"] for r in doc["rows"]]
        assert engines == ["gaussian", "fock"]

    def test_nbar_r_exclusive(self, capsys):
        code, _, err = run(capsys, "protocol", "--phi", "0.1")
        assert code == 2

    def test_unknown_engine_is_a_usage_error(self, capsys):
        # the parser refuses it as every other refusal: one line, exit code 2
        code, out, err = run(capsys, "protocol", "--nbar", "1", "--phi", "0.1", "--engine", "exact")
        assert (code, out) == (2, "")
        assert err.startswith("error: argument --engine: invalid choice: 'exact'")
        assert err.count("\n") == 1


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

    def test_one_point_logspace_takes_min_however_wide(self, capsys):
        # MAX / MIN overflows, but a one-point grid is MIN alone
        code, out, _ = run(capsys, "sweep", "--nbar-logspace", "1e-150", "1e308", "1",
                           "--phi", "0.1", "--eta", "0.9")
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()[2:]] == ["1e-150"]

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

    def test_meta_counts_the_points(self, capsys):
        # eta 1e-320 leaves no signal slope: delta_phi and snl_ratio are empty
        args = ("sweep", "--nbar", "1,10", "--phi", "0.001,0.3", "--eta", "1e-320,0.9,1")
        code, csv_out, _ = run(capsys, *args)
        assert code == 0
        code, json_out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        doc = json.loads(json_out)
        meta_line, _, *lines = csv_out.splitlines()
        assert len(lines) == len(doc["rows"]) == doc["meta"]["points"] == 12
        assert f"points={len(lines)} " in meta_line
        assert sum(line.split(",")[5] == line.split(",")[7] == "" for line in lines) == 4

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


#: One command of each kind, with every kind of cell: empty, quoted text,
#: booleans, ints and floats.
ROW_COMMANDS = [
    ("sweep", "--nbar", "1,10", "--phi", "0.001,0.3", "--eta", "1e-320,0.9,1"),
    ("table", "--nbar", "2", "--oracle", "--cutoff", "8"),
    ("protocol", "--nbar", "1", "--phi", "0.3", "--eta", "0.9", "--engine", "both",
     "--cutoff", "60"),
]


def _cell_holds(cell: str, value) -> bool:
    """Whether a parsed CSV cell holds the JSON value (an empty cell holds null)."""
    if value is None or isinstance(value, (bool, str)):
        return cell == {None: "", True: "true", False: "false"}.get(value, value)
    return type(value)(cell) == value


@pytest.mark.parametrize("argv", ROW_COMMANDS, ids=" ".join)
def test_csv_and_json_rows_agree(capsys, argv):
    code, csv_out, _ = run(capsys, *argv)
    assert code == 0
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(json_out)
    _, header, *rows = csv.reader(csv_out.splitlines())
    assert header == doc["columns"]
    assert len(rows) == len(doc["rows"]) > 0
    for cells, row in zip(rows, doc["rows"]):
        assert list(row) == doc["columns"]
        assert all(_cell_holds(cell, value) for cell, value in zip(cells, row.values())), cells


@pytest.mark.parametrize("argv", ROW_COMMANDS, ids=" ".join)
def test_json_output_is_what_json_dumps_writes(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("value", [
    0.1, -2.5e-320, 1e300, math.nan, math.inf, -math.inf, None, True, False, 0, 396,
    "", "formula-only", 'a "quoted", \\ note\n', "caf\u00e9",
])
def test_json_cell_is_what_json_dumps_writes(value):
    assert cli.CELLS["json"](value) == json.dumps(value)


SWEEP_PHI_10 = "0.001,0.002,0.005,0.01,0.02,0.05,0.1,0.2,0.5,1.0"
SWEEP_ETA_10 = "0.8,0.82,0.84,0.86,0.88,0.9,0.92,0.94,0.96,0.99"
SWEEP_ETA_1000 = ",".join(repr(0.5 + 0.0004 * i) for i in range(1000))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", [
    ("--nbar-logspace", "1", "1e6", "100", "--phi", SWEEP_PHI_10, "--eta", SWEEP_ETA_10),
    ("--nbar", "3", "--phi", SWEEP_PHI_10, "--eta", SWEEP_ETA_1000),
], ids=["100x10x10", "1x10x1000"])
def test_sweep_holds_its_output_once(tmp_path, grid, fmt):
    # the rows are held as bounded blocks of finished text and written one
    # block at a time: no row list, joined document or encoded copy beside them
    path = tmp_path / f"sweep.{fmt}"
    tracemalloc.start()
    try:
        code = cli.main(["sweep", *grid, "--format", fmt, "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    if fmt == "csv":
        assert len(path.read_bytes().splitlines()) == 2 + 10**4
    else:
        assert len(json.loads(path.read_bytes())["rows"]) == 10**4
    assert peak <= 1.5 * path.stat().st_size


def test_sweep_memory_does_not_grow_with_its_grid(tmp_path):
    # 10^5 points, ~27 MB of JSON: each block is written as it is formatted,
    # so the peak is one block, not the document
    path = tmp_path / "sweep.json"
    tracemalloc.start()
    try:
        code = cli.main(["sweep", "--nbar-logspace", "1", "1e6", "1000", "--phi", SWEEP_PHI_10,
                         "--eta", SWEEP_ETA_10, "--format", "json", "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert path.stat().st_size > 10**7
    assert peak < 2**20


def test_a_gone_reader_stops_the_rows(monkeypatch):
    # stdout is a pipe whose reader has gone: the first block that reaches it
    # fails, and the rows after it are never computed
    calls = []

    def counted(*args):
        calls.append(args[:2])
        return kernel(*args)

    kernel = gaussian.protocol_row
    monkeypatch.setattr(gaussian, "protocol_row", counted)
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["sweep", "--nbar-logspace", "1", "1e6", "100", "--phi", SWEEP_PHI_10,
                         "--eta", SWEEP_ETA_10])
        monkeypatch.undo()
    assert code == 0
    assert 0 < len(calls) < 100 * 10


def _first_refusal(n_bars, phis, eta_pairs):
    """The message of the first row the kernel refuses, in the sweep's row order; or None."""
    try:
        for n_bar in n_bars:
            for phi in phis:
                gaussian.protocol_row(n_bar, phi, eta_pairs)
    except ValueError as exc:
        return str(exc)
    return None


def _log_axis(low: int, high: float, edges: tuple):
    """Increasing grids of 1-4 values, log-uniform in [10^low, 10^high] or at an edge."""
    value = st.floats(low, high).map(lambda e: 10.0 ** max(e, low))
    return st.lists(st.one_of(value, st.sampled_from(edges)),
                    min_size=1, max_size=4, unique=True).map(sorted)


@given(
    # n_bar past the overflow of a lossless (~6e76) and a lossy (~1e154)
    # variance; n_bar and phi at their floors, where the variance underflows;
    # eta down to where the slope underflows to 0
    _log_axis(-150, 160, (1e-150, 1e-75, 5e76, 1e77, 1.3e154, 1e160)),
    _log_axis(-150, math.log10(1.5), (1e-150, 1e-75, 1e-9, 1.5)),
    _log_axis(-300, 0, (1e-300, 1e-150, 0.5, 1.0)),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_grid_check_refuses_what_the_rows_refuse(n_bars, phis, etas):
    eta_pairs = [(eta, eta) for eta in etas]
    expected = _first_refusal(n_bars, phis, eta_pairs)
    try:
        cmd_sweep.check_grid(n_bars, phis, eta_pairs)
        refusal = None
    except ValueError as exc:
        refusal = str(exc)
    assert refusal == expected
    argv = ["sweep", "--nbar", ",".join(map(repr, n_bars)), "--phi", ",".join(map(repr, phis)),
            "--eta", ",".join(map(repr, etas))]
    meta = {"command": "sweep", "snl_convention": "single-mode 1/sqrt(4 n_bar)",
            "engine": "gaussian", "points": len(n_bars) * len(phis) * len(etas)}
    for fmt in ("csv", "json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--format", fmt])
        if expected is not None:
            assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {expected}\n")
            continue
        assert code == 0
        # the streamed document equals the one written from all rows at once
        rows = list(cmd_sweep._sweep_rows(n_bars, phis, eta_pairs, cli.CELLS[fmt]))
        if fmt == "csv":
            meta_line = "# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
            joined = "".join(f"{line}\n" for line in (meta_line, ",".join(cmd_sweep.SWEEP_COLUMNS),
                                                      *map(",".join, rows)))
        else:
            columns = list(cmd_sweep.SWEEP_COLUMNS)
            joined = json.dumps({"meta": meta, "columns": columns, "rows": [
                dict(zip(columns, map(json.loads, row))) for row in rows]}, indent=2) + "\n"
        assert out.getvalue() == joined


def _subprocess_env() -> dict:
    """The environment of a child interpreter that imports this checkout's qmetro."""
    src = Path(cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))


def test_sweep_into_a_closed_pipe_exits_quietly():
    # the reader leaves after one line, long before the 1.2 MB of output is
    # written: the rest is dropped without a traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmetro", "sweep", "--nbar-logspace", "1", "1e6", "100",
         "--phi", SWEEP_PHI_10, "--eta", SWEEP_ETA_10],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env())
    assert proc.stdout.readline().startswith(b"# command=sweep")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ("protocol", "--phi", "0.3"),  # UsageError: neither --nbar nor --r
    ("protocol", "--nbar", "nan", "--phi", "0.3"),  # refused by the n_bar check
], ids=["usage", "domain"])
def test_a_refusal_with_stderr_closed_exits_2(argv, buffered):
    # the shell has closed stderr (`2>&-`): the error line has nowhere to go,
    # and the refusal still exits 2, without moving the line to stdout (where
    # print sends it when sys.stderr is None)
    env = _subprocess_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(["sh", "-c", '"$0" -m qmetro "$@" 2>&-', sys.executable, *argv],
                          stdout=subprocess.PIPE, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, b"")


#: Runs ``qmetro`` on argv[1:] under a tracer, so that the entry point
#: returns and the interpreter shuts down as usual, flushing stderr once more
SETTRACE_CHILD = """
import sys
sys.settrace(lambda *args: None)
sys.argv = ["qmetro", *sys.argv[1:]]
from qmetro.cli import run
sys.exit(run())
"""


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
def test_a_traced_refusal_with_stderr_closed_exits_2(redirect, buffered):
    # stderr is closed, or open for reading only, as a launcher that reuses
    # the closed descriptor leaves it; with PYTHONUNBUFFERED unset the failed
    # write leaves the error line in stderr's buffer, and the interpreter's
    # own last flush must not fail
    env = _subprocess_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(["sh", "-c", f'"$0" "$@" {redirect}', sys.executable, "-c",
                           SETTRACE_CHILD, "protocol", "--phi", "0.3"],
                          stdout=subprocess.PIPE, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, b"")


#: Commands run with stdout closed, and their exit codes
CLOSED_STDOUT_CASES = [
    (("protocol", "--nbar", "1", "--phi", "0.3"), 0),
    (("sweep", "--nbar", "1,10", "--phi", "0.1", "--eta", "0.9"), 0),
    (("validate",), 0),
    (("--help",), 0),
    (("protocol", "--phi", "0.3"), 2),
]


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv,expected_code", CLOSED_STDOUT_CASES,
                         ids=[" ".join(argv) for argv, _ in CLOSED_STDOUT_CASES])
@pytest.mark.parametrize("redirect", [">&-", "1</dev/null"], ids=["closed", "read-only"])
def test_a_command_with_stdout_closed_exits_with_its_own_code(redirect, argv, expected_code,
                                                              buffered):
    # the shell has closed stdout (`>&-`), so sys.stdout is None, or it is
    # open for reading only, so each write fails with EBADF: the rows have
    # nowhere to go, and are dropped as for a reader that has gone
    env = _subprocess_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(["sh", "-c", f'"$0" -m qmetro "$@" {redirect}', sys.executable, *argv],
                          stderr=subprocess.PIPE, env=env, timeout=120)
    expected_err = b"error: give exactly one of --nbar and --r\n" if expected_code else b""
    assert (proc.returncode, proc.stderr) == (expected_code, expected_err)


#: Commands whose stdout refuses every write; the sweep's ~75 kB of rows
#: take more than one 8 KiB buffer and more than one block
FULL_STDOUT_CASES = [
    ("protocol", "--nbar", "1", "--phi", "0.3"),
    ("sweep", "--nbar-logspace", "1", "1e6", "100", "--phi", "0.1,1.0", "--eta", "0.8,0.9,0.99"),
    ("validate",),
    ("--help",),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", FULL_STDOUT_CASES, ids=" ".join)
def test_a_stdout_that_refuses_writes_is_refused(argv, buffered):
    # every write to /dev/full fails with ENOSPC: unlike a stdout that is
    # gone, that is one refusal, not a traceback with exit code 1 or 120
    env = _subprocess_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qmetro", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(b"error: cannot write stdout: ")
    assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")
    assert b"Traceback" not in proc.stderr


#: Commands run with the reader of their stdout already gone
CLOSED_READER_CASES = [
    ("protocol", "--nbar", "1", "--phi", "0.3", "--eta", "0.9"),
    ("table", "--nbar", "2"),
    ("--help",),
]


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", CLOSED_READER_CASES, ids=" ".join)
def test_a_reader_gone_before_the_first_write_is_quiet(argv, buffered):
    # the pipe's read end is closed before the command starts, so its first
    # write to stdout fails; with PYTHONUNBUFFERED unset, stdout is
    # block-buffered and that write is the last flush, on the way out
    env = _subprocess_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "qmetro", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


#: Runs ``python -m qmetro`` on argv[2:] with two witnesses, each of which
#: creates the file named argv[1] plus its suffix when it runs: an atexit
#: handler (".atexit"), and the finalizer of a module global (".del"), which
#: only the interpreter's teardown calls, when it clears the module.
EXIT_PROBE = """
import atexit, runpy, sys

def mark(suffix, path=sys.argv[1], open=open):
    open(path + suffix, "w").close()

class Witness:
    module = sys.modules[__name__]  # alive until teardown clears it

    def __del__(self, mark=mark):
        mark(".del")

atexit.register(mark, ".atexit")
witness = Witness()
sys.argv = ["qmetro", *sys.argv[2:]]
runpy.run_module("qmetro", run_name="__main__", alter_sys=True)
"""


ENTRY_POINT_CASES = [
    (("protocol", "--nbar", "1", "--phi", "0.3", "--eta", "0.9"), 0),
    (("protocol", "--nbar", "nan", "--phi", "0.3"), 2),  # UsageError
    (("protocol", "--phi", "0.1"), 2),  # UsageError: neither --nbar nor --r
    (("protocol", "--nbar", "1", "--phi", "0.1", "--engine", "exact"), 2),  # UsageError: parser
    (("--help",), 0),
    (("-h",), 0),
    (("protocol", "--help"), 0),
]


@pytest.mark.parametrize(("argv", "expected_code"), ENTRY_POINT_CASES,
                         ids=[" ".join(argv) for argv, _ in ENTRY_POINT_CASES])
def test_module_entry_point_ends_without_teardown(argv, expected_code, tmp_path, capsys):
    # the process entry point runs the atexit handlers and then ends the
    # process, on every way out of main, without the interpreter's teardown;
    # it changes neither the exit code nor stdout
    witness = tmp_path / "witness"
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_PROBE, str(witness), *argv],
        capture_output=True, env=_subprocess_env(), timeout=120)
    assert proc.returncode == expected_code, proc.stderr
    assert Path(f"{witness}.atexit").exists()
    assert not Path(f"{witness}.del").exists()
    assert cli.main(list(argv)) == expected_code
    assert proc.stdout == capsys.readouterr().out.encode()


def test_a_profiled_command_shuts_down_as_usual(capsys):
    # under a profiler the entry point returns, so the interpreter shuts down
    # as usual and cProfile prints its report after the command's row
    argv = ["protocol", "--nbar", "1", "--phi", "0.3", "--eta", "0.9"]
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "qmetro", *argv],
                          capture_output=True, env=_subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(argv) == 0
    row = capsys.readouterr().out.encode()
    assert proc.stdout.startswith(row)
    assert b"function calls" in proc.stdout[len(row):]


def test_main_leaves_the_collector_untouched(capsys):
    before, enabled = gc.get_freeze_count(), gc.isenabled()
    code, _, _ = run(capsys, "protocol", "--nbar", "1", "--phi", "0.3", "--eta", "0.9")
    assert code == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (before, enabled)


#: Runs ``python -m qmetro`` on argv[2:] and writes to the file argv[1], at
#: exit, whether the collector is on and how many collections have run since
#: ``qmetro.cli`` was imported: that import runs before the entry point can act.
GC_PROBE = """
import atexit, gc, runpy, sys
import qmetro.cli

collections = []
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(info))

def report(path=sys.argv[1]):
    with open(path, "w") as fh:
        fh.write(f"{gc.isenabled()} {len(collections)}")

atexit.register(report)
sys.argv = ["qmetro", *sys.argv[2:]]
runpy.run_module("qmetro", run_name="__main__", alter_sys=True)
"""

#: Fock commands, ~30 collections each with the collector on, and a sweep
COLLECTOR_CASES = [
    ("protocol", "--nbar", "1", "--phi", "0.3", "--eta", "0.9", "--engine", "fock",
     "--cutoff", "60"),
    ("table", "--nbar", "2", "--oracle"),
    ("validate",),
    ("sweep", "--nbar-logspace", "1", "1e6", "10", "--phi", SWEEP_PHI_10, "--eta", SWEEP_ETA_10),
]


@pytest.mark.parametrize("argv", COLLECTOR_CASES, ids=lambda argv: argv[0])
def test_a_command_process_runs_no_cyclic_collection(argv, tmp_path):
    # the entry point turns the collector off before main, so a Fock
    # command's passes during numpy's import are gone
    report = tmp_path / "gc"
    proc = subprocess.run([sys.executable, "-c", GC_PROBE, str(report), *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=_subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert report.read_text() == "False 0"


def test_a_traced_command_keeps_the_collector(tmp_path):
    # under a tracer the entry point returns, with the collector as it was
    report = tmp_path / "gc"
    probe = "import sys\nsys.settrace(lambda *args: None)\n" + GC_PROBE
    proc = subprocess.run([sys.executable, "-c", probe, str(report), "validate"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=_subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    enabled, collections = report.read_text().split()
    assert enabled == "True" and int(collections) > 0


#: Commands run in process, each with the collector off as the entry point runs it
GARBAGE_CASES = [
    ("protocol", "--nbar", "2", "--phi", "0.1", "--eta", "0.9", "--engine", "fock",
     "--cutoff", "200"),
    ("table", "--nbar", "4", "--oracle"),
    ("validate",),
    ("sweep", "--nbar-logspace", "1", "1e6", "100", "--phi", SWEEP_PHI_10, "--eta", SWEEP_ETA_10),
]
#: The cyclic garbage GARBAGE_CASES may leave in all, in objects.  Measured:
#: 33, all from validate's JSON report (json's encoder closures), with numpy
#: imported first; numpy 2.4's own import leaves 346 more, which this leaves out.
CYCLIC_GARBAGE_BOUND = 100


def _arrays_held(garbage: list) -> list:
    """The numpy arrays among ``garbage`` and what it holds through untracked objects.

    An array is not tracked by the collector, so it is never in ``gc.garbage``
    itself, only held by what is, directly or through untracked tuples."""
    import numpy

    arrays, seen, stack = [], set(), list(garbage)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, numpy.ndarray):
            arrays.append(obj)
        else:
            stack.extend(ref for ref in gc.get_referents(obj) if not gc.is_tracked(ref))
    return arrays


def test_commands_leave_almost_no_cyclic_garbage(capsys):
    # the entry point runs each command with the collector off, so its cyclic
    # garbage lives until the process ends: it must hold no array, and stay
    # small however large the command
    import numpy  # noqa: F401  its import's garbage is not qmetro's

    enabled, total = gc.isenabled(), 0
    try:
        for argv in GARBAGE_CASES:
            gc.collect()
            gc.disable()
            assert cli.main(list(argv)) == 0
            capsys.readouterr()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            gc.set_debug(0)
            garbage = gc.garbage[:]
            gc.garbage.clear()
            assert _arrays_held(garbage) == [], argv
            total += len(garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert total <= CYCLIC_GARBAGE_BOUND


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


@pytest.mark.parametrize("n_bar", ["nan", "inf", "-1", "0", "1e-200"])
def test_table_refuses_n_bar_once_by_name(capsys, n_bar):
    code, out, err = run(capsys, "table", "--nbar", n_bar)
    assert (code, out) == (2, "")
    assert err == f"error: {REFUSED_LINES['--nbar', n_bar]}\n"


#: The floor's refusal of a mean photon number, by --nbar.
NBAR_FLOOR_REFUSAL = ("--nbar={} is below the smallest mean photon number 1e-150, where the "
                      "signal slope underflows; use --nbar >= 1e-150")
#: Each refused value of a shared option, and the one line every command that
#: takes the option prints for it.
REFUSED_LINES = {
    ("--nbar", "nan"): "--nbar=nan is not a finite number",
    ("--nbar", "inf"): "--nbar=inf is not a finite number",
    ("--nbar", "-1"): "--nbar=-1.0 outside [0, inf)",
    ("--nbar", "0"): NBAR_FLOOR_REFUSAL.format("0.0"),
    ("--nbar", "1e-200"): NBAR_FLOOR_REFUSAL.format("1e-200"),
    ("--phi", "nan"): "--phi=nan is not a finite number",
    ("--phi", "2"): "--phi=2.0 outside [0, pi/2]",
    ("--phi", "1e-200"): "--phi=1e-200 is below the smallest nonzero phase 1e-150, where "
                         "sin^2 phi underflows; use --phi >= 1e-150",
    ("--eta", "nan"): "--eta=nan is not a finite number",
    ("--eta", "1.5"): "--eta=1.5 outside [0, 1]",
}
#: Every command, with accepted values of the options it takes.
GOOD_OPTIONS = {
    "protocol": {"--nbar": "1", "--phi": "0.3", "--eta": "0.9"},
    "sweep": {"--nbar": "1", "--phi": "0.1", "--eta": "0.9"},
    "table": {"--nbar": "2"},
}


@pytest.mark.parametrize("option,value", list(REFUSED_LINES),
                         ids=[f"{option}={value}" for option, value in REFUSED_LINES])
def test_a_refused_value_gets_the_same_line_in_every_command(capsys, option, value):
    commands = [command for command, options in GOOD_OPTIONS.items() if option in options]
    assert len(commands) == (3 if option == "--nbar" else 2)
    for command in commands:
        options = {**GOOD_OPTIONS[command], option: value}
        argv = [command] + [f"{k}={v}" for k, v in options.items()]
        assert run(capsys, *argv) == (2, "", f"error: {REFUSED_LINES[option, value]}\n"), argv


#: The refusals that belong to one command or one option, each with its line.
COMMAND_REFUSALS = [
    (("protocol", "--r=1e-160", "--phi=0.01"),
     "--r=1e-160 is below the smallest squeezing parameter 1.0000000000000001e-75, where "
     "sinh^2 r < 1e-150; use --r >= 1.0000000000000001e-75"),
    (("protocol", "--r=1e-160", "--phi=0.1", "--engine=fock"),
     "--r=1e-160 is below the smallest squeezing parameter 1.0000000000000001e-75, where "
     "sinh^2 r < 1e-150; use --r >= 1.0000000000000001e-75"),
    (("protocol", "--r=1e-75", "--phi=0.3"),
     "--r=1e-75 is below the smallest squeezing parameter 1.0000000000000001e-75, where "
     "sinh^2 r < 1e-150; use --r >= 1.0000000000000001e-75"),
    (("protocol", "--r=nan", "--phi=0.3"), "--r=nan is not a finite number"),
    (("protocol", "--r=-0.5", "--phi=0.3"), "--r=-0.5 outside [0, inf)"),
    (("protocol", "--r=400", "--phi=0.3"), "--r=400.0 is too large: sinh^2 r overflows"),
    (("protocol", "--nbar=1", "--phi=0.3", "--eta1=nan"), "--eta1=nan is not a finite number"),
    (("protocol", "--nbar=1", "--phi=0.3", "--eta2=-0.1"), "--eta2=-0.1 outside [0, 1]"),
    (("protocol", "--nbar=1", "--phi=0.3", "--cutoff=1"), "--cutoff=1 outside [2, inf)"),
    (("protocol", "--nbar=1", "--phi=0.3", "--engine=fock", "--cutoff=0"),
     "--cutoff=0 outside [2, inf)"),
    (("protocol", "--phi=0.3"), "give exactly one of --nbar and --r"),
    (("protocol", "--nbar", "1", "--r", "1", "--phi", "0.3"), "give exactly one of --nbar and --r"),
    (("protocol", "--nbar=1"), "the following arguments are required: --phi"),
    (("table", "--nbar", "abc"), "argument --nbar: invalid float value: 'abc'"),
    (("protocol", "--nbar=1", "--phi=0.3", "--eta=0.9", "--eta2=1"),
     "give --eta or --eta1/--eta2, not both"),
    (("protocol", "--nbar=1", "--phi=0", "--eta=0.9"),
     "singular operating point: phi = 0 with loss: the signal carries no phase information "
     "to first order; operate at a small nonzero phi"),
    (("protocol", "--nbar=1", "--phi=0.3", "--eta2=0"),
     "eta2 = 0: no light reaches the detector, so the phase error is undefined"),
    (("table", "--nbar=2", "--cutoff=0"), "--cutoff=0 outside [1, inf)"),
    (("table", "--nbar=6e153"),
     "--nbar=6e+153 is too large: the closed forms overflow a double above 5e+153"),
    (("sweep", "--nbar=1", "--phi=0,0.1", "--eta=0.9"),
     "--phi=0.0 outside (0, pi/2): a sweep excludes the extrema"),
    (("sweep", "--nbar=1", "--phi=0.1,1.5707963267948966", "--eta=0.9"),
     "--phi=1.5707963267948966 outside (0, pi/2): a sweep excludes the extrema"),
    (("sweep", "--nbar=1", "--phi=0.1", "--eta=0,0.9"),
     "--eta=0.0 outside (0, 1]: a sweep needs light at the detector"),
    (("sweep", "--nbar=1,inf", "--phi=0.1", "--eta=0.9"), "--nbar=inf is not a finite number"),
    (("sweep", "--nbar=1", "--phi=0.1,1e-200", "--eta=0.9"),
     "--phi=1e-200 is below the smallest nonzero phase 1e-150, where sin^2 phi underflows; "
     "use --phi >= 1e-150"),
    (("sweep", "--nbar=1", "--phi=0.1", "--eta=0.5,1.5"), "--eta=1.5 outside [0, 1]"),
    (("sweep", "--nbar=2,1", "--phi=0.1", "--eta=0.9"), "--nbar: grid must be strictly increasing"),
    (("sweep", "--nbar=", "--phi=0.1", "--eta=0.9"), "--nbar: empty grid"),
    (("sweep", "--nbar=1", "--phi=0.1", "--eta=x"),
     "--eta: expected comma-separated numbers, got 'x'"),
    (("sweep", "--phi=0.1", "--eta=0.9"), "give --nbar or --nbar-logspace"),
    (("sweep", "--nbar=1", "--nbar-logspace", "1", "10", "3", "--phi=0.1", "--eta=0.9"),
     "give --nbar or --nbar-logspace, not both"),
    (("sweep", "--nbar-logspace", "1e-200", "1", "3", "--phi=0.1", "--eta=0.9"),
     "--nbar-logspace MIN=1e-200 is below the smallest mean photon number 1e-150, where the "
     "signal slope underflows; use --nbar-logspace MIN >= 1e-150"),
    (("sweep", "--nbar-logspace", "1", "inf", "3", "--phi=0.1", "--eta=0.9"),
     "--nbar-logspace needs a finite MAX above MIN and a whole COUNT"),
    (("sweep", "--nbar-logspace", "1", "10", "0", "--phi=0.1", "--eta=0.9"),
     "--nbar-logspace COUNT=0.0 outside [1, inf)"),
    (("sweep", "--nbar-logspace", "1", "10", "2.5", "--phi=0.1", "--eta=0.9"),
     "--nbar-logspace needs a finite MAX above MIN and a whole COUNT"),
    # MAX / MIN overflows, so the grid would hold an n_bar nobody typed
    (("sweep", "--nbar-logspace", "1e-150", "1e308", "3", "--phi=0.1", "--eta=0.9"),
     "--nbar-logspace MAX/MIN=1e+308/1e-150 overflows a double; narrow the grid"),
    # a probe with almost all its weight past the padded levels is refused
    # by the squeeze stage, which names a cutoff
    (("protocol", "--r=25", "--phi=0.3", "--engine=fock", "--cutoff=60"),
     "squeeze stage: squeeze(r=+25.0000) at cutoff 60 leaves weight 1.000e+00 past its 122 "
     "padded levels; increase the cutoff; use a cutoff of more than 1048576"),
    # a negative value in exponent notation is a value, refused by its check
    (("protocol", "--nbar", "1", "--phi", "-5e-06", "--eta", "0.9"),
     "--phi=-5e-06 outside [0, pi/2]"),
    # the parser's own refusals, in argparse's words
    ((), "the following arguments are required: command"),
    (("bogus",),
     "argument command: invalid choice: 'bogus' (choose from 'table', 'protocol', 'sweep', "
     "'validate')"),
    (("protocol", "--nbar=1", "--phi=0.3", "--bogus"), "unrecognized arguments: --bogus"),
    (("protocol", "--nbar=1", "--phi=0.3", "extra"), "unrecognized arguments: extra"),
    (("protocol", "--nbar", "1", "--phi"), "argument --phi: expected one argument"),
    (("protocol", "--nbar", "1", "--phi", "--eta", "0.9"), "argument --phi: expected one argument"),
    (("sweep", "--nbar=1"), "the following arguments are required: --phi, --eta"),
    (("table", "--nbar=2", "--cutoff", "1.5"), "argument --cutoff: invalid int value: '1.5'"),
    (("table", "--nbar=2", "--format", "xml"),
     "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    (("validate", "--level=slow"),
     "argument --level: invalid choice: 'slow' (choose from 'quick', 'full')"),
    (("sweep", "--nbar-logspace", "1", "10", "--phi=0.1", "--eta=0.9"),
     "argument --nbar-logspace: expected 3 arguments"),
    (("sweep", "--phi=0.1", "--eta=0.9", "--nbar-logspace", "1", "10"),
     "argument --nbar-logspace: expected 3 arguments"),
    (("sweep", "--nbar-logspace", "1", "x", "3", "--phi=0.1", "--eta=0.9"),
     "argument --nbar-logspace: invalid float value: 'x'"),
    (("table", "--nbar=2", "--oracle=1"), "argument --oracle: ignored explicit argument '1'"),
    # an option is spelled in full: argparse took --nb for --nbar
    (("table", "--nb", "1"), "unrecognized arguments: --nb"),
]


@pytest.mark.parametrize("argv,line", COMMAND_REFUSALS,
                         ids=[" ".join(argv) or "no-command" for argv, _ in COMMAND_REFUSALS])
def test_every_refusal_is_one_line_with_exit_code_2(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", f"error: {line}\n")


#: Command lines in every accepted form, each with the options it parses to
#: (those argparse gave): ``--opt V`` and ``--opt=V``, a repeated option
#: (the last wins), the ``--oracle`` flag, ``--nbar-logspace A B C`` and
#: options in any order.
PARSED_COMMANDS = [
    (("table", "--nbar", "2"),
     {"nbar": 2.0, "oracle": False, "cutoff": None, "format": "csv", "out": None}),
    (("table", "--out", "x", "--format=json", "--cutoff", "8", "--oracle", "--nbar=2"),
     {"nbar": 2.0, "oracle": True, "cutoff": 8, "format": "json", "out": "x"}),
    (("protocol", "--phi", "0.3", "--nbar", "1", "--nbar", "2", "--phi=-0.5"),
     {"nbar": 2.0, "r": None, "phi": -0.5, "eta": None, "eta1": None, "eta2": None,
      "cutoff": None, "engine": "gaussian", "format": "csv", "out": None}),
    (("protocol", "--r=0.5", "--phi", "0.1", "--eta1", "0.9", "--eta2=0.8", "--engine", "both",
      "--cutoff=60"),
     {"nbar": None, "r": 0.5, "phi": 0.1, "eta": None, "eta1": 0.9, "eta2": 0.8, "cutoff": 60,
      "engine": "both", "format": "csv", "out": None}),
    (("sweep", "--eta=0.9", "--nbar-logspace", "1", "10", "-3", "--phi", "0.1"),
     {"nbar": None, "nbar_logspace": [1.0, 10.0, -3.0], "phi": "0.1", "eta": "0.9",
      "format": "csv", "out": None}),
    (("sweep", "--nbar=", "--phi", "0.1,0.2", "--eta", "0.9"),
     {"nbar": "", "nbar_logspace": None, "phi": "0.1,0.2", "eta": "0.9", "format": "csv",
      "out": None}),
    (("validate",), {"level": "quick", "out": None}),
    (("validate", "--level", "full", "--out=r.json"), {"level": "full", "out": "r.json"}),
]


@pytest.mark.parametrize("argv,options", PARSED_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in PARSED_COMMANDS])
def test_accepted_command_lines_parse_as_argparse_parsed_them(argv, options):
    assert vars(cli.parse_args(list(argv))) == {"command": argv[0], **options}


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_names_every_option(capsys, command):
    code, out, err = run(capsys, *([] if command is None else [command]), "--help")
    assert (code, err) == (0, "")
    names = cli.COMMANDS if command is None else cli.COMMANDS[command][2]
    assert set(names) <= set(out.split())


def test_refusals_name_the_option_the_user_typed(capsys):
    # a tiny --r is refused as --r with the r that would do, not as its n_bar
    _, _, err = run(capsys, "protocol", "--r", "1e-160", "--phi", "0.01")
    assert "--r=1e-160" in err and "--r >= 1.0000000000000001e-75" in err
    assert "n_bar" not in err and "nbar" not in err
    # --eta is passed on as both eta1 and eta2, but refused as --eta
    _, _, err = run(capsys, "protocol", "--nbar", "1", "--phi", "0.3", "--eta", "nan")
    assert err == "error: --eta=nan is not a finite number\n"


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
        assert list(report) == ["passed", "checks"]
        assert "PASS" in out
        # the summary holds no timing, so identical runs print identical text
        assert out.endswith("\n11 checks\n")
        assert run(capsys, "validate", "--level", "quick", "--out", str(path)) == (0, out, "")

    def test_every_level_runs_the_one_suite(self, capsys):
        reports = [run(capsys, "validate", *level) for level in
                   ((), ("--level", "quick"), ("--level", "full"))]
        assert reports[0] == reports[1] == reports[2]
        code, out, err = reports[0]
        assert (code, err) == (0, "")
        assert len(json.loads(out)["checks"]) == 11


def _overcommit_refuses_huge_allocations():
    # Linux's heuristic (0) and strict (2) overcommit refuse a TiB request at
    # once; with 1 the allocation would be granted and then filled
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() in ("0", "2")
    except OSError:
        return False


@pytest.mark.skipif(not _overcommit_refuses_huge_allocations(),
                    reason="needs an OS that refuses a TiB allocation at once")
def test_a_refused_allocation_is_a_refusal(capsys):
    # a 2.91 TiB probe: one error line and exit code 2, no traceback
    code, out, err = run(capsys, "protocol", "--nbar", "1", "--phi", "0.3", "--engine", "fock",
                         "--cutoff", "100000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    # TiB-to-PiB two-mode kets: each row notes its oracle as unavailable, and
    # is refused before its single-mode factors (millions of levels) are built
    code, out, _ = run(capsys, "table", "--nbar", "1e6", "--oracle")
    assert code == 0
    rows = list(csv.reader(out.splitlines()[2:]))
    notes = [row[-1] for row in rows if row[-1] != "formula-only"]
    assert len(notes) == 7
    assert all(n.startswith("oracle unavailable: Unable to allocate ") for n in notes)


@pytest.mark.parametrize("n_bar", ["0.01", "0.1", "0.5", "1", "2", "9"])
def test_default_fock_cutoff_works(capsys, n_bar):
    code, out, _ = run(
        capsys, "protocol", "--nbar", n_bar, "--phi", "0.3", "--eta", "0.9",
        "--engine", "both", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    pure = pure_rel_deviations(doc["rows"])
    for key in ("signal_rel_dev", "variance_rel_dev", "m_aa_rel_dev"):
        assert float(doc["meta"][key]) <= 1e-6
        assert pure[key] <= 1e-6
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
