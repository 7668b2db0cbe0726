"""Tests of the benchmark itself: span arithmetic, generator, reference, checks.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, raised=False, attrs=None):
    return [name, start, end, parent, 1, raised, attrs]


def test_self_time_subtracts_direct_children_only():
    # cli.main [0, 100] > protocol.run_gaussian [10, 70] > two gaussian children
    spans = [
        _span("cli.main", 0, 100, -1),
        _span("protocol.run_gaussian", 10, 70, 0),
        _span("gaussian.protocol_moments", 15, 40, 1),
        _span("gaussian.signal", 45, 50, 1),
        _span("correlations.shot_noise_limit", 80, 90, 0),
    ]
    assert layers.self_times(spans) == [100 - 60 - 10, 60 - 25 - 5, 25, 5, 10]


def test_counters_sum_self_time_per_layer_and_count_escaping_failures():
    spans = [
        _span("cli.main", 0, 1000, -1),
        _span("protocol.run_fock", 100, 900, 0, raised=True),
        _span("fock.squeeze", 200, 500, 1, raised=True,
              attrs={"in_dim": 61, "mixed": False, "key": [0.5, 60]}),
        _span("fock.squeeze", 500, 600, 1,
              attrs={"in_dim": 61, "mixed": True, "key": [0.5, 60], "out_dim": 61}),
        _span("fock.loss", 600, 700, 1, attrs={"dim": 61}),
    ]
    c = layers.command_counters(spans)
    assert c["cli.self_s"] == pytest.approx(200e-9)
    assert c["protocol.self_s"] == pytest.approx(300e-9)
    assert c["fock.self_s"] == pytest.approx(500e-9)
    assert c["fock.squeeze.calls"] == 2 and c["fock.squeeze.repeats"] == 1
    assert c["fock.squeeze.in_dim_sum"] == 122 and c["fock.squeeze.out_dim_sum"] == 61
    assert c["fock.squeeze.mixed_calls"] == 1 and c["fock.loss.dim_sum"] == 61
    # the raising squeeze's parent is in another layer: it leaves fock once
    assert c["fock.failed"] == 1 and c["protocol.failed"] == 1 and c["cli.failed"] == 0
    assert c["protocol.run_fock.failed"] == 1 and c["protocol.run_fock.s"] == pytest.approx(800e-9)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_scripts_are_deterministic_per_seed(workload):
    first, again = workloads.script(workload, 7), workloads.script(workload, 7)
    assert first == again
    assert first != workloads.script(workload, 8)
    assert [c.kind for c in first] == [c.kind for c in workloads.script(workload, 8)]


def test_generated_fock_points_fit_their_cutoff():
    for seed in range(5):
        for cmd in workloads.script("fock_oracle", seed):
            if "--cutoff" in cmd.argv:
                a = cmd.argv
                n_bar, cutoff = float(a[a.index("--nbar") + 1]), int(a[a.index("--cutoff") + 1])
                assert workloads.squeezed_vacuum_tail(n_bar, cutoff) <= workloads.SQUEEZE_TAIL_MARGIN


def test_reference_matches_run_gaussian_at_desk_points():
    from qmetro import protocol

    worst = 0.0
    for r in (0.1, 0.4, 0.7, 1.0):
        for phi in (0.05, 0.3, 0.9, 1.5):
            for eta in (1.0, 0.95, 0.7):
                n_bar = math.sinh(r) ** 2
                got = protocol.run_gaussian(protocol.ProtocolConfig(phi=phi, n_bar=n_bar,
                                                                    eta1=eta, eta2=eta))
                ref = reference.gaussian_point(n_bar, phi, eta, eta)
                worst = max(
                    worst,
                    reference.rel_dev(got.signal, ref.signal),
                    reference.rel_dev(got.variance, ref.variance),
                    reference.rel_dev(got.phase_error, ref.delta_phi),
                    reference.complex_rel_dev(got.moments.m_aa.real, got.moments.m_aa.imag,
                                              ref.m_aa),
                )
    assert worst <= 1e-10


def test_reference_reproduces_the_readme_headline_ratio():
    ref = reference.gaussian_point(1.5e4, 1e-3, 0.99, 0.99)
    assert float(ref.snl / ref.delta_phi) == pytest.approx(5.0, rel=0.02)


def _protocol_csv(**row):
    columns = reference.PROTOCOL_COLUMNS
    return "# command=protocol\n" + ",".join(columns) + "\n" + ",".join(
        "" if row.get(c) is None else str(row[c]) for c in columns) + "\n"


def test_exit_zero_on_nan_input_counts_as_failed():
    argv = ["protocol", "--nbar", "nan", "--phi", "0.3", "--eta", "1.0"]
    verdict = reference.classify(argv, valid=False, code=0, stdout="")
    assert verdict.failed and verdict.rows == 0
    assert not reference.classify(argv, valid=False, code=2, stdout="").failed


def test_checker_counts_script_commands_not_executions():
    nan = ("protocol", "--nbar", "nan", "--phi", "0.3", "--eta", "1.0")
    bad_eta = ("protocol", "--nbar", "1.0", "--phi", "0.3", "--eta", "1.5")
    passes = [[run.Outcome(nan, False, 0.4, 0.4, 50.0, 0, b"", b""),
               run.Outcome(bad_eta, False, 0.4, 0.4, 50.0, 2, b"", b"")]] * 3
    checker = run.Checker()
    for outcomes in passes:
        for index, o in enumerate(outcomes):
            checker.add(index, o)
    assert (checker.commands, checker.failed, checker.failed_frac) == (2, 1, 0.5)


def test_headline_phase_error_off_by_4e_5_is_wrong_but_not_gross():
    n_bar, phi, eta = 15000.0, 0.001, 0.99
    ref = reference.gaussian_point(n_bar, phi, eta, eta)
    row = dict(engine="gaussian", n_bar=n_bar, r=float(ref.r), phi=phi, eta1=eta, eta2=eta,
               signal=float(ref.signal), variance=float(ref.variance),
               delta_phi_is_limit="false", m_aa_re=float(ref.m_aa[0]),
               m_aa_im=float(ref.m_aa[1]), snl=float(ref.snl), trace_deficit=0.0)
    argv = ["protocol", "--nbar", repr(n_bar), "--phi", repr(phi), "--eta", repr(eta)]
    exact = float(ref.delta_phi)
    for delta, wrong in ((exact, 0), (exact * (1 + 4e-5), 1)):
        row.update(delta_phi=delta, snl_ratio=float(ref.snl) / delta)
        verdict = reference.classify(argv, True, 0, _protocol_csv(**row))
        assert (verdict.rows, verdict.wrong, verdict.problems) == (1, wrong, [])


def _outcome(wall, cal, rss=50.0):
    return run.Outcome(("protocol",), True, wall, wall, rss, 0, b"", b"", cal_s=cal)


def test_pass_time_sums_per_command_medians_at_reference_speed():
    ref = run.CALIBRATION_REF_S
    passes = [
        run.Session([_outcome(1.0, ref), _outcome(2.0, ref)]),
        run.Session([_outcome(3.0, 2 * ref), _outcome(2.2, ref)]),  # slow host: 1.5 at ref
        run.Session([_outcome(1.2, ref), _outcome(9.0, ref, rss=80.0)]),
    ]
    e2e = run.end_to_end([_outcome(0.4, ref), _outcome(0.6, 2 * ref)], passes)
    assert e2e["session_s"] == pytest.approx(1.2 + 2.2)
    assert e2e["setup_s"] == pytest.approx(0.35)
    assert e2e["peak_rss_mb"] == 50.0
    raw = run.end_to_end([_outcome(0.4, ref)], passes, calibrated=False)
    assert raw["session_s"] == pytest.approx(1.2 + 2.2) and raw["cmd_wall_s.p50"] == pytest.approx(2.1)


def test_tail_needs_ten_commands_beyond_the_percentile():
    assert run.tail([1.0] * 19) is None
    assert run.tail(list(range(40)))[0] == 75
    assert run.tail(list(range(1000)))[0] == 99


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_command_records_nested_spans(tmp_path):
    import time

    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "trace_boot.py"), str(start), "3", str(spans_path), "--",
         "protocol", "--nbar", "1.0", "--phi", "0.3", "--eta", "0.9"],
        env=env, capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("engine,")
    spans = json.loads(spans_path.read_text())
    names = [s[0] for s in spans]
    assert names[:2] == ["import", "cli.main"] and spans[0][1] == start
    assert all(s[4] == 3 for s in spans)
    run_gaussian = names.index("protocol.run_gaussian")
    assert spans[names.index("gaussian.protocol_moments")][3] == run_gaussian
    assert all(s[1] <= s[2] for s in spans)
