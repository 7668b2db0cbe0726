"""qmetro benchmark: the real CLI, driven by one closed-loop client.

Run from the root of a qmetro checkout:

    python3 perfbench/run.py --workload point_queries --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, untraced and traced

Each command of the workload's seeded script runs as ``python -m qmetro ...``
in a fresh interpreter, one at a time: the next starts only after the
previous one exits.  The script is repeated as long as another pass is
expected to end within ``--seconds`` (at least once).
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates an untraced and a traced pass of the script (the traced pass
runs each command under ``trace_boot.py``) and reports per-layer metrics.
Outputs are checked against an independent reference after the timed part.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

#: BLAS/OpenMP threads per child: one client on a 2-core machine.
BLAS_THREADS = 1
#: Untimed import-only children first: the opening seconds of a run are
#: measurably slower on a shared VM.
WARMUP_REPEATS = 2
#: Set-up samples taken before each pass, so they spread over the run.
SETUP_REPEATS = 2
IMPORT_PROBES = 3
#: A run stops starting commands this long after it began, and kills any
#: command still running then, so it always ends within its time limit.
HARD_DEADLINE_S = 150.0
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
#: A fixed pure-Python loop in an isolated interpreter, run right before
#: every measured child: its wall time tracks the host's current speed and
#: nothing of qmetro.  On a shared VM that speed changes by up to 1.7x for
#: minutes at a time; end-to-end times are scaled by CALIBRATION_REF_S over
#: the adjacent calibration time, i.e. reported at the reference speed.
CALIBRATION = ("-I", "-S", "-c", "x = 0\nfor i in range(300000):\n    x += i * i % 7\n")
#: Calibration wall time on the reference host (2-vCPU Xeon VM, unloaded).
CALIBRATION_REF_S = 0.045

END_TO_END = {
    "setup_s": "s",
    "session_s": "s",
    "session_cpu_s": "s",
    "cmd_wall_s.p50": "s",
    "peak_rss_mb": "MB",
}
_FUNCTION_METRICS = (
    ("cli.main.self_s", "s"), ("cli.out_bytes", "B"),
    ("protocol.run_gaussian.calls", "count"), ("protocol.run_gaussian.self_s", "s"),
    ("protocol.error_propagation.calls", "count"),
    ("protocol.run_fock.calls", "count"), ("protocol.run_fock.self_s", "s"),
    ("protocol.run_fock.failed", "count"),
    ("gaussian.protocol_moments.calls", "count"), ("gaussian.protocol_moments.self_s", "s"),
    ("gaussian.phase_error.self_s", "s"),
    ("fock.squeeze.calls", "count"), ("fock.squeeze.self_s", "s"),
    ("fock.squeeze.in_dim_sum", "count"), ("fock.squeeze.out_dim_sum", "count"),
    ("fock.squeeze.mixed_calls", "count"), ("fock.squeeze.repeat_share", "fraction"),
    ("fock.loss.calls", "count"), ("fock.loss.self_s", "s"), ("fock.loss.dim_sum", "count"),
    ("fock.expectation.self_s", "s"),
    ("fock.beam_splitter.calls", "count"), ("fock.beam_splitter.self_s", "s"),
    ("fock.beam_splitter.dim_sum", "count"),
    ("fock.constructors.self_s", "s"),
    ("correlations.oracle_row.calls", "count"), ("correlations.oracle_row.self_s", "s"),
    ("correlations.oracle_row.failed", "count"),
    ("correlations.classical_fisher_information.self_s", "s"),
)
VALIDATE_CHECKS = (
    "table_closed_form_identity", "table_oracle", "table_oracle_entangled_coherent",
    "engine_equivalence", "phase_error_transcription", "lossless_signal_identity",
    "headline_ratios", "error_propagation_limit", "two_photon_projection",
    "qcrb_saturation", "sweep_header",
)
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in layers.LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"), ("failed", "count"))},
    "import.qmetro_cli_s": "s",
    "import.qmetro.fock_s": "s",
    "import.qmetro.gaussian_s": "s",
    "import.scipy_loaded": "0/1",
    "import.modules": "count",
    **dict(_FUNCTION_METRICS),
    **{f"validate.check_{name}.s": "s" for name in VALIDATE_CHECKS},
    "trace.overhead_s": "s",
    "failed_frac": "fraction",
    "wrong_frac": "fraction",
}


@dataclass
class Outcome:
    """One finished child process."""

    argv: tuple
    valid: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    spans: list | None = None
    cal_s: float = CALIBRATION_REF_S

    @property
    def scale(self) -> float:
        """Factor bringing this child's times to the reference host speed."""
        return CALIBRATION_REF_S / self.cal_s


@dataclass
class Session:
    """One pass over the whole script."""

    outcomes: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def peak_rss_mb(self) -> float:
        return max((o.rss_mb for o in self.outcomes), default=0.0)


class Harness:
    """Starts children from the checkout with a fixed environment, via the launcher."""

    def __init__(self, root: Path, work: Path, started: float):
        self.root, self.work, self.started = root, work, started
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("QMETRO_")}
        self.env.update(
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
            PYTHONHASHSEED="0",
        )
        self.commands = 0
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=root)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def remaining(self) -> float:
        return HARD_DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, argv: list, valid: bool = True, traced: bool = False,
              program: tuple | None = None) -> Outcome:
        """Run the calibration, then one child to completion; measure wall, CPU and peak RSS."""
        calibration = self.run([], program=CALIBRATION)
        outcome = self.run(argv, valid, traced, program)
        outcome.cal_s = calibration.wall_s
        return outcome

    def run(self, argv: list, valid: bool = True, traced: bool = False,
            program: tuple | None = None) -> Outcome:
        """Run one child to completion, without calibration."""
        self.commands += 1
        paths = {k: self.work / f"{k}-{self.commands}" for k in ("stdout", "stderr", "spans")}
        if program is not None:
            args = [sys.executable, *program]
        elif traced:
            args = [sys.executable, str(HERE / "trace_boot.py"), "{start}",
                    str(self.commands), str(paths["spans"]), "--", *argv]
        else:
            args = [sys.executable, "-m", "qmetro", *argv]
        request = {"args": args, "env": self.env, "cwd": str(self.root),
                   "stdout": str(paths["stdout"]), "stderr": str(paths["stderr"]),
                   "timeout": max(self.remaining(), 1.0)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        outcome = Outcome(tuple(argv), valid, reply["wall_s"], reply["cpu_s"], reply["rss_mb"],
                          reply["code"], paths["stdout"].read_bytes(),
                          paths["stderr"].read_bytes())
        if traced:
            try:
                outcome.spans = json.loads(paths["spans"].read_text())
            except (OSError, ValueError):
                outcome.spans = []
        for path in paths.values():
            path.unlink(missing_ok=True)
        return outcome

    def session(self, script: list, traced: bool = False) -> Session:
        session = Session()
        start = time.monotonic()
        for cmd in script:
            if self.remaining() <= 0:
                break
            session.outcomes.append(self.spawn(list(cmd.argv), cmd.valid, traced))
        session.wall_s = time.monotonic() - start
        return session


def setup_times(harness: Harness, repeats: int) -> list:
    """Wall times of fresh interpreters importing qmetro.cli from this checkout."""
    times = []
    expected = str(harness.root / "src" / "qmetro" / "cli.py")
    for _ in range(repeats):
        o = harness.spawn([], program=(
            "-c", "import sys, qmetro.cli; sys.stdout.write(qmetro.cli.__file__)"))
        if o.code != 0 or o.stdout.decode() != expected:
            raise RuntimeError(f"qmetro.cli did not import from {expected}: "
                               f"{o.stdout.decode()!r} {o.stderr.decode()[-300:]}")
        times.append(o)
    return times


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_probe(harness: Harness) -> dict:
    """-X importtime cumulative seconds, plus scipy presence and module count."""
    samples = []
    for _ in range(IMPORT_PROBES):
        o = harness.run([], program=(
            "-X", "importtime", "-c",
            "import sys, qmetro.cli; print(len(sys.modules), int('scipy' in sys.modules))"))
        cumulative = {}
        for line in o.stderr.decode().splitlines():
            match = _IMPORTTIME.match(line)
            if match:
                cumulative[match.group(3)] = int(match.group(2)) * 1e-6
        modules, scipy_loaded = (int(x) for x in o.stdout.split())
        samples.append({
            # importing qmetro.cli first imports the package, whose __init__
            # pulls in every engine module
            "import.qmetro_cli_s": cumulative.get("qmetro", 0.0)
            + cumulative.get("qmetro.cli", 0.0),
            "import.qmetro.fock_s": cumulative.get("qmetro.fock", 0.0),
            "import.qmetro.gaussian_s": cumulative.get("qmetro.gaussian", 0.0),
            "import.scipy_loaded": scipy_loaded,
            "import.modules": modules,
        })
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


class Checker:
    """Classifies outcomes against the reference, once per distinct output.

    ``attempted`` and ``failed`` count the script's commands, not their
    executions: a run repeats its script as often as ``--seconds`` allows,
    so counting executions would make both numbers depend on host speed.
    A command fails if any of its executions gave the wrong exit status.
    """

    def __init__(self):
        self.cache: dict = {}
        self.attempted: set = set()
        self.failing: set = set()
        self.rows = self.wrong = 0
        self.problems: list = []

    def add(self, index: int, o: Outcome) -> None:
        """Judge ``o``, the execution of the script's command number ``index``."""
        key = (o.argv, o.code, o.stdout)
        verdict = self.cache.get(key)
        if verdict is None:
            verdict = self.cache[key] = reference.classify(
                list(o.argv), o.valid, o.code, o.stdout.decode("utf-8", "replace"))
            self.problems += verdict.problems
        self.attempted.add(index)
        if verdict.failed:
            self.failing.add(index)
        self.rows += verdict.rows
        self.wrong += verdict.wrong

    @property
    def commands(self) -> int:
        return len(self.attempted)

    @property
    def failed(self) -> int:
        return len(self.failing)

    @property
    def failed_frac(self) -> float:
        return self.failed / max(self.commands, 1)

    @property
    def wrong_frac(self) -> float:
        return self.wrong / max(self.rows, 1)


def tail(walls: list) -> tuple | None:
    """(percentile, value): the highest percentile with >= 10 commands beyond it."""
    ordered = sorted(walls)
    for p in TAIL_PERCENTILES:
        if len(ordered) * (100 - p) / 100 >= 10:
            rank = -(-p * len(ordered) // 100)  # nearest rank
            return p, ordered[rank - 1]
    return None


def _complete(sessions: list) -> list:
    return [s for s in sessions if len(s.outcomes) == len(sessions[0].outcomes)]


def pass_time(sessions: list, attr: str, calibrated: bool) -> float:
    """Time of one pass: the sum over its commands of each command's median over passes.

    A burst of interference from other tenants of the machine then moves one
    sample of each command it hits, not the result.
    """
    per_command = zip(*(s.outcomes for s in _complete(sessions)))
    return sum(statistics.median(getattr(o, attr) * (o.scale if calibrated else 1.0) for o in c)
               for c in per_command)


def end_to_end(setup: list, sessions: list, calibrated: bool = True) -> dict:
    """End-to-end metrics, at the reference host speed unless ``calibrated`` is false."""

    def scale(o):
        return o.scale if calibrated else 1.0

    return {
        "setup_s": statistics.median(o.wall_s * scale(o) for o in setup),
        "session_s": pass_time(sessions, "wall_s", calibrated),
        "session_cpu_s": pass_time(sessions, "cpu_s", calibrated),
        "cmd_wall_s.p50": statistics.median(
            o.wall_s * scale(o) for s in sessions for o in s.outcomes),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in _complete(sessions)),
    }


def per_layer(traced: list, untraced: list, probe: dict, checker: Checker) -> tuple:
    """Means per traced pass of the span counters, plus the import probe and the overhead."""
    totals: Counter = Counter()
    for session in traced:
        for o in session.outcomes:
            totals.update(layers.command_counters(o.spans or []))
            totals["cli.out_bytes"] += len(o.stdout)
    count = len(traced)
    values = {name: totals.get(name, 0) / count for name in PER_LAYER}
    values.update(probe)
    calls = totals.get("fock.squeeze.calls", 0)
    values["fock.squeeze.repeat_share"] = totals.get("fock.squeeze.repeats", 0) / calls if calls else 0.0
    values["trace.overhead_s"] = (pass_time(traced, "wall_s", False)
                                  - pass_time(untraced, "wall_s", False))
    values["failed_frac"] = checker.failed_frac
    values["wrong_frac"] = checker.wrong_frac
    wall = statistics.mean(t.wall_s for t in traced)
    shares = {layer: values[f"{layer}.self_s"] / wall for layer in layers.LAYERS}
    shares["other"] = 1.0 - sum(shares.values())
    return values, shares


def run_record(root: Path, args, extra: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text()
                .splitlines() if line.startswith("model name")), platform.processor())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=10).stdout.strip()
        if not top or Path(top).resolve() != root.resolve():
            commit = None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_lines": src_lines,
        "nproc": os.cpu_count(), "cpu_model": cpu, "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "tolerances": reference.TOLERANCES, **extra,
    }


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run_workload(root: Path, args, work: Path) -> dict:
    script = workloads.script(args.workload, args.seed)
    harness = Harness(root, work, time.monotonic())
    setup, sessions, traced = [], [], []
    try:
        setup_times(harness, WARMUP_REPEATS)
        probe = import_probe(harness) if args.trace else {}
        begin = time.monotonic()
        while True:
            setup += setup_times(harness, SETUP_REPEATS)
            sessions.append(harness.session(script))
            if args.trace:
                traced.append(harness.session(script, traced=True))
            elapsed = time.monotonic() - begin
            # start another pass only if it should end within --seconds
            if (elapsed * (len(sessions) + 1) / len(sessions) > args.seconds
                    or harness.remaining() <= 0):
                break
    finally:
        harness.close()

    checker = Checker()
    for session in sessions + traced:
        for index, o in enumerate(session.outcomes):
            checker.add(index, o)
    walls = [o.wall_s for s in sessions for o in s.outcomes]
    e2e, raw = end_to_end(setup, sessions), end_to_end(setup, sessions, calibrated=False)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(sessions)} untraced passes of {len(script)} commands, "
          f"{len(traced)} traced; one closed-loop client, {BLAS_THREADS} BLAS thread")
    for name, unit in END_TO_END.items():
        note = f" (at reference speed; {_fmt(raw[name])} raw)" if unit == "s" else ""
        print(f"  {name} = {_fmt(e2e[name])} {unit}{note}")
    t = tail(walls)
    print(f"  cmd_wall_s.tail = {_fmt(t[1])} s (p{t[0]} of {len(walls)} commands)" if t else
          f"  cmd_wall_s.tail omitted: {len(walls)} commands leave fewer than 10 beyond p50")
    print(f"  failed_frac = {_fmt(checker.failed_frac)} fraction "
          f"({checker.failed} of {checker.commands} commands)")
    print(f"  wrong_frac = {_fmt(checker.wrong_frac)} fraction "
          f"({checker.wrong} of {checker.rows} rows)")
    for problem in dict.fromkeys(checker.problems):
        print(f"  incorrect: {problem}")

    extra = {"end_to_end": e2e, "end_to_end_raw": raw,
             "setup_samples": [o.wall_s for o in setup], "setup_cal_s": [o.cal_s for o in setup],
             "cmd_wall_s.tail": {"percentile": t[0], "value": t[1]} if t else None,
             "failed_frac": checker.failed_frac, "wrong_frac": checker.wrong_frac,
             "problems": checker.problems,
             "commands": [{"argv": list(o.argv), "code": o.code,
                           "wall_s": [c.wall_s for c in per_pass],
                           "cpu_s": [c.cpu_s for c in per_pass],
                           "rss_mb": [c.rss_mb for c in per_pass],
                           "cal_s": [c.cal_s for c in per_pass]}
                          for o, per_pass in zip(sessions[0].outcomes,
                                                 zip(*(s.outcomes for s in _complete(sessions))))]}
    if args.trace:
        values, shares = per_layer(traced, sessions, probe, checker)
        print("  per layer (means per traced pass):")
        for name, unit in PER_LAYER.items():
            print(f"    {name} = {_fmt(values[name])} {unit}")
        print("  share of traced wall time by layer (self time): " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        extra.update(per_layer=values, layer_shares=shares)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = run_record(root, args, extra)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": not checker.problems, "attempted": checker.commands,
            "failed": checker.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qmetro" / "cli.py").is_file():
        print(f"error: {root} is not a qmetro checkout (no src/qmetro/cli.py); "
              "run from the repository root", file=sys.stderr)
        return 2
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            result = run_workload(root, args, work)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in workloads.WORKLOADS:
                for trace in (0, 1):
                    sub = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
                    part = run_workload(root, sub, work)
                    result["correct"] &= part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    result["metrics"].update(
                        {f"{name}/{k}": v for k, v in part["metrics"].items()})
    finally:
        for leftover in work.iterdir():
            leftover.unlink()
        work.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
