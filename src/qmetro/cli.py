"""Command-line surface: ``table``, ``protocol``, ``sweep``, ``validate``.

All angles are radians.  Output is deterministic: reals are rendered in
shortest round-trip decimal form, complex values as paired re/im columns, and
file metadata lives in '#'-prefixed sidecar lines with no timestamps, so
identical invocations produce byte-identical files.

Exit codes: 0 success, 1 validation failure, 2 usage error.

A process enters through :func:`run` (``python -m qmetro`` and the
``qmetro`` script); tests and other in-process callers call :func:`main`.

``sweep`` calls the closed-form kernel :func:`qmetro.gaussian.protocol_row`
once per (n_bar, phi) row, for every eta at once, and formats its CSV rows
from the plain tuples it returns, without a per-row dict: the text of each
n_bar, phi and eta value and of each n_bar's shot-noise limit is formatted
once per axis value, and each grid point adds only its signal, variance,
delta_phi and snl_ratio.  Finished lines are joined into
blocks of at most :data:`SWEEP_BLOCK_ROWS` rows as the loop goes, so the
output text is held once, not as one string per row, and once the grid is
done the blocks are written one at a time, with no joined document or
encoded copy of it.  ``--format json`` takes its value rows from the same
loop.  Nothing is written before the grid is done, so a point that fails
leaves stdout and ``--out`` untouched.  ``json`` is imported only by the
commands that write it.

The Gaussian commands (``protocol --engine gaussian``, ``sweep`` and
``table`` without ``--oracle``) run on the standard library alone.
``protocol`` and ``sweep`` execute only this module, :mod:`qmetro.protocol`
and :mod:`qmetro.gaussian`; ``table`` adds :mod:`qmetro.correlations`.  The
engine modules :mod:`qmetro.fock`, :mod:`qmetro.correlations` and
:mod:`qmetro.validate` are bound here but load on first use (see
:mod:`qmetro`), so numpy is imported only by the commands that run the Fock
oracle, and no command needs scipy.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
from collections.abc import Iterable
from itertools import chain

from . import correlations as co
from . import gaussian, protocol, validate
from .gaussian import Frozen, SingularOperatingPointError, TruncationOverflowError

TABLE_COLUMNS = (
    "state_id", "n_bar", "q", "j", "qfi",
    "oracle_q", "oracle_j", "oracle_qfi", "max_rel_dev", "note",
)
PROTOCOL_COLUMNS = (
    "engine", "n_bar", "r", "phi", "eta1", "eta2", "cutoff",
    "signal", "variance", "delta_phi", "delta_phi_is_limit",
    "m_aa_re", "m_aa_im", "snl", "snl_ratio", "trace_deficit",
)
SWEEP_COLUMNS = ("n_bar", "phi", "eta", "signal", "variance", "delta_phi", "snl", "snl_ratio")
#: CSV lines a sweep joins into one block of its output (module docstring)
SWEEP_BLOCK_ROWS = 128
ENGINES = ("gaussian", "fock", "both")
VALIDATE_LEVELS = ("quick", "full")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write(fh, pieces: Iterable[str]) -> None:
    for piece in pieces:
        fh.write(piece)
        fh.write("\n")


def _emit(pieces: Iterable[str], out_path: str | None) -> None:
    """Write each piece of text, one line or a block of lines, and a newline."""
    if out_path is None:
        try:
            _write(sys.stdout, pieces)
        except BrokenPipeError:
            # the reader has gone (`qmetro sweep ... | head`): drop the rest
            # quietly, and point stdout at devnull so that the interpreter's
            # final flush does not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                _write(fh, pieces)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc


def _emit_rows(rows: list[dict], columns: tuple[str, ...], meta: dict, fmt: str,
               out_path: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(_fmt(row.get(c)) for c in columns) for row in rows]
        _emit_csv(lines, columns, meta, out_path)
    else:
        import json

        doc = {"meta": meta, "columns": list(columns), "rows": rows}
        _emit([json.dumps(doc, indent=2)], out_path)


def _emit_csv(lines: list[str], columns: tuple[str, ...], meta: dict,
              out_path: str | None) -> None:
    """Write formatted data lines, or blocks of them, under the '#' meta line
    and the header."""
    meta_line = "# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    _emit(chain((meta_line, ",".join(columns)), lines), out_path)


class UsageError(ValueError):
    """Bad input on the command line (exit code 2)."""


def _parse_grid(raw: str, name: str) -> list[float]:
    try:
        return [float(x) for x in raw.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--{name}: expected comma-separated numbers, got {raw!r}") from exc


class SweepSpec(Frozen):
    """Axes and output destination of one sweep invocation."""

    __slots__ = ("n_bar_values", "phi_values", "eta_values", "fmt", "out_path")

    def __init__(
        self,
        n_bar_values: tuple[float, ...],
        phi_values: tuple[float, ...],
        eta_values: tuple[float, ...],
        fmt: str,
        out_path: str | None,
    ) -> None:
        self._init(n_bar_values, phi_values, eta_values, fmt, out_path)
        for name, values in (
            ("nbar", self.n_bar_values), ("phi", self.phi_values), ("eta", self.eta_values),
        ):
            if not values:
                raise UsageError(f"--{name}: empty grid")
            if not all(0.0 < v < math.inf for v in values):
                raise UsageError(f"--{name}: values must be finite and positive")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise UsageError(f"--{name}: grid must be strictly increasing")
        if any(v >= math.pi / 2 for v in self.phi_values):
            raise UsageError("--phi: sweep values must be below pi/2 (signal extremum)")
        for eta in self.eta_values:
            gaussian.check_eta(eta)
        # the smallest values: the grids increase
        gaussian.check_n_bar(self.n_bar_values[0])
        gaussian.check_phi(self.phi_values[0])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    if args.nbar is None or not 0.0 < args.nbar < math.inf:
        raise UsageError("--nbar must be a finite positive number")
    if args.cutoff is not None and args.cutoff < 1:
        raise UsageError("--cutoff must be >= 1")
    co.check_table_n_bar(args.nbar)
    rows = []
    for family in co.ProbeFamily:
        try:
            row = co.table_row(family, args.nbar)
        except ValueError as exc:
            rows.append({
                "state_id": family.value, "n_bar": args.nbar,
                "note": f"closed form unavailable: {exc}",
            })
            continue
        record = {
            "state_id": family.value, "n_bar": row.n_bar,
            "q": row.q, "j": row.j, "qfi": row.qfi, "note": "",
        }
        if family in co.FORMULA_ONLY:
            record["note"] = "formula-only"
        elif args.oracle:
            try:
                oracle = co.oracle_row(family, args.nbar, args.cutoff)
                record.update({
                    "oracle_q": oracle.q, "oracle_j": oracle.j, "oracle_qfi": oracle.qfi,
                    "max_rel_dev": row.max_deviation(oracle),
                })
            except (ValueError, TruncationOverflowError) as exc:
                record["note"] = f"oracle unavailable: {exc}"
        rows.append(record)
    meta = {"command": "table", "n_bar": _fmt(float(args.nbar)), "oracle": args.oracle}
    if args.cutoff is not None:
        meta["cutoff"] = args.cutoff
    _emit_rows(rows, TABLE_COLUMNS, meta, args.format, args.out)
    return 0


def _protocol_record(engine: str, config: protocol.ProtocolConfig,
                     result: protocol.ProtocolResult, cutoff) -> dict:
    n_bar = config.n_bar_value
    snl = gaussian.shot_noise_limit(n_bar)
    return {
        "engine": engine,
        "n_bar": n_bar,
        "r": config.r_value,
        "phi": config.phi,
        "eta1": config.eta1,
        "eta2": config.eta2,
        "cutoff": cutoff,
        "signal": result.signal,
        "variance": result.variance,
        "delta_phi": result.phase_error,
        "delta_phi_is_limit": result.phase_error_is_limit,
        "m_aa_re": result.moments.m_aa.real,
        "m_aa_im": result.moments.m_aa.imag,
        "snl": snl,
        "snl_ratio": (snl / result.phase_error) if result.phase_error else None,
        "trace_deficit": result.trace_deficit,
    }


def cmd_protocol(args) -> int:
    config = _protocol_config(args)
    rows = []
    if args.engine == "both":
        report = protocol.run_both(config)
        rows.append(_protocol_record("gaussian", config, report.gaussian_result, None))
        rows.append(_protocol_record("fock", config, report.fock_result, report.cutoff))
        deviations = {
            "signal_rel_dev": report.rel_deviation("signal"),
            "variance_rel_dev": report.rel_deviation("variance"),
            "m_aa_rel_dev": report.moment_aa_deviation(),
        }
        meta = {"command": "protocol", **{k: _fmt(v) for k, v in deviations.items()}}
    elif args.engine == "fock":
        result = protocol.run_fock(config)
        rows.append(_protocol_record("fock", config, result, config.cutoff_value))
        meta = {"command": "protocol"}
    else:
        rows.append(_protocol_record("gaussian", config, protocol.run_gaussian(config), None))
        meta = {"command": "protocol"}
    columns = PROTOCOL_COLUMNS
    _emit_rows(rows, columns, meta, args.format, args.out)
    return 0


def _protocol_config(args) -> protocol.ProtocolConfig:
    if (args.nbar is None) == (args.r is None):
        raise UsageError("give exactly one of --nbar and --r")
    if args.eta is not None and (args.eta1 is not None or args.eta2 is not None):
        raise UsageError("give --eta or --eta1/--eta2, not both")
    eta1 = args.eta if args.eta is not None else (args.eta1 if args.eta1 is not None else 1.0)
    eta2 = args.eta if args.eta is not None else (args.eta2 if args.eta2 is not None else 1.0)
    return protocol.ProtocolConfig(
        phi=args.phi, n_bar=args.nbar, r=args.r, eta1=eta1, eta2=eta2, cutoff=args.cutoff
    )


def cmd_sweep(args) -> int:
    if args.nbar is not None and args.nbar_logspace is not None:
        raise UsageError("give --nbar or --nbar-logspace, not both")
    if args.nbar is not None:
        n_bars = _parse_grid(args.nbar, "nbar")
    elif args.nbar_logspace is not None:
        lo, hi, count = args.nbar_logspace
        if not all(math.isfinite(v) for v in args.nbar_logspace):
            raise UsageError("--nbar-logspace: MIN, MAX and COUNT must be finite numbers")
        if lo <= 0 or hi <= lo or count < 1:
            raise UsageError("--nbar-logspace needs 0 < MIN < MAX and COUNT >= 1")
        if count != int(count):
            raise UsageError(f"--nbar-logspace: COUNT must be a whole number, got {count!r}")
        count = int(count)
        n_bars = [lo * (hi / lo) ** (i / max(count - 1, 1)) for i in range(count)]
    else:
        raise UsageError("give --nbar or --nbar-logspace")
    spec = SweepSpec(
        n_bar_values=tuple(n_bars),
        phi_values=tuple(_parse_grid(args.phi, "phi")),
        eta_values=tuple(_parse_grid(args.eta, "eta")),
        fmt=args.format,
        out_path=args.out,
    )
    # rows holds JSON value rows, or CSV lines joined into blocks of at most
    # SWEEP_BLOCK_ROWS lines (module docstring)
    csv = spec.fmt == "csv"
    rows: list = []
    lines: list[str] = []
    phis = [(phi, f"{phi!r},") for phi in spec.phi_values]
    etas = [(eta, f"{eta!r},") for eta in spec.eta_values]
    eta_pairs = [(eta, eta) for eta in spec.eta_values]
    for n_bar in spec.n_bar_values:
        snl = gaussian.shot_noise_limit(n_bar)
        n_bar_text, snl_text = f"{n_bar!r},", f",{snl!r},"
        for phi, phi_text in phis:
            head = n_bar_text + phi_text
            # the kernel `protocol --engine gaussian` evaluates, so a
            # single-point sweep reproduces that command exactly
            for (eta, eta_text), (signal, variance, _, _, error, _) in zip(
                etas, gaussian.protocol_row(n_bar, phi, eta_pairs)
            ):
                ratio = snl / error if error else None
                if not csv:
                    rows.append(dict(zip(SWEEP_COLUMNS, (
                        n_bar, phi, eta, signal, variance, error, snl, ratio,
                    ))))
                    continue
                if ratio is not None:
                    lines.append(f"{head}{eta_text}{signal!r},{variance!r},"
                                 f"{error!r}{snl_text}{ratio!r}")
                else:
                    lines.append(f"{head}{eta_text}{signal!r},{variance!r},"
                                 f"{_fmt(error)}{snl_text}")
                if len(lines) == SWEEP_BLOCK_ROWS:
                    rows.append("\n".join(lines))
                    lines = []
    if lines:
        rows.append("\n".join(lines))
    meta = {
        "command": "sweep",
        "snl_convention": "single-mode 1/sqrt(4 n_bar)",
        "engine": "gaussian",
        "points": len(spec.n_bar_values) * len(spec.phi_values) * len(spec.eta_values),
    }
    if csv:
        _emit_csv(rows, SWEEP_COLUMNS, meta, spec.out_path)
    else:
        _emit_rows(rows, SWEEP_COLUMNS, meta, spec.fmt, spec.out_path)
    return 0


def cmd_validate(args) -> int:
    import json

    started = time.monotonic()
    report = validate.run_checks(args.level)
    doc = json.dumps(report, indent=2)
    if args.out is not None:
        _emit([doc], args.out)
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"{status} {check['name']}: observed {check['observed']:.3e} "
                  f"(budget {check['budget']:.0e})")
        print(f"{len(report['checks'])} checks in {time.monotonic() - started:.1f}s")
    else:
        _emit([doc], None)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetro",
        description="Squeezed-light phase-estimation workbench "
                    "(closed-form moment engine + exact Fock oracle).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None, help="write here instead of stdout")

    p_table = sub.add_parser(
        "table", help="closed-form (Q, J, QFI) catalogue, optionally oracle-checked")
    p_table.add_argument("--nbar", type=float, required=True, help="mean photon number")
    p_table.add_argument("--oracle", action="store_true",
                         help="add exact Fock columns for constructible states")
    p_table.add_argument("--cutoff", type=int, default=None)
    add_io(p_table)
    p_table.set_defaults(fn=cmd_table)

    p_proto = sub.add_parser("protocol", help="run one protocol operating point")
    group = p_proto.add_mutually_exclusive_group()
    group.add_argument("--nbar", type=float, default=None, help="mean probe photons sinh^2 r")
    group.add_argument("--r", type=float, default=None, help="squeezing parameter")
    p_proto.add_argument("--phi", type=float, required=True, help="phase (radians)")
    p_proto.add_argument("--eta", type=float, default=None, help="shared transmissivity")
    p_proto.add_argument("--eta1", type=float, default=None, help="transmissivity after the phase")
    p_proto.add_argument("--eta2", type=float, default=None, help="transmissivity at the detector")
    p_proto.add_argument("--cutoff", type=int, default=None, help="Fock cutoff (Fock engine only)")
    p_proto.add_argument("--engine", choices=ENGINES, default="gaussian")
    add_io(p_proto)
    p_proto.set_defaults(fn=cmd_protocol)

    p_sweep = sub.add_parser("sweep", help="closed-form grid sweep (Gaussian engine)")
    p_sweep.add_argument("--nbar", default=None, help="comma-separated increasing grid")
    p_sweep.add_argument("--nbar-logspace", nargs=3, type=float, default=None,
                         metavar=("MIN", "MAX", "COUNT"), help="log-spaced grid")
    p_sweep.add_argument("--phi", required=True, help="comma-separated increasing list")
    p_sweep.add_argument("--eta", required=True, help="comma-separated increasing list")
    add_io(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the self-check suites")
    p_val.add_argument("--level", choices=VALIDATE_LEVELS, default="quick")
    p_val.add_argument("--out", metavar="PATH", default=None,
                       help="write the JSON report here (summary goes to stdout)")
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SingularOperatingPointError as exc:
        print(f"error: singular operating point: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TruncationOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Process entry point of ``python -m qmetro`` and the ``qmetro`` script.

    Returns :func:`main`'s exit code.  On the way out, also when argparse
    exits by ``SystemExit``, it freezes the heap (:func:`gc.freeze`), so the
    interpreter's full collections at shutdown skip the ~12k (Gaussian) to
    ~21k (Fock) objects the command left alive; those collections only run
    finalizers of cyclic garbage, and qmetro has none.  :func:`main` leaves
    the collector as it found it.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
