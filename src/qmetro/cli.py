"""Command-line surface: ``table``, ``protocol``, ``sweep``, ``validate``.

All angles are radians.  Output is deterministic: reals are rendered in
shortest round-trip decimal form, complex values as paired re/im columns, CSV
text holding a comma, quote or newline is quoted (RFC 4180), and file metadata
lives in '#'-prefixed sidecar lines with no timestamps, so identical
invocations produce byte-identical files.

Exit codes: 0 success, 1 validation failure, 2 usage error.

A process enters through :func:`run` (``python -m qmetro`` and the
``qmetro`` script); tests and other in-process callers call :func:`main`.

:func:`parse_args` reads a command line by one table, :data:`COMMANDS`,
which gives each command its handler, its help line and its options;
``--help`` prints text made from the same table.  An option is spelled in
full, with no prefix abbreviations, as ``--opt V`` or ``--opt=V``, and the
last of a repeated option wins.  The token after a valued option is its
value unless it starts with ``--``, so a negative number in exponent
notation reaches its domain check.  A refused command line is one
``error:`` line, worded as argparse words it; no command imports argparse,
gettext or locale.

Every command but ``validate`` writes its rows through one writer,
:func:`_write_rows`: a row is a tuple of cell text in column order, made by
the format's cell function in :data:`CELLS`, and the writer joins the rows
into blocks of at most :data:`SWEEP_BLOCK_ROWS` under the CSV meta line and
header, or inside the JSON document.  A sweep the kernel would refuse is
refused before its first byte (:func:`qmetro.gaussian.check_grid`), and
every command writes each block as it is formatted, so it holds one block,
not its document, and a reader that leaves (``| head``) stops the rows.
``json`` is imported only by the commands that write it.  ``sweep`` calls
the closed-form kernel
:func:`qmetro.gaussian.protocol_row` once per (n_bar, phi), for every eta at
once; each n_bar, phi and eta value, and each n_bar's shot-noise limit, has
its cell made once, so a grid point adds only the cells of its signal,
variance, delta_phi and snl_ratio.

``protocol`` takes a row's cutoff from its result, so the default cutoff is
resolved once, by the Fock run; ``--engine both`` adds the engines'
:func:`qmetro.gaussian.relative_deviation` to the meta line.

The Gaussian commands (``protocol --engine gaussian``, ``sweep`` and
``table`` without ``--oracle``) run on the standard library alone.
``sweep`` executes only this module and :mod:`qmetro.gaussian`;
``protocol`` adds :mod:`qmetro.protocol`, and ``table``
:mod:`qmetro.correlations`.  The engine modules :mod:`qmetro.protocol`,
:mod:`qmetro.fock`, :mod:`qmetro.correlations` and :mod:`qmetro.validate`
are bound here but load on first use (see
:mod:`qmetro`), so numpy is imported only by the commands that run the Fock
oracle, and no command needs scipy.
"""

from __future__ import annotations

import atexit
import math
import os
import sys
from collections.abc import Iterable
from functools import partial
from itertools import islice, starmap
from types import SimpleNamespace

from . import correlations as co
from . import gaussian, protocol, validate
from .gaussian import SingularOperatingPointError, TruncationOverflowError

# Keep this module below 4096 tokens as `tokenize` counts them, comments and
# NL tokens left out.  A command run without a bytecode cache compiles it,
# and between ~4080 and ~4110 tokens every command's peak RSS steps up by
# 0.25-0.35 MB (a `protocol` command read 14.87 MB at 4080 tokens and
# 15.11 MB at 4110).

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
#: Rows the writer joins into one block of its output (module docstring)
SWEEP_BLOCK_ROWS = 128
ENGINES = ("gaussian", "fock", "both")
VALIDATE_LEVELS = ("quick", "full")


def _fmt(value) -> str:
    """A value as CSV text; text holding a comma, quote or newline is quoted (RFC 4180)."""
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def _json_cell(value) -> str:
    """A value as JSON text, as ``json.dumps`` writes it."""
    if isinstance(value, float) and math.isfinite(value):
        return repr(value)
    import json

    return json.dumps(value)


#: The cell text of a value, by output format
CELLS = {"csv": _fmt, "json": _json_cell}


def _to_stdout(write, *args) -> None:
    """``write(*args)``, a write or flush of stdout; if the reader has gone
    (`qmetro sweep ... | head`), drop the rest quietly and point stdout at
    devnull, so that no later flush raises again."""
    try:
        write(*args)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(pieces: Iterable[str], out_path: str | None) -> None:
    """Write each piece of text in turn."""
    if out_path is None:
        _to_stdout(sys.stdout.writelines, pieces)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc


def _write_rows(columns: tuple[str, ...], meta: dict, fmt: str, out_path: str | None,
                rows: Iterable[tuple[str, ...]]) -> None:
    """Write one or more rows, each a tuple of ``CELLS[fmt]`` text in column order.

    CSV is the '#' meta line, the header and a line per row; JSON is what
    ``json.dumps({"meta": meta, "columns": columns, "rows": rows}, indent=2)``
    writes, each row an object keyed by the columns.  The head, then each
    block of at most :data:`SWEEP_BLOCK_ROWS` rows as soon as it is
    formatted, then the tail are written, so no more than one block of text
    is held, and a reader that leaves stops the rows.  So a command raises
    its refusals before it calls this, as ``sweep`` does by
    :func:`qmetro.gaussian.check_grid`: no refused command writes a byte.
    """
    if fmt == "csv":
        meta_line = "# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        head, sep, tail = f"{meta_line}\n{','.join(columns)}", "\n", "\n"
        lines = partial(map, ",".join)
    else:
        import json

        # the document up to the rows' "[", then each row as json.dumps indents it
        head = json.dumps({"meta": meta, "columns": list(columns), "rows": []}, indent=2)[:-3]
        sep, tail = ",\n", "\n  ]\n}\n"
        template = ("    {{\n" + ",\n".join(f"      {json.dumps(c)}: {{}}" for c in columns)
                    + "\n    }}")
        lines = partial(starmap, template.format)

    def pieces(rows=iter(rows), gap="\n"):
        yield head
        while block := sep.join(lines(islice(rows, SWEEP_BLOCK_ROWS))):
            yield gap + block
            gap = sep
        yield tail

    _emit(pieces(), out_path)


class UsageError(ValueError):
    """Bad input on the command line (exit code 2)."""


def _parse_grid(raw: str, name: str) -> list[float]:
    try:
        return [float(x) for x in raw.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--{name}: expected comma-separated numbers, got {raw!r}") from exc


def _check_sweep_axes(n_bars: list, phis: list, etas: list, n_bar_option: str) -> None:
    """Refuse an empty or unordered axis, or a value its check (by option) or the sweep refuses."""
    for name, values, check in ((n_bar_option, n_bars, gaussian.check_n_bar),
                                ("--phi", phis, gaussian.check_phi),
                                ("--eta", etas, gaussian.check_eta)):
        if not values:
            raise UsageError(f"{name}: empty grid")
        for value in values:
            check(value, name)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise UsageError(f"{name}: grid must be strictly increasing")
    # the sweep's own, narrower domain: the axes increase, so their ends decide
    for phi in (phis[0], phis[-1]):
        if not 0.0 < phi < gaussian.HALF_PI:
            raise UsageError(f"--phi={phi!r} outside (0, pi/2): a sweep excludes the extrema")
    if etas[0] == 0.0:
        raise UsageError(f"--eta={etas[0]!r} outside (0, 1]: a sweep needs light at the detector")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    if args.cutoff is not None:
        gaussian.check_cutoff(args.cutoff, "--cutoff", 1)
    co.check_table_n_bar(args.nbar, "--nbar")
    rows = []
    for family in co.ProbeFamily:
        try:
            row = co.table_row(family, args.nbar)
        except ValueError as exc:
            rows.append((family.value, args.nbar, *[None] * 7, f"closed form unavailable: {exc}"))
            continue
        oracle_values, note = [None] * 4, ""
        if family in co.FORMULA_ONLY:
            note = "formula-only"
        elif args.oracle:
            try:
                oracle = co.oracle_row(family, args.nbar, args.cutoff)
                oracle_values = [oracle.q, oracle.j, oracle.qfi, row.max_deviation(oracle)]
            except (ValueError, TruncationOverflowError, MemoryError) as exc:
                note = f"oracle unavailable: {exc}"
        rows.append((family.value, row.n_bar, row.q, row.j, row.qfi, *oracle_values, note))
    meta = {"command": "table", "n_bar": _fmt(float(args.nbar)), "oracle": args.oracle}
    if args.cutoff is not None:
        meta["cutoff"] = args.cutoff
    cell = CELLS[args.format]
    _write_rows(TABLE_COLUMNS, meta, args.format, args.out,
                [tuple(map(cell, row)) for row in rows])
    return 0


def _protocol_values(engine: str, config: protocol.ProtocolConfig,
                     result: protocol.ProtocolResult) -> tuple:
    """A protocol point's values in :data:`PROTOCOL_COLUMNS` order."""
    snl = gaussian.shot_noise_limit(config.n_bar)
    return (
        engine, config.n_bar, config.r, config.phi, config.eta1, config.eta2, result.cutoff,
        result.signal, result.variance, result.phase_error, result.phase_error_is_limit,
        result.moments.m_aa.real, result.moments.m_aa.imag, snl,
        (snl / result.phase_error) if result.phase_error else None, result.trace_deficit,
    )


def cmd_protocol(args) -> int:
    config = _protocol_config(args)
    meta = {"command": "protocol"}
    if args.engine == "both":
        report = protocol.run_both(config)
        results = {"gaussian": report.gaussian_result, "fock": report.fock_result}
        meta["signal_rel_dev"] = _fmt(report.rel_deviation("signal"))
        meta["variance_rel_dev"] = _fmt(report.rel_deviation("variance"))
        meta["m_aa_rel_dev"] = _fmt(report.rel_deviation("moments.m_aa"))
    elif args.engine == "fock":
        results = {"fock": protocol.run_fock(config)}
    else:
        results = {"gaussian": protocol.run_gaussian(config)}
    cell = CELLS[args.format]
    _write_rows(PROTOCOL_COLUMNS, meta, args.format, args.out,
                [tuple(map(cell, _protocol_values(engine, config, result)))
                 for engine, result in results.items()])
    return 0


def _protocol_config(args) -> protocol.ProtocolConfig:
    if (args.nbar is None) == (args.r is None):
        raise UsageError("give exactly one of --nbar and --r")
    if args.eta is not None and (args.eta1 is not None or args.eta2 is not None):
        raise UsageError("give --eta or --eta1/--eta2, not both")
    checks = {"nbar": gaussian.check_n_bar, "r": gaussian.check_r, "eta": gaussian.check_eta,
              "eta1": gaussian.check_eta, "eta2": gaussian.check_eta, "phi": gaussian.check_phi,
              "cutoff": gaussian.check_cutoff}
    for option, check in checks.items():  # as typed; the config checks the values again
        if getattr(args, option) is not None:
            check(getattr(args, option), f"--{option}")
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
        gaussian.check_n_bar(lo, "--nbar-logspace MIN")
        gaussian.check_value(count, "--nbar-logspace COUNT", 1)
        if not lo < hi < math.inf or count != int(count):
            raise UsageError("--nbar-logspace needs a finite MAX above MIN and a whole COUNT")
        count = int(count)
        if count > 1 and hi / lo == math.inf:
            raise UsageError(f"--nbar-logspace MAX/MIN={hi!r}/{lo!r} overflows a double; "
                             "narrow the grid")
        n_bars = [lo * (hi / lo) ** (i / max(count - 1, 1)) for i in range(count)]
    else:
        raise UsageError("give --nbar or --nbar-logspace")
    phi_values = _parse_grid(args.phi, "phi")
    eta_values = _parse_grid(args.eta, "eta")
    _check_sweep_axes(n_bars, phi_values, eta_values,
                      "--nbar" if args.nbar is not None else "--nbar-logspace")
    eta_pairs = [(eta, eta) for eta in eta_values]
    gaussian.check_grid(n_bars, phi_values, eta_pairs)
    meta = {
        "command": "sweep",
        "snl_convention": "single-mode 1/sqrt(4 n_bar)",
        "engine": "gaussian",
        "points": len(n_bars) * len(phi_values) * len(eta_values),
    }
    _write_rows(SWEEP_COLUMNS, meta, args.format, args.out,
                _sweep_rows(n_bars, phi_values, eta_pairs, CELLS[args.format]))
    return 0


def _sweep_rows(n_bars: list, phis: list, eta_pairs: list, cell):
    """The sweep's rows of cell text, in row order; each axis value's cell,
    and each n_bar's shot-noise limit, is formatted once."""
    phi_cells = [(phi, cell(phi)) for phi in phis]
    eta_cells = [cell(eta) for eta, _ in eta_pairs]
    inf = math.inf
    for n_bar in n_bars:
        snl = gaussian.shot_noise_limit(n_bar)
        n_bar_cell, snl_cell = cell(n_bar), cell(snl)
        for phi, phi_cell in phi_cells:
            # the kernel `protocol --engine gaussian` evaluates, so a
            # single-point sweep reproduces that command exactly
            for eta_cell, (signal, variance, _, _, error, _) in zip(
                eta_cells, gaussian.protocol_row(n_bar, phi, eta_pairs)
            ):
                # a finite float's cell is its repr in either format; the
                # kernel refuses a variance that overflows, so the signal and
                # variance are finite, and only an empty or infinite
                # delta_phi or snl_ratio takes the cell function
                ratio = snl / error if error else None
                if ratio is not None and error < inf and ratio < inf:
                    yield (n_bar_cell, phi_cell, eta_cell, repr(signal), repr(variance),
                           repr(error), snl_cell, repr(ratio))
                else:
                    yield (n_bar_cell, phi_cell, eta_cell, repr(signal), repr(variance),
                           cell(error), snl_cell, cell(ratio))


def cmd_validate(args) -> int:
    import json

    report = validate.run_checks()
    doc = json.dumps(report, indent=2)
    if args.out is not None:
        _emit([doc, "\n"], args.out)
        summary = [f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}: observed "
                   f"{check['observed']:.3e} (budget {check['budget']:.0e})\n"
                   for check in report["checks"]]
        _emit([*summary, f"{len(report['checks'])} checks\n"], None)
    else:
        _emit([doc, "\n"], None)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


#: The value parser of an option that takes no value and is True when given
FLAG = "flag"
#: The value parser of ``--nbar-logspace``: three floats, MIN MAX COUNT
THREE_FLOATS = "three floats"
#: The default of an option the command line must give
REQUIRED = "required"
_HELP_OPTIONS = ("-h", "--help")
_IO_OPTIONS = {
    "--format": (("csv", "json"), "csv", "CSV rows or one JSON document"),
    "--out": (str, None, "write here instead of stdout"),
}
#: Each command: its handler, its help line, and its options, each
#: ``--name: (value parser, default or REQUIRED, help)``; the value parser
#: is a type, a tuple of choices, FLAG or THREE_FLOATS
COMMANDS = {
    "table": (cmd_table, "closed-form (Q, J, QFI) catalogue, optionally oracle-checked", {
        "--nbar": (float, REQUIRED, "mean photon number"),
        "--oracle": (FLAG, False, "add exact Fock columns for constructible states"),
        "--cutoff": (int, None, "Fock cutoff of the oracle"),
        **_IO_OPTIONS,
    }),
    "protocol": (cmd_protocol, "run one protocol operating point", {
        "--nbar": (float, None, "mean probe photons sinh^2 r"),
        "--r": (float, None, "squeezing parameter"),
        "--phi": (float, REQUIRED, "phase (radians)"),
        "--eta": (float, None, "shared transmissivity"),
        "--eta1": (float, None, "transmissivity after the phase"),
        "--eta2": (float, None, "transmissivity at the detector"),
        "--cutoff": (int, None, "Fock cutoff (Fock engine only)"),
        "--engine": (ENGINES, "gaussian", "closed-form moments, Fock oracle, or both"),
        **_IO_OPTIONS,
    }),
    "sweep": (cmd_sweep, "closed-form grid sweep (Gaussian engine)", {
        "--nbar": (str, None, "comma-separated increasing grid"),
        "--nbar-logspace": (THREE_FLOATS, None, "log-spaced grid"),
        "--phi": (str, REQUIRED, "comma-separated increasing list"),
        "--eta": (str, REQUIRED, "comma-separated increasing list"),
        **_IO_OPTIONS,
    }),
    "validate": (cmd_validate, "run the self-check suite", {
        "--level": (VALIDATE_LEVELS, "quick", "ignored: both levels run the one suite"),
        "--out": (str, None, "write the JSON report here (summary goes to stdout)"),
    }),
}


def _choices(values) -> str:
    return ", ".join(map(repr, values))


def _value(name: str, kind, raw: list[str]):
    """An option's value from its tokens, refused in argparse's words."""
    if isinstance(kind, tuple):
        if raw[0] not in kind:
            raise UsageError(f"argument {name}: invalid choice: {raw[0]!r} "
                             f"(choose from {_choices(kind)})")
        return raw[0]
    parse = float if kind is THREE_FLOATS else kind
    values = []
    for token in raw:
        try:
            values.append(parse(token))
        except ValueError:
            raise UsageError(
                f"argument {name}: invalid {parse.__name__} value: {token!r}") from None
    return values if kind is THREE_FLOATS else values[0]


def _help_text(command: str | None = None) -> str:
    """The ``--help`` text of ``qmetro`` (no command) or of one command, from :data:`COMMANDS`."""
    if command is None:
        lines = [f"usage: qmetro {{{','.join(COMMANDS)}}} [options]", "",
                 "Squeezed-light phase-estimation workbench "
                 "(closed-form moment engine + exact Fock oracle).", "", "commands:"]
        lines += [f"  {name:<10}{summary}" for name, (_, summary, _) in COMMANDS.items()]
        lines += ["", "'qmetro <command> --help' lists a command's options."]
        return "\n".join(lines) + "\n"
    _, summary, options = COMMANDS[command]
    rows = [("-h, --help", "show this help and exit")]
    for name, (kind, default, text) in options.items():
        metavar = ("" if kind is FLAG else " MIN MAX COUNT" if kind is THREE_FLOATS
                   else f" {{{','.join(kind)}}}" if isinstance(kind, tuple)
                   else f" {name[2:].upper()}")
        if default is REQUIRED:
            text += " (required)"
        elif default not in (None, False):
            text += f" (default: {default})"
        rows.append((name + metavar, text))
    width = max(len(flags) for flags, _ in rows) + 2
    lines = [f"usage: qmetro {command} [options]", "", summary, "", "options:"]
    lines += [f"  {flags:<{width}}{text}" for flags, text in rows]
    return "\n".join(lines) + "\n"


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a command line, by :data:`COMMANDS`; None once ``--help`` is printed.

    ``args.command`` names the command, and each of its options is an
    attribute (``--nbar-logspace`` as ``nbar_logspace``), its default where
    the line does not give it.  A value follows its option as the next token
    (three for ``--nbar-logspace``) or after ``=``; a token that starts with
    ``--`` is never a value, and any other is, so a negative number in any
    notation reaches its domain check.  The last of a repeated option wins,
    and an option is spelled in full.  The first fault, then a missing
    required option, is refused by :class:`UsageError` in argparse's words.
    """
    if not argv:
        raise UsageError("the following arguments are required: command")
    command, tokens = argv[0], argv[1:]
    if command in _HELP_OPTIONS:
        _emit([_help_text()], None)
        return None
    if command not in COMMANDS:
        if command.startswith("-"):
            raise UsageError(f"unrecognized arguments: {command}")
        raise UsageError(f"argument command: invalid choice: {command!r} "
                         f"(choose from {_choices(COMMANDS)})")
    options = COMMANDS[command][2]
    values = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token in _HELP_OPTIONS:
            _emit([_help_text(command)], None)
            return None
        name, eq, inline = token.partition("=")
        if name not in options:
            raise UsageError(f"unrecognized arguments: {token}")
        kind = options[name][0]
        if kind is FLAG:
            if eq:
                raise UsageError(f"argument {name}: ignored explicit argument {inline!r}")
            values[name] = True
            continue
        count = 3 if kind is THREE_FLOATS else 1
        if eq:
            raw = [inline]
        else:
            raw = []
            while len(raw) < count and i < len(tokens) and not tokens[i].startswith("--"):
                raw.append(tokens[i])
                i += 1
        if len(raw) != count:
            raise UsageError(f"argument {name}: expected "
                             + ("one argument" if count == 1 else f"{count} arguments"))
        values[name] = _value(name, kind, raw)
    missing = [name for name, (_, default, _) in options.items()
               if default is REQUIRED and name not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, **{
        name[2:].replace("-", "_"): values.get(name, default)
        for name, (_, default, _) in options.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        # the handler by its module attribute, so that a wrapper bound over
        # it (perfbench's span tracer) is what runs
        return globals()[COMMANDS[args.command][0].__name__](args)
    except SingularOperatingPointError as exc:
        return _refuse(f"singular operating point: {exc}")
    except (ValueError, TruncationOverflowError) as exc:
        return _refuse(exc)
    except MemoryError as exc:
        # an allocation the OS refuses at once; one it grants and then kills
        # the process for is beyond catching
        return _refuse(f"out of memory: {str(exc) or 'an allocation was refused'}")


def _refuse(text) -> int:
    """Write a refusal's ``error:`` line to stderr; its exit code, 2."""
    _to_stderr(f"error: {text}\n")
    return 2


def _to_stderr(text: str = "") -> None:
    """Write ``text`` to stderr and flush it; if the shell has closed stderr
    (``2>&-``), do nothing, so that a refusal still exits 2."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except (AttributeError, OSError):  # stderr is None, or its descriptor is gone
        pass


def _observed() -> bool:
    """Whether a tracer or profiler (coverage, ``python -m cProfile``, a debugger) is set."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, tool ids 0-5
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None and any(map(monitoring.get_tool, range(6)))))


def run() -> int:
    """Process entry point of ``python -m qmetro`` and the ``qmetro`` script.

    Runs :func:`main`, then the atexit handlers, flushes stdout and stderr
    (a reader that has gone is handled as :func:`_emit` handles it, and a
    stderr the shell has closed as :func:`_refuse` handles it) and ends
    the process by :func:`os._exit` with :func:`main`'s exit code.  So no
    command pays for the interpreter's teardown, which clears every module
    and collects the heap but runs no finalizer that qmetro needs: every
    ``--out`` file is closed before :func:`main` returns.  Under a tracer or
    profiler it returns the exit code instead, so the interpreter shuts down
    as usual and coverage or ``python -m cProfile -m qmetro`` writes its
    report.  An exception out of :func:`main` propagates, with its traceback
    and exit code 1.  :func:`main` leaves the process as it found it.
    """
    code = main()
    if _observed():
        return code
    atexit._run_exitfuncs()
    if sys.stdout is not None:  # None when the shell closed it (`>&-`)
        _to_stdout(sys.stdout.flush)
    _to_stderr()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
