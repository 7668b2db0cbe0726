"""Command-line surface: ``table``, ``protocol``, ``sweep``, ``validate``.

All angles are radians.  Output is deterministic: reals are rendered in
shortest round-trip decimal form, complex values as paired re/im columns, CSV
text holding a comma, quote or newline is quoted (RFC 4180), and file metadata
lives in '#'-prefixed sidecar lines with no timestamps, so identical
invocations produce byte-identical files.

Exit codes: 0 success, 1 validation failure, 2 usage error.

A process enters through :func:`run` (``python -m qmetro`` and the
``qmetro`` script), which runs the command with the cyclic garbage
collector off and ends the process at its last flush, by :func:`os._exit`.
Tests and other in-process callers call :func:`main`, which leaves the
collector, as the rest of the process, as it found it.

This module holds what every command runs: the option table, its parser and
``--help``, the row writer, the refusals and the way out.  Each command's
handler is ``run(args)`` of a module of its own, :mod:`qmetro.cmd_table`,
:mod:`qmetro.cmd_protocol`, :mod:`qmetro.cmd_sweep` or
:mod:`qmetro.cmd_validate`, with the helpers and columns only it uses;
:func:`main` imports that module when its command runs, and no other.  So
a command run without a bytecode cache compiles its own handler and none
of the other three.

:func:`parse_args` reads a command line by one table, :data:`COMMANDS`,
which gives each command its handler module, its help line and its
options; ``--help`` prints text made from the same table.  An option is
spelled in full, with no prefix abbreviations, as ``--opt V`` or
``--opt=V``, and the last of a repeated option wins.  The token after a
valued option is its value unless it starts with ``--``, so a negative
number in exponent notation reaches its domain check.  A refused command
line is one ``error:`` line, worded as argparse words it; no command
imports argparse, gettext or locale.

Every command but ``validate`` writes its rows through one writer,
:func:`_write_rows`: a row is a tuple of cell text in column order, made by
the format's cell function in :data:`CELLS`, and the writer joins the rows
into blocks of at most :data:`SWEEP_BLOCK_ROWS` under the CSV meta line and
header, or inside the JSON document.  A sweep the kernel would refuse is
refused before its first byte (:func:`qmetro.cmd_sweep.check_grid`), and
every command writes each block as it is formatted, so it holds one block,
not its document, and a reader that leaves (``| head``) stops the rows.
``json`` is imported only by the commands that write it.

Each stream has one write policy, in the one function that writes and
flushes it.  :func:`_emit` writes stdout and ``--out``: a stdout that is
gone (closed by ``>&-``, its reader left, or open read-only) takes nothing
and leaves the exit code alone; any other failed write is refused as
``cannot write stdout`` or ``cannot write <path>``, exit 2.  :func:`_refuse`
writes stderr: a closed stderr (``2>&-``) takes nothing, and still exits 2.

The Gaussian commands (``protocol --engine gaussian``, ``sweep`` and
``table`` without ``--oracle``) run on the standard library alone.  Each
command executes this module, :mod:`qmetro.gaussian` and its handler
module; ``protocol`` adds :mod:`qmetro.protocol`, and ``table``
:mod:`qmetro.correlations`.  The engine modules load on first use (see
:mod:`qmetro`), so numpy is imported only by the commands that run the Fock
oracle, and no command needs scipy.
"""

from __future__ import annotations

import atexit
import errno
import gc
import importlib
import math
import os
import sys
from collections.abc import Iterable
from functools import partial
from itertools import islice, starmap
from types import SimpleNamespace

from .gaussian import SingularOperatingPointError, TruncationOverflowError

# A command run without a bytecode cache compiles every module it imports,
# and the parser's memory for the largest sets its peak RSS.  So code that
# only one command runs goes in its handler module, and this module stays
# smaller than gaussian.py, which every command compiles too (a test counts
# their tokens): padded to 2733 tokens, it raised each Gaussian command's
# peak by 0.2-0.3 MB.

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


def _emit(pieces: Iterable[str], out_path: str | None) -> None:
    """Write each piece of text in turn to ``out_path``, or to stdout, and flush it.

    A stdout that is gone (None, ``EPIPE`` or ``EBADF``) takes nothing; any
    other failed write is a :class:`UsageError` (module docstring).  A stdout
    that fails is pointed at devnull, so that no later flush fails again.
    """
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc
    elif sys.stdout is not None:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except OSError as exc:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if exc.errno not in (errno.EPIPE, errno.EBADF):
                raise UsageError(f"cannot write stdout: {exc}") from exc


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
    :func:`qmetro.cmd_sweep.check_grid`: no refused command writes a byte.
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
#: Each command: its handler module, its help line, and its options, each
#: ``--name: (value parser, default or REQUIRED, help)``; the value parser
#: is a type, a tuple of choices, FLAG or THREE_FLOATS
COMMANDS = {
    "table": ("cmd_table", "closed-form (Q, J, QFI) catalogue, optionally oracle-checked", {
        "--nbar": (float, REQUIRED, "mean photon number"),
        "--oracle": (FLAG, False, "add exact Fock columns for constructible states"),
        "--cutoff": (int, None, "Fock cutoff of the oracle"),
        **_IO_OPTIONS,
    }),
    "protocol": ("cmd_protocol", "run one protocol operating point", {
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
    "sweep": ("cmd_sweep", "closed-form grid sweep (Gaussian engine)", {
        "--nbar": (str, None, "comma-separated increasing grid"),
        "--nbar-logspace": (THREE_FLOATS, None, "log-spaced grid"),
        "--phi": (str, REQUIRED, "comma-separated increasing list"),
        "--eta": (str, REQUIRED, "comma-separated increasing list"),
        **_IO_OPTIONS,
    }),
    "validate": ("cmd_validate", "run the self-check suite", {
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
        # the command's handler module, imported only now (module docstring)
        return importlib.import_module(f".{COMMANDS[args.command][0]}", __package__).run(args)
    except SingularOperatingPointError as exc:
        return _refuse(f"singular operating point: {exc}")
    except (ValueError, TruncationOverflowError) as exc:
        return _refuse(exc)
    except MemoryError as exc:
        # an allocation the OS refuses at once; one it grants and then kills
        # the process for is beyond catching
        return _refuse(f"out of memory: {str(exc) or 'an allocation was refused'}")


def _refuse(text) -> int:
    """Write a refusal's ``error:`` line to stderr and flush it; its exit code, 2.

    A stderr that is None (``2>&-``) takes nothing; one that refuses the
    write is pointed at devnull, where the interpreter's own last flush of
    the line (under a tracer, :func:`run` returns) does not fail again."""
    try:
        sys.stderr.write(f"error: {text}\n")
        sys.stderr.flush()
    except AttributeError:  # stderr is None
        pass
    except OSError:  # its descriptor is gone, or refuses writes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return 2


def _observed() -> bool:
    """Whether a tracer or profiler (coverage, ``python -m cProfile``, a debugger) is set."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, tool ids 0-5
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None and any(map(monitoring.get_tool, range(6)))))


def run() -> int:
    """Process entry point of ``python -m qmetro`` and the ``qmetro`` script.

    Turns the cyclic garbage collector off, runs :func:`main`, then the
    atexit handlers, and ends the process by :func:`os._exit` with
    :func:`main`'s exit code.  The collector ran ~30 passes (~5 ms) while a
    Fock command imported numpy, and they freed almost nothing: a command
    leaves a few dozen cyclic objects and no array in a cycle (a test
    bounds both), and the exit frees them.  It flushes nothing: every byte
    qmetro writes is flushed by :func:`_emit` or :func:`_refuse`, and every
    ``--out`` file is closed, before :func:`main` returns.  So no command
    pays for the interpreter's teardown, which clears every module and
    collects the heap but runs no finalizer that qmetro needs.  Under a
    tracer or profiler it only returns :func:`main`'s exit code, with the
    collector as it found it, so the interpreter shuts down as usual and
    coverage or ``python -m cProfile -m qmetro`` writes its report.  An
    exception out of :func:`main` propagates, with its traceback and exit
    code 1.  :func:`main` leaves the process, the collector too, as it
    found it.
    """
    if _observed():
        return main()
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    os._exit(code)
