"""Import layering: Gaussian commands run no Fock code and load neither numpy
nor ``dataclasses``, and ``json`` only when they write JSON; the Fock oracle
needs numpy but never scipy, ``numpy.random`` or ``dataclasses``; and no
command loads ``argparse``, ``gettext`` or ``locale``, since the CLI parses
its command lines from its own option table.  ``qmetro.validate`` imports
nothing from the CLI.

The package registers ``qmetro.protocol``, ``qmetro.fock``,
``qmetro.correlations`` and ``qmetro.validate`` to load on first use, so
importing the CLI runs none of them, and ``sweep`` and ``table`` never run
``qmetro.protocol``.  Each case runs ``qmetro.cli.main`` in a fresh
interpreter and reports which of the heavy modules ended up in
``sys.modules`` and which engine modules were executed: a module registered
but never run is still of the lazy-loader's module type.  The probe reads
its arguments with ``ast.literal_eval`` and imports ``json`` only after
taking its readings, so that any ``json`` it sees was loaded by the CLI.

Each command's handler is a module of its own, which the CLI imports only
when that command runs: a command executes its own handler and no other,
and ``--help`` or a refusal by the parser executes none.  So that ``cli.py``
does not set a command's peak RSS when it is compiled, it stays smaller
than ``gaussian.py``, which every command compiles too.
"""

import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
#: What the CLI's own parser replaces; no command loads it
PARSER_MODULES = ("argparse", "gettext", "locale")
HEAVY = ("numpy", "numpy.random", "scipy", "dataclasses", "json", *PARSER_MODULES)
ENGINE_MODULES = ("qmetro.correlations", "qmetro.fock", "qmetro.gaussian", "qmetro.protocol",
                  "qmetro.validate")
LAZY_MODULES = ("qmetro.correlations", "qmetro.fock", "qmetro.protocol", "qmetro.validate")
#: Each command's handler, which the CLI imports only to run that command
HANDLER_MODULES = ("qmetro.cmd_protocol", "qmetro.cmd_sweep", "qmetro.cmd_table",
                   "qmetro.cmd_validate")

PROBE = """
import ast, contextlib, io, sys, types

argvs, heavy, engine = ast.literal_eval(sys.argv[1])
import qmetro.cli

def executed():
    # type() reads no attribute, so it does not trigger a lazy load
    return [m for m in engine if type(sys.modules.get(m)) is types.ModuleType]

after_import = [m for m in heavy if m in sys.modules]
executed_after_import = executed()
runs = []
for argv in argvs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qmetro.cli.main(argv)
    runs.append([code, out.getvalue()])
loaded = [m for m in heavy if m in sys.modules]
import json
print(json.dumps({"after_import": after_import, "executed_after_import": executed_after_import,
                  "runs": runs, "loaded": loaded, "executed": executed()}))
"""

# What the benchmark's tracer does right after ``import qmetro.cli``: list
# the public functions of each module from vars(), by module attribute.
TRACER_PROBE = """
import inspect, json, sys, types
import qmetro.cli

names = json.loads(sys.argv[1])
# before any vars(): isinstance() on a lazy module found there loads it too
lazy = {name: type(sys.modules[name]) is not types.ModuleType for name in names}
out = {}
for name in names:
    module = sys.modules[name]
    functions = sorted(attr for attr, value in vars(module).items()
                       if inspect.isfunction(value) and value.__module__ == name
                       and not attr.startswith("_"))
    out[name] = [lazy[name], functions, type(module) is types.ModuleType]
print(json.dumps(out))
"""


def _python(code, *args):
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _run_in_fresh_interpreter(argv):
    return _python(PROBE, repr(([argv], HEAVY, ENGINE_MODULES)))


def _data_rows(out):
    return [line.split(",") for line in out.splitlines()[2:]]


#: Each Gaussian command, its number of data rows, and the engine modules it
#: executes.  All write CSV, so none may load ``json``.
GAUSSIAN_COMMANDS = (
    (["protocol", "--nbar", "15000", "--phi", "0.001", "--eta", "0.99"], 1,
     ["qmetro.gaussian", "qmetro.protocol"]),
    (["protocol", "--nbar", "2", "--phi", "0.3", "--eta1", "0.9", "--eta2", "0.8",
      "--engine", "gaussian"], 1, ["qmetro.gaussian", "qmetro.protocol"]),
    (["sweep", "--nbar", "1,10,100", "--phi", "0.001,0.01", "--eta", "0.9,0.99"], 12,
     ["qmetro.gaussian"]),
    (["table", "--nbar", "4"], 8, ["qmetro.correlations", "qmetro.gaussian"]),
)


def test_gaussian_commands_load_only_the_standard_library():
    for argv, rows, executed in GAUSSIAN_COMMANDS:
        doc = _run_in_fresh_interpreter(argv)
        assert doc["after_import"] == []
        assert doc["executed_after_import"] == ["qmetro.gaussian"]
        (code, out), = doc["runs"]
        assert code == 0, argv
        assert len(_data_rows(out)) == rows, argv
        assert doc["loaded"] == [], argv
        assert doc["executed"] == executed, argv


def test_refused_default_cutoff_loads_no_fock_code():
    # the default cutoff is refused before any Fock work, so only the
    # protocol's cutoff policy runs
    doc = _run_in_fresh_interpreter(["protocol", "--nbar", "1e4", "--phi", "0.3",
                                     "--engine", "fock"])
    (code, out), = doc["runs"]
    assert (code, out) == (2, "")
    assert doc["loaded"] == []
    assert doc["executed"] == ["qmetro.gaussian", "qmetro.protocol"]


def test_refusal_before_the_config_runs_no_protocol_code():
    # the n_bar check refuses before a ProtocolConfig is built, so the
    # lazily registered qmetro.protocol is never run
    doc = _run_in_fresh_interpreter(["protocol", "--nbar", "nan", "--phi", "0.3"])
    (code, out), = doc["runs"]
    assert (code, out) == (2, "")
    assert doc["executed"] == ["qmetro.gaussian"]


@pytest.mark.parametrize(
    "argv,check_output,executed",
    [
        (
            ["protocol", "--nbar", "1", "--phi", "0.3", "--eta", "0.9", "--engine", "both",
             "--cutoff", "60"],
            lambda out: [row[0] for row in _data_rows(out)] == ["gaussian", "fock"],
            ["qmetro.fock", "qmetro.gaussian", "qmetro.protocol"],
        ),
        (
            ["table", "--nbar", "2", "--oracle"],
            # the oracle_q column of the twin Fock row is filled in
            lambda out: any(row[0] == "twin_fock" and row[5] for row in _data_rows(out)),
            ["qmetro.correlations", "qmetro.fock", "qmetro.gaussian"],
        ),
        (
            ["validate", "--level", "quick"],
            lambda out: json.loads(out)["passed"],
            list(ENGINE_MODULES),
        ),
    ],
    ids=["protocol-both", "table-oracle", "validate-quick"],
)
def test_oracle_commands_load_numpy_but_not_scipy(argv, check_output, executed):
    doc = _run_in_fresh_interpreter(argv)
    (code, out), = doc["runs"]
    assert code == 0
    assert check_output(out)
    assert "numpy" in doc["loaded"]
    assert "scipy" not in doc["loaded"]
    # validate draws its random samples from the standard library
    assert "numpy.random" not in doc["loaded"]
    # the Fock value classes are Frozen classes, not dataclasses
    assert "dataclasses" not in doc["loaded"]
    assert not set(PARSER_MODULES) & set(doc["loaded"])
    assert doc["executed"] == executed


def test_lazy_modules_show_their_functions_to_vars():
    doc = _python(TRACER_PROBE, json.dumps(LAZY_MODULES))
    expected = {
        "qmetro.correlations": ("table_row", "oracle_row", "classical_fisher_information"),
        "qmetro.fock": ("squeeze", "loss", "unsqueezed_moments", "beam_splitter"),
        "qmetro.protocol": ("run_gaussian", "run_fock", "run_both", "error_propagation"),
        "qmetro.validate": ("run_checks", "check_engine_equivalence"),
    }
    for name, (lazy, functions, executed) in doc.items():
        assert lazy, f"{name} was executed by importing the CLI"
        assert set(expected[name]) <= set(functions), name
        assert executed, f"vars() did not load {name}"


def test_validate_does_not_import_the_cli():
    # the self-check suite runs on the engines alone, not on the command
    # layer that runs it
    doc = _python("import json, sys, qmetro.validate\n"
                  "qmetro.validate.run_checks  # loads the lazy module\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qmetro'))))")
    assert "qmetro.validate" in doc
    assert "qmetro.cli" not in doc


#: A command line, its exit code, and the handler modules it executes
HANDLER_CASES = [
    (["protocol", "--nbar", "1", "--phi", "0.3", "--eta", "0.9"], 0, ["qmetro.cmd_protocol"]),
    (["sweep", "--nbar", "1,10", "--phi", "0.001,0.01", "--eta", "0.9"], 0, ["qmetro.cmd_sweep"]),
    (["table", "--nbar", "4"], 0, ["qmetro.cmd_table"]),
    (["table", "--nbar", "2", "--oracle"], 0, ["qmetro.cmd_table"]),
    (["validate"], 0, ["qmetro.cmd_validate"]),
    (["--help"], 0, []),
    (["sweep", "--help"], 0, []),
    # refused by the handler's n_bar check, then by the parser
    (["protocol", "--nbar", "nan", "--phi", "0.3"], 2, ["qmetro.cmd_protocol"]),
    (["protocol", "--nbar", "1", "--phi", "0.3", "--engine", "exact"], 2, []),
]


@pytest.mark.parametrize("argv,expected_code,handlers", HANDLER_CASES,
                         ids=[" ".join(argv) for argv, _, _ in HANDLER_CASES])
def test_each_command_executes_only_its_own_handler(argv, expected_code, handlers):
    doc = _python(PROBE, repr(([argv], (), HANDLER_MODULES)))
    assert doc["executed_after_import"] == []
    (code, _), = doc["runs"]
    assert code == expected_code
    assert doc["executed"] == handlers


def test_loading_every_engine_module_loads_no_handler():
    # what the benchmark's tracer does: vars() of every qmetro module loads
    # each lazily registered one, none of which imports a handler
    doc = _python("import json, sys, qmetro.cli\n"
                  "for name in [m for m in sys.modules if m.startswith('qmetro')]:\n"
                  "    vars(sys.modules[name])\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qmetro'))))")
    assert set(LAZY_MODULES) <= set(doc)
    assert not set(HANDLER_MODULES) & set(doc)


def _tokens(path: Path) -> int:
    """Tokens in a source file, as ``tokenize`` counts them without COMMENT and NL tokens."""
    with path.open("rb") as fh:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                   for tok in tokenize.tokenize(fh.readline))


def test_the_cli_compiles_to_fewer_tokens_than_gaussian():
    # the parser's memory for the largest file a command compiles without a
    # bytecode cache sets its peak RSS; every command compiles both of these
    assert _tokens(SRC / "qmetro" / "cli.py") < _tokens(SRC / "qmetro" / "gaussian.py")
