"""Import layering: Gaussian commands run no Fock code and load neither numpy
nor ``dataclasses``, and ``json`` only when they write JSON; the Fock oracle
needs numpy but never scipy, ``numpy.random`` or ``dataclasses``.

The package registers ``qmetro.fock``, ``qmetro.correlations`` and
``qmetro.validate`` to load on first use, so importing the CLI runs none of
them.  Each case runs ``qmetro.cli.main`` in a fresh interpreter and reports
which of the heavy modules ended up in ``sys.modules`` and which engine
modules were executed: a module registered but never run is still of the
lazy-loader's module type.  The probe reads its arguments with
``ast.literal_eval`` and imports ``json`` only after taking its readings, so
that any ``json`` it sees was loaded by the CLI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "numpy.random", "scipy", "dataclasses", "json")
ENGINE_MODULES = ("qmetro.correlations", "qmetro.fock", "qmetro.gaussian", "qmetro.protocol",
                  "qmetro.validate")
LAZY_MODULES = ("qmetro.correlations", "qmetro.fock", "qmetro.validate")

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
     ["qmetro.gaussian", "qmetro.protocol"]),
    (["table", "--nbar", "4"], 8, ["qmetro.correlations", "qmetro.gaussian", "qmetro.protocol"]),
)


def test_gaussian_commands_load_only_the_standard_library():
    for argv, rows, executed in GAUSSIAN_COMMANDS:
        doc = _run_in_fresh_interpreter(argv)
        assert doc["after_import"] == []
        assert doc["executed_after_import"] == ["qmetro.gaussian", "qmetro.protocol"]
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
            ["qmetro.correlations", "qmetro.fock", "qmetro.gaussian", "qmetro.protocol"],
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
    assert doc["executed"] == executed


def test_lazy_modules_show_their_functions_to_vars():
    doc = _python(TRACER_PROBE, json.dumps(LAZY_MODULES))
    expected = {
        "qmetro.correlations": ("table_row", "oracle_row", "classical_fisher_information"),
        "qmetro.fock": ("squeeze", "loss", "unsqueezed_moments", "beam_splitter"),
        "qmetro.validate": ("run_checks", "check_engine_equivalence"),
    }
    for name, (lazy, functions, executed) in doc.items():
        assert lazy, f"{name} was executed by importing the CLI"
        assert set(expected[name]) <= set(functions), name
        assert executed, f"vars() did not load {name}"
