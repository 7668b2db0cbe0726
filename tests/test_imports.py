"""Import layering: Gaussian commands load only the standard library, and
the Fock oracle needs numpy but never scipy.

Each case runs ``qmetro.cli.main`` in a fresh interpreter and reports which
of the heavy modules ended up in ``sys.modules``.  The qmetro modules
themselves are cheap to import: numpy is bound lazily, so importing the CLI
loads every engine module but neither numpy nor scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "scipy")
ENGINE_MODULES = ("qmetro.correlations", "qmetro.fock", "qmetro.gaussian", "qmetro.protocol",
                  "qmetro.validate")

PROBE = """
import contextlib, io, json, sys

heavy, engine = json.loads(sys.argv[2])
import qmetro.cli

after_import = [m for m in heavy if m in sys.modules]
engine_loaded = [m for m in engine if m in sys.modules]
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qmetro.cli.main(argv)
    runs.append([code, out.getvalue()])
loaded = [m for m in heavy if m in sys.modules]
print(json.dumps({"after_import": after_import, "engine_loaded": engine_loaded,
                  "runs": runs, "loaded": loaded}))
"""


def _run_in_fresh_interpreter(*commands):
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands), json.dumps([HEAVY, ENGINE_MODULES])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _data_rows(out):
    return [line.split(",") for line in out.splitlines()[2:]]


def test_gaussian_commands_load_only_the_standard_library():
    doc = _run_in_fresh_interpreter(
        ["protocol", "--nbar", "15000", "--phi", "0.001", "--eta", "0.99"],
        ["protocol", "--nbar", "2", "--phi", "0.3", "--eta1", "0.9", "--eta2", "0.8",
         "--engine", "gaussian"],
        ["sweep", "--nbar", "1,10,100", "--phi", "0.001,0.01", "--eta", "0.9,0.99"],
        ["table", "--nbar", "4"],
    )
    assert doc["after_import"] == []
    assert doc["engine_loaded"] == list(ENGINE_MODULES)
    assert [code for code, _ in doc["runs"]] == [0, 0, 0, 0]
    assert [len(_data_rows(out)) for _, out in doc["runs"]] == [1, 1, 12, 8]
    assert doc["loaded"] == []


@pytest.mark.parametrize(
    "argv,check_output",
    [
        (
            ["protocol", "--nbar", "1", "--phi", "0.3", "--eta", "0.9", "--engine", "both",
             "--cutoff", "60"],
            lambda out: [row[0] for row in _data_rows(out)] == ["gaussian", "fock"],
        ),
        (
            ["table", "--nbar", "2", "--oracle"],
            # the oracle_q column of the twin Fock row is filled in
            lambda out: any(row[0] == "twin_fock" and row[5] for row in _data_rows(out)),
        ),
        (
            ["validate", "--level", "quick"],
            lambda out: json.loads(out)["passed"],
        ),
    ],
    ids=["protocol-both", "table-oracle", "validate-quick"],
)
def test_oracle_commands_load_numpy_but_not_scipy(argv, check_output):
    doc = _run_in_fresh_interpreter(argv)
    (code, out), = doc["runs"]
    assert code == 0
    assert check_output(out)
    assert doc["loaded"] == ["numpy"]
