"""Numerical workbench for squeezed-light optical phase estimation.

Two engines cover the same squeeze / phase / loss / unsqueeze / intensity
protocol: :mod:`qmetro.gaussian` evaluates its normally ordered second
moments in closed form, and :mod:`qmetro.kraus` evolves the exact truncated
Fock-space state (the brute-force oracle) on Python floats.  :mod:`qmetro.fock`
holds the Fock-space states, unitaries and loss channel of the probe
catalogue's oracle.  :mod:`qmetro.correlations`
supplies photon-statistics parameters, Fisher information, the estimation
benchmarks and the probe-state catalogue; :mod:`qmetro.protocol` orchestrates
runs and cross-engine comparisons; the ``qmetro`` CLI exposes all of it.

The Python API is these modules (``from qmetro import fock, protocol``); the
package itself re-exports nothing.  :mod:`qmetro.protocol`,
:mod:`qmetro.kraus`, :mod:`qmetro.fock`, :mod:`qmetro.correlations` and
:mod:`qmetro.validate` are registered here to load on first use
(:class:`importlib.util.LazyLoader`): importing them, or the CLI, runs none
of their code, and the first attribute read does.  So a command runs only
the modules it reads from: a Gaussian command never runs the last four,
and never imports numpy, the only dependency, which :mod:`qmetro.fock` and
:mod:`qmetro.validate` import; a protocol Fock run reads
:mod:`qmetro.kraus` alone, on Python floats, and imports no numpy either;
``sweep`` and ``table`` never run :mod:`qmetro.protocol`.  The CLI's
handler modules (``qmetro.cmd_*``) are not registered here:
:func:`qmetro.cli.main` imports a command's own handler when it runs it, so
loading every registered module loads none.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazily(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    # The package attribute keeps ``from . import name`` from reading the
    # module's ``__spec__`` in the import machinery, which would load it.
    globals()[name] = module


for _name in ("protocol", "kraus", "fock", "correlations", "validate"):
    _register_lazily(_name)
del _name
