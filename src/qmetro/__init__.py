"""Numerical workbench for squeezed-light optical phase estimation.

Two engines cover the same squeeze / phase / loss / unsqueeze / intensity
protocol: :mod:`qmetro.gaussian` evaluates its normally ordered second
moments in closed form, and :mod:`qmetro.fock` evolves exact truncated
Fock-space states (the brute-force oracle).  :mod:`qmetro.correlations`
supplies photon-statistics parameters, Fisher information, the estimation
benchmarks and the probe-state catalogue; :mod:`qmetro.protocol` orchestrates
runs and cross-engine comparisons; the ``qmetro`` CLI exposes all of it.

The Python API is these modules (``from qmetro import fock, protocol``); the
package itself re-exports nothing.  Importing them loads only the standard
library: numpy, the only dependency, is bound lazily (:mod:`qmetro._lazy`)
and loads on the first Fock computation.
"""

__version__ = "0.1.0"
