"""The self-check suite behind the ``validate`` CLI command.

Each check re-derives a quantity two independent ways (closed form vs exact
Fock oracle, closed-form kernel vs moment algebra) and reports the observed
deviation against its budget.  There is one suite, on complete grids; it
imports nothing from the command layer that runs it.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import correlations as co
from . import fock, gaussian, protocol

#: Random (r, phi, eta) points of the noisy-phase-error-transcription check.
TRANSCRIPTION_SAMPLES = 100


def check_table_closed_form_identity() -> tuple[float, str]:
    """Every catalogue row satisfies qfi = n (1 + Q)(1 - J)."""
    worst = 0.0
    for family in co.ProbeFamily:
        for n_bar in (0.5, 1.0, 2.0, 4.0, 8.5, 20.0, 400.0):
            try:
                row = co.table_row(family, n_bar)
            except ValueError:
                continue
            identity = co.path_symmetric_qfi(row.n_bar, row.q, row.j)
            worst = max(worst, gaussian.relative_deviation(row.qfi, identity))
    return worst, "all families, n_bar grid {0.5, 1, 2, 4, 8.5, 20, 400}"


def check_table_oracle() -> tuple[float, str]:
    """Closed-form rows against exact Fock statistics, at whole n_bar values.

    Skipped: the families with no oracle, the entangled-coherent family
    (:func:`check_table_oracle_entangled_coherent` checks it), and twin Fock
    at odd n_bar, which it cannot realise.
    """
    worst = 0.0
    points = 0
    for n_bar in (1.0, 2.0, 4.0):
        for family in co.ProbeFamily:
            if family in co.FORMULA_ONLY or family is co.ProbeFamily.ECS:
                continue
            if family is co.ProbeFamily.TWIN_FOCK and n_bar % 2:
                continue
            row = co.table_row(family, n_bar)
            worst = max(worst, row.max_deviation(co.oracle_row(family, n_bar)))
            points += 1
    return worst, f"{points} (family, n_bar) points"


def check_table_oracle_entangled_coherent() -> tuple[float, str]:
    """The bright-probe entangled-coherent row against its exact state.

    Looser budget: the closed forms assume e^(-n_bar) is negligible.
    """
    row = co.table_row(co.ProbeFamily.ECS, 20.0)
    oracle = co.oracle_row(co.ProbeFamily.ECS, 20.0, cutoff=60)
    return row.max_deviation(oracle), "n_bar=20 at cutoff 60"


def check_engine_equivalence() -> tuple[float, str]:
    """Moment-map protocol vs the Fock pipeline at cutoff 60.

    The Fock side is the protocol's pass on Python floats (:mod:`qmetro.kraus`):
    the padded probe, its Kraus branches after the first loss, and the
    anti-squeezed moments read in the Heisenberg picture.  The pass does not
    depend on the phase, so the three phases at each (r, eta1) share it.
    """
    eta_pairs = ((1.0, 1.0), (0.95, 0.95), (0.8, 0.8), (1.0, 0.9), (0.9, 1.0), (0.95, 0.8))
    worst = 0.0
    points = 0
    for r in (0.2, 0.5, 0.8814):
        for phi in (0.05, 0.3, 1.0):
            for eta1, eta2 in eta_pairs:
                report = protocol.run_both(
                    protocol.ProtocolConfig(phi=phi, r=r, eta1=eta1, eta2=eta2, cutoff=60)
                )
                worst = max(
                    worst, *map(report.rel_deviation, ("signal", "moments.m_aa", "variance"))
                )
                points += 1
    return worst, f"{points} grid points at cutoff 60"


def check_phase_error_transcription() -> tuple[float, str]:
    """Closed-form kernel's noisy phase error vs the forward-mode moment pass."""
    rng = random.Random(20240811)
    worst = 0.0
    for _ in range(TRANSCRIPTION_SAMPLES):
        r = rng.uniform(0.1, 1.2)
        phi = rng.uniform(0.05, 1.45)
        eta = rng.uniform(0.1, 1.0)
        n_bar = math.sinh(r) ** 2
        a = gaussian.protocol_point(n_bar, phi, eta, eta).phase_error
        b = gaussian.phase_error_from_moments(n_bar, phi, eta)
        worst = max(worst, abs(a - b) / max(a, b))
    return worst, f"{TRANSCRIPTION_SAMPLES} random (r, phi, eta) samples, seed 20240811"


def check_lossless_signal_identity() -> tuple[float, str]:
    """signal(n, phi, 1) == 4 n (n+1) sin^2(phi) on a grid."""
    worst = 0.0
    for n_bar in np.geomspace(0.1, 1e5, 13):
        for phi in np.linspace(0.0, math.pi / 2, 9):
            worst = max(
                worst,
                gaussian.relative_deviation(
                    gaussian.signal(float(n_bar), float(phi), 1.0),
                    4.0 * n_bar * (n_bar + 1.0) * math.sin(phi) ** 2,
                ),
            )
    return worst, "13 x 9 (n_bar, phi) grid"


def check_headline_ratios() -> tuple[float, str]:
    """Sub-shot-noise ratios ~5 at (1.5e4, 1e-3, 0.99) and ~3 at (2e4, 1e-3, 0.95)."""
    five = gaussian.snl_ratio(1.5e4, 1e-3, 0.99)
    three = gaussian.snl_ratio(2e4, 1e-3, 0.95)
    worst = max(abs(five - 5.0) / 5.0, abs(three - 3.0) / 3.0)
    return worst, f"ratios {five:.4f} (target 5) and {three:.4f} (target 3)"


def check_error_propagation_limit() -> tuple[float, str]:
    """Propagated error at phi = 1e-4 against the analytic lossless limit."""
    n_bars = (0.5, 1.0, 2.0, 5.0)
    worst = 0.0
    for n_bar in n_bars:
        curve = protocol.gaussian_signal_curve(protocol.ProtocolConfig(phi=1e-4, n_bar=n_bar))
        worst = max(
            worst,
            gaussian.relative_deviation(
                protocol.error_propagation(curve, 1e-4),
                1.0 / math.sqrt(8.0 * n_bar * (n_bar + 1.0)),
            ),
        )
    return worst, f"n_bar in {n_bars}"


def check_two_photon_projection() -> tuple[float, str]:
    """Twin squeezed vacuum projected on two total photons -> (|2,0>+|0,2>)/sqrt2."""
    one = fock.squeezed_vacuum(math.asinh(1.0), 0.0, 64)
    projected = fock.project_total_photon(fock.product(one, one), 2)
    target = np.zeros((65, 65), dtype=complex)
    target[2, 0] = target[0, 2] = 1.0 / math.sqrt(2.0)
    deficit = 1.0 - fock.fidelity(fock.PureState(target), projected)
    return max(deficit, 0.0), "fidelity deficit against the even two-photon pair state"


def check_squeeze_closed_form() -> tuple[float, str]:
    """The numerical squeeze of vacuum against the closed-form squeezed vacuum."""
    worst = 0.0
    for n_bar in (0.5, 1.0):
        r = math.asinh(math.sqrt(n_bar))
        numerical = fock.squeeze(fock.vacuum(96), r).amplitudes
        closed = fock.squeezed_vacuum(r, 0.0, 96).amplitudes
        worst = max(worst, float(np.max(np.abs(numerical - closed))))
    return worst, "max amplitude difference at cutoff 96, n_bar in {0.5, 1}"


def check_qcrb_saturation() -> tuple[float, str]:
    """Photon-counting Fisher information saturates 8 n (n+1) at phi = 0.01."""
    worst = 0.0
    for n_bar in (0.5, 1.0):
        curve = protocol.lossless_output_distribution(
            protocol.ProtocolConfig(phi=0.01, n_bar=n_bar, cutoff=96)
        )
        fisher = co.classical_fisher_information(curve, 0.01)
        worst = max(worst, gaussian.relative_deviation(fisher, 8.0 * n_bar * (n_bar + 1.0)))
    return worst, "photon-number POVM at phi=0.01, n_bar in {0.5, 1}"


def run_checks() -> dict:
    """Run the suite and return a JSON-ready report; ``passed`` is the verdict."""
    # the checks by module attribute, at call time, so that a wrapper bound
    # over one (perfbench's span tracer) is what runs
    plan = (
        ("table-closed-form-identity", 1e-10, check_table_closed_form_identity),
        ("table-oracle-agreement", 1e-8, check_table_oracle),
        ("engine-equivalence", 1e-6, check_engine_equivalence),
        ("noisy-phase-error-transcription", 1e-10, check_phase_error_transcription),
        ("lossless-signal-identity", 1e-12, check_lossless_signal_identity),
        ("headline-snl-ratios", 0.10, check_headline_ratios),
        ("error-propagation-limit", 1e-4, check_error_propagation_limit),
        ("two-photon-projection", 1e-10, check_two_photon_projection),
        ("squeeze-closed-form", 1e-12, check_squeeze_closed_form),
        ("table-oracle-entangled-coherent", 1e-3, check_table_oracle_entangled_coherent),
        ("qcrb-saturation", 1e-2, check_qcrb_saturation),
    )
    checks = []
    for name, budget, fn in plan:
        try:
            observed, detail = fn()
            observed = float(observed)
            passed = bool(observed <= budget)
        except Exception as exc:  # a crashed check is a failed check
            observed, detail, passed = float("inf"), f"raised {exc!r}", False
        checks.append({
            "name": name, "passed": passed, "budget": budget, "observed": observed,
            "detail": detail,
        })
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
