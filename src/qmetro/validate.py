"""Self-check suites behind the ``validate`` CLI command.

Each check re-derives a quantity two independent ways (closed form vs exact
Fock oracle, closed-form kernel vs moment algebra) and reports the observed
deviation against its budget.  ``quick`` keeps to sub-minute subsets; ``full``
runs the complete grids.  The level names are the CLI's
(:data:`qmetro.cli.VALIDATE_LEVELS`), so its parser lists them without
loading this module.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import correlations as co
from . import fock, gaussian, protocol
from .cli import SWEEP_COLUMNS, VALIDATE_LEVELS


def _table_families(n_bar: float) -> list[co.ProbeFamily]:
    out = []
    for family in co.ProbeFamily:
        if family in co.FORMULA_ONLY:
            continue
        if family is co.ProbeFamily.ECS and math.exp(-n_bar) >= co.ECS_ASSUMPTION_LIMIT:
            continue
        if family in (co.ProbeFamily.NOON, co.ProbeFamily.TWIN_FOCK):
            if abs(n_bar - round(n_bar)) > 1e-9:
                continue
            if family is co.ProbeFamily.TWIN_FOCK and round(n_bar) % 2:
                continue
        out.append(family)
    return out


def check_table_closed_form_identity() -> tuple[float, str]:
    """Every catalogue row satisfies qfi = n (1 + Q)(1 - J)."""
    worst = 0.0
    for family in co.ProbeFamily:
        for n_bar in (1.0, 2.0, 4.0, 8.5, 20.0, 400.0):
            try:
                row = co.table_row(family, n_bar)
            except ValueError:
                continue
            identity = co.path_symmetric_qfi(row.n_bar, row.q, row.j)
            worst = max(worst, co.relative_deviation(row.qfi, identity))
    return worst, "all families, n_bar grid {1, 2, 4, 8.5, 20, 400}"


def check_table_oracle(n_bars: tuple[float, ...]) -> tuple[float, str]:
    """Closed-form rows against exact Fock statistics."""
    worst = 0.0
    points = 0
    for n_bar in n_bars:
        for family in _table_families(n_bar):
            if family is co.ProbeFamily.ECS:
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


def check_engine_equivalence(full: bool) -> tuple[float, str]:
    """Moment-map protocol vs the Fock pipeline at cutoff 60.

    The Fock side evolves the padded probe, as Kraus-branch kets when lossy,
    and reads the anti-squeezed moments in the Heisenberg picture.
    """
    rs = (0.2, 0.5, 0.8814) if full else (0.5, 0.8814)
    phis = (0.05, 0.3, 1.0) if full else (0.3, 1.0)
    etas = (1.0, 0.95, 0.8) if full else (0.95,)
    eta_pairs = [(e, e) for e in etas]
    if full:
        eta_pairs += [(1.0, 0.9), (0.9, 1.0), (0.95, 0.8)]
    worst = 0.0
    points = 0
    for r in rs:
        for phi in phis:
            for eta1, eta2 in eta_pairs:
                report = protocol.run_both(
                    protocol.ProtocolConfig(phi=phi, r=r, eta1=eta1, eta2=eta2, cutoff=60)
                )
                g, f = report.gaussian_result, report.fock_result
                worst = max(
                    worst,
                    co.relative_deviation(g.signal, f.signal),
                    co.relative_deviation(g.moments.m_aa, f.moments.m_aa),
                    co.relative_deviation(g.variance, f.variance),
                )
                points += 1
    return worst, f"{points} grid points at cutoff 60"


def check_phase_error_transcription(samples: int) -> tuple[float, str]:
    """Closed-form kernel's noisy phase error vs the forward-mode moment pass."""
    rng = random.Random(20240811)
    worst = 0.0
    for _ in range(samples):
        r = rng.uniform(0.1, 1.2)
        phi = rng.uniform(0.05, 1.45)
        eta = rng.uniform(0.1, 1.0)
        n_bar = math.sinh(r) ** 2
        a = gaussian.protocol_point(n_bar, phi, eta, eta).phase_error
        b = gaussian.phase_error_from_moments(n_bar, phi, eta)
        worst = max(worst, abs(a - b) / max(a, b))
    return worst, f"{samples} random (r, phi, eta) samples, seed 20240811"


def check_lossless_signal_identity() -> tuple[float, str]:
    """signal(n, phi, 1) == 4 n (n+1) sin^2(phi) on a grid."""
    worst = 0.0
    for n_bar in np.geomspace(0.1, 1e5, 13):
        for phi in np.linspace(0.0, math.pi / 2, 9):
            worst = max(
                worst,
                co.relative_deviation(
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


def check_error_propagation_limit(full: bool) -> tuple[float, str]:
    """Propagated error at phi = 1e-4 against the analytic lossless limit."""
    n_bars = (0.5, 1.0, 2.0, 5.0) if full else (1.0,)
    worst = 0.0
    for n_bar in n_bars:
        curve = protocol.gaussian_signal_curve(protocol.ProtocolConfig(phi=1e-4, n_bar=n_bar))
        worst = max(
            worst,
            co.relative_deviation(
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
        worst = max(worst, co.relative_deviation(fisher, 8.0 * n_bar * (n_bar + 1.0)))
    return worst, "photon-number POVM at phi=0.01, n_bar in {0.5, 1}"


def check_sweep_header() -> tuple[float, str]:
    """The sweep CSV schema is pinned."""
    golden = "n_bar,phi,eta,signal,variance,delta_phi,snl,snl_ratio"
    return (0.0 if ",".join(SWEEP_COLUMNS) == golden else 1.0), golden


def run_checks(level: str = "quick") -> dict:
    """Run the suite and return a JSON-ready report; ``passed`` is the verdict."""
    if level not in VALIDATE_LEVELS:
        raise ValueError(f"unknown level {level!r}; pick one of {VALIDATE_LEVELS}")
    full = level == "full"
    plan = [
        ("table-closed-form-identity", 1e-10, check_table_closed_form_identity, {}),
        ("table-oracle-agreement", 1e-8, check_table_oracle, {"n_bars": (1.0, 2.0, 4.0)}),
        ("engine-equivalence", 1e-6, check_engine_equivalence, {"full": full}),
        (
            "noisy-phase-error-transcription",
            1e-10,
            check_phase_error_transcription,
            {"samples": 100 if full else 25},
        ),
        ("lossless-signal-identity", 1e-12, check_lossless_signal_identity, {}),
        ("headline-snl-ratios", 0.10, check_headline_ratios, {}),
        ("error-propagation-limit", 1e-4, check_error_propagation_limit, {"full": full}),
        ("two-photon-projection", 1e-10, check_two_photon_projection, {}),
        ("squeeze-closed-form", 1e-12, check_squeeze_closed_form, {}),
        ("sweep-schema", 0.5, check_sweep_header, {}),
    ]
    if full:
        plan.append(
            ("table-oracle-entangled-coherent", 1e-3, check_table_oracle_entangled_coherent, {})
        )
        plan.append(("qcrb-saturation", 1e-2, check_qcrb_saturation, {}))

    checks = []
    for name, budget, fn, kwargs in plan:
        try:
            observed, detail = fn(**kwargs)
            observed = float(observed)
            passed = bool(observed <= budget)
        except Exception as exc:  # a crashed check is a failed check
            observed, detail, passed = float("inf"), f"raised {exc!r}", False
        checks.append({
            "name": name, "passed": passed, "budget": budget, "observed": observed,
            "detail": detail,
        })
    return {
        "level": level,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
