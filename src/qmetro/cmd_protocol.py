"""``qmetro protocol``: one protocol operating point, by either engine or both.

:func:`run` checks each option as typed, builds a
:class:`qmetro.protocol.ProtocolConfig` and writes one row per engine through
:func:`qmetro.cli._write_rows`.  A row takes its cutoff from its result, so
the default cutoff is resolved once, by the Fock run; ``--engine both`` adds
the engines' :func:`qmetro.gaussian.relative_deviation` to the meta line.
``--engine gaussian`` runs only :mod:`qmetro.gaussian` and
:mod:`qmetro.protocol` on the standard library; the Fock engine imports
numpy.

:func:`qmetro.cli.main` imports this module only to run ``protocol``.
"""

from __future__ import annotations

from . import gaussian, protocol
from .cli import CELLS, UsageError, _fmt, _write_rows

PROTOCOL_COLUMNS = (
    "engine", "n_bar", "r", "phi", "eta1", "eta2", "cutoff",
    "signal", "variance", "delta_phi", "delta_phi_is_limit",
    "m_aa_re", "m_aa_im", "snl", "snl_ratio", "trace_deficit",
)


def run(args) -> int:
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
