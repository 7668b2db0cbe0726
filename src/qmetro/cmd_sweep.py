"""``qmetro sweep``: the closed-form protocol over an (n_bar, phi, eta) grid.

:func:`run` reads the three axes, refuses an empty or unordered axis and
any value outside the sweep's domain, and then refuses the grid by
:func:`check_grid` if any of its rows would be refused, all before the
first byte is written.  The rows are then made as the writer asks for them
(:func:`_sweep_rows`), so a sweep holds one block of its output, not the
document.  The closed-form kernel :func:`qmetro.gaussian.protocol_row`
runs once per (n_bar, phi), for every eta at once; each n_bar, phi and eta
value, and each n_bar's shot-noise limit, has its cell made once, so a
grid point adds only the cells of its signal, variance, delta_phi and
snl_ratio.  A sweep executes only this module, :mod:`qmetro.cli` and
:mod:`qmetro.gaussian`.

:func:`qmetro.cli.main` imports this module only to run ``sweep``.
"""

from __future__ import annotations

import math

from . import gaussian
from .cli import CELLS, UsageError, _write_rows
from .gaussian import _SMALLEST_NORMAL

SWEEP_COLUMNS = ("n_bar", "phi", "eta", "signal", "variance", "delta_phi", "snl", "snl_ratio")


def run(args) -> int:
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
    check_grid(n_bars, phi_values, eta_pairs)
    meta = {
        "command": "sweep",
        "snl_convention": "single-mode 1/sqrt(4 n_bar)",
        "engine": "gaussian",
        "points": len(n_bars) * len(phi_values) * len(eta_values),
    }
    _write_rows(SWEEP_COLUMNS, meta, args.format, args.out,
                _sweep_rows(n_bars, phi_values, eta_pairs, CELLS[args.format]))
    return 0


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


def check_grid(n_bars: list, phis: list, eta_pairs: list) -> None:
    """Raise what the first refused row of a sweep grid raises; most grids take two rows a phi.

    The rows are :func:`qmetro.gaussian.protocol_row` of each (n_bar, phi),
    n_bar outer, for every pair.  On the sweep's domain (increasing n_bar >=
    ``N_BAR_FLOOR``, 0 < phi < pi/2, 0 < eta <= 1) every factor of the
    variance is non-negative and does not decrease with n_bar, and rounding
    is monotone, so no computed variance decreases along the n_bar axis:
    the last n_bar decides overflow and the first underflow.  Only if one of
    those two rows raises, or the first holds a variance below the smallest
    normal (its slope 0, where a later row may still be refused), is every
    row evaluated in order, which raises the first refusal as the sweep
    would.
    """
    for phi in phis:
        try:
            first = gaussian.protocol_row(n_bars[0], phi, eta_pairs)
            gaussian.protocol_row(n_bars[-1], phi, eta_pairs)
        except ValueError:
            break
        if min(variance for _, variance, *_ in first) < _SMALLEST_NORMAL:
            break
    else:
        return
    for n_bar in n_bars:
        for phi in phis:
            gaussian.protocol_row(n_bar, phi, eta_pairs)


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
