"""``qmetro table``: the closed-form (Q, J, QFI) catalogue at one n_bar.

:func:`run` writes a row per :class:`qmetro.correlations.ProbeFamily`, from
its closed forms (:func:`qmetro.correlations.table_row`), and with
``--oracle`` adds the exact Fock values of each constructible state
(:func:`qmetro.correlations.oracle_row`) and their largest relative
deviation.  A closed form or an oracle that cannot be evaluated leaves its
cells empty and says why in the ``note`` column.  Without ``--oracle`` the
command runs on the standard library alone; the oracle imports numpy.

:func:`qmetro.cli.main` imports this module only to run ``table``.
"""

from __future__ import annotations

from . import correlations as co
from . import gaussian
from .cli import CELLS, _fmt, _write_rows
from .gaussian import TruncationOverflowError

TABLE_COLUMNS = (
    "state_id", "n_bar", "q", "j", "qfi",
    "oracle_q", "oracle_j", "oracle_qfi", "max_rel_dev", "note",
)


def run(args) -> int:
    if args.cutoff is not None:
        gaussian.check_cutoff(args.cutoff, "--cutoff", 1)
    co.check_table_n_bar(args.nbar, "--nbar")
    rows = []
    for family in co.ProbeFamily:
        try:
            row = co.table_row(family, args.nbar)
        except ValueError as exc:
            rows.append((family.value, args.nbar, *[None] * 7, f"closed form unavailable: {exc}"))
            continue
        oracle_values, note = [None] * 4, ""
        if family in co.FORMULA_ONLY:
            note = "formula-only"
        elif args.oracle:
            try:
                oracle = co.oracle_row(family, args.nbar, args.cutoff)
                oracle_values = [oracle.q, oracle.j, oracle.qfi, row.max_deviation(oracle)]
            except (ValueError, TruncationOverflowError, MemoryError) as exc:
                note = f"oracle unavailable: {exc}"
        rows.append((family.value, row.n_bar, row.q, row.j, row.qfi, *oracle_values, note))
    meta = {"command": "table", "n_bar": _fmt(float(args.nbar)), "oracle": args.oracle}
    if args.cutoff is not None:
        meta["cutoff"] = args.cutoff
    cell = CELLS[args.format]
    _write_rows(TABLE_COLUMNS, meta, args.format, args.out,
                [tuple(map(cell, row)) for row in rows])
    return 0
