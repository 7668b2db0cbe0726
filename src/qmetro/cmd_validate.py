"""``qmetro validate``: run the self-check suite and report it as JSON.

:func:`run` runs :func:`qmetro.validate.run_checks` and writes its report
as one indented JSON document, to stdout or, with ``--out``, to a file with
a one-line-per-check summary on stdout.  It exits 0 if every check passed
and 1 if any failed.  :mod:`qmetro.validate` imports nothing from the CLI;
this module is the only command code that runs it.

:func:`qmetro.cli.main` imports this module only to run ``validate``.
"""

from __future__ import annotations

import json

from . import validate
from .cli import _emit


def run(args) -> int:
    report = validate.run_checks()
    doc = json.dumps(report, indent=2)
    _emit([doc, "\n"], args.out)
    if args.out is not None:
        summary = [f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}: observed "
                   f"{check['observed']:.3e} (budget {check['budget']:.0e})\n"
                   for check in report["checks"]]
        _emit([*summary, f"{len(report['checks'])} checks\n"], None)
    return 0 if report["passed"] else 1
