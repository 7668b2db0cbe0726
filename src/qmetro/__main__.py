"""``python -m qmetro``: the same entry point as the ``qmetro`` script, :func:`qmetro.cli.run`."""

import sys

from .cli import run

sys.exit(run())
