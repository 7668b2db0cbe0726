"""Per-layer metrics from the spans ``trace_boot.py`` records.

A span is ``[name, start_ns, end_ns, parent_index, command_id, raised, attrs]``
and its layer is the first part of its name (``import``, ``cli``,
``protocol``, ``gaussian``, ``fock``, ``correlations`` or ``validate``).
Spans of one command are nested and run on one thread, so children never
overlap and a span's self time is its duration minus the sum of its
children's durations.
"""

from __future__ import annotations

from collections import Counter

LAYERS = ("import", "cli", "protocol", "gaussian", "fock", "correlations", "validate")
FOCK_CONSTRUCTORS = frozenset(
    f"fock.{name}" for name in (
        "vacuum", "number_state", "coherent", "squeezed_vacuum", "noon", "twin_fock",
        "entangled_coherent", "two_mode_squeezed_vacuum", "product", "to_density",
    )
)
NS = 1e-9


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list) -> list:
    """Self time of each span in ns: its duration minus its children's durations."""
    covered = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - child for span, child in zip(spans, covered)]


def command_counters(spans: list) -> Counter:
    """Totals of one command's spans, keyed by metric name.

    For every layer and every traced function: ``.self_s``, ``.calls`` and
    ``.failed``; functions also get their inclusive time ``.s``.  A layer's
    ``failed`` counts exceptions leaving the layer, i.e. raised by a span
    whose parent is in another layer.  ``fock.squeeze.repeats`` counts calls
    whose (r, cutoff) already occurred in this process.
    """
    totals: Counter = Counter()
    seen_keys = set()
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, _, raised, attrs = span
        layer = layer_of(name)
        totals[f"{layer}.self_s"] += own * NS
        totals[f"{layer}.calls"] += 1
        leaves = parent < 0 or layer_of(spans[parent][0]) != layer
        totals[f"{layer}.failed"] += int(raised and leaves)
        if name != layer:
            totals[f"{name}.self_s"] += own * NS
            totals[f"{name}.s"] += (end - start) * NS
            totals[f"{name}.calls"] += 1
            totals[f"{name}.failed"] += int(raised)
        if name in FOCK_CONSTRUCTORS:
            totals["fock.constructors.self_s"] += own * NS
        if attrs:
            if name == "fock.squeeze":
                totals["fock.squeeze.in_dim_sum"] += attrs["in_dim"]
                totals["fock.squeeze.out_dim_sum"] += attrs.get("out_dim", 0)
                totals["fock.squeeze.mixed_calls"] += int(attrs["mixed"])
                key = tuple(attrs["key"])
                totals["fock.squeeze.repeats"] += int(key in seen_keys)
                seen_keys.add(key)
            elif "dim" in attrs:
                totals[f"{name}.dim_sum"] += attrs["dim"]
    return totals
