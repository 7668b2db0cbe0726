"""Run one ``qmetro`` command in this interpreter with span tracing.

Usage: python trace_boot.py SPAWN_NS COMMAND_ID SPANS_PATH -- ARGS...

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started this
process (the same clock system-wide), so the first span, ``import``, covers
interpreter start-up plus importing ``qmetro.cli``.  Every public function of
the traced modules is then replaced, by module attribute, with a wrapper that
records a span; each qmetro module attribute bound to an original function
is rebound to its wrapper, so calls made through ``from``-imports and
re-exports are traced too.  Spans stay in memory and are written as JSON to
SPANS_PATH when the command ends.  A span is
``[name, start_ns, end_ns, parent_index, command_id, raised, attrs]``.
"""

import json
import sys
import time

TRACED_MODULES = ("cli", "protocol", "gaussian", "fock", "correlations", "validate")


def _squeeze_attrs(args, kwargs, result):
    state = args[0]
    r = args[1] if len(args) > 1 else kwargs.get("r")
    mixed = isinstance(state, sys.modules["qmetro.fock"].MixedState)
    attrs = {"in_dim": state.cutoff + 1, "mixed": mixed, "key": [r, state.cutoff]}
    if result is not None:
        attrs["out_dim"] = result.cutoff + 1
    return attrs


def _dim_attrs(args, kwargs, result):
    return {"dim": args[0].cutoff + 1}


#: Extra attributes recorded for a few functions, from their arguments and result.
ATTRS = {
    "fock.squeeze": _squeeze_attrs,
    "fock.loss": _dim_attrs,
    "fock.beam_splitter": _dim_attrs,
}


def install(command_id, spans, clock=time.monotonic_ns):
    """Wrap the traced modules' public functions, recording spans into ``spans``."""
    import inspect

    stack = []

    def wrap(name, fn, attrs_of):
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, raised = None, True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of else None
                spans[index] = [name, start, end, parent, command_id, raised, attrs]

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    wrappers = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"qmetro.{short}"]
        for attr, value in list(vars(module).items()):
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                wrappers[value] = wrap(name, value, ATTRS.get(name))
    for module_name, module in list(sys.modules.items()):
        if module_name == "qmetro" or module_name.startswith("qmetro."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
    if not getattr(sys.modules["qmetro.cli"].main, "__wrapped__", None):
        raise RuntimeError("qmetro.cli.main was not wrapped")


def main(argv):
    spawn_ns, command_id, spans_path = int(argv[0]), int(argv[1]), argv[2]
    if argv[3] != "--":
        raise SystemExit("usage: trace_boot.py SPAWN_NS COMMAND_ID SPANS_PATH -- ARGS...")
    import qmetro.cli

    spans = [["import", spawn_ns, time.monotonic_ns(), -1, command_id, False, None]]
    install(command_id, spans)
    code = 1
    try:
        code = qmetro.cli.main(argv[4:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            # dumps, not dump: json.dump encodes in pure Python, 10x slower
            fh.write(json.dumps([s for s in spans if s is not None], separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
