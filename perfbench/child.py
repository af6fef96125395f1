"""Run one `qeeg` command in this process, the way the console script does.

    python3 child.py [--trace-out SPANS.json] <qeeg arguments...>

With `--trace-out`, timing wrappers replace the public functions of each
qeeg module under the name their callers look them up by, before the
command starts; every call becomes a span (name, parent, start, end) kept
in memory and written to SPANS.json when the command returns.  Pool
workers forked by `qeeg search --parallelism N` inherit the wrappers but
their spans stay in the worker and are never written: the traced
`search_pool` run sees only what the parent process does.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

# (layer, module whose attribute is replaced, attribute).  The module is
# the caller's, because callers bind these names at import time
# (`from .qlinalg import qsvd`).  The span is named `<layer>.<function>`.
TARGETS = (
    ("dataset", "qeeg.cli", "load_recording"),
    ("spectral", "qeeg.pipeline", "band_power_matrix"),
    ("pipeline", "qeeg.pipeline", "FeatureCache.from_csv_text"),
    ("pipeline", "qeeg.pipeline", "FeatureCache.vectors"),
    ("pipeline", "qeeg.search", "evaluate_quadruple"),
    ("qlinalg", "qeeg.qpca", "qsvd"),
    ("qpca", "qeeg.qpca", "fit"),
    ("qpca", "qeeg.qpca", "transform"),
    ("qpca", "qeeg.qpca", "project"),
    ("classifier", "qeeg.pipeline", "svm_fit"),
    ("search", "qeeg.search", "run_search"),
    ("connectivity", "qeeg.connectivity", "measure_values"),
    ("connectivity", "qeeg.connectivity", "build_tensors"),
    ("connectivity", "qeeg.connectivity", "distance_report"),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []   # [id, parent id or None, name, start, end, facts]
        self.stack = []
        self.missing = []

    def wrap(self, name, fn):
        facts = _FACTS.get(name)
        signature = inspect.signature(fn) if facts else None

        def traced(*args, **kwargs):
            record = [len(self.spans), self.stack[-1] if self.stack else None,
                      name, 0.0, 0.0, None]
            self.spans.append(record)
            self.stack.append(record[0])
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self.stack.pop()
            if facts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[5] = facts(bound.arguments, result)
            return result

        return traced

    def install(self):
        for layer, module_name, attr_path in TARGETS:
            *outer, attr = attr_path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for name in outer:
                    owner = getattr(owner, name)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                # a refactor moved the name: its span is missing and its metrics read 0
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            span_name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(span_name, raw.__func__)))
            else:
                setattr(owner, attr, self.wrap(span_name, raw))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


# span name -> facts the layer metrics need besides time, from the bound
# arguments and the result
_FACTS = {
    "classifier.svm_fit": lambda args, model: {
        "iterations": int(model.iterations),
        "unconverged": bool(model.duality_gap > args["tol"])},
    "connectivity.measure_values": lambda args, _: {
        "output": [list(args["channels"]), args["band"]]},
}


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from qeeg.cli import main as qeeg_main

    if trace_out is None:
        return qeeg_main(argv)
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli.main", qeeg_main)(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
