"""The benchmark's span tracer against the current package.

``perfbench/spans.py`` wraps wg4 functions at the module attributes the
callers look them up through, so renaming one of them breaks the
benchmark's tracing; this test fails first.
"""

import importlib.util
from pathlib import Path

from wg4 import assembly, cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_benchmark_tracer_records_kernel_and_solve(tmp_path):
    tracer = _tracer()
    assembly.empty_slot()  # a fresh operator, so the element kernel runs
    tracer.install()
    try:
        code = cli.main(["ft-demo", "--scenario", "gaussian-source", "--n", "4", "--grid", "3",
                         "--out", str(tmp_path / "field.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"assembly.kernel", "solve.solve"} <= names
