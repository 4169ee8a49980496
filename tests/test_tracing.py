"""The benchmark's span tracer against the current package.

``perfbench/spans.py`` wraps wg4 functions at the module attributes the
callers look them up through, so renaming one of them breaks the
benchmark's tracing; this test fails first.
"""

import importlib.util
from pathlib import Path

from wg4 import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_benchmark_tracer_records_kernel_and_solve(tmp_path):
    tracer = _tracer()  # no model is kept between tests, so the element kernel runs
    tracer.install()
    try:
        code = cli.main(["ft-demo", "--scenario", "gaussian-source", "--n", "4", "--grid", "3",
                         "--out", str(tmp_path / "field.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"assembly.kernel", "solve.solve"} <= names


def test_benchmark_tracer_sees_one_kernel_call_and_one_norm_per_level():
    # Each level's error report reads the operator that solved it, so the
    # element kernel runs once per level.  The tracer counts a norm's
    # elements from its first argument, which must have ``n_elements``,
    # and times each level's solve by wrapping ``harness.solve_case``.
    tracer = _tracer()
    tracer.install()
    try:
        code = cli.main(["convergence", "--case", "sine", "--levels", "4,8"])
    finally:
        tracer.uninstall()
    assert code == 0
    rows = tracer.rows()
    norms = [row[5]["elements"] for row in rows if row[0] == "assembly.triple_bar"]
    assert norms == [32, 128]
    assert sum(row[0] == "assembly.kernel" for row in rows) == 2
    assert sum(row[0] == "harness.solve_case" for row in rows) == 2
