"""The benchmark's inputs against the current command-line front end.

``perfbench/workloads.py`` holds the argument lists and run
configurations the benchmark feeds to ``cli.main`` and ``cli.run``; a
front-end change that stops accepting them, or reads them differently,
fails here before it fails the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from wg4 import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


workloads = _workloads()

#: (table, workload) -> (command, case, n, levels) of its argument list.
EXPECTED_ARGV = {
    ("WORKLOADS", "conv-sine"): ("convergence", "sine", None, [8, 16, 32, 64]),
    ("WORKLOADS", "ft-n64"): ("ft-demo", "boundary-indicator", 64, None),
    ("TINY_WORKLOADS", "conv-sine"): ("convergence", "sine", None, [4, 8]),
    ("TINY_WORKLOADS", "ft-n64"): ("ft-demo", "boundary-indicator", 8, None),
}


@pytest.mark.parametrize("table,name", sorted(EXPECTED_ARGV))
def test_process_workload_argv_parses(table, name):
    work = getattr(workloads, table)[name]
    cfg = cli._config_from_flags(cli._read_flags(list(work.argv)))
    assert (cfg.command, cfg.case, cfg.n, cfg.levels) == EXPECTED_ARGV[table, name]
    if work.grid:
        assert cfg.grid == work.grid


def test_every_process_workload_is_checked():
    names = {(table, name) for table in ("WORKLOADS", "TINY_WORKLOADS")
             for name, work in getattr(workloads, table).items() if work.kind == "process"}
    assert names == set(EXPECTED_ARGV)


@pytest.mark.parametrize("table", ["WORKLOADS", "TINY_WORKLOADS"])
def test_sweep_config_parses(table, tmp_path):
    work = getattr(workloads, table)["ft-sweep"]
    source = workloads.sweep_pool(work.pool)[0]
    out = str(tmp_path / "sweep-0.csv")
    cfg = cli.parse_config(json.dumps(workloads.sweep_config(source, work.n, work.grid, out)))
    assert (cfg.command, cfg.case, cfg.n, cfg.grid) == ("ft-demo", "gaussian-source",
                                                       work.n, work.grid)
    assert cfg.source == source and cfg.out == out
