"""Golden CLI outputs: the command line's files, compared with copies kept
in ``tests/golden/``.

The goldens were written by the same commands before the mesh became a
set of arrays and the element loops became batched kernels; they pin the
printed results of that refactor.  To rewrite one, run its command with
``--out tests/golden/<name>`` (the ``--domain`` dump goes through a
``solve --config`` file, as below).

``convergence-poly-bump-8-32.csv`` and
``ft-demo-gaussian-n32-grid21-second-source.csv`` are compared byte for
byte only by the CI ``golden`` job, which pins numpy and scipy: their
last digits may move with another BLAS.  The sine table to n=64 is
compared here with the benchmark's golden, ``perfbench/golden/conv-sine.csv``,
in the solver's elimination order and in minimum degree's.
"""

import json
from pathlib import Path

import pytest

import wg4.solve
from wg4.cli import main, parse_config, run
from wg4.harness import DEFAULT_SOURCE, SECOND_SOURCE

GOLDEN = Path(__file__).resolve().parent / "golden"
CONV_SINE = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "conv-sine.csv"

BYTE_EXACT = [
    ("convergence-sine-8-32.csv", ["convergence", "--case", "sine", "--levels", "8,16,32"]),
    ("convergence-poly-bump-8-16.csv",
     ["convergence", "--case", "poly-bump", "--levels", "8,16"]),
    ("mesh-dump-n3.csv", ["mesh-dump", "--n", "3"]),
]


@pytest.mark.parametrize("name,argv", BYTE_EXACT, ids=[name for name, _ in BYTE_EXACT])
def test_cli_output_byte_identical(tmp_path, name, argv):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("permc_spec", [None, "MMD_AT_PLUS_A"])
def test_sine_table_to_n64_byte_identical(tmp_path, monkeypatch, permc_spec):
    # n=64's eg lies 9.3e-12 from a rounding tie; one refinement step holds it there
    # whatever the elimination order, here nested dissection or minimum degree
    if permc_spec is not None:
        monkeypatch.setattr(wg4.solve, "PERMC_SPEC", permc_spec)
    out = tmp_path / "conv-sine.csv"
    assert main(["convergence", "--case", "sine", "--levels", "8,16,32,64",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == CONV_SINE.read_bytes()


def test_mesh_dump_non_unit_domain_byte_identical(tmp_path):
    config = tmp_path / "mesh.json"
    config.write_text(json.dumps(
        {"command": "mesh-dump", "n": 3, "domain": [-1.0, 2.0, 3.0, 5.0]}
    ))
    out = tmp_path / "mesh.csv"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "mesh-dump-n3-domain.csv").read_bytes()


def _last_place(cell: str) -> float:
    """One unit in the last printed digit of a ``%.5e`` cell."""
    mantissa, exponent = cell.split("e")
    decimals = len(mantissa.split(".")[1])
    return 10.0 ** (int(exponent) - decimals)


def _assert_field_matches_golden(text: str) -> None:
    """The gaussian-source field at n=8, cell by cell, within one unit in
    the last printed digit.

    Not byte for byte: the solve amplifies float sums that run in a new
    order (a batched load or projection adds the same terms in another
    order), so the last printed digit of a cell may move by one.
    """
    got = text.strip().split("\n")
    want = (GOLDEN / "ft-demo-gaussian-n8-grid11.csv").read_text().strip().split("\n")
    assert got[0] == want[0] == "x,y,u0"
    assert len(got) == len(want) == 11 * 11 + 1
    for row, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        for col, (gc, wc) in enumerate(zip(g.split(","), w.split(","))):
            assert abs(float(gc) - float(wc)) <= _last_place(wc) * (1.0 + 1e-9), (
                f"row {row} column {col}: {gc} against golden {wc}"
            )


def test_ft_demo_field_within_last_digit(tmp_path):
    out = tmp_path / "field.csv"
    argv = ["ft-demo", "--scenario", "gaussian-source", "--n", "8", "--grid", "11"]
    assert main(argv + ["--out", str(out)]) == 0
    _assert_field_matches_golden(out.read_text())


def test_ft_demo_sources_in_one_process(tmp_path):
    """The default source, a second source, then the default source again
    in one process: the last run reuses the operator of the first and
    must write the same bytes."""
    fields = []
    for k, source in enumerate([DEFAULT_SOURCE, SECOND_SOURCE, DEFAULT_SOURCE]):
        out = tmp_path / f"field-{k}.csv"
        cfg = parse_config(json.dumps({
            "command": "ft-demo", "scenario": "gaussian-source", "n": 8, "grid": 11,
            "source": list(source), "out": str(out),
        }))
        assert run(cfg) == 0
        fields.append(out.read_bytes())
    assert fields[0] == fields[2] != fields[1]
    _assert_field_matches_golden(fields[0].decode())
