import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from util import uncached_sample

import wg4
from wg4 import cli, harness
from wg4.assembly import Region
from wg4.cli import ConfigError, main, parse_config
from wg4.errors import check_doubling
from wg4.harness import CATALOG, DEFAULT_SOURCE, SECOND_SOURCE, catalog_entry, check_grid
from wg4.mesh import check_partition, check_rectangle


def test_parse_convergence_config():
    cfg = parse_config(json.dumps(
        {"command": "convergence", "case": "sine", "levels": [1, 2, 4, 8, 16, 32, 64]}
    ))
    assert cfg.command == "convergence"
    assert cfg.case == "sine"
    assert cfg.levels == [1, 2, 4, 8, 16, 32, 64]


def test_parse_ft_demo_config():
    cfg = parse_config(json.dumps({
        "command": "ft-demo",
        "scenario": "gaussian-source",
        "source": [13.3065, 0.0730994],
        "n": 64,
    }))
    assert cfg.case == "gaussian-source"
    assert cfg.source == (13.3065, 0.0730994)
    assert cfg.n == 64


def test_indefinite_region_rejected():
    text = json.dumps({
        "command": "solve", "case": "gaussian-source", "n": 8,
        "regions": [{"shape": "disk", "center": [25, 15], "radius": 4,
                     "kappa": [[1, 2], [2, 1]], "mu": 0.0}],
    })
    with pytest.raises(ConfigError, match=r"regions\[0\]"):
        parse_config(text)


def test_negative_mu_rejected():
    text = json.dumps({
        "command": "solve", "case": "sine", "n": 4,
        "regions": [{"shape": "rect", "bounds": [0, 0, 1, 1],
                     "kappa": [[1, 0], [0, 1]], "mu": -0.5}],
    })
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config(text)


@pytest.mark.parametrize("region,fragment", [
    ({"shape": "rect", "bounds": [0, 0, 1, 1], "mu": float("nan")}, "mu"),
    ({"shape": "disk", "center": [25, 15], "radius": -4, "mu": 0.0}, "radius"),
    ({"shape": "disk", "center": [float("nan"), 15], "radius": 4, "mu": 0.0}, "center"),
    ({"shape": "rect", "bounds": [30, 30, 10, 10], "mu": 0.0}, "bounds"),
])
def test_bad_region_values_rejected(region, fragment):
    text = json.dumps({"command": "solve", "case": "gaussian-source", "n": 8,
                       "regions": [{**region, "kappa": [[1, 0], [0, 1]]}]})
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value).startswith("$.regions[0]") and fragment in str(err.value)
    # the region checks its own values, also when built without the CLI
    values = {key: tuple(v) if isinstance(v, list) else v for key, v in region.items()}
    with pytest.raises(ValueError, match=fragment):
        Region(kappa=np.eye(2), **values)


@pytest.mark.parametrize("text,fragment", [
    ("{not json", "malformed JSON"),
    (json.dumps({"command": "warp"}), "$.command"),
    (json.dumps({"command": "convergence", "case": "sine", "levels": [2, 4],
                 "extra": 1}), "$.extra: unknown key"),
    (json.dumps({"command": "convergence", "levels": [2, 4]}), "$.case: required"),
    (json.dumps({"command": "convergence", "case": "nope", "levels": [2, 4]}),
     "unknown case"),
    (json.dumps({"command": "convergence", "case": "sine", "levels": [2, 5]}),
     "levels must double"),
    (json.dumps({"command": "convergence", "case": "boundary-dirac",
                 "levels": [8, 16]}), "no exact solution"),
    (json.dumps({"command": "solve", "case": "sine", "n": 0}), "$.n"),
    (json.dumps({"command": "solve", "case": "boundary-indicator", "n": 12}),
     "$.n: must be divisible by 8, got 12"),
    (json.dumps({"command": "solve", "case": "sine", "n": 4,
                 "solver": {"tolernce": 1e-8}}), "$.solver.tolernce"),
    (json.dumps({"command": "solve", "case": "sine", "n": 4,
                 "solver": {"method": "gmres"}}), "$.solver"),
    (json.dumps({"command": "solve", "case": "sine", "n": 4,
                 "solver": {"max_iterations": 2}}), "$.solver.max_iterations: unknown key"),
    (json.dumps({"command": "solve", "case": "sine", "n": 4,
                 "solver": {"preconditioner": "diagonal"}}),
     "$.solver.preconditioner: unknown key"),
    (json.dumps({"command": "solve", "case": "sine", "n": 4,
                 "source": [1, 2]}), "$.source"),
    (json.dumps({"command": "ft-demo", "scenario": "sine", "n": 4}),
     "$.scenario"),
    (json.dumps({"command": "mesh-dump", "n": 2, "domain": [0, 0, 1]}),
     "$.domain"),
    (json.dumps({"command": "mesh-dump", "n": 2, "domain": [0, 0, float("inf"), 1]}),
     "$.domain[2]: expected a finite number"),
    ('{"command": "mesh-dump", "n": 2, "domain": [0, 0, 1' + "0" * 400 + ', 1]}',
     "$.domain[2]: expected a finite number"),
    (json.dumps({"command": "ft-demo", "scenario": "gaussian-source", "n": 8,
                 "source": [float("nan"), 0]}), "$.source[0]: expected a finite number"),
    (json.dumps({"command": "solve", "case": "gaussian-source", "n": 8,
                 "regions": [{"shape": "disk", "center": [25, float("-inf")], "radius": 4,
                              "kappa": [[1, 0], [0, 1]], "mu": 0.0}]}),
     "$.regions[0].center[1]: expected a finite number"),
    (json.dumps({"command": "solve", "case": "gaussian-source", "n": 8,
                 "regions": [{"shape": "disk", "center": [25, 15], "radius": 4,
                              "kappa": [[float("nan"), 0], [0, 1]], "mu": 0.0}]}),
     "$.regions[0].kappa[0][0]: expected a finite number"),
    (json.dumps({"command": "solve", "case": "sine", "n": 4,
                 "solver": {"tolerance": float("nan")}}),
     "$.solver.tolerance: expected a finite number"),
    (json.dumps({"command": "solve", "case": "sine", "n": 10**30}),
     f"$.n: must be <= 1024, got {10**30}"),
    (json.dumps({"command": "mesh-dump", "n": 1025}), "$.n: must be <= 1024, got 1025"),
    (json.dumps({"command": "convergence", "case": "sine", "levels": [10**6, 2 * 10**6]}),
     "$.levels[0]: must be <= 1024, got 1000000"),
    (json.dumps({"command": "ft-demo", "scenario": "boundary-dirac", "n": 8, "grid": 10**9}),
     "$.grid: must be <= 2048, got 1000000000"),
    (json.dumps({"command": "solve", "case": "gaussian-source", "n": 8,
                 "regions": [{"shape": "disk", "center": [25, 15], "radius": 4,
                              "kappa": [[1, 0], [0]], "mu": 0.0}]}),
     "$.regions[0].kappa[1]: expected a row of two numbers, got [0]"),
])
def test_invalid_configs_rejected(text, fragment):
    with pytest.raises(ConfigError, match=None) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_mesh_dump_command(tmp_path):
    out = tmp_path / "mesh.csv"
    assert main(["mesh-dump", "--n", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    ie = lines.index("# elements")
    ig = lines.index("# edges")
    assert ig - ie - 1 == 2  # two element records at n=1


def test_ft_demo_rejects_unaligned_n(tmp_path, capsys):
    code = main(["ft-demo", "--scenario", "boundary-indicator", "--n", "10",
                 "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 2
    err_lines = captured.err.strip().split("\n")
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: config:")
    assert "divisible by 8" in err_lines[0]


def test_convergence_command_writes_csv(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--case", "sine", "--levels", "2,4",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,h,l2_e0,l2_order,tbar,tbar_order,eb,eb_order,eg,eg_order"
    assert len(lines) == 3


def test_solve_config_roundtrip_and_determinism(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "command": "solve", "case": "poly-bump", "n": 4, "grid": 9,
        "out": str(tmp_path / "a.csv"),
    }))
    assert main(["solve", "--config", str(config)]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert main(["solve", "--config", str(config), "--out",
                 str(tmp_path / "b.csv")]) == 0
    second = (tmp_path / "b.csv").read_bytes()
    assert first == second
    header = first.decode().split("\n", 1)[0]
    assert header == "x,y,u0"
    assert len(first.decode().strip().split("\n")) == 9 * 9 + 1


def test_ft_demo_determinism(tmp_path):
    args = ["ft-demo", "--scenario", "boundary-indicator", "--n", "8",
            "--grid", "9"]
    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solver_failure_exit_code(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "command": "solve", "case": "sine", "n": 4,
        "solver": {"tolerance": 1e-300},
    }))
    code = main(["solve", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: solver:")


def test_diverged_refinement_exit_code(tmp_path, capsys):
    # its tiny backward error used to accept an x whose residual is 2.6e5 times x = 0's
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "command": "solve", "case": "gaussian-source", "n": 4,
        "regions": [{"shape": "rect", "bounds": [0, 0, 50, 50],
                     "kappa": [[1e-10, 0], [0, 1e-10]], "mu": 0}],
    }))
    assert main(["solve", "--config", str(config)]) == 3
    assert capsys.readouterr().err.startswith("error: solver: refinement diverged")


def test_warm_field_csvs_equal_a_fresh_format(tmp_path, monkeypatch):
    # one process: two sources, then another grid, then another n; each CSV
    # is the plain three-column format of its own op's lattice and values
    seen = []
    sample = harness.sample_field

    def recording(mesh, u_h, grid):
        seen.append((mesh, u_h))
        return sample(mesh, u_h, grid)

    monkeypatch.setattr(harness, "sample_field", recording)
    for j, (source, n, grid) in enumerate([
            (DEFAULT_SOURCE, 8, 9), (SECOND_SOURCE, 8, 9), (SECOND_SOURCE, 8, 7),
            (SECOND_SOURCE, 16, 7)]):
        out = tmp_path / f"field{j}.csv"
        assert cli.run(parse_config(json.dumps({
            "command": "ft-demo", "scenario": "gaussian-source", "n": n, "grid": grid,
            "source": list(source), "out": str(out)}))) == 0
        points, values = uncached_sample(*seen[-1], grid)
        want = "x,y,u0\n" + cli._rows("%.5e,%.5e,%.5e\n", points, values)
        assert out.read_bytes() == want.encode()


def test_missing_config_file(capsys):
    assert main(["solve", "--config", "/nonexistent/x.json"]) == 2
    assert "error: config:" in capsys.readouterr().err


def test_help_lists_every_case(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in CATALOG:
        assert name in out


@pytest.mark.parametrize("source,fragment", [
    ("1;2", "--source"),
    ("nan,0", "--source[0]: expected a finite number"),
    ("inf,0", "--source[0]: expected a finite number"),
])
def test_bad_source_flag(source, fragment, capsys):
    code = main(["ft-demo", "--scenario", "gaussian-source", "--n", "4",
                 "--source", source])
    assert code == 2
    assert fragment in capsys.readouterr().err


def test_gaussian_demo_with_source(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["ft-demo", "--scenario", "gaussian-source", "--n", "8",
                 "--grid", "6", "--source", "49.8272,13.5234",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    values = np.array([float(r.split(",")[2]) for r in rows])
    assert np.isfinite(values).all()


@pytest.mark.parametrize("argv,message", [
    (["convergence", "--case", "sine", "--levels", "0,0"], "--levels[0]: must be >= 1, got 0"),
    (["convergence", "--case", "sine", "--levels=-2,-4"], "--levels[0]: must be >= 1, got -2"),
    (["ft-demo", "--scenario", "sine", "--n", "4"], "--scenario: unknown scenario 'sine'"),
    (["ft-demo", "--scenario", "boundary-indicator", "--n", "8", "--source", "1,2"],
     "--source: only the gaussian-source scenario"),
    (["mesh-dump", "--n", "1025"], "--n: must be <= 1024, got 1025"),
    (["ft-demo", "--scenario", "boundary-indicator", "--n", "12"],
     "--n: must be divisible by 8, got 12"),
    (["ft-demo", "--scenario", "boundary-dirac", "--n", "2048"],
     "--n: must be <= 1024, got 2048"),
    (["convergence", "--case", "sine", "--levels", "1024,2048"],
     "--levels[1]: must be <= 1024, got 2048"),
    (["ft-demo", "--scenario", "boundary-dirac", "--n", "8", "--grid", "2049"],
     "--grid: must be <= 2048, got 2049"),
    # missing flags and bad integers: the validator's messages, not argparse's
    (["ft-demo", "--scenario", "gaussian-source"], "--n: required key missing"),
    (["convergence", "--levels", "8,16"], "--case: required key missing"),
    (["ft-demo", "--scenario", "gaussian-source", "--n", "x"],
     "--n: expected an integer, got 'x'"),
    (["mesh-dump", "--n", "4.5"], "--n: expected an integer, got 4.5"),
    (["ft-demo", "--scenario", "boundary-dirac", "--n", "8", "--grid", "x"],
     "--grid: grid must be an integer >= 2, got 'x'"),
])
def test_flag_errors_name_the_flag(argv, message, capsys, monkeypatch):
    # an input that stops being rejected must fail here, not run (or build a huge mesh)
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail(f"accepted {cfg}"))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {message}")


@pytest.mark.parametrize("doc,attr,value", [
    ({"command": "solve", "case": "gaussian-source", "n": 8, "regions": []}, "regions", []),
    ({"command": "solve", "case": "sine", "n": 4, "solver": {}}, "solver", cli.SolverConfig()),
    ({"command": "mesh-dump", "n": 4}, "domain", None),
    ({"command": "ft-demo", "scenario": "boundary-dirac", "n": 8}, "grid", 101),
])
def test_valid_configs_accepted(doc, attr, value):
    assert getattr(parse_config(json.dumps(doc)), attr) == value


def _region(**values):
    return {"command": "solve", "case": "gaussian-source", "n": 8,
            "regions": [{"shape": "rect", "bounds": [0, 0, 1, 1], "kappa": [[1, 0], [0, 1]],
                         "mu": 0.0, **values}]}


@pytest.mark.parametrize("args,path,library", [
    ({"command": "mesh-dump", "n": 2, "domain": [1, 0, 0, 1]}, "$.domain",
     lambda: check_rectangle((1, 0, 0, 1))),
    (_region(bounds=[30, 30, 10, 10]), "$.regions[0].bounds",
     lambda: check_rectangle((30, 30, 10, 10))),
    (_region(kappa=[[1, 2], [2, 1]]), "$.regions[0]",
     lambda: Region(shape="rect", bounds=(0, 0, 1, 1), kappa=np.array([[1, 2], [2, 1]]), mu=0.0)),
    (_region(mu=-0.5), "$.regions[0]",
     lambda: Region(shape="rect", bounds=(0, 0, 1, 1), kappa=np.eye(2), mu=-0.5)),
    # kappa and mu beyond the range the element kernel can form in float64
    (_region(kappa=[[1e-300, 0], [0, 1e-300]]), "$.regions[0]",
     lambda: Region(shape="rect", bounds=(0, 0, 1, 1), kappa=1e-300 * np.eye(2), mu=0.0)),
    (_region(kappa=[[1e300, 0], [0, 1e300]]), "$.regions[0]",
     lambda: Region(shape="rect", bounds=(0, 0, 1, 1), kappa=1e300 * np.eye(2), mu=0.0)),
    (_region(mu=1e300), "$.regions[0]",
     lambda: Region(shape="rect", bounds=(0, 0, 1, 1), kappa=np.eye(2), mu=1e300)),
    # a key of the other shape
    (_region(radius=-3, center=[1e300, 0]), "$.regions[0]",
     lambda: Region(shape="rect", bounds=(0, 0, 1, 1), kappa=np.eye(2), mu=0.0,
                    center=(1e300, 0.0), radius=-3.0)),
    (_region(shape="disk", center=[25, 15], radius=4), "$.regions[0]",
     lambda: Region(shape="disk", center=(25.0, 15.0), radius=4.0, kappa=np.eye(2), mu=0.0,
                    bounds=(0, 0, 1, 1))),
    # cells below 1e-150, a width past the float range, cells above 1e150
    ({"command": "mesh-dump", "n": 2, "domain": [0, 0, 1e-170, 1e-170]}, "$.domain",
     lambda: check_partition((0, 0, 1e-170, 1e-170), 2)),
    ({"command": "mesh-dump", "n": 2, "domain": [-1e308, 0, 1e308, 1]}, "$.domain",
     lambda: check_partition((-1e308, 0, 1e308, 1), 2)),
    ({"command": "mesh-dump", "n": 2, "domain": [0, 0, 1e308, 1e308]}, "$.domain",
     lambda: check_partition((0, 0, 1e308, 1e308), 2)),
    ({"command": "ft-demo", "scenario": "boundary-dirac", "n": 8, "grid": 1}, "$.grid",
     lambda: check_grid(1)),
    (["ft-demo", "--scenario", "boundary-dirac", "--n", "8", "--grid", "1"], "--grid",
     lambda: check_grid(1)),
    ({"command": "solve", "case": "boundary-dirac", "n": 12}, "$.n",
     lambda: CATALOG["boundary-dirac"].check_n(12)),
    (["convergence", "--case", "sine", "--levels", "4,6"], "--levels",
     lambda: check_doubling([4, 6])),
    (["ft-demo", "--scenario", "boundary-indicator", "--n", "12"], "--n",
     lambda: CATALOG["boundary-indicator"].check_n(12)),
    (["ft-demo", "--scenario", "boundary-dirac", "--n", "8", "--source", "1,2"], "--source",
     lambda: catalog_entry("boundary-dirac", (1.0, 2.0))),
    # a Gaussian source outside the scenario's domain
    ({"command": "ft-demo", "scenario": "gaussian-source", "n": 8, "source": [1e308, 1e308]},
     "$.source", lambda: catalog_entry("gaussian-source", (1e308, 1e308))),
    (["ft-demo", "--scenario", "gaussian-source", "--n", "8", "--source", "25,-1"], "--source",
     lambda: catalog_entry("gaussian-source", (25.0, -1.0))),
])
def test_library_rules_reported_at_their_key(args, path, library, tmp_path, capsys, monkeypatch):
    # the CLI reports the library's own message, at the key or flag that broke the rule
    with pytest.raises(ValueError) as err:
        library()
    if isinstance(args, dict):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(args))
        args = ["solve", "--config", str(config)]
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail(f"accepted {cfg}"))
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: config: {path}: {err.value}\n"


def test_disk_region_at_the_float_range_runs(tmp_path):
    # the disk holds the whole domain; its squared distances used to overflow
    def field(region: dict) -> str:
        config, out = tmp_path / "run.json", tmp_path / "field.csv"
        config.write_text(json.dumps({
            "command": "solve", "case": "gaussian-source", "n": 4, "grid": 5, "out": str(out),
            "regions": [{"kappa": [[1, 0], [0, 1]], "mu": 0.5, **region}]}))
        assert main(["solve", "--config", str(config)]) == 0
        return out.read_text()

    disk = field({"shape": "disk", "center": [1e308, 0], "radius": 1e308})
    assert disk == field({"shape": "rect", "bounds": [0, 0, 50, 50]})


def test_cli_import_leaves_out_scipy_special():
    # the triangle rule needs numpy only; scipy.special took about 50 ms of the import
    code = "import sys, wg4.cli; print('scipy.special' in sys.modules)"
    src = Path(wg4.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                          check=True)
    assert done.stdout == "False\n"


FLAG_CASES = [
    (["convergence", "--case", "sine", "--levels", "8,16,32", "--out", "c.csv"],
     {"command": "convergence", "case": "sine", "levels": [8, 16, 32], "out": "c.csv"}),
    (["ft-demo", "--scenario", "gaussian-source", "--source", "1.5,2", "--n", "8", "--grid", "11",
      "--out", "f.csv"],
     {"command": "ft-demo", "scenario": "gaussian-source", "source": [1.5, 2], "n": 8,
      "grid": 11, "out": "f.csv"}),
    (["ft-demo", "--scenario", "boundary-dirac", "--n", "16"],
     {"command": "ft-demo", "scenario": "boundary-dirac", "n": 16}),
    (["mesh-dump", "--n", "4", "--out", "m.csv"],
     {"command": "mesh-dump", "n": 4, "out": "m.csv"}),
]


@pytest.mark.parametrize("argv,doc", FLAG_CASES)
def test_flags_give_the_config_of_their_json(argv, doc):
    from_flags = cli._config_from_args(cli._build_parser().parse_args(argv))
    assert from_flags == parse_config(json.dumps(doc))


def test_flag_cases_cover_every_flag():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        if command == "solve":  # its flags name a config file, not config keys
            continue
        flags = {flag for action in sub._actions for flag in action.option_strings}
        covered = {arg for argv, _ in FLAG_CASES if argv[0] == command for arg in argv}
        assert flags - {"-h", "--help"} <= covered, command
