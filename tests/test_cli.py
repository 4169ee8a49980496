import json
import os
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
from wg4.harness import CATALOG, DEFAULT_SOURCE, SECOND_SOURCE, check_grid, check_source
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
     "$.n: case 'boundary-indicator' needs n divisible by 8, got 12"),
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
    (json.dumps({"command": "ft-demo", "scenario": "gaussian-source", "n": 8, "out": ""}),
     "$.out: expected a non-empty path, got ''"),
    (json.dumps({"command": "mesh-dump", "n": 2, "out": ""}),
     "$.out: expected a non-empty path, got ''"),
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


def test_failed_factorization_exit_code(tmp_path, capsys):
    # a diffusion of 1e-10 at mu = 0 leaves a front that is not positive definite in
    # float64; SuperLU factored it, and refinement diverged to 2.6e5 times x = 0's residual
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "command": "solve", "case": "gaussian-source", "n": 4,
        "regions": [{"shape": "rect", "bounds": [0, 0, 50, 50],
                     "kappa": [[1e-10, 0], [0, 1e-10]], "mu": 0}],
    }))
    assert main(["solve", "--config", str(config)]) == 3
    assert capsys.readouterr().err.startswith("error: solver: factorization failed")


def test_warm_field_csvs_equal_a_fresh_format(tmp_path, monkeypatch):
    # one process: two sources, then another grid, then another n, then a
    # field with negative values and a grid-101 field; each CSV is the
    # plain three-column format of its own op's lattice and values
    seen = []
    sample = harness.ForwardModel.sample

    def recording(model, u_h, grid):
        seen.append((model.mesh, u_h))
        return sample(model, u_h, grid)

    monkeypatch.setattr(harness.ForwardModel, "sample", recording)
    gaussian = {"scenario": "gaussian-source"}
    for j, (scenario, n, grid) in enumerate([
            ({**gaussian, "source": list(DEFAULT_SOURCE)}, 8, 9),
            ({**gaussian, "source": list(SECOND_SOURCE)}, 8, 9),
            ({**gaussian, "source": list(SECOND_SOURCE)}, 8, 7),
            ({**gaussian, "source": list(SECOND_SOURCE)}, 16, 7),
            ({"scenario": "boundary-indicator"}, 16, 33),
            (gaussian, 8, 101)]):
        out = tmp_path / f"field{j}.csv"
        assert cli.run(parse_config(json.dumps({
            "command": "ft-demo", **scenario, "n": n, "grid": grid, "out": str(out)}))) == 0
        points, values = uncached_sample(*seen[-1], grid)
        want = "x,y,u0\n" + cli._rows("%.5e,%.5e,%.5e\n", points, values)
        assert out.read_bytes() == want.encode()
        if j == 4:
            assert (values < 0).any()


def test_changed_case_n_or_regions_build_a_new_model(tmp_path):
    # the CLI keeps one model under its case, n and regions; another source,
    # grid or tolerance keeps it, and another command drops it
    disk = {"shape": "disk", "center": [25, 15], "radius": 12, "kappa": [[0.5, 0], [0, 0.5]],
            "mu": 0.5}

    def model(**changes):
        config = {"command": "solve", "case": "gaussian-source", "n": 4, "grid": 3, **changes}
        config = {key: value for key, value in config.items() if value is not None}
        assert cli.run(parse_config(json.dumps(config))) == 0
        return cli._kept.model if cli._kept else None

    first = model()
    assert first.operator.factor is not None
    assert model(source=list(SECOND_SOURCE), grid=5, solver={"tolerance": 1e-8}) is first
    assert model(out=str(tmp_path / "field.csv")) is first
    changed = [model(n=8), model(regions=[disk]), model(regions=[disk, disk]),
               model(case="sine"), model(case="sine", regions=[{**disk, "center": [0.5, 0.5],
                                                                     "radius": 0.3}])]
    assert len({id(m) for m in [first, *changed]}) == 6
    assert model(command="mesh-dump", case=None, grid=None) is None

    # equal regions from another config are the same key
    assert model(case="sine") is model(case="sine")
    assert model(regions=[disk]) is model(regions=[dict(disk)])


def _percent_e5_cases(rng: np.random.Generator) -> np.ndarray:
    """Values that test every path of ``cli._format_e5``."""
    count = 50_000
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    decades = np.concatenate([decades, 10.0 ** np.arange(-323, 309)])
    # within rounding of a half-way value m + 1/2 at the printed scale, and
    # integers whose seventh digit is a final 5: exact ties
    halves = (rng.integers(100_000, 1_000_000, count) + 0.5) * 10.0 ** rng.integers(-30, 30, count)
    exact_ties = (rng.integers(100_000, 1_000_000, count) * 10 + 5) * 10.0 ** rng.integers(0, 9, count)
    return np.concatenate([
        rng.standard_normal(count) * 10.0 ** rng.uniform(-300, 300, count),  # 3-digit exponents
        rng.standard_normal(count) * 10.0 ** rng.uniform(-20, 20, count),
        decades, np.nextafter(decades, np.inf), np.nextafter(decades, -np.inf), -decades,
        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
        exact_ties, -exact_ties / 1e7, exact_ties / 10,
        rng.uniform(-1.0, 1.0, 1000) * 2.2250738585072014e-308,  # subnormals
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.finfo(float).max, 999999.5,
         9.999995, 1e-300, 9.999999999e300],
    ])


def test_format_e5_prints_what_percent_prints():
    # the scale table's powers are within an ulp of the decimal ones
    exact = np.array([float(f"1e{p}") for p in range(-cli._POW10_BIAS, len(cli._POW10)
                                                      - cli._POW10_BIAS)])
    assert np.all(np.abs(cli._POW10 - exact) <= np.spacing(exact))
    values = _percent_e5_cases(np.random.default_rng(20261019))
    assert len(values) >= 200_000
    table = np.zeros((len(values), cli._E5_WIDTH + 1), dtype=np.uint8)
    table[:, -1] = ord("\n")
    fallbacks = cli._format_e5(values, table[:, :-1])
    got = table.tobytes().translate(None, b"\0").decode().splitlines()
    want = ("%.5e\n" * len(values) % tuple(values.tolist())).splitlines()
    wrong = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]
    assert fallbacks > 0
    # ordinary values are nearly all printed without ``%``
    assert cli._format_e5(values[50_000:100_000], table[:50_000, :-1]) < 10


def test_region_without_a_centroid_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "command": "solve", "case": "gaussian-source", "n": 4,
        "regions": [{"shape": "rect", "bounds": [100, 100, 200, 200],
                     "kappa": [[1, 0], [0, 1]], "mu": 0}],
    }))
    assert main(["solve", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: config: $.regions[0]: holds no element centroid\n"
    assert cli._kept is None  # the model failed to lay its medium, and none is kept


def test_missing_config_file(capsys):
    assert main(["solve", "--config", "/nonexistent/x.json"]) == 2
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["ft-demo", "--help"]])
def test_help_lists_every_case(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in CATALOG:
        assert name in out
    for command, keys in cli._FLAGS.items():
        assert command in out
        for key in keys:
            assert f"--{key}" in out


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
     "--n: case 'boundary-indicator' needs n divisible by 8, got 12"),
    (["ft-demo", "--scenario", "boundary-dirac", "--n", "2048"],
     "--n: must be <= 1024, got 2048"),
    (["convergence", "--case", "sine", "--levels", "1024,2048"],
     "--levels[1]: must be <= 1024, got 2048"),
    (["ft-demo", "--scenario", "boundary-dirac", "--n", "8", "--grid", "2049"],
     "--grid: must be <= 2048, got 2049"),
    # missing flags and bad integers
    (["ft-demo", "--scenario", "gaussian-source"], "--n: required key missing"),
    (["convergence", "--levels", "8,16"], "--case: required key missing"),
    (["ft-demo", "--scenario", "gaussian-source", "--n", "x"],
     "--n: expected an integer, got 'x'"),
    (["mesh-dump", "--n", "4.5"], "--n: expected an integer, got 4.5"),
    (["ft-demo", "--scenario", "boundary-dirac", "--n", "8", "--grid", "x"],
     "--grid: grid must be an integer >= 2, got 'x'"),
    # a flag the command does not take, and a flag without its value
    (["convergence", "--case", "sine", "--levels", "2,4", "--n", "4"], "--n: unknown key"),
    (["ft-demo", "--scenario", "sine", "--n"], "--n: expected one argument"),
    (["solve"], "--config: required key missing"),
    # a value that starts with a minus sign reaches the validator
    (["convergence", "--case", "sine", "--levels", "-2,-4"], "--levels[0]: must be >= 1, got -2"),
    (["ft-demo", "--scenario", "gaussian-source", "--n", "4", "--source", "-1,2"],
     "--source: source point (-1, 2) lies outside the domain"),
    (["ft-demo", "--scenario", "gaussian-source", "--n", "4", "--source", "-.5,-2"],
     "--source: source point (-0.5, -2) lies outside the domain"),
    (["mesh-dump", "--n", "2", "--bogus", "-1"], "--bogus: unknown key"),
    # a command that does not exist, an abbreviated flag and a stray argument
    (["bogus"], "command: must be one of solve, convergence, ft-demo, mesh-dump, got 'bogus'"),
    (["mesh-dump", "--n", "2", "--o", "m.csv"], "--o: unknown key"),
    (["mesh-dump", "--n", "2", "m.csv"], "unexpected argument 'm.csv'"),
    # an empty output path
    (["mesh-dump", "--n", "2", "--out", ""], "--out: expected a non-empty path, got ''"),
    (["convergence", "--case", "sine", "--levels", "8", "--out", ""],
     "--out: expected a non-empty path, got ''"),
])
def test_flag_errors_name_the_flag(argv, message, capsys, monkeypatch):
    # an input that stops being rejected must fail here, not run (or build a huge mesh)
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail(f"accepted {cfg}"))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {message}")


def test_missing_command_is_a_config_error(capsys):
    # the same message on every Python version, with no usage text
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: config: command: required key missing; "
                            "one of solve, convergence, ft-demo, mesh-dump\n")


def test_empty_out_flag_of_solve_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail(f"accepted {cfg}"))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"command": "mesh-dump", "n": 2, "out": str(tmp_path / "m.csv")}))
    assert main(["solve", "--config", str(config), "--out", ""]) == 2
    assert capsys.readouterr().err == "error: config: --out: expected a non-empty path, got ''\n"


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
    ({"command": "convergence", "case": "sine", "levels": []}, "$.levels",
     lambda: check_doubling([])),
    (["convergence", "--case", "sine", "--levels", ""], "--levels", lambda: check_doubling([])),
    (["ft-demo", "--scenario", "boundary-indicator", "--n", "12"], "--n",
     lambda: CATALOG["boundary-indicator"].check_n(12)),
    (["ft-demo", "--scenario", "boundary-dirac", "--n", "8", "--source", "1,2"], "--source",
     lambda: check_source("boundary-dirac", (1.0, 2.0))),
    # a Gaussian source outside the scenario's domain
    ({"command": "ft-demo", "scenario": "gaussian-source", "n": 8, "source": [1e308, 1e308]},
     "$.source", lambda: check_source("gaussian-source", (1e308, 1e308))),
    (["ft-demo", "--scenario", "gaussian-source", "--n", "8", "--source", "25,-1"], "--source",
     lambda: check_source("gaussian-source", (25.0, -1.0))),
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


def test_cli_import_leaves_out_scipy_special(tmp_path):
    # the triangle rule needs numpy only; scipy.special took about 50 ms of the import.
    # No scipy module at all is loaded by the import, nor by a study or a field
    # solve: scipy builds only the backward-error fallback's matrix
    code = (
        "import sys, wg4.cli\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "imported = scipy()\n"
        "assert wg4.cli.main(['convergence', '--case', 'sine', '--levels', '8,16,32',\n"
        "                     '--out', sys.argv[1] + '/table.csv']) == 0\n"
        "assert wg4.cli.main(['ft-demo', '--scenario', 'boundary-indicator', '--n', '16',\n"
        "                     '--out', sys.argv[1] + '/field.csv']) == 0\n"
        "print(imported, scipy(), file=sys.stderr)\n"
    )
    src = Path(wg4.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=src,
                          capture_output=True, text=True, check=True)
    assert done.stderr == "[] []\n"
    assert (tmp_path / "table.csv").exists() and (tmp_path / "field.csv").exists()


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
    from_flags = cli._config_from_flags(cli._read_flags(argv))
    assert from_flags == parse_config(json.dumps(doc))


def test_flag_cases_cover_every_flag():
    for command, keys in cli._FLAGS.items():
        if command == "solve":  # its flags name a config file, not config keys
            continue
        flags = {f"--{key}" for key in keys}
        covered = {arg for argv, _ in FLAG_CASES if argv[0] == command for arg in argv}
        assert flags <= covered, command


def test_read_flags_takes_the_token_after_a_flag_as_its_value():
    assert cli._read_flags(["mesh-dump", "--n", "3", "--out", "-x.csv"]) == {
        "command": "mesh-dump", "n": "3", "out": "-x.csv"}
    assert cli._read_flags(["mesh-dump", "--out=--x.csv", "--n=-3"]) == {
        "command": "mesh-dump", "out": "--x.csv", "n": "-3"}


def test_read_flags_keeps_the_last_of_a_repeated_flag():
    assert cli._read_flags(["mesh-dump", "--n", "3", "--n=4", "--out", "a", "--n", "5"]) == {
        "command": "mesh-dump", "n": "5", "out": "a"}


def test_module_entry_point_reads_sys_argv():
    # the console script and ``python -m wg4.cli`` call main() with no argv
    src = Path(wg4.__file__).resolve().parents[1]
    golden = Path(__file__).parent / "golden" / "mesh-dump-n3.csv"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "wg4.cli", "mesh-dump", "--n", "3"],
                          capture_output=True, env=env, check=True)
    assert done.stdout == golden.read_bytes()
    done = subprocess.run([sys.executable, "-m", "wg4.cli", "bogus"], capture_output=True,
                          env=env, text=True)
    assert done.returncode == 2
    assert done.stderr == ("error: config: command: must be one of solve, convergence, "
                           "ft-demo, mesh-dump, got 'bogus'\n")
