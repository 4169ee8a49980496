"""Command-line front end.

Subcommands:
    solve        run a JSON configuration file
    convergence  error/order table for a case with an exact solution
    ft-demo      forward-model scenario, sampled field output
    mesh-dump    mesh connectivity dump

All numeric output uses 6-significant-digit scientific formatting so
that identical configurations produce byte-identical files.  Exit codes:
0 success, 2 configuration error, 3 solver failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import harness
from .assembly import Region
from .mesh import build_structured_mesh, mesh_to_csv
from .solve import SolverConfig, SolverError

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

DEFAULT_GRID = 101

COMMANDS = ("solve", "convergence", "ft-demo", "mesh-dump")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    case: str | None = None
    n: int | None = None
    levels: list[int] | None = None
    source: tuple[float, float] | None = None
    grid: int = DEFAULT_GRID
    out: str | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    regions: list[Region] = field(default_factory=list)
    domain: tuple[float, float, float, float] | None = None


# ---------------------------------------------------------------------------
# strict JSON validation
# ---------------------------------------------------------------------------

_SCHEMA: dict[str, dict[str, bool]] = {
    # key -> {field: required}
    "solve": {"case": True, "n": True, "out": False, "grid": False, "solver": False,
              "source": False, "regions": False},
    "convergence": {"case": True, "levels": True, "out": False, "solver": False},
    "ft-demo": {"scenario": True, "n": True, "out": False, "grid": False,
                "solver": False, "source": False, "regions": False},
    "mesh-dump": {"n": True, "out": False, "domain": False},
}

_SOLVER_KEYS = {"tolerance": False}


def _type_error(path: str, expected: str, value) -> ConfigError:
    return ConfigError(f"{path}: expected {expected}, got {value!r}")


def _as_int(value, path: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise _type_error(path, "an integer", value)
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _type_error(path, "a number", value)
    if not abs(value) <= sys.float_info.max:  # nan, +-inf, or an int too large for a float
        raise _type_error(path, "a finite number", value)
    return float(value)


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise _type_error(path, "a string", value)
    return value


def _as_point(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise _type_error(path, "a [x, y] pair", value)
    return (_as_number(value[0], f"{path}[0]"), _as_number(value[1], f"{path}[1]"))


def _parse_solver(obj, path: str) -> SolverConfig:
    if not isinstance(obj, dict):
        raise _type_error(path, "an object", obj)
    unknown = set(obj) - set(_SOLVER_KEYS)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    kwargs = {}
    if "tolerance" in obj:
        kwargs["tolerance"] = _as_number(obj["tolerance"], f"{path}.tolerance")
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_region(obj, path: str) -> Region:
    if not isinstance(obj, dict):
        raise _type_error(path, "an object", obj)
    allowed = {"shape", "kappa", "mu", "bounds", "center", "radius"}
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    for key in ("shape", "kappa", "mu"):
        if key not in obj:
            raise ConfigError(f"{path}.{key}: required key missing")
    kappa = obj["kappa"]
    if (
        not isinstance(kappa, list)
        or len(kappa) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in kappa)
    ):
        raise _type_error(f"{path}.kappa", "a 2x2 matrix", kappa)
    kwargs = {
        "shape": _as_str(obj["shape"], f"{path}.shape"),
        "kappa": np.array(
            [[_as_number(kappa[i][j], f"{path}.kappa[{i}][{j}]") for j in range(2)]
             for i in range(2)]
        ),
        "mu": _as_number(obj["mu"], f"{path}.mu"),
    }
    if "bounds" in obj:
        bounds = obj["bounds"]
        if not isinstance(bounds, list) or len(bounds) != 4:
            raise _type_error(f"{path}.bounds", "a [x0, y0, x1, y1] list", bounds)
        kwargs["bounds"] = tuple(_as_number(b, f"{path}.bounds[{i}]") for i, b in enumerate(bounds))
    if "center" in obj:
        kwargs["center"] = _as_point(obj["center"], f"{path}.center")
    if "radius" in obj:
        kwargs["radius"] = _as_number(obj["radius"], f"{path}.radius")
    try:
        return Region(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Validate a JSON configuration document into a RunConfig.

    Unknown keys are rejected with their path; coefficient regions are
    checked for symmetric positive definite kappa and nonnegative mu.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise _type_error("$", "an object", obj)
    command = obj.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"$.command: must be one of {', '.join(COMMANDS)}, got {command!r}")
    schema = _SCHEMA[command]
    unknown = set(obj) - set(schema) - {"command"}
    if unknown:
        raise ConfigError(f"$.{sorted(unknown)[0]}: unknown key")
    for key, required in schema.items():
        if required and key not in obj:
            raise ConfigError(f"$.{key}: required key missing")

    cfg = RunConfig(command=command)
    case_key = "scenario" if command == "ft-demo" else "case"
    if case_key in obj:
        cfg.case = _as_str(obj[case_key], f"$.{case_key}")
    if "n" in obj:
        cfg.n = _as_int(obj["n"], "$.n")
    if "levels" in obj:
        levels = obj["levels"]
        if not isinstance(levels, list) or not levels:
            raise _type_error("$.levels", "a non-empty list of integers", levels)
        cfg.levels = [_as_int(v, f"$.levels[{i}]") for i, v in enumerate(levels)]
    if "source" in obj:
        cfg.source = _as_point(obj["source"], "$.source")
    if "grid" in obj:
        cfg.grid = _as_int(obj["grid"], "$.grid", minimum=2)
    if "out" in obj:
        cfg.out = _as_str(obj["out"], "$.out")
    if "solver" in obj:
        cfg.solver = _parse_solver(obj["solver"], "$.solver")
    if "regions" in obj:
        regions = obj["regions"]
        if not isinstance(regions, list):
            raise _type_error("$.regions", "a list", regions)
        cfg.regions = [_parse_region(r, f"$.regions[{i}]") for i, r in enumerate(regions)]
    if "domain" in obj:
        dom = obj["domain"]
        if not isinstance(dom, list) or len(dom) != 4:
            raise _type_error("$.domain", "a [x0, y0, x1, y1] list", dom)
        cfg.domain = tuple(_as_number(v, f"$.domain[{i}]") for i, v in enumerate(dom))
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg: RunConfig) -> None:
    if cfg.command in ("solve", "convergence"):
        if cfg.case not in harness.CATALOG:
            raise ConfigError(
                f"$.case: unknown case {cfg.case!r}; available: "
                + ", ".join(sorted(harness.CATALOG))
            )
    if cfg.command == "ft-demo":
        if cfg.case not in harness.FT_SCENARIOS:
            raise ConfigError(
                f"$.scenario: unknown scenario {cfg.case!r}; available: "
                + ", ".join(harness.FT_SCENARIOS)
            )
    if cfg.source is not None and cfg.case != "gaussian-source":
        raise ConfigError("$.source: only the gaussian-source scenario takes a source point")
    if cfg.command == "convergence":
        entry = harness.catalog_entry(cfg.case)
        if not entry.has_exact:
            raise ConfigError(f"$.case: case {cfg.case!r} has no exact solution")
        for a, b in zip(cfg.levels, cfg.levels[1:]):
            if b != 2 * a:
                raise ConfigError(f"$.levels: levels must double, got {a} followed by {b}")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.5e}"


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _field_csv(points: np.ndarray, values: np.ndarray) -> str:
    rows = np.column_stack([points, values]).ravel().tolist()
    return "x,y,u0\n" + ("%.5e,%.5e,%.5e\n" * len(values)) % tuple(rows)


def _run_field_command(cfg: RunConfig) -> None:
    entry = harness.catalog_entry(cfg.case, cfg.source)
    try:
        mesh, spec, u_h, report = harness.solve_case(
            entry, cfg.n, cfg.solver, regions=cfg.regions
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    points, values = harness.sample_field(mesh, u_h, cfg.grid)
    if cfg.out:
        _write(cfg.out, _field_csv(points, values))
    print(
        f"{cfg.case}: n={mesh.n} dofs={u_h.dofmap.size} "
        f"residual={report.residual:.2e} max|u0|={np.abs(values).max():.5e}"
    )
    if spec.has_exact:
        from .errors import error_report

        rep = error_report(mesh, spec, u_h)
        print(
            f"errors: l2_e0={_fmt(rep.l2_e0)} tbar={_fmt(rep.tbar)} "
            f"eb={_fmt(rep.eb_edge)} eg={_fmt(rep.eg_edge)}"
        )


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    if cfg.command in ("solve", "ft-demo"):
        _run_field_command(cfg)
    elif cfg.command == "convergence":
        entry = harness.catalog_entry(cfg.case)
        result = harness.run_convergence(entry, cfg.levels, cfg.solver)
        csv = result.to_csv()
        if cfg.out:
            _write(cfg.out, csv)
        else:
            print(csv, end="")
    elif cfg.command == "mesh-dump":
        domain = cfg.domain or (0.0, 0.0, 1.0, 1.0)
        try:
            mesh = build_structured_mesh(domain, cfg.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        text = mesh_to_csv(mesh)
        if cfg.out:
            _write(cfg.out, text)
        else:
            print(text, end="")
    else:
        raise ConfigError(f"unknown command {cfg.command!r}")
    return 0


def _case_listing() -> str:
    lines = ["cases:"]
    for name in sorted(harness.CATALOG):
        entry = harness.catalog_entry(name)
        lines.append(f"  {name:20s} {entry.description}")
    lines.append("ft-demo scenarios: " + ", ".join(harness.FT_SCENARIOS))
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wg4",
        description="Weak Galerkin solver for fourth-order elliptic problems "
        "with simultaneous Dirichlet and Neumann boundary data.",
        epilog=_case_listing(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a JSON configuration file")
    p_solve.add_argument("--config", required=True, help="path to a JSON run configuration")
    p_solve.add_argument("--out", help="output CSV path (overrides the config)")

    p_conv = sub.add_parser("convergence", help="error/order table over halving mesh sizes")
    p_conv.add_argument("--case", required=True)
    p_conv.add_argument("--levels", required=True, help="comma-separated, each double the last")
    p_conv.add_argument("--out", help="output CSV path")

    p_ft = sub.add_parser("ft-demo", help="forward-model scenario, sampled field CSV")
    p_ft.add_argument("--scenario", required=True)
    p_ft.add_argument("--source", help="x,y source point (gaussian-source only)")
    p_ft.add_argument("--n", required=True, type=int)
    p_ft.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p_ft.add_argument("--out", help="output CSV path")

    p_mesh = sub.add_parser("mesh-dump", help="dump mesh connectivity as CSV")
    p_mesh.add_argument("--n", required=True, type=int)
    p_mesh.add_argument("--out", help="output CSV path")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "solve":
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = parse_config(text)
        if args.out:
            cfg.out = args.out
        return cfg
    if args.command == "convergence":
        try:
            levels = [int(v) for v in args.levels.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--levels: {exc}") from exc
        cfg = RunConfig(command="convergence", case=args.case, levels=levels, out=args.out)
    elif args.command == "ft-demo":
        source = None
        if args.source:
            try:
                values = [float(v) for v in args.source.split(",")]
            except ValueError as exc:
                raise ConfigError(f"--source: {exc}") from exc
            source = _as_point(values, "--source")
        cfg = RunConfig(
            command="ft-demo",
            case=args.scenario,
            n=_as_int(args.n, "--n"),
            grid=_as_int(args.grid, "--grid", minimum=2),
            source=source,
            out=args.out,
        )
    else:  # mesh-dump
        cfg = RunConfig(command="mesh-dump", n=_as_int(args.n, "--n"), out=args.out)
    _validate_semantics(cfg)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
