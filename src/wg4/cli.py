"""Command-line front end.

Subcommands:
    solve        run a JSON configuration file
    convergence  error/order table for a case with an exact solution
    ft-demo      forward-model scenario, sampled field output
    mesh-dump    mesh connectivity dump

A JSON config and a command's flags, which argparse only collects as
text, go through one validator (``_validate``); its errors name the key
as ``$.key`` in a config and as ``--flag`` on the command line.  The validator checks types, ranges and
the allowed keys itself; every other input rule is the library's, and a
ValueError the library raises while a key is parsed is reported at that
key's path: the rectangle and partition rules of ``wg4.mesh``, the level
doubling of ``wg4.errors``, the region checks of ``wg4.assembly``, and the
catalog's source-point, n-multiple and grid rules in ``wg4.harness``.

This is the only module that formats numbers: every CSV row comes from
one ``%`` template over the stacked columns (``_rows``), in
6-significant-digit scientific form, so that identical configurations
produce byte-identical files.  The field CSV's template holds its x,y
columns already printed, with a ``%.5e`` left for u0.  It is made once
per lattice and kept, keyed on the points array that
``harness.sample_field`` returns, so a series of sources on one lattice
only prints their values.  Exit codes: 0 success, 2 configuration
error, 3 solver failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import harness
from .assembly import Region
from .errors import NORM_FIELDS, check_doubling, error_report
from .mesh import Mesh, build_structured_mesh, check_partition, check_rectangle
from .solve import SolverConfig, SolverError

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

DEFAULT_GRID = 101


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
# validation: one table-driven parser for JSON configs and flags
# ---------------------------------------------------------------------------

#: Upper bound of n and of each convergence level.  The reduced matrix
#: has about 592 n^2 nonzeros (n=128 already peaks at 912 MB), so n=1024
#: means about 620M nonzeros, some 7 GB before factorization.
MAX_N = 1024
#: Upper bound of the sampled field's side: 2048^2 is 4.2M samples.
MAX_GRID = 2048


def _type_error(path: str, expected: str, value) -> ConfigError:
    return ConfigError(f"{path}: expected {expected}, got {value!r}")


def _as_int(value, path: str, minimum: int = 1, maximum: int = MAX_N) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise _type_error(path, "an integer", value)
    if not minimum <= value <= maximum:
        bound = f">= {minimum}" if value < minimum else f"<= {maximum}"
        raise ConfigError(f"{path}: must be {bound}, got {value}")
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


def _one_of(names, what: str):
    def parse(value, path: str) -> str:
        if _as_str(value, path) not in names:
            raise ConfigError(f"{path}: unknown {what} {value!r}; available: {', '.join(names)}")
        return value

    return parse


def _items(value, path: str, parse, expected: str, length: int | None = None):
    """Parse each item of a list, as ``path[i]``: a list, or a tuple of
    the given ``length``."""
    if not isinstance(value, list) or length not in (None, len(value)):
        raise _type_error(path, expected, value)
    items = [parse(item, f"{path}[{i}]") for i, item in enumerate(value)]
    return items if length is None else tuple(items)


def _at(path: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``, with a library ValueError reported at ``path``."""
    try:
        return check(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_object(value, path: str, table: dict, build, sep: str = "."):
    """``build(**parsed keys)`` from a dict checked against ``table``,
    which maps each allowed key to (required, value parser).  A key's
    path is ``path + sep + key``; a ValueError of its parser is reported
    there, and one of ``build`` at ``path``."""
    if not isinstance(value, dict):
        raise _type_error(path, "an object", value)
    unknown = sorted(set(value) - set(table))
    if unknown:
        raise ConfigError(f"{path}{sep}{unknown[0]}: unknown key")
    for key, (required, _) in table.items():
        if required and key not in value:
            raise ConfigError(f"{path}{sep}{key}: required key missing")
    paths = {key: f"{path}{sep}{key}" for key in table if key in value}
    return _at(path, build, **{key: _at(at, table[key][1], value[key], at)
                               for key, at in paths.items()})


_as_case = _one_of(sorted(harness.CATALOG), "case")
_as_point = partial(_items, parse=_as_number, expected="a [x, y] pair", length=2)


def _as_rect(value, path: str) -> tuple[float, float, float, float]:
    return check_rectangle(_items(value, path, _as_number, "a [x0, y0, x1, y1] list", 4))


def _as_grid(value, path: str) -> int:
    return _as_int(harness.check_grid(value), path, maximum=MAX_GRID)


def _as_exact_case(value, path: str) -> str:
    if not harness.CATALOG[_as_case(value, path)].has_exact:
        raise ConfigError(f"{path}: case {value!r} has no exact solution")
    return value


def _as_levels(value, path: str) -> list[int]:
    if value == []:
        raise _type_error(path, "a non-empty list of integers", value)
    levels = _items(value, path, _as_int, "a non-empty list of integers")
    check_doubling(levels)
    return levels


def _as_kappa(value, path: str) -> np.ndarray:
    row = partial(_items, parse=_as_number, expected="a row of two numbers", length=2)
    return np.array(_items(value, path, row, "a 2x2 matrix", 2))


def _as_solver(value, path: str) -> SolverConfig:
    return _parse_object(value, path, {"tolerance": (False, _as_number)}, SolverConfig)


def _as_region(value, path: str) -> Region:
    return _parse_object(value, path, _REGION, Region)


def _run_config(scenario: str | None = None, **fields) -> RunConfig:
    if scenario is not None:  # ft-demo's name for its case
        fields["case"] = scenario
    return RunConfig(**fields)


_REGION = {"shape": (True, _as_str), "kappa": (True, _as_kappa), "mu": (True, _as_number),
           "bounds": (False, _as_rect), "center": (False, _as_point), "radius": (False, _as_number)}
#: Keys shared by the two commands that solve and sample a field.
_FIELD = {"out": (False, _as_str), "grid": (False, _as_grid), "solver": (False, _as_solver),
          "source": (False, _as_point),
          "regions": (False, partial(_items, parse=_as_region, expected="a list"))}
#: Per command, each top-level key but ``command`` -> (required, value parser).
_SCHEMA = {
    "solve": {"case": (True, _as_case), "n": (True, _as_int), **_FIELD},
    "convergence": {"case": (True, _as_exact_case), "levels": (True, _as_levels),
                    "out": (False, _as_str), "solver": (False, _as_solver)},
    "ft-demo": {"scenario": (True, _one_of(harness.FT_SCENARIOS, "scenario")),
                "n": (True, _as_int), **_FIELD},
    "mesh-dump": {"n": (True, _as_int), "out": (False, _as_str), "domain": (False, _as_rect)},
}


def _validate(doc: dict, path: str, sep: str) -> RunConfig:
    """The one validator, of a JSON config (``path`` ``$``, ``sep`` ``.``)
    or of a command's flags (no path, ``sep`` ``--``)."""
    command = doc.get("command")
    if command not in _SCHEMA:
        raise ConfigError(f"{path}{sep}command: must be one of {', '.join(_SCHEMA)}, "
                          f"got {command!r}")
    table = {"command": (True, _as_str), **_SCHEMA[command]}
    cfg = _parse_object(doc, path, table, _run_config, sep)
    if cfg.domain:
        _at(f"{path}{sep}domain", check_partition, cfg.domain, cfg.n)
    if cfg.case:
        entry = _at(f"{path}{sep}source", harness.catalog_entry, cfg.case, cfg.source)
        if cfg.n:
            _at(f"{path}{sep}n", entry.check_n, cfg.n)
    return cfg


def parse_config(text: str) -> RunConfig:
    """Validate a JSON configuration document into a RunConfig.

    Unknown keys are rejected with their path; coefficient regions get
    the library's checks, ``assembly.COEFFICIENT_RANGE`` among them.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise _type_error("$", "an object", obj)
    return _validate(obj, "$", ".")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _rows(template: str, *columns) -> str:
    """One ``template`` line per row of the stacked columns: a single
    ``%`` over the flattened table, with no per-row loop."""
    table = np.column_stack(columns)
    return (template * len(table)) % tuple(table.ravel().tolist())


#: The last lattice's ``points`` array and its field-CSV template, x and y printed.
_field_template: tuple[np.ndarray, str] | None = None


def _field_csv(points: np.ndarray, values: np.ndarray) -> str:
    """The sampled-field CSV; ``points`` is the lattice ``harness.sample_field``
    returned, whose x,y columns are printed once into a kept template."""
    global _field_template
    if _field_template is None or _field_template[0] is not points:
        _field_template = (points, "x,y,u0\n" + _rows("%.5e,%.5e,%%.5e\n", points))
    return _field_template[1] % tuple(values.tolist())


def _mesh_csv(mesh: Mesh) -> str:
    """Plain-text dump with ``# vertices``, ``# elements``, ``# edges`` sections."""
    diameters = mesh.edge_lengths[mesh.element_edges].max(axis=1)
    return "".join([
        "# vertices\n",
        _rows("%d,%.5e,%.5e\n", np.arange(len(mesh.vertices)), mesh.vertices),
        "# elements\n",
        _rows("%d" + ",%d" * 9 + ",%.5e,%.5e\n", np.arange(mesh.n_elements),
              mesh.element_vertices, mesh.element_edges, mesh.element_signs, mesh.areas,
              diameters),
        "# edges\n",
        _rows("%d,%d,%d,%.5e,%.5e,%.5e,%d,%d,%d\n", np.arange(mesh.n_edges),
              mesh.edge_vertices, mesh.edge_normals, mesh.edge_lengths, mesh.boundary,
              mesh.edge_elements),
    ])


def _convergence_csv(result: harness.ConvergenceResult) -> str:
    """The error/order table; an order is blank on the first row and
    ``exact`` where the errors vanish."""
    reports = result.reports
    columns = [[r.n for r in reports], [r.h for r in reports]]
    for name in NORM_FIELDS:
        orders = ["exact" if o == math.inf else "%.5e" % o for o in result.orders[name]]
        # an object column keeps the stacked table from turning numbers into strings
        columns += [[getattr(r, name) for r in reports], np.array(["", *orders], dtype=object)]
    return ("n,h,l2_e0,l2_order,tbar,tbar_order,eb,eb_order,eg,eg_order\n"
            + _rows("%d,%.5e" + ",%.5e,%s" * len(NORM_FIELDS) + "\n", *columns))


def _run_field_command(cfg: RunConfig) -> None:
    entry = harness.catalog_entry(cfg.case, cfg.source)
    mesh, spec, u_h, report = harness.solve_case(entry, cfg.n, cfg.solver, cfg.regions)
    points, values = harness.sample_field(mesh, u_h, cfg.grid)
    if cfg.out:
        _write(cfg.out, _field_csv(points, values))
    print(f"{cfg.case}: n={mesh.n} dofs={u_h.coeffs.size} "
          f"residual={report.residual:.2e} max|u0|={np.abs(values).max():.5e}")
    if spec.has_exact:
        rep = error_report(mesh, spec, u_h)
        print("errors: l2_e0=%.5e tbar=%.5e eb=%.5e eg=%.5e"
              % (rep.l2_e0, rep.tbar, rep.eb_edge, rep.eg_edge))


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    if cfg.command in ("solve", "ft-demo"):
        _run_field_command(cfg)
        return 0
    if cfg.command == "convergence":
        result = harness.run_convergence(harness.catalog_entry(cfg.case), cfg.levels, cfg.solver)
        text = _convergence_csv(result)
    else:  # mesh-dump
        text = _mesh_csv(build_structured_mesh(cfg.domain or harness.UNIT_SQUARE, cfg.n))
    if cfg.out:
        _write(cfg.out, text)
    else:
        print(text, end="")
    return 0


def _case_listing() -> str:
    lines = ["cases:"]
    for name, entry in sorted(harness.CATALOG.items()):
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
    p_conv.add_argument("--case")
    p_conv.add_argument("--levels", help="comma-separated, each double the last")
    p_conv.add_argument("--out", help="output CSV path")

    p_ft = sub.add_parser("ft-demo", help="forward-model scenario, sampled field CSV")
    p_ft.add_argument("--scenario")
    p_ft.add_argument("--source", help="x,y source point (the Gaussian scenario only)")
    p_ft.add_argument("--n")
    p_ft.add_argument("--grid")
    p_ft.add_argument("--out", help="output CSV path")

    p_mesh = sub.add_parser("mesh-dump", help="dump mesh connectivity as CSV")
    p_mesh.add_argument("--n")
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
        cfg.out = args.out or cfg.out
        return cfg
    doc = {key: _literal(value) if key in ("n", "grid") else value
           for key, value in vars(args).items() if value is not None}
    for key in ("levels", "source"):
        if key in doc:
            doc[key] = [_literal(item) for item in doc[key].split(",")]
    return _validate(doc, "", "--")


def _literal(text: str):
    """An int or float where ``text`` reads as one, else ``text`` itself,
    left for the validator to reject with its path."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(_config_from_args(args))
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
