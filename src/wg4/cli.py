"""Command-line front end.

Subcommands:
    solve        run a JSON configuration file
    convergence  error/order table for a case with an exact solution
    ft-demo      forward-model scenario, sampled field output
    mesh-dump    mesh connectivity dump

A JSON config and a command's flags go through one validator
(``_validate``); its errors name the key as ``$.key`` in a config and as
``--flag`` on the command line.  The flags are read by ``_read_flags``
from the table ``_FLAGS``: the first argument is the command, and each
``--flag value`` or ``--flag=value`` after it gives that flag's text,
the token after a flag being its value unless it starts with ``--``, so
``--source -1,2`` reads as written.  Flag names are given in full, and
a repeated flag keeps its last value; ``-h`` or ``--help`` prints
each command's flags and the cases.  A missing or unknown command, a
flag the command does not take, a flag given no value and a stray
argument are reported in the validator's form, at the command or the
flag.  The validator checks types, ranges and the allowed keys itself;
every other input rule is the library's, and a ValueError the library
raises while a key is parsed is reported at that key's path: the
rectangle and partition rules of ``wg4.mesh``, the level doubling of
``wg4.errors``, the region checks of ``wg4.assembly``, and the catalog's
source-point, n-multiple and grid rules in ``wg4.harness``.  A region
that holds no element centroid is found when the model lays the medium,
and reported at ``$.regions[i]``.  An empty ``out`` is rejected at ``$.out``
or ``--out``.

This is the only module that formats numbers, in 6-significant-digit
scientific form, so that identical configurations produce byte-identical
files.  The mesh dump and the convergence table come from one ``%``
template over the stacked columns (``_rows``).  The field CSV's numbers
come from ``_format_e5``, which writes the bytes of ``"%.5e" % v`` for a
whole column at once: it scales each value into [1e5, 1e6) and rounds
it, which gives the digits ``%`` prints unless the scaled value lies
within 1e-6 of a half-integer; those near-ties, non-finite values,
subnormals and exponents beyond +-300 are printed by ``%`` itself.

A field command runs on a ``harness.ForwardModel`` and hands it only
the config's source point.  The CLI keeps the last model under the
config's case, n and regions, with the field CSV's bytes for its last
grid, so a series of sources on one medium lays the medium, factors
and writes the x,y columns once.  Any other key or command drops the
kept model before a new one is built: one factorization at most.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 1
anything else.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import harness
from .assembly import Region, RegionError
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


def _as_path(value, path: str) -> str:
    if _as_str(value, path) == "":
        raise _type_error(path, "a non-empty path", value)
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
    levels = _items(value, path, _as_int, "a list of integers")
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
_FIELD = {"out": (False, _as_path), "grid": (False, _as_grid), "solver": (False, _as_solver),
          "source": (False, _as_point),
          "regions": (False, partial(_items, parse=_as_region, expected="a list"))}
#: Per command, each top-level key but ``command`` -> (required, value parser).
_SCHEMA = {
    "solve": {"case": (True, _as_case), "n": (True, _as_int), **_FIELD},
    "convergence": {"case": (True, _as_exact_case), "levels": (True, _as_levels),
                    "out": (False, _as_path), "solver": (False, _as_solver)},
    "ft-demo": {"scenario": (True, _one_of(harness.FT_SCENARIOS, "scenario")),
                "n": (True, _as_int), **_FIELD},
    "mesh-dump": {"n": (True, _as_int), "out": (False, _as_path), "domain": (False, _as_rect)},
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
    if cfg.source is not None:
        _at(f"{path}{sep}source", harness.check_source, cfg.case, cfg.source)
    if cfg.case and cfg.n:
        _at(f"{path}{sep}n", harness.CATALOG[cfg.case].check_n, cfg.n)
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


def _rows(template: str, *columns) -> str:
    """One ``template`` line per row of the stacked columns: a single
    ``%`` over the flattened table, with no per-row loop."""
    table = np.column_stack(columns)
    return (template * len(table)) % tuple(table.ravel().tolist())


#: 10**p from p = -_POW10_BIAS on, each within an ulp of exact.
_POW10_BIAS = 297
_POW10 = 10.0 ** np.arange(-_POW10_BIAS, 308)
#: The place values of a mantissa's six digits; the last three are an exponent's.
_PLACES = 10 ** np.arange(5, -1, -1, dtype=np.int32)[:, None]
#: The bytes ``_format_e5`` writes per value: ``-d.ddddde+ddd`` at its longest.
_E5_WIDTH = 13


def _format_e5(values: np.ndarray, out: np.ndarray) -> int:
    """Write ``"%.5e" % v`` of each value into its row of the uint8
    (N, 13) ``out``, with NUL bytes where the text is shorter (no ``-``,
    a two-digit exponent); returns how many values ``%`` printed.

    With e = floor(log10|v|), corrected once, s = |v| 10**(5 - e) lies in
    [1e5, 1e6).  The power is within an ulp of exact and the product
    rounded once, so s is off by at most two ulps, 2.4e-10, and rint(s) is
    the correctly rounded mantissa that ``%`` prints unless s lies within
    1e-6 of a half-integer.  Those near-ties, non-finite values,
    subnormals and |e| > 300 go to ``%``; a rounding up to 1e6 carries
    into the exponent, and +-0 prints as ``0.00000e+00`` with its sign.
    """
    magnitude = np.abs(values)
    zero = magnitude == 0
    fast = (magnitude >= 1e-300) & (magnitude < 1e301)  # finite, normal and |e| <= 300
    magnitude[~fast] = 1.0  # a finite stand-in, printed below by ``%`` or as zero
    e = np.floor(np.log10(magnitude)).astype(np.int32)
    s = magnitude * _POW10[_POW10_BIAS + 5 - e]
    e += (s >= 1e6).astype(np.int32) - (s < 1e5)
    s = magnitude * _POW10[_POW10_BIAS + 5 - e]
    m = np.rint(s).astype(np.int32)
    fallback = np.flatnonzero(~(fast | zero) | (np.abs(s - np.floor(s) - 0.5) < 1e-6))
    carry = m == 1_000_000
    m[carry] = 100_000
    e += carry
    m[zero] = 0
    exponent = np.abs(e)
    # rows 0-5 are m // 10**(5 - j) and rows 6-8 exponent // 10**(8 - j);
    # a row less ten times the row above is its last digit
    digits = np.concatenate([m // _PLACES, exponent // _PLACES[3:]])
    digits[1:] -= 10 * digits[:-1]
    digits[6] = exponent // 100  # the exponent's first row has no row above
    digits += ord("0")
    digits[6] *= exponent >= 100  # a NUL before a two-digit exponent
    out[:, 0] = ord("-") * np.signbit(values)
    out[:, 1] = digits[0]
    out[:, 2] = ord(".")
    out[:, 3:8] = digits[1:6].T
    out[:, 8] = ord("e")
    out[:, 9] = np.where(e < 0, ord("-"), ord("+"))
    out[:, 10:] = digits[6:].T
    for i in fallback:
        text = ("%.5e" % values[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return len(fallback)


@dataclass
class _Kept:
    """The last field command's model under its key, and its field CSV as
    (N, 3, 14) bytes: x, y and u0, each NUL-padded and followed by ``,``,
    ``,`` and a newline, with x and y written."""

    key: tuple
    model: harness.ForwardModel
    table: np.ndarray | None = None


#: The one kept model; see the module docstring.
_kept: _Kept | None = None


def _kept_model(cfg: RunConfig) -> _Kept | None:
    """The kept model of a field command's case, n and regions, built
    anew if the last one had another key; for any other command, none."""
    global _kept
    key = (cfg.case, cfg.n, tuple(cfg.regions)) if cfg.command in ("solve", "ft-demo") else None
    if _kept is not None and _kept.key != key:
        _kept = None  # free the old factorization before the next is made
    if key and _kept is None:
        try:
            _kept = _Kept(key, harness.ForwardModel(harness.CATALOG[cfg.case], cfg.n, cfg.regions))
        except RegionError as exc:  # regions come only from a config
            raise ConfigError(f"$.{exc}") from exc
    return _kept


def _field_csv(kept: _Kept, points: np.ndarray, values: np.ndarray) -> bytes:
    """The sampled-field CSV's bytes; the kept x,y columns serve while the
    table has a row per point, as a model's lattice is fixed by its size."""
    if kept.table is None or len(kept.table) != len(points):
        kept.table = np.empty((len(points), 3, _E5_WIDTH + 1), dtype=np.uint8)
        kept.table[:, :, -1] = np.frombuffer(b",,\n", np.uint8)
        for j in (0, 1):
            _format_e5(points[:, j], kept.table[:, j, :-1])
    _format_e5(values, kept.table[:, 2, :-1])
    return b"x,y,u0\n" + kept.table.tobytes().translate(None, b"\0")


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


def _run_field_command(cfg: RunConfig, kept: _Kept) -> None:
    model, mesh = kept.model, kept.model.mesh
    spec, u_h, report = model.solve(cfg.source, cfg.solver)
    points, values = model.sample(u_h, cfg.grid)
    if cfg.out:
        Path(cfg.out).write_bytes(_field_csv(kept, points, values))
    print(f"{cfg.case}: n={mesh.n} dofs={u_h.coeffs.size} "
          f"residual={report.residual:.2e} max|u0|={np.abs(values).max():.5e}")
    if spec.has_exact:
        rep = error_report(mesh, spec, u_h)
        print("errors: l2_e0=%.5e tbar=%.5e eb=%.5e eg=%.5e"
              % (rep.l2_e0, rep.tbar, rep.eb_edge, rep.eg_edge))


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    kept = _kept_model(cfg)
    if kept is not None:
        _run_field_command(cfg, kept)
        return 0
    if cfg.command == "convergence":
        result = harness.run_convergence(harness.catalog_entry(cfg.case), cfg.levels, cfg.solver)
        text = _convergence_csv(result)
    else:  # mesh-dump
        text = _mesh_csv(build_structured_mesh(cfg.domain or harness.UNIT_SQUARE, cfg.n))
    if cfg.out:
        Path(cfg.out).write_bytes(text.encode())
    else:
        print(text, end="")
    return 0


#: Per command, the flags it takes: config keys of ``_SCHEMA``, but for
#: ``solve``'s ``--config``, which names a JSON config file.
_FLAGS = {
    "solve": ("config", "out"),
    "convergence": ("case", "levels", "out"),
    "ft-demo": ("scenario", "source", "n", "grid", "out"),
    "mesh-dump": ("n", "out"),
}


def _usage() -> str:
    """The help text: each command's flags, the cases and the ft-demo scenarios."""
    return "\n".join([
        "usage: wg4 COMMAND [--flag VALUE | --flag=VALUE]...", "",
        "Weak Galerkin solver for fourth-order elliptic problems with simultaneous",
        "Dirichlet and Neumann boundary data.", "", "commands and their flags:",
        *(f"  {command:12s} {' '.join('--' + key for key in keys)}"
          for command, keys in _FLAGS.items()),
        "cases:", *(f"  {name:20s} {entry.description}"
                    for name, entry in sorted(harness.CATALOG.items())),
        "ft-demo scenarios: " + ", ".join(harness.FT_SCENARIOS)])


def _read_flags(argv: list[str]) -> dict:
    """``{"command": argv[0], key: value}`` for each ``--key value`` or
    ``--key=value`` after the command, the value as text.  The token
    after a flag is its value unless it starts with ``--``, and a
    repeated flag keeps its last value.  ``-h`` or ``--help`` in place
    of the command or a flag prints the usage and exits 0."""
    flags = {}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            print(_usage())
            raise SystemExit(0)
        if not flags:
            if token not in _FLAGS:
                raise ConfigError(f"command: must be one of {', '.join(_FLAGS)}, got {token!r}")
            flags["command"] = token
            continue
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r}")
        key, eq, value = token[2:].partition("=")
        if key not in _FLAGS[flags["command"]]:
            raise ConfigError(f"--{key}: unknown key")
        value = value if eq else next(tokens, "--")  # no token left reads as a flag
        if value.startswith("--") and not eq:
            raise ConfigError(f"--{key}: expected one argument")
        flags[key] = value
    if not flags:
        raise ConfigError(f"command: required key missing; one of {', '.join(_FLAGS)}")
    return flags


def _config_from_flags(flags: dict) -> RunConfig:
    if flags["command"] == "solve":
        if "config" not in flags:
            raise ConfigError("--config: required key missing")
        try:
            text = Path(flags["config"]).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = parse_config(text)
        if "out" in flags:
            cfg.out = _as_path(flags["out"], "--out")
        return cfg
    doc = {key: [_literal(item) for item in value.split(",") if value]  # "" lists nothing
           if key in ("levels", "source") else _literal(value) if key in ("n", "grid") else value
           for key, value in flags.items()}
    return _validate(doc, "", "--")


def _literal(text: str):
    """An int or float where ``text`` reads as one, else ``text`` itself,
    left for the validator to reject with its path."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def main(argv: list[str] | None = None) -> int:
    try:
        return run(_config_from_flags(_read_flags(sys.argv[1:] if argv is None else argv)))
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
