"""Child process of the benchmark.  Prints one JSON line with its results.

    worker.py op --trace T -- ARGS   run ``wg4 ARGS`` once through ``cli.main``
    worker.py sweep --pool P [--seed S] --seconds X --trace T --n N --grid G --out-dir D
                    [--min-ops K]    call ``cli.run`` once per Gaussian source,
                                     drawn from the source pool in the seed's
                                     order (without a seed, in pool order),
                                     with the calibration run before the
                                     first op and after every op
    worker.py probe                  the poly-bump study, level by level

Ops write their CSVs where run.py asks and print nothing of their own:
the CLI's stdout and stderr are captured and returned.  With ``--trace 1``
every op of ``op`` mode, and every second op of ``sweep`` mode, runs with
spans recorded; spans come back in the JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import workloads
from calibrate import CalibrationProcess
from spans import Tracer


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call(tracer: Tracer | None, fn, *args) -> dict:
    """Run one op with the CLI's output captured, timed on the plain clock.
    A traced op's time thus includes the tracer's paused bookkeeping; its
    root span, on the paused clock, is what the self times divide up.
    ``start`` is on the system-wide monotonic clock, which a speed meter
    stamps its calibration runs with."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.monotonic()
    t0 = time.perf_counter()
    root = tracer.begin("cli") if tracer else None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = fn(*args)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code
        except Exception as exc:  # the op failed; run.py counts it
            error = f"{type(exc).__name__}: {exc}"
    if root is not None:
        tracer.end(root)
    elapsed = time.perf_counter() - t0
    return {"start": start, "seconds": elapsed, "rc": rc, "error": error,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def cmd_op(args) -> dict:
    import wg4.cli as cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.op = 0
    result = _call(tracer, cli.main, args.cli_args)
    result["peak_rss_mb"] = _peak_rss_mb()
    result["spans"] = tracer.rows() if tracer else []
    return result


def cmd_sweep(args) -> dict:
    import wg4.cli as cli

    tracer = Tracer() if args.trace else None
    pool = workloads.sweep_pool(args.pool)
    order = workloads.sweep_order(args.seed, args.pool)
    ops, lengths = [], []
    with CalibrationProcess(workloads.child_env()) as calibrate:
        before = calibrate()
        start = time.perf_counter()
        while workloads.keep_going(time.perf_counter() - start, lengths, args.seconds,
                                   args.min_ops):
            j = len(ops)
            t0 = time.perf_counter()
            index = order[j % len(order)]
            source = pool[index]
            out = f"{args.out_dir}/sweep-{j}.csv"
            config = workloads.sweep_config(source, args.n, args.grid, out)
            cfg = cli.parse_config(json.dumps(config))
            traced = tracer is not None and j % 2 == 1
            if traced:
                tracer.op = j
                tracer.install()
            try:
                op = _call(tracer if traced else None, cli.run, cfg)
            finally:
                if traced:
                    tracer.uninstall()
            after = calibrate()
            op.update(pool_index=index, source=list(source), out=out, traced=traced,
                      calib_s=[before, after])
            before = after
            ops.append(op)
            lengths.append(time.perf_counter() - t0)
    return {"ops": ops, "peak_rss_mb": _peak_rss_mb(), "spans": tracer.rows() if tracer else []}


def cmd_probe(args) -> dict:
    """Solve the probe case level by level; report each level's final
    ||b||-relative residual and stop at the first solver failure."""
    from wg4 import harness
    from wg4.solve import SolverError

    entry = harness.catalog_entry(workloads.PROBE_CASE)
    levels = []
    for n in workloads.PROBE_LEVELS:
        try:
            _, _, _, report = harness.solve_case(entry, n)
        except SolverError as exc:
            levels.append({"n": n, "ok": False, "residual": exc.residual_history[-1]
                           if exc.residual_history else None, "message": str(exc)})
            break
        levels.append({"n": n, "ok": True, "residual": report.residual})
    return {"levels": levels}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("op", "sweep", "probe"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pool", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--n", type=int)
    parser.add_argument("--grid", type=int)
    parser.add_argument("--out-dir")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.cli_args = argv[split + 1:]
    handler = {"op": cmd_op, "sweep": cmd_sweep, "probe": cmd_probe}
    result = handler[args.mode](args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
