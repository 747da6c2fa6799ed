"""moqtrader benchmark: one workload per process, operations repeated for a fixed time.

    python3 bench/run.py --workload mo_train|so_train|backtest --seed N --seconds S --trace 0|1

Run from the repository root; moqtrader is imported from ./src.  Each
operation is one in-process call of ``moqtrader.cli.main``.  With --trace 0
the last stdout line reports the end-to-end metrics (setup_s, steps_per_s,
peak_rss_mb); with --trace 1 operations alternate untraced and traced, and
it reports the per-layer metrics of the traced ones plus the tracing
overhead.  Exit status is 0 only when every operation ran and passed its
checks.
"""

import os
import sys
import time

# One BLAS thread (no more than nproc): the network's small matrix products
# are slower and far noisier when two threads contend for two vCPUs.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RUNS = BENCH_DIR / "runs"
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main() -> int:
    args = parse_args()
    if not (SRC / "moqtrader" / "cli.py").is_file():
        print(f"error: no moqtrader sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from moqtrader import cli

    workdir = RUNS / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload]()
    import_s = statistics.median(timed(start_interpreter) for _ in range(SETUP_REPEATS))
    generate_s = statistics.median(
        timed(lambda: workload.make_inputs(args.seed, workdir / "inputs")) for _ in range(SETUP_REPEATS))
    setup_s = import_s + generate_s
    setup_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    tracer = spans.Tracer() if args.trace else None
    rates = {False: [], True: []}
    per_layer: list[dict] = []
    traced_spans: list[dict] = []
    attempted = failed = 0
    correct = True
    started = time.perf_counter()
    while attempted < (2 if tracer else 1) or time.perf_counter() - started < args.seconds:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        status, elapsed, output = operate(cli, workload, tracer if traced else None)
        if status != 0:
            failed += 1
            print(f"op {attempted}: failed: {status} {output.strip()}", file=sys.stderr)
            continue
        try:
            steps, problems = workload.check()
        except (OSError, ValueError, KeyError) as exc:
            steps, problems = 0, [f"outputs unreadable: {exc!r}"]
        if problems:
            failed += 1
            correct = False
            print(f"op {attempted}: wrong output:\n  " + "\n  ".join(problems), file=sys.stderr)
            continue
        rates[traced].append(steps / elapsed)
        print(f"op {attempted}{' traced' if traced else ''}: {elapsed:.3f} s, {steps} steps, "
              f"{steps / elapsed:.1f} steps/s")
        if traced:
            per_layer.append(tracer.layer_metrics())
            traced_spans.append(tracer.arrays())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"set-up: interpreter and imports {import_s:.3f} s, inputs {generate_s:.3f} s (medians of "
          f"{SETUP_REPEATS}); peak RSS {setup_rss_kb / 1024:.1f} MB before the first operation")

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "steps_per_s": {"value": statistics.median(rates[False]) if rates[False] else 0.0, "unit": "steps/s"},
            "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
        }
    else:
        metrics = layer_report(tracer, spans.layer_metric_names(), spans.UNITS, per_layer, rates)
        if traced_spans:
            write_spans(workdir / "spans.npz", tracer, traced_spans)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def operate(cli, workload, tracer) -> tuple[object, float, str]:
    """One timed call of moqtrader.cli.main: its status (0 on success), wall time and stdout."""
    workload.before_op()
    captured = io.StringIO()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            status = cli.main(workload.argv())
    except Exception:  # a crash fails this operation; the run goes on and reports it
        status = traceback.format_exc()
    finally:
        elapsed = time.perf_counter() - t
        if tracer is not None:
            tracer.uninstall()
    return status, elapsed, captured.getvalue()


def timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def start_interpreter() -> None:
    """A fresh interpreter that imports what one benchmark process imports, then exits."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            "import moqtrader.cli, spans, workloads")
    subprocess.run([sys.executable, "-c", code], check=True)


def layer_report(tracer, names: list[str], units: dict, per_layer: list[dict], rates: dict) -> dict:
    """Median over traced operations of each per-layer metric, plus tracing overhead."""
    absent = tracer.absent_metrics()
    if absent:
        print("absent: " + ", ".join(absent))
    metrics = {}
    for name in names:
        values = [op[name] for op in per_layer] if name not in absent else []
        metrics[name] = {"value": statistics.median(values) if values else 0, "unit": units[name.rpartition(".")[2]]}
    forward_calls = metrics["qnet.forward.calls"]["value"]
    metrics["qnet.forward.rows_per_call"] = {
        "value": metrics["qnet.forward.rows"]["value"] / forward_calls if forward_calls else 0.0, "unit": "rows"}
    untraced = statistics.median(rates[False]) if rates[False] else 0.0
    traced = statistics.median(rates[True]) if rates[True] else 0.0
    metrics["trace.steps_per_s_untraced"] = {"value": untraced, "unit": "steps/s"}
    metrics["trace.steps_per_s_traced"] = {"value": traced, "unit": "steps/s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (untraced / traced - 1.0) if traced else 0.0, "unit": "%"}
    return metrics


def write_spans(path: Path, tracer, traced_spans: list[dict]) -> None:
    """Every traced operation's spans, with an op column, and the layer labels."""
    import numpy as np

    arrays = {key: np.concatenate([op[key] for op in traced_spans]) for key in ("name", "parent", "start", "end")}
    arrays["op"] = np.concatenate([np.full(len(op["name"]), i) for i, op in enumerate(traced_spans)])
    arrays["labels"] = np.array([layer.label for layer in tracer.layers])
    np.savez(path, **arrays)


if __name__ == "__main__":
    sys.exit(main())
