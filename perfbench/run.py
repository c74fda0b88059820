"""secondorder benchmark: one workload per process, closed loop, one caller.

Usage (from the root of a checkout; the library is imported from ./src):

    python3 perfbench/run.py --workload corpus_mc --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists): corpus_mc,
learning_curve, exact_scoring, cli. An op is one call a user waits on; the
next op starts when the previous one returns. A window is the smallest
number of whole passes over the workload's pool that lasts ``--seconds``.

With ``--trace 0`` the whole window is measured untraced and the last line
of stdout is a JSON object with the end-to-end metrics. With ``--trace 1``
whole passes alternate between untraced and traced with the outside-in
wrappers of ``tracer.py`` (U T T U U T T U ...), and the last line carries
the per-layer metrics, including the tracing overhead (untraced minus
traced ops per second, each over its own passes). Every output is checked
against an independent reference after the timed window. The line before
the result is a JSON run record: machine, versions, seed, op counts, each
cost class's share of op time, the percentile behind ``op_tail_ms``,
failure breakdown and the sparse-concentration defect probe.

Exits non-zero without a result when ./src/secondorder is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 5
CLI_BASELINE_SAMPLES = 3
TAIL_BEYOND = 10


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    if not (SRC / "secondorder" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'secondorder'} not found; run from a secondorder checkout")
    sys.path.insert(0, str(SRC))
    import secondorder

    if Path(secondorder.__file__).resolve().parent != (SRC / "secondorder").resolve():
        raise SystemExit(f"error: imported secondorder from {secondorder.__file__}, not {SRC}")
    return secondorder


def rss_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def machine_record() -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- measuring ---------------------------------------------------------------


def setup_seconds(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to inputs ready, several times."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env(), cwd=ROOT)
        line = proc.stdout.readline()
        samples.append(perf_counter() - t0)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.decode()[-2000:]}")
    return samples


class Window:
    """One timed window, stored compactly so the harness adds little to peak memory.

    Each item's first output is kept; a later op whose output equals it is
    counted against it, and any other output or exception is kept as is.
    Every output is therefore checked once the window has closed.
    """

    def __init__(self):
        self.latencies = array("d")
        self.indices = array("i")
        self.first: dict[int, object] = {}
        self.repeats: dict[int, int] = {}
        self.odd: list[tuple[int, object, Exception | None]] = []
        self.elapsed = 0.0
        self.passes = 0


def run_pass(workload, op, window: Window) -> None:
    """One closed-loop pass over the whole pool, one op at a time, added to `window`.

    Whole passes keep the mix of cost classes the same in every window, so a
    window that ends between two heavy ops reads the same as one that does not.
    """
    start = perf_counter()
    for index, item in enumerate(workload.items):
        t0 = perf_counter()
        try:
            output, exc = op(item), None
        except Exception as err:  # a failed op is counted, not fatal
            output, exc = None, err
        window.latencies.append(perf_counter() - t0)
        window.indices.append(index)
        if exc is None and index not in window.first:
            window.first[index] = output
            window.repeats[index] = 1
        elif exc is None and output == window.first[index]:
            window.repeats[index] += 1
        else:
            window.odd.append((index, output, exc))
    window.elapsed += perf_counter() - start
    window.passes += 1


def timed(workload, op, seconds: float) -> Window:
    """Whole passes until they have lasted at least `seconds`."""
    window = Window()
    while window.elapsed < seconds:
        run_pass(workload, op, window)
    return window


def timed_alternating(workload, op, traced_op, tracing, seconds: float) -> tuple[Window, Window]:
    """Untraced and traced passes in the order U T T U U T T U ..., `tracing` entered for each T.

    Stops once the passes have lasted `seconds` and both sides have run as
    many passes, so a steady drift in host speed falls on both sides alike.
    """
    untraced, traced = Window(), Window()
    turn = 0
    while untraced.elapsed + traced.elapsed < seconds or untraced.passes != traced.passes:
        if turn % 4 in (1, 2):
            with tracing:
                run_pass(workload, traced_op, traced)
        else:
            run_pass(workload, op, untraced)
        turn += 1
    return untraced, traced


def warm_up(workload, op) -> None:
    seen = set()
    for item in workload.items:
        if item.cls not in seen:
            seen.add(item.cls)
            try:
                op(item)
            except Exception:  # the timed window counts and reports failures
                pass


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with >= 10 samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def summarize(window: Window, workload, cache) -> dict:
    """Throughput, latency and failures of one window; checks every output."""
    raised, exit_nonzero, wrong, problems = {}, 0, 0, []
    outputs = [(index, output, None, window.repeats[index]) for index, output in window.first.items()]
    outputs += [(index, output, exc, 1) for index, output, exc in window.odd]
    for index, output, exc, count in outputs:
        item = workload.items[index]
        if exc is not None:
            raised[type(exc).__name__] = raised.get(type(exc).__name__, 0) + count
            continue
        code = workload.exit_code(output)
        if code != 0:
            exit_nonzero += count
            problems.append(f"{item.cls} exited {code}")
            continue
        found = workload.check(item, output, cache)
        if found:
            wrong += count
            problems.extend(found)
    latencies = window.latencies.tolist()
    tail_s, tail_pct, beyond = tail(latencies)
    failed = sum(raised.values()) + exit_nonzero + wrong
    return {
        "ops": len(latencies),
        "elapsed_s": window.elapsed,
        "ops_per_s": len(latencies) / window.elapsed,
        "p50_s": statistics.median(latencies),
        "tail_s": tail_s,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "raised": raised,
        "exit_nonzero": exit_nonzero,
        "wrong": wrong,
        "failed": failed,
        "problems": problems[:10],
    }


def class_time_share(window: Window, workload) -> dict:
    """Each cost class's share of the window's op time, and its op count."""
    seconds, ops = {}, {}
    for index, dt in zip(window.indices, window.latencies):
        cls = workload.items[index].cls
        seconds[cls] = seconds.get(cls, 0.0) + dt
        ops[cls] = ops.get(cls, 0) + 1
    total = sum(seconds.values())
    return {cls: {"ops": ops[cls], "share": round(seconds[cls] / total, 4)} for cls in seconds}


def run_probe(so, workload, cache) -> dict | None:
    """Known-defect probe, outside the timed window: Dirichlets with alpha near 1e-3."""
    if not workload.probe:
        return None
    from tracer import Tracer

    failures, wrong, by_k = {}, 0, {}
    for item in workload.probe:
        with Tracer() as tracer:
            try:
                output = workload.op(item)
            except Exception as exc:
                failures[type(exc).__name__] = failures.get(type(exc).__name__, 0) + 1
                output = None
        if output is not None and workload.check(item, output, cache):
            wrong += 1
        rows = tracer.counts.get("sampled_rows", 0)
        by_k[str(item.payload.k)] = tracer.counts.get("nan_rows", 0) / rows if rows else 0.0
    attempted = len(workload.probe)
    return {
        "what": "decompose + aleatoric_bounds on Dirichlet(1e-3, 1e-3) and on alpha in [1e-3, 1.5e-3] at K = 3..5",
        "attempted": attempted,
        "failures": failures,
        "fail_frac": sum(failures.values()) / attempted,
        "wrong": wrong,
        "nan_row_frac_by_k": by_k,
        "nan_row_frac": statistics.fmean(by_k.values()),
    }


def cli_baselines(env) -> dict:
    """Median wall time of a bare interpreter and of `import secondorder`."""
    from workloads import run_child

    out = {}
    for name, code in (("interpreter", "pass"), ("import", "import secondorder")):
        times = []
        for _ in range(CLI_BASELINE_SAMPLES):
            t0 = perf_counter()
            status, _, err = run_child([sys.executable, "-c", code], env, ROOT)
            times.append(perf_counter() - t0)
            if status != 0:
                raise RuntimeError(f"`python -c {code!r}` failed: {err.decode()[-2000:]}")
        out[f"{name}_s"] = statistics.median(times)
    return out


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    so = import_library()
    rss_base = rss_kib()
    import workloads

    workload = workloads.make(args.workload, so, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    env = child_env()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, so, workload, env, workdir, rss_base)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, so, workload, env, workdir, rss_base) -> int:
    from tracer import STRESSED_SPANS, Tracer, fired, layer_metrics, merge_raw
    from workloads import run_child

    is_cli = workload.name == "cli"
    if is_cli:
        workload.prepare(workdir, env, sys.executable)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "pool_items": len(workload.items), "machine": machine_record()}

    setup = setup_seconds(args) if args.trace == 0 else None
    baselines = cli_baselines(env) if (is_cli or args.trace == 1) else None

    warm_up(workload, workload.op)
    cache = {}
    if args.trace == 0:
        windows = {"untraced": timed(workload, workload.op, args.seconds)}
        traced_raw = None
    else:
        if is_cli:
            trace_files = []

            def traced_op(item):
                path = workdir / f"trace{len(trace_files)}.json"
                trace_files.append(path)
                return run_child(workload.child_argv("trace", path, item), env, workdir)

            untraced, traced = timed_alternating(workload, workload.op, traced_op, nullcontext(), args.seconds)
            traced_raw = merge_raw(json.loads(p.read_text()) for p in trace_files if p.exists())
        else:
            tracer = Tracer()
            untraced, traced = timed_alternating(workload, workload.op, workload.op, tracer, args.seconds)
            traced_raw = tracer.raw()
        windows = {"untraced": untraced, "traced": traced}

    if args.trace == 1:
        peak_kib = None
    elif is_cli:
        peak_kib, reports = workload.peak_above_import_kib()
        record["peak_mem"] = {"what": "largest CLI child peak RSS (VmHWM) minus that child's RSS right "
                                      "after `import secondorder`, one untimed run of each command",
                              "children_kib": reports}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_base
        record["peak_mem"] = {"what": "process peak RSS minus RSS right after `import secondorder`",
                              "baseline_rss_mb": rss_base / 1024}

    summaries = {name: summarize(window, workload, cache) for name, window in windows.items()}
    probe = run_probe(so, workload, cache)
    attempted = sum(s["ops"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    wrong = sum(s["wrong"] for s in summaries.values()) + (probe["wrong"] if probe else 0)

    main_window = summaries["untraced"]
    record.update({
        "ops": {name: s["ops"] for name, s in summaries.items()},
        "passes": {name: window.passes for name, window in windows.items()},
        "class_time_share": class_time_share(windows["untraced"], workload),
        "op_tail": {"percentile": round(main_window["tail_percentile"], 3),
                    "samples_beyond": main_window["tail_beyond"], "samples": main_window["ops"]},
        "fail_frac": failed / attempted,
        "failures": {name: {k: s[k] for k in ("raised", "exit_nonzero", "wrong", "problems")}
                     for name, s in summaries.items()},
        "defect_probe": probe,
    })
    if setup is not None:
        record["setup_samples_s"] = setup
    if baselines is not None:
        record["cli_baselines"] = baselines

    if args.trace == 0:
        metrics = {
            "ops_per_s": (main_window["ops_per_s"], "1/s"),
            "op_p50_ms": (main_window["p50_s"] * 1e3, "ms"),
            "op_tail_ms": (main_window["tail_s"] * 1e3, "ms"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
            "peak_mem_mb": (peak_kib / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    else:
        traced = summaries["traced"]
        metrics = layer_metrics(traced_raw, traced["ops"])
        metrics["distributions.probe_nan_row_frac"] = (probe["nan_row_frac"] if probe else 0.0, "ratio")
        metrics["measures.probe_fail_frac"] = (probe["fail_frac"] if probe else 0.0, "ratio")
        per_command = {}
        for index, dt in zip(windows["untraced"].indices, windows["untraced"].latencies):
            per_command.setdefault(workload.items[index].cls, []).append(dt)
        for command in ("panel", "eval", "ensemble", "curve"):
            times = per_command.get(command) if is_cli else None
            metrics[f"cli.invocation_s.{command}"] = (statistics.median(times) if times else 0.0, "s")
        metrics["cli.interpreter_s"] = (baselines["interpreter_s"], "s")
        metrics["cli.import_s"] = (baselines["import_s"], "s")
        exits = sum(s["exit_nonzero"] for s in summaries.values())
        metrics["cli.exit_nonzero"] = (exits / attempted, "count/op")
        metrics["trace.untraced_ops_per_s"] = (main_window["ops_per_s"], "1/s")
        metrics["trace.traced_ops_per_s"] = (traced["ops_per_s"], "1/s")
        metrics["trace.overhead_ops_per_s"] = (main_window["ops_per_s"] - traced["ops_per_s"], "1/s")
        spans = fired(traced_raw)
        record["trace"] = {
            "spans_fired": sorted(spans),
            "stressed_spans_not_fired": [s for s in STRESSED_SPANS[workload.name] if s not in spans],
            "mc_bytes_note": "integrate.mc_bytes_computed is n*K*8 summed over Monte Carlo calls, "
                             "computed from array shapes, not measured bandwidth",
        }

    print(json.dumps({"run_record": record}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    if args.trace == 0:
        print(f"op_tail_ms is the p{main_window['tail_percentile']:.3f} latency: "
              f"{main_window['tail_beyond']} of {main_window['ops']} ops were slower")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
