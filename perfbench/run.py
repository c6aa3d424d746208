"""cutchoose benchmark.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the current directory; without it
the benchmark exits with code 2 and prints no result. Workloads are defined
in ``workloads.py``; metric names and units come from ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics: set-up time (median over fresh
interpreters), the median wall time of one run over repeats filling
``--seconds``, both scaled to reference speed (see ``timed_calls``), and the
peak resident memory of this process. ``--trace 1`` reports the per-layer
metrics from a traced run (``spans.py``), after an untraced run of half the
time that gives the tracing overhead. The last line
of standard output is the JSON result; the line before it records the
environment, sample counts and any failed checks.

Load: one process, closed loop, BLAS limited to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # timed fresh interpreters, after one untimed that warms the byte-code cache
MIN_REPEATS = 2
# Seconds the calibration kernel takes on the reference box (2-core Xeon VM,
# OpenBLAS on one thread) when it runs at its usual speed. Reported times are
# scaled by this over the kernel's time measured around each timed call.
CALIBRATION_REFERENCE_S = 0.13
SPAN_DIR = ".perfbench"  # spans of the last traced run, one JSON-lines file per workload


class Ledger:
    """Counts correctness checks; an exception counts as a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(label)

    def extend(self, results) -> None:
        for label, passed in results:
            self.record(label, passed)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else list(values)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-array and BLAS work.

    The host's speed drifts by tens of percent over minutes. This kernel
    slows down with it, so dividing by its time cancels most of the drift.
    It uses no numpy.linalg function, which the tracer wraps.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    small = np.eye(4, dtype=np.complex128)
    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    for _ in range(12_000):
        small = small @ small
    for _ in range(120):
        big @ big
    return time.perf_counter() - start


def timed_calls(call, done) -> tuple[list[float], list[float]]:
    """Repeat ``call()``, which returns the seconds it measured, until
    ``done(times, elapsed)`` holds.

    Returns the wall times and the same times scaled to the reference speed:
    each is multiplied by ``CALIBRATION_REFERENCE_S`` over the mean of the
    calibration times measured just before and just after the call.
    """
    raw, scaled = [], []
    start = time.perf_counter()
    before = calibrate()
    while True:
        took = call()
        after = calibrate()
        raw.append(took)
        scaled.append(took * CALIBRATION_REFERENCE_S / ((before + after) / 2.0))
        before = after
        if done(raw, time.perf_counter() - start):
            return raw, scaled


def fill(budget_s: float):
    """Stop rule: at least MIN_REPEATS calls, and the next would overrun the budget."""
    return lambda times, elapsed: (
        len(times) >= MIN_REPEATS and elapsed + _median(times) > budget_s
    )


def setup_probe(workload, root: Path, src: Path):
    """A call that times one fresh interpreter from spawn to ready (imported, parsed)."""
    payload = json.dumps(workload.configs).encode("utf-8")
    command = [sys.executable, str(HERE / "setup_probe.py"), *workload.imports]

    def probe() -> float:
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=root, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE) as proc:
            proc.stdin.write(payload)
            proc.stdin.close()
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        loaded = Path(line.decode("utf-8").strip()).resolve()
        if code != 0 or src not in loaded.parents:
            raise RuntimeError(f"set-up probe failed (exit {code}, loaded {loaded})")
        return elapsed

    return probe


def _timed(workload, cutchoose, parsed):
    start = time.perf_counter()
    output = workload.run(cutchoose, parsed)
    return output, time.perf_counter() - start


def layer_sample(tracer, output, workload, gate_keys) -> tuple[dict, dict]:
    """Per-layer timings and counts of one traced run."""
    t = tracer
    timings = {
        "config.parse_s": t.inclusive_s("config.parse_config"),
        "report.run_scenario_s": t.inclusive_s("report.run_scenario"),
        "report.emit_s": t.inclusive_s("report.emit_bytes"),
        "protocol.overall_acceptance_s": t.inclusive_s("protocol.overall_acceptance"),
        "protocol.round_outcome_table_s": t.inclusive_s("protocol.round_outcome_table"),
        "protocol.client_output_state_s": t.inclusive_s("protocol.client_output_state"),
        "protocol.monte_carlo_s": t.inclusive_s("protocol.monte_carlo_run"),
        "bounds.run_tradeoff_check_s": t.self_s("bounds.run_tradeoff_check"),
        "bounds.epsilon_h_s": t.inclusive_s("bounds.epsilon_h"),
        "bounds.epsilon_d_s": t.inclusive_s("bounds.epsilon_d_standalone")
        + t.inclusive_s("bounds.epsilon_d_composable"),
        "combs.general_tradeoff_check_s": t.inclusive_s("combs.general_tradeoff_check"),
        "combs.plug_s": t.inclusive_s("combs.plug"),
        "combs.general_test_acceptance_s": t.inclusive_s("combs.general_test_acceptance"),
        "linalg.eig_s": t.inclusive_s("linalg.eig"),
    }
    for key in gate_keys:
        timings[f"acceptance.{key}_s"] = output.criterion_s.get(key, 0.0)
    trap_calls = t.counts["families.trap_calls"]
    counts = {
        "protocol.overall_acceptance_calls": t.span_count("protocol.overall_acceptance"),
        "protocol.mc_sample_bytes": t.mc_sample_bytes(),
        "states.povm_validations": t.counts["states.povm_validations"],
        "linalg.eig_calls": t.span_count("linalg.eig"),
        "linalg.eig_work": t.counts["linalg.eig_work"],
        "strategies.transform_round_calls": t.counts["strategies.transform_round_calls"],
        "families.trap_calls": trap_calls,
        "families.element_calls": t.counts["families.element_calls"],
        "families.trap_calls_per_round": (
            trap_calls / workload.round_factors_needed if workload.round_factors_needed else 0.0
        ),
        "combs.plug_calls": t.span_count("combs.plug"),
        "combs.kraus_ops_max": t.kraus_ops_max,
        "combs.kraus_applied": t.counts["combs.kraus_applied"],
    }
    return timings, counts


def measure(args, root: Path, src: Path, spec: dict, ledger: Ledger, info: dict) -> dict:
    import cutchoose
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    for name in workload.imports:
        __import__(name)
    parsed = [cutchoose.parse_config(text) for text in workload.configs]

    values: dict = {}
    samples = info["samples"] = {}
    if not args.trace:
        probe = setup_probe(workload, root, src)
        probe()  # fills the byte-code cache
        raw, scaled = timed_calls(probe, lambda times, elapsed: len(times) == SETUP_REPEATS)
        values["setup_s"] = _median(scaled)
        samples["setup_s"] = len(raw)
        info["setup_s_wall"] = _median(raw)

    reference = None

    def same_bytes(output, label):
        ledger.record(label, output.chunks == reference.chunks)

    def untraced():
        nonlocal reference
        output, elapsed = _timed(workload, cutchoose, parsed)
        if reference is None:  # the first run is checked in full, later ones against it
            reference = output
            ledger.extend(workload.check(output))
        else:
            same_bytes(output, "report bytes identical across repeats")
        return elapsed

    budget = args.seconds if not args.trace else args.seconds / 2.0
    raw, run_times = timed_calls(untraced, fill(budget))
    samples["run_s"] = len(run_times)
    info["run_s_quartiles"] = _quartiles(run_times)
    info["run_s_wall_quartiles"] = _quartiles(raw)

    if not args.trace:
        values["run_s"] = _median(run_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return values

    gate_keys = [m["name"][len("acceptance."):-len("_s")] for m in spec["per_layer"]
                 if m["name"].startswith("acceptance.")]
    tracer = spans.Tracer()
    layers = []

    def traced():
        tracer.reset()
        for text in workload.configs:
            cutchoose.parse_config(text)
        output, elapsed = _timed(workload, cutchoose, parsed)
        same_bytes(output, "traced report bytes identical to untraced")
        layers.append(layer_sample(tracer, output, workload, gate_keys))
        return elapsed

    with tracer:
        _, traced_times = timed_calls(traced, fill(args.seconds / 2.0))
    samples["traced_run_s"] = len(traced_times)
    ledger.record("per-layer counts repeat exactly between traced runs",
                  all(counts == layers[0][1] for _, counts in layers))
    for key in layers[0][0]:
        values[key] = _median([timings[key] for timings, _ in layers])
    values.update(layers[0][1])
    values["trace.overhead_s"] = _median(traced_times) - _median(run_times)

    out_dir = root / SPAN_DIR
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload.name}.jsonl")
    return values


def environment(seed: int) -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }
    env.update(_openblas(numpy))
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas(numpy) -> dict:
    """OpenBLAS build version, and its runtime config and thread count if reachable."""
    import ctypes

    out = {"openblas": "unknown", "blas_threads_in_effect": "unknown"}
    try:
        out["openblas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                out["blas_threads_in_effect"] = threads()
                out["openblas_runtime"] = config().decode("utf-8", "replace")
                return out
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "cutchoose" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a checkout root holding src/cutchoose and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # before numpy loads: BLAS reads its thread count once, at load time
    for variable in THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    import cutchoose

    if src not in Path(cutchoose.__file__).resolve().parents:
        print(f"perfbench: imported cutchoose from {cutchoose.__file__}, not {src}",
              file=sys.stderr)
        return 2

    ledger = Ledger()
    info = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "environment": environment(args.seed)}
    try:
        values = measure(args, root, src, spec, ledger, info)
    except Exception:  # a failed run is reported as a failed check, not a crash
        traceback.print_exc()
        ledger.record("workload raised", False)
        values = {}

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in section:
        if values and m["name"] not in values:
            ledger.record(f"metric {m['name']} not measured", False)
    if not ledger.attempted:
        ledger.record("no check ran", False)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in section}
    info["failed_checks"] = ledger.failures[:20]
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
