"""wseries benchmark: one seeded workload, one closed-loop client.

    python3 perfbench/run.py --workload holo --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
client runs one operation at a time and starts the next only when the last
has returned.  Every output is checked after its timed call; the check is
not timed.  The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` makes whole passes over the workload's pool for at most
``--seconds`` (at least one pass) and reports the end-to-end metrics named
in ``BENCHMARK.json``.  An operation's cost is the CPU time it takes: the
client's own (user + system) plus that of any child process it starts.  The
client is single-threaded and its operations do no I/O beyond the child's
pipes, so on an unshared core this is their wall time; on a shared host it
leaves out the time the host gives the process's core to others.

A shared host also changes how fast a core runs (frequency, a busy sibling
thread, contended caches): on a shared 2-core Xeon host the same operation's
CPU time moved by up to 1.5x within a minute.  So between operations the
client times a fixed reference kernel (``reference_kernel``: standard library
only, the library's kind of work) and scales every reported time by
``(REFERENCE_S / k) ** SCALE_EXPONENT``, with ``k`` the kernel's median time
in the run.  The kernel moves more with host speed than the operations do:
regressing log cost on log kernel time over 184 paired samples on that host
gave slopes 0.69 (divide), 0.62 (holo) and 0.48 (cli), hence the exponent.
The library never runs the kernel, so a change to the library moves the
scaled times as much as the raw ones.  Unscaled figures and wall time are
printed as notes.

``ops_per_s`` is verified operations per second of cost over all passes.
Each input's latency is the median of its costs over the passes, and the
latency percentiles are taken over the inputs, so they do not jump with the
number of passes a run fits in.

``--trace 1`` runs a fixed number of operations, each once untraced and
once under the span recorder, and reports the per-layer metrics; a fixed
count makes every count metric and output fingerprint repeat exactly for a
given seed.  It also sends the ``cli`` workload's deep-nesting probes, inputs
that hit the known parser escape (see ``workloads.KNOWN_ESCAPE``); probes
that escape are counted in ``cli.nesting_escapes``.

A failure is an output that fails its check, a wrong exit code or an
uncaught exception (in a probe: anything but a right answer, a clean error
exit or the known escape).  ``correct`` is false when anything failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 9
#: CPU seconds of ``reference_kernel`` at the host speed times are scaled to
REFERENCE_S = 0.015
#: how far operation costs follow the kernel's time (see the module docstring)
SCALE_EXPONENT = 0.6
#: operation cost between two timings of the reference kernel
REFERENCE_EVERY_S = 0.25
#: operations in one traced run, a whole number of input cycles
TRACED_OPS = {"holo": 5, "divide": 180, "cli": 38}


def import_library():
    """Import ``wseries`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "wseries" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC / 'wseries'}")
    sys.path.insert(0, str(SRC))
    import wseries
    if Path(wseries.__file__).resolve().parent != SRC / "wseries":
        raise SystemExit(f"error: wseries imported from {wseries.__file__}")


def tail(samples: list) -> tuple:
    """Highest nearest-rank percentile with at least 10 samples above it:
    ``(value, percentile)``; the maximum when there are 10 or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n


def reference_kernel() -> dict:
    """Products of ``Fraction`` coefficients summed into a dict keyed by
    exponent tuples: a fixed truncated square of a dense bivariate series."""
    a = {(i, j): Fraction(i + 2 * j + 1, j + 3)
         for i in range(9) for j in range(9 - i)}
    acc: dict = {}
    for _ in range(3):
        for (i, j), x in a.items():
            for (k, m), y in a.items():
                if i + j + k + m <= 10:
                    e = (i + k, j + m)
                    acc[e] = acc.get(e, 0) + x * y
    return acc


def reference_seconds() -> float:
    start = process_time()
    reference_kernel()
    return process_time() - start


def setup_seconds(name: str, seed: int, small: bool) -> float:
    """Median CPU time of fresh interpreters that import the library,
    generate the workload's inputs and warm it up."""
    code = (f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
            f"import workloads; workloads.setup({name!r}, {seed}, {small})")
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise SystemExit(f"error: set-up of {name} exited "
                             f"{proc.returncode}")
        times.append(usage.ru_utime + usage.ru_stime)
    return statistics.median(times)


class Tally:
    """Operations attempted in one run and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.failures,
                "attempted": self.attempted, "failed": len(self.failures),
                "metrics": metrics}


def timed_call(fn, x):
    """``(cost_s, output, failure)`` for one operation ``fn(x)``: the CPU
    time of this process plus that of the child it ran, if any."""
    start = process_time()
    try:
        out = fn(x)
    except Exception as exc:  # an escape from the library is a failure
        return process_time() - start, None, f"{type(exc).__name__}: {exc}"
    return process_time() - start + getattr(out, "cpu_s", 0.0), out, None


def end_to_end(workload, tally: Tally, seed: int, seconds: float, small: bool):
    gc.collect()
    gc.freeze()  # the inputs are not the library's garbage to scan
    costs = [[] for _ in workload.pool]
    passes, verified, rss_kb = 0, 0, 0
    reference, since_reference = [reference_seconds()], 0.0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for x, case_costs in zip(workload.pool, costs):
            cost, out, failure = timed_call(workload.call, x)
            reason = failure or workload.check(x, out)
            tally.record(reason)
            case_costs.append(cost)
            verified += reason is None
            since_reference += cost
            if since_reference >= REFERENCE_EVERY_S:
                reference.append(reference_seconds())
                since_reference = 0.0
            rss_kb = max(rss_kb, getattr(out, "max_rss_kb", 0))
        passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    wall_s = perf_counter() - start
    gc.unfreeze()
    if workload.name != "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [statistics.median(c) for c in costs]
    cost_s = sum(map(sum, costs))
    tail_s, tail_pct = tail(latencies)
    p50_s = statistics.median(latencies)
    setup_s = setup_seconds(workload.name, seed, small)
    scale = (REFERENCE_S / statistics.median(reference)) ** SCALE_EXPONENT
    values = {
        "ops_per_s": verified / (scale * cost_s),
        "latency_p50_ms": 1e3 * scale * p50_s,
        "latency_tail_ms": 1e3 * scale * tail_s,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": scale * setup_s,
    }
    notes = {"latency_tail_percentile": tail_pct, "samples": len(latencies),
             "passes": passes, "wall_s": wall_s,
             "cpu_share_of_wall": cost_s / wall_s,
             "reference_samples": len(reference),
             "reference_ms": 1e3 * statistics.median(reference),
             "time_scale": scale,
             "unscaled_ops_per_s": verified / cost_s,
             "unscaled_latency_p50_ms": 1e3 * p50_s,
             "unscaled_setup_s": setup_s,
             "failed_ratio": len(tally.failures) / tally.attempted}
    return values, notes


def output_fingerprint(series_list, acc: dict):
    for s in series_list:
        acc["series.out.terms"] += len(s.terms)
        acc["series.out.certificate_sum"] += s.guaranteed_degree
        for c in s.terms.values():
            acc["series.out.coeff_bits_max"] = max(
                acc["series.out.coeff_bits_max"],
                c.numerator.bit_length(), c.denominator.bit_length())


def traced(workload, tally: Tally, ops: int):
    import spans
    import workloads

    recorder = spans.Recorder()
    fingerprint = dict.fromkeys(("series.out.terms", "series.out.coeff_bits_max",
                                 "series.out.certificate_sum"), 0)
    overhead, startup = 0.0, []
    in_process = getattr(workload, "in_process", workload.call)
    escapes = 0
    uninstall = recorder.install()
    try:
        for i in range(ops):
            x = workload.pool[i % len(workload.pool)]
            plain_s, out, failure = timed_call(in_process, x)
            recorder.op, recorder.active = i, True
            traced_s = timed_call(in_process, x)[0]
            recorder.active = False
            overhead += traced_s - plain_s
            if workload.name == "cli":
                sub_s, out, failure = timed_call(workload.call, x)
                startup.append(sub_s - plain_s)
            tally.record(failure or workload.check(x, out))
            if failure is None:
                output_fingerprint(workload.outputs(x, out), fingerprint)
        for x in getattr(workload, "probes", ()):
            _, out, failure = timed_call(workload.call, x)
            reason = failure or workload.check(x, out)
            if reason == workloads.KNOWN_ESCAPE:
                escapes += 1
            else:
                tally.record(reason)
    finally:
        uninstall()
    values = recorder.summary()
    values.update(fingerprint)
    values["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    values["trace.overhead_s"] = overhead
    values["cli.nesting_escapes"] = escapes
    recorder.dump(SPAN_DIR / f"spans-{workload.name}.jsonl.gz")
    return values, {"spans": len(recorder.spans)}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> dict:
    """Measure one workload and print its table; returns the result object."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.setup(workload_name, seed, small)
    tally = Tally()
    if trace:
        values, notes = traced(workload, tally, TRACED_OPS[workload_name])
        declared = spec["per_layer"]
    else:
        values, notes = end_to_end(workload, tally, seed, seconds, small)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(f"workload {workload_name}  seed {seed}  "
          f"{'traced' if trace else 'untraced'}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    for name, value in notes.items():
        print(f"  {name:48s} {value:>16.6g}")
    for reason in sorted(set(tally.failures)):
        print(f"  failure x{tally.failures.count(reason)}: {reason}")
    return tally.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("holo", "divide", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
