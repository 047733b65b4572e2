"""symwalk benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each invocation of the workload's symwalk
subcommand is a fresh process (``bench/child.py``), repeated until ``S``
seconds have passed.  Every invocation of a run does the same work, cut
into the same phases by the progress points the child records; throughput
and CPU per sample come from the fastest time of each phase across the
invocations, set-up time and memory are medians over them.  With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer metrics of traced invocations, interleaved with untraced ones so
that the two CSVs can be compared byte for byte.  Every CSV is checked (see
``checks.py``).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md for the
workloads, metrics and what is deliberately left unmeasured.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from statistics import median

import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "symwalk")
MIN_INVOCATIONS = 3
MIN_TRACED = 2
INVOCATION_TIMEOUT_S = 60
# Untraced invocations run this many at a time, one per vCPU of a two-vCPU
# host, so that a run sees twice as many (see README.md).
LANES = min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Workload:
    argv: tuple             # symwalk arguments, without --seed and --out
    count_flag: str         # the flag that sets the sample (or trial) count
    samples: int            # per length (trials for lyapunov)
    lengths: tuple          # word lengths; empty for lyapunov
    primes: tuple
    csv: str
    header: str
    pooled: bool            # traced runs also time THREADS = min(2, nproc)

    def argv_for(self, seed, samples):
        return list(self.argv) + [self.count_flag, str(samples),
                                  "--seed", str(seed)]

    def total(self, samples):
        return samples * max(1, len(self.lengths))

    def keys(self, samples):
        return [(length, j) + ((p,) if self.primes else ())
                for length in self.lengths for j in range(samples)
                for p in (self.primes or (None,))]

    def threads(self):
        return min(2, os.cpu_count() or 1) if self.pooled else 1


# Sample counts are the CLI _DEFAULTS; family, lengths, mode and primes are
# fixed by the workload definitions in README.md.
WORKLOADS = {
    "torsion": Workload(
        ("torsion-stats", "--family", "humphries", "--genus", "2",
         "--mode", "positive", "--lengths", "100:500:50"),
        "--samples", 200, tuple(range(100, 501, 50)), (), "torsion_stats.csv",
        "length,sample_index,log_torsion,betti,singular", False),
    "modp": Workload(
        ("modp-rank", "--family", "humphries", "--genus", "2",
         "--mode", "symmetric", "--lengths", "500", "--primes", "2"),
        "--samples", 2000, (500,), (2,), "modp_rank.csv",
        "length,sample_index,p,fp_rank", True),
    "heegaard-stanek": Workload(
        ("heegaard", "--family", "stanek", "--genus", "2",
         "--mode", "positive", "--lengths", "100:500:100"),
        "--samples", 300, tuple(range(100, 501, 100)), (), "heegaard.csv",
        "length,sample_index,log_h1,betti,complexity_lower_bound", False),
    "lyapunov": Workload(
        ("lyapunov", "--family", "humphries", "--genus", "2",
         "--steps", "2000"),
        "--trials", 100, (), (), "lyapunov.csv",
        "exponent_index,value,standard_error", False),
}


def spec_metrics(kind):
    """(name, unit) of the metrics BENCHMARK.json lists under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


# Work counts a traced invocation must reproduce exactly at a given seed;
# a change in one means the computation itself changed.
INVARIANTS = ("walker.letters", "walker.product_bits_p50",
              "walker.product_bits_max", "walker.pool_tasks",
              "walker.pool_bytes", "homology.singular_samples",
              "lyapunov.matmuls", "lyapunov.qr_calls")


@dataclass
class Invocation:
    code: int
    traced: bool
    samples: int
    wall_s: float           # process launch to reap
    setup_s: float          # process launch to first sample
    batch_s: float          # first sample to last sample
    cpu_s: float            # user + system of the process tree
    maxrss_kb: int          # largest single process of the tree
    phases: list            # (wall s, CPU s): setup, each progress step, tail
    csv: str
    bytes_written: int
    layers: dict
    stderr: str

    @property
    def samples_per_s(self):
        if self.code != 0:          # no marks: there is no sampling phase
            return 0.0
        return self.samples / (self.wall_s - self.setup_s)


def invoke(workload, seed, threads, trace=False, samples=None):
    """Run one symwalk invocation in a fresh process and measure it."""
    samples = workload.samples if samples is None else samples
    os.makedirs(SCRATCH, exist_ok=True)
    out = tempfile.mkdtemp(dir=SCRATCH)
    try:
        marks_path = os.path.join(out, "marks.json")
        cmd = [sys.executable, CHILD, "--src", SRC, "--marks", marks_path]
        if trace:
            cmd += ["--trace", "--pool-threads", str(workload.threads())]
        cmd += ["--"] + workload.argv_for(seed, samples) + ["--out", out]
        env = dict(os.environ, THREADS=str(1 if trace else threads))
        err_path = os.path.join(out, "stderr.txt")
        with open(err_path, "w") as err:
            launch = time.monotonic()
            # Its own process group, so that a kill reaches pool workers.
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                    stderr=err, env=env, cwd=ROOT,
                                    start_new_session=True)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg,
                                    (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(err_path) as fh:
            stderr = fh.read()
        marks = {}
        if os.path.exists(marks_path):
            with open(marks_path) as fh:
                marks = json.load(fh)
        csv_path = os.path.join(out, workload.csv)
        csv = ""
        if os.path.exists(csv_path):
            with open(csv_path) as fh:
                csv = fh.read()
        written = sum(os.path.getsize(os.path.join(out, name))
                      for name in os.listdir(out)
                      if name not in ("marks.json", "stderr.txt"))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if code == 0 and not ("setup_done" in marks and "batch_done" in marks):
        code, stderr = -1, stderr + "\nchild recorded no timing marks"
    setup_done = marks.get("setup_done", end)
    cpu_s = usage.ru_utime + usage.ru_stime
    points = ([(launch, 0.0), (setup_done, marks.get("setup_cpu", 0.0))]
              + [tuple(p) for p in marks.get("progress", [])]
              + [(end, cpu_s)])
    phases = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(points, points[1:])]
    return Invocation(
        code=code, traced=trace, samples=workload.total(samples),
        wall_s=end - launch, setup_s=setup_done - launch,
        batch_s=marks.get("batch_done", end) - setup_done,
        cpu_s=cpu_s, maxrss_kb=usage.ru_maxrss, phases=phases, csv=csv,
        bytes_written=written, layers=marks.get("layers", {}), stderr=stderr)


def invoke_for(seconds, lanes, fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` again and again, ``lanes`` calls at a
    time, until ``seconds`` have passed and at least MIN_INVOCATIONS calls
    have been started; returns the results in the order they finished."""
    start = time.monotonic()
    results, running = [], set()
    with concurrent.futures.ThreadPoolExecutor(lanes) as pool:
        while True:
            while len(running) < lanes and (
                    time.monotonic() - start < seconds
                    or len(results) + len(running) < MIN_INVOCATIONS):
                running.add(pool.submit(fn, *args, **kwargs))
            if not running:
                return results
            done, running = concurrent.futures.wait(
                running, return_when=concurrent.futures.FIRST_COMPLETED)
            results += [future.result() for future in done]


def check_csv(name, seed, csv, samples, reference):
    workload = WORKLOADS[name]
    if name == "lyapunov":
        return checks.check_lyapunov(csv, reference)
    return checks.check_exact(name, seed, csv, workload.header,
                              workload.keys(samples), reference)


def verify(name, seed, invocations, samples, reference):
    """(invocation index, reason) for each failure: a nonzero exit, a CSV
    that fails its check, or a CSV that differs from the first correct one
    (this is how a traced CSV is cross-checked against the untraced ones).
    Lyapunov CSVs are compared within one machine only, where they are
    deterministic."""
    failures = []
    good = None
    for i, inv in enumerate(invocations):
        if inv.code != 0:
            tail = inv.stderr.strip().splitlines()[-1:] or [""]
            failures.append((i, "exit code %d %s" % (inv.code, tail[0])))
        elif good is None:
            errors = check_csv(name, seed, inv.csv, samples, reference)
            if errors:
                failures.append((i, "; ".join(errors)))
            else:
                good = inv.csv
        elif inv.csv != good:
            failures.append((i, "CSV is not byte-identical to the first "
                                "correct one"))
    return failures


def count_mismatches(invocations):
    """Failures for traced invocations whose work counts differ from the
    first successful traced invocation's."""
    ok = [(i, inv) for i, inv in enumerate(invocations)
          if inv.traced and inv.code == 0 and inv.layers]
    failures = []
    for i, inv in ok[1:]:
        diff = [name for name in INVARIANTS
                if inv.layers.get(name) != ok[0][1].layers.get(name)]
        if diff:
            failures.append((i, "work counts %s differ from invocation %d"
                             % (", ".join(diff), ok[0][0])))
    return failures


def gate_description(name, seed, reference):
    if name == "lyapunov":
        return ("pairing and recorded spectrum within %g SE"
                % checks.LYAPUNOV_TOLERANCE_SE)
    if seed == reference["seed"]:
        return "sha256 against the seed commit, and %d-row spot check" % (
            checks.SPOT_ROWS)
    return "%d-row spot check (sha256 applies at seed %d)" % (
        checks.SPOT_ROWS, reference["seed"])


def phase_mismatches(invocations):
    """Failures for invocations whose progress points differ in number from
    the first successful one's: at one seed every invocation does the same
    work, so its phases must line up."""
    ok = [(i, inv) for i, inv in enumerate(invocations) if inv.code == 0]
    return [(i, "%d progress phases, invocation %d had %d"
             % (len(inv.phases), ok[0][0], len(ok[0][1].phases)))
            for i, inv in ok[1:] if len(inv.phases) != len(ok[0][1].phases)]


def fastest_phases(invocations):
    """For each phase, the least wall time and the least CPU time that any
    invocation of the run took for it."""
    ok = [inv for inv in invocations if inv.code == 0] or invocations
    ok = [inv for inv in ok if len(inv.phases) == len(ok[0].phases)]
    return [(min(wall for wall, _ in column), min(cpu for _, cpu in column))
            for column in zip(*(inv.phases for inv in ok))]


def end_to_end_metrics(invocations):
    ok = [inv for inv in invocations if inv.code == 0] or invocations
    phases = fastest_phases(ok)
    samples = ok[0].samples
    return {
        "setup_s": median(inv.setup_s for inv in ok),
        "samples_per_s": _ratio(samples, sum(w for w, _ in phases[1:])),
        "cpu_ms_per_sample": sum(c for _, c in phases) * 1e3 / samples,
        "peak_rss_mb": median(inv.maxrss_kb / 1024 for inv in ok),
    }


def per_layer_metrics(names, plain, single, traced, threads):
    """Medians of the traced invocations' layer metrics, plus the ratios
    that need an untraced run: pool efficiency against the untraced batch
    at the workload's THREADS, tracing overhead against THREADS=1."""
    ok = [inv for inv in traced if inv.code == 0 and inv.layers] or traced
    metrics = {}
    for name in names:
        values = [inv.layers.get(name, 0) for inv in ok]
        metrics[name] = values[0] if name in INVARIANTS else median(values)
    metrics["cli.bytes_written"] = median(inv.bytes_written for inv in ok)
    compute = median(inv.layers.get("per_sample_compute_s", 0.0)
                     for inv in ok)
    metrics["walker.pool_efficiency"] = _ratio(
        compute, threads * median(inv.batch_s for inv in plain))
    metrics["trace.overhead_frac"] = 1.0 - _ratio(
        median(inv.samples_per_s for inv in ok),
        median(inv.samples_per_s for inv in single))
    return metrics


def _ratio(a, b):
    """a / b, or 0 when every invocation behind b failed."""
    return a / b if b else 0.0


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment(threads):
    """Read-only facts that explain a noisy run."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "THREADS": threads,
            "python": platform.python_version(), "numpy": numpy_version,
            "cpu": cpu, "loadavg_start": _read("/proc/loadavg").strip()}


def warm_up():
    """Import the package once, untimed, so that bytecode compilation and a
    cold file cache are not charged to the first measured invocation."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import symwalk.cli", SRC],
                   timeout=INVOCATION_TIMEOUT_S, cwd=ROOT)


def run(name, seed, seconds, trace, samples=None):
    """Measure one workload.  Returns (report, result) where result is the
    contract line and report holds the environment and checks."""
    workload = WORKLOADS[name]
    samples = workload.samples if samples is None else samples
    threads = workload.threads()
    reference = checks.load_reference()
    env = environment(1)
    if trace and threads > 1:
        env["pool_THREADS"] = threads   # the untraced pooled invocations
    warm_up()
    start = time.monotonic()
    plain, single, traced = [], [], []
    if not trace:
        plain = invoke_for(seconds, LANES, invoke, workload, seed, 1,
                           samples=samples)
    # Traced runs stay one invocation at a time: the pooled ones need both
    # vCPUs, and their figures have no bound.
    while trace and not (len(traced) >= MIN_TRACED
                         and time.monotonic() - start >= seconds):
        plain.append(invoke(workload, seed, threads, samples=samples))
        if threads > 1:
            single.append(invoke(workload, seed, 1, samples=samples))
        traced.append(invoke(workload, seed, 1, trace=True, samples=samples))
    invocations = plain + single + traced
    failures = (verify(name, seed, invocations, samples, reference)
                + count_mismatches(invocations)
                + phase_mismatches(plain))
    if trace:
        units = spec_metrics("per_layer")
        metrics = per_layer_metrics([n for n, _ in units], plain,
                                    single or plain, traced, threads)
    else:
        units = spec_metrics("end_to_end")
        metrics = end_to_end_metrics(plain)
    env["loadavg_end"] = _read("/proc/loadavg").strip()
    result = {
        "correct": not failures,
        "attempted": len(invocations),
        "failed": len({i for i, _ in failures}),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units},
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env,
        "invocations": {"untraced": len(plain) + len(single),
                        "traced": len(traced)},
        "error_rate": result["failed"] / result["attempted"],
        "output_gate": gate_description(name, seed, reference),
        "failures": ["invocation %d (%s): %s"
                     % (i, "traced" if invocations[i].traced else "untraced",
                        reason) for i, reason in failures],
    }
    return report, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symwalk", "cli.py")):
        print("bench: %s has no symwalk sources; run from the root of a "
              "symwalk checkout" % SRC, file=sys.stderr)
        return 2
    report, result = run(opts.workload, opts.seed, opts.seconds,
                         bool(opts.trace))
    for key, value in report.items():
        print("%s: %s" % (key, json.dumps(value)))
    for metric, entry in result["metrics"].items():
        print("%-28s %r %s" % (metric, entry["value"], entry["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
