"""Run one symwalk subcommand through ``symwalk.cli.main`` in this process.

    python3 bench/child.py --src SRC --marks OUT.json [--trace]
        [--pool-threads N] -- <symwalk arguments>

The parent (``bench/run.py``) launches this script once per invocation, so
every invocation is a fresh process, and reads the marks file afterwards.

Untraced, the only instrumentation is timestamps on the system-wide
monotonic clock, each paired with the CPU time used so far by this process
and its reaped children (pool workers):

* ``setup_done`` (and ``setup_cpu``): the family has been resolved and the
  first walk sample (or Lyapunov trial) is about to start;
* ``progress``: a point at each progress event -- each record ``run_batch``
  yields, the start of each Lyapunov trial (the call to ``derive_seed`` that
  seeds it) and each group element the exhaustive oracle visits (the call
  to ``stats._nullity_mod2``);
* ``batch_done``: the last sample (or trial) has finished.

Traced (``--trace``), each call from one layer into another layer's public
functions is also recorded as a span, with ``cli.main`` as the root span.
Spans stay in memory and are reduced to per-layer metrics after ``main``
returns; nothing under ``src/`` is modified, the functions are wrapped at
the module attributes their callers look them up through.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import resource
import sys
import time

# (module, attribute, span name).  The span name is the layer metric the
# call is charged to; stats.summaries includes lyapunov.clt_diagnostics
# because the heegaard subcommand uses it as a summary of its samples.
TRACED = (
    ("symwalk.walker", "make_family", "generators.resolve"),
    ("symwalk.walker", "symmetric_closure", "generators.resolve"),
    ("symwalk.cli", "make_family", "generators.resolve"),
    ("symwalk.walker", "sample_word", "walker.sample_word"),
    ("symwalk.walker", "word_product", "walker.word_product"),
    ("symwalk.cli", "torsion_order", "homology.torsion_order"),
    ("symwalk.cli", "mapping_torus_homology", "homology.torsion_order"),
    ("symwalk.cli", "heegaard_homology", "homology.heegaard"),
    ("symwalk.cli", "complexity_lower_bound", "homology.heegaard"),
    ("symwalk.cli", "fp_rank", "homology.fp_rank"),
    ("symwalk.cli", "exhaustive_sp2_oracle", "stats.oracle"),
    ("symwalk.cli", "summarize", "stats.summaries"),
    ("symwalk.cli", "linear_fit", "stats.summaries"),
    ("symwalk.cli", "empirical_rank_table", "stats.summaries"),
    ("symwalk.cli", "clt_diagnostics", "stats.summaries"),
    ("symwalk.cli", "estimate_exponents", "lyapunov.estimate"),
)

# Spans whose time is per-sample compute (numerator of pool efficiency).
PER_SAMPLE = ("walker.sample_word", "walker.word_product",
              "homology.torsion_order", "homology.heegaard",
              "homology.fp_rank", "lyapunov.estimate")


class Tracer:
    """In-memory spans: (name, parent index, start, end); -1 is no parent."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = {}          # span name -> [(args, result), ...]
        self.active = True

    def wrap(self, name, fn, keep=False):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, parent, start, end)
            if keep:
                self.calls.setdefault(name, []).append((args, result))
            return result
        return traced


def _nearest_rank(sorted_values, q):
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(tracer, root, pool):
    """Reduce the spans of one traced invocation to per-layer metrics."""
    total = {}
    children = 0.0
    durations = []
    for name, parent, start, end in tracer.spans:
        total[name] = total.get(name, 0.0) + (end - start)
        if parent == root:
            children += end - start
        if name == "walker.word_product":
            durations.append((end - start) * 1e3)
    durations.sort()
    _, _, start, end = tracer.spans[root]
    calls = tracer.calls
    products = [result for _, result in calls.get("walker.word_product", ())]
    bits = sorted(max(abs(x).bit_length() for row in m.rows for x in row)
                  for m in products)
    singular = sum(1 for _, t in calls.get("homology.torsion_order", ())
                   if getattr(t, "singular", False))
    matmuls = qr_calls = 0
    if calls.get("lyapunov.estimate"):
        from symwalk.lyapunov import BURN_IN, RENORM_EVERY
        for (_, steps, trials, _), _ in calls["lyapunov.estimate"]:
            matmuls += trials * (BURN_IN + steps)
            qr_calls += trials * (BURN_IN + math.ceil(steps / RENORM_EVERY))
    return {
        "generators.resolve_s": total.get("generators.resolve", 0.0),
        "walker.sample_word_s": total.get("walker.sample_word", 0.0),
        "walker.word_product_s": total.get("walker.word_product", 0.0),
        "walker.word_product_ms_p50": _nearest_rank(durations, 0.50),
        "walker.word_product_ms_p99": _nearest_rank(durations, 0.99),
        "walker.letters": sum(args[0].length for args, _ in
                              calls.get("walker.word_product", ())),
        "walker.product_bits_p50": _nearest_rank(bits, 0.50),
        "walker.product_bits_max": bits[-1] if bits else 0,
        "walker.pool_tasks": pool[0],
        "walker.pool_bytes": pool[1],
        "homology.torsion_order_s": total.get("homology.torsion_order", 0.0),
        "homology.singular_samples": singular,
        "homology.heegaard_s": total.get("homology.heegaard", 0.0),
        "homology.fp_rank_s": total.get("homology.fp_rank", 0.0),
        "stats.oracle_s": total.get("stats.oracle", 0.0),
        "stats.summaries_s": total.get("stats.summaries", 0.0),
        "lyapunov.estimate_s": total.get("lyapunov.estimate", 0.0),
        "lyapunov.matmuls": matmuls,
        "lyapunov.qr_calls": qr_calls,
        "cli.self_s": (end - start) - children,
        "per_sample_compute_s": sum(total.get(n, 0.0) for n in PER_SAMPLE),
    }


def pool_load(batch_calls, threads):
    """(tasks, bytes) that ``run_batch`` would send a pool of ``threads``
    workers: every sample is one task and ``pool.map`` pickles them in
    chunks.  Computed by rebuilding the task list, not by observing a pool."""
    if threads <= 1 or not batch_calls:
        return 0, 0
    from symwalk.walker import derive_seed
    tasks = bytes_ = 0
    for config, per_sample in batch_calls:
        family = config.resolve_family()
        batch = [(family, length, j,
                  derive_seed(config.master_seed, length, j), per_sample)
                 for length in config.length_values()
                 for j in range(config.samples_per_length)]
        chunk = max(1, len(batch) // (8 * threads))
        for i in range(0, len(batch), chunk):
            bytes_ += len(pickle.dumps(tuple((t,) for t in batch[i:i + chunk])))
        tasks += len(batch)
    return tasks, bytes_


class Progress:
    """Timestamps, with the CPU used so far, at progress events."""

    def __init__(self):
        self.points = []

    @staticmethod
    def point():
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        return [time.monotonic(),
                time.process_time() + reaped.ru_utime + reaped.ru_stime]

    def event(self):
        self.points.append(self.point())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--marks", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--pool-threads", type=int, default=1)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv
    sys.path.insert(0, opts.src)

    import importlib
    import symwalk.cli as cli
    import symwalk.lyapunov as lyapunov
    import symwalk.stats as stats
    import symwalk.walker as walker

    marks = {}
    batch_calls = []
    progress = Progress()

    def mark_setup():
        if "setup_done" not in marks:
            marks["setup_done"], marks["setup_cpu"] = progress.point()

    resolve_family = walker.BatchConfig.resolve_family

    def marked_resolve(self):
        family = resolve_family(self)
        mark_setup()
        return family

    run_batch = cli.run_batch

    def marked_run_batch(config, per_sample, threads=1):
        batch_calls.append((config, per_sample))
        # The caller zips records with their keys and never exhausts this
        # generator, so the mark is refreshed as each record arrives.
        for record in run_batch(config, per_sample, threads=threads):
            progress.event()
            marks["batch_done"] = time.monotonic()
            yield record

    def marked(fn):
        def wrapper(*args):
            progress.event()
            return fn(*args)
        return wrapper

    tracer = None
    if opts.trace:
        tracer = Tracer()
        keep = ("walker.word_product", "homology.torsion_order",
                "lyapunov.estimate")
        for module, attr, name in TRACED:
            mod = importlib.import_module(module)
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr),
                                           keep=name in keep))

    estimate = cli.estimate_exponents

    def marked_estimate(*args, **kwargs):
        mark_setup()
        result = estimate(*args, **kwargs)
        marks["batch_done"] = time.monotonic()
        return result

    walker.BatchConfig.resolve_family = marked_resolve
    cli.run_batch = marked_run_batch
    cli.estimate_exponents = marked_estimate
    lyapunov.derive_seed = marked(lyapunov.derive_seed)
    # One event per group element the exhaustive oracle visits; skipped if
    # the oracle no longer enumerates the group this way.
    if hasattr(stats, "_nullity_mod2"):
        stats._nullity_mod2 = marked(stats._nullity_mod2)

    if tracer is not None:
        root = tracer.wrap("cli.main", cli.main)
        code = root(argv)
        tracer.active = False
        pool = pool_load(batch_calls, opts.pool_threads)
        marks["layers"] = layer_metrics(tracer, 0, pool)
    else:
        code = cli.main(argv)
    marks["exit"] = code
    marks["progress"] = progress.points
    with open(opts.marks, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
