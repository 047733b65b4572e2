"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import os
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import run  # noqa: E402

# Small sample counts keep the traced tests quick; the counts are still
# exact work invariants at this size.
SMALL = {"torsion": 10, "modp": 40, "heegaard-stanek": 10, "lyapunov": 5}
EXACT = ("torsion", "modp", "heegaard-stanek")


def test_reference_generators_are_the_program_families():
    from symwalk.generators import make_family, symmetric_closure
    humphries = make_family("humphries", 2)
    assert [m.to_lists() for m in humphries.matrices] == checks.HUMPHRIES_G2
    assert ([m.to_lists() for m in symmetric_closure(humphries).matrices]
            == checks.symmetric(checks.HUMPHRIES_G2))
    stanek = make_family("stanek", 2)
    assert [m.to_lists() for m in stanek.matrices] == checks.STANEK_2


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_output_gate_at_recorded_seed(name):
    reference = checks.load_reference()
    workload = run.WORKLOADS[name]
    inv = run.invoke(workload, reference["seed"], workload.threads())
    assert inv.code == 0, inv.stderr
    assert run.check_csv(name, reference["seed"], inv.csv, workload.samples,
                         reference) == []


@pytest.mark.parametrize("name", EXACT)
def test_spot_check_catches_a_changed_value(name):
    reference = checks.load_reference()
    workload = run.WORKLOADS[name]
    inv = run.invoke(workload, 5, 1, samples=SMALL[name])
    assert run.check_csv(name, 5, inv.csv, SMALL[name], reference) == []
    lines = inv.csv.splitlines()
    row = 1 + checks.spot_rows(5, len(lines) - 1)[0]
    fields = lines[row].split(",")
    fields[-1] = "7"
    lines[row] = ",".join(fields)
    bad = "\n".join(lines) + "\n"
    assert run.check_csv(name, 5, bad, SMALL[name], reference)


def test_lyapunov_check_catches_a_broken_pairing():
    reference = checks.load_reference()
    exps = reference["lyapunov"]["exponents"]
    errs = reference["lyapunov"]["standard_error"]
    rows = ["exponent_index,value,standard_error"] + [
        "%d,%r,%r" % (i, e + (0.01 if i == 0 else 0.0), s)
        for i, (e, s) in enumerate(zip(exps, errs))]
    assert checks.check_lyapunov("\n".join(rows) + "\n", reference)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_csv_is_byte_identical_and_counts_repeat(name):
    """Two traced invocations at each of two seeds: the traced CSV equals
    the untraced one, and the work counts repeat exactly."""
    workload = run.WORKLOADS[name]
    counts = {}
    for seed in (3, 11):
        plain = run.invoke(workload, seed, 1, samples=SMALL[name])
        traced = [run.invoke(workload, seed, 1, trace=True,
                             samples=SMALL[name]) for _ in range(2)]
        assert all(inv.code == 0 for inv in [plain] + traced)
        assert all(inv.csv == plain.csv for inv in traced)
        first, second = ({k: inv.layers[k] for k in run.INVARIANTS}
                         for inv in traced)
        assert first == second
        counts[seed] = first
    # these do not depend on the seed at all
    for key in ("walker.letters", "walker.pool_tasks", "lyapunov.matmuls",
                "lyapunov.qr_calls"):
        assert counts[3][key] == counts[11][key]
    if name == "lyapunov":
        assert counts[3]["lyapunov.matmuls"] > 0
    else:
        assert counts[3]["walker.letters"] > 0
        assert counts[3]["walker.product_bits_max"] > 0
    if workload.threads() > 1:
        assert counts[3]["walker.pool_bytes"] > 0


# Progress phases of one invocation: setup, one per record (per trial for
# lyapunov), one per Sp(4, F_2) element the modp oracle visits, the tail.
PHASES = {"torsion": 9 * SMALL["torsion"] + 2,
          "modp": SMALL["modp"] + 720 + 2,
          "heegaard-stanek": 5 * SMALL["heegaard-stanek"] + 2,
          "lyapunov": SMALL["lyapunov"] + 2}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_invocations_of_one_seed_have_the_same_phases(name):
    workload = run.WORKLOADS[name]
    invs = [run.invoke(workload, 4, 1, samples=SMALL[name])
            for _ in range(2)]
    assert [len(inv.phases) for inv in invs] == [PHASES[name]] * 2
    assert run.phase_mismatches(invs) == []
    for inv in invs:
        assert all(wall >= 0 and cpu >= 0 for wall, cpu in inv.phases)
        assert sum(wall for wall, _ in inv.phases) == pytest.approx(
            inv.wall_s)
        assert sum(cpu for _, cpu in inv.phases) == pytest.approx(inv.cpu_s)


def _fake(phases, code=0):
    return run.Invocation(
        code=code, traced=False, samples=4, wall_s=sum(w for w, _ in phases),
        setup_s=phases[0][0], batch_s=0.0, cpu_s=sum(c for _, c in phases),
        maxrss_kb=1024, phases=phases, csv="", bytes_written=0, layers={},
        stderr="")


def test_end_to_end_metrics_take_the_fastest_time_of_each_phase():
    a = _fake([(0.3, 0.2), (1.0, 1.0), (4.0, 4.0), (1.0, 0.5)])
    b = _fake([(0.5, 0.4), (3.0, 3.0), (2.0, 2.0), (1.0, 1.0)])
    metrics = run.end_to_end_metrics([a, b])
    assert metrics["setup_s"] == pytest.approx(0.4)
    assert metrics["samples_per_s"] == pytest.approx(4 / (1.0 + 2.0 + 1.0))
    assert metrics["cpu_ms_per_sample"] == pytest.approx(
        (0.2 + 1.0 + 2.0 + 0.5) * 1e3 / 4)
    assert metrics["peak_rss_mb"] == 1.0
    assert run.phase_mismatches([a, _fake([(0.3, 0.2), (1.0, 1.0)])])


def test_invoke_for_keeps_lanes_busy_until_time_is_up():
    active, peak = [0], [0]
    lock = threading.Lock()

    def call(value):
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        time.sleep(0.05)
        with lock:
            active[0] -= 1
        return value

    assert run.invoke_for(0, 2, call, 7) == [7] * run.MIN_INVOCATIONS
    start = time.monotonic()
    results = run.invoke_for(0.3, 2, call, 7)
    assert time.monotonic() - start >= 0.3
    assert len(results) >= 6 and peak[0] == 2


def test_runner_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "torsion", "--seed", "1",
                     "--seconds", "1"]) == 2


@pytest.mark.parametrize("trace", (False, True))
def test_one_run_reports_every_listed_metric(trace):
    report, result = run.run("modp", 3, 0, trace, samples=SMALL["modp"])
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and report["error_rate"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert [(m, v["unit"]) for m, v in result["metrics"].items()] == \
        run.spec_metrics(kind)
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert set(report["env"]) >= {"nproc", "THREADS", "python", "numpy",
                                  "cpu", "loadavg_start", "loadavg_end"}
