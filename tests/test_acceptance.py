"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the same condition, so the suite doubles as a
human-readable scorecard.  Tolerances are fixed; seeds are fixed so every
run reproduces the same numbers.
"""

import math
import random
from pathlib import Path

import pytest

from oracles import aperiodic_sl2, aperiodic_sp4, naive_snf, random_int_matrix
from symwalk.cli import main as cli_main
from symwalk.generators import humphries_symplectic, stanek
from symwalk.homology import (DivisorChain, fp_rank, heegaard_homology,
                              mapping_torus_homology, smith_normal_form,
                              torsion_order)
from symwalk.intmat import IntMatrix, identity
from symwalk.lyapunov import estimate_exponents
from symwalk.prescribe import prescribe_symplectic, verify_prescription
from symwalk.punctured import run_scaling_experiment
from symwalk.stats import (clt_diagnostics, empirical_rank_table, linear_fit,
                           total_variation, walk_closure)
from symwalk.walker import BatchConfig, derive_seed, run_batch, sample_word

MASTER_SEED = 20240817


def _report(tag, ok, detail):
    print("ACCEPTANCE %-28s %s  (%s)" % (tag, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (tag, detail)


def _log_torsion(sample):
    t = torsion_order(sample.product)
    return math.log(t.value) if t.value > 1 else 0.0


def _torsion_slope(genus, seed):
    cfg = BatchConfig("humphries", genus, (100, 500, 50), 200, seed)
    by_len = {}
    for length, _, logt in run_batch(cfg, _log_torsion):
        by_len.setdefault(length, []).append(logt)
    xs = sorted(by_len)
    ys = [sum(by_len[n]) / len(by_len[n]) for n in xs]
    return linear_fit(xs, ys)


@pytest.fixture(scope="module")
def slope_g2():
    return _torsion_slope(2, MASTER_SEED)


@pytest.fixture(scope="module")
def lyapunov_g2():
    return estimate_exponents(humphries_symplectic(2), steps=2000,
                              trials=100, seed=MASTER_SEED)


def test_criterion_01_torsion_growth_genus2(slope_g2):
    ok = 0.137 <= slope_g2.slope <= 0.167
    _report("torsion-slope-genus2", ok,
            "slope=%.5f target [0.137, 0.167]" % slope_g2.slope)


def test_criterion_02_torsion_growth_genus3():
    fit = _torsion_slope(3, MASTER_SEED)
    ok = 0.147 <= fit.slope <= 0.180
    _report("torsion-slope-genus3", ok,
            "slope=%.5f target [0.147, 0.180]" % fit.slope)


def test_criterion_03_stanek_torsion_rate():
    fam = stanek(2)
    length = 2000
    total = 0.0
    for j in range(100):
        sample = sample_word(fam, length, derive_seed(MASTER_SEED, length, j))
        t = torsion_order(sample.product)
        total += math.log(t.value) if t.value > 1 else 0.0
    rate = total / 100 / length
    ok = 0.119 <= rate <= 0.146
    _report("stanek-sp4-rate", ok,
            "rate=%.5f target [0.119, 0.146]" % rate)


def test_criterion_04_clt_log_torsion():
    cfg = BatchConfig("humphries", 2, (500, 500, 1), 500, MASTER_SEED + 1)
    samples = [logt for _, _, logt in run_batch(cfg, _log_torsion)]
    d = clt_diagnostics(samples)
    ok = (abs(d.skewness) < 0.25 and abs(d.excess_kurtosis) < 0.5
          and d.ks_statistic_vs_normal < 0.06)
    _report("clt-log-torsion", ok,
            "skew=%.3f exkurt=%.3f ks=%.3f limits 0.25/0.5/0.06"
            % (d.skewness, d.excess_kurtosis, d.ks_statistic_vs_normal))


def _betti_record(sample):
    return mapping_torus_homology(sample.product).betti


def test_criterion_05_generic_betti_one():
    cfg = BatchConfig("humphries", 2, (200, 200, 1), 1000, MASTER_SEED + 2)
    bettis = [b for _, _, b in run_batch(cfg, _betti_record)]
    frac = sum(1 for b in bettis if b > 1) / len(bettis)
    ok = frac <= 0.01
    _report("generic-betti-one", ok,
            "fraction betti>1 = %.4f limit 0.01" % frac)


def test_criterion_06_modp_equidistribution():
    cases = [
        ("SL2/F2", aperiodic_sl2(), 2),
        ("SL2/F3", aperiodic_sl2(), 3),
        ("Sp4/F2", aperiodic_sp4(), 2),
    ]
    details = []
    ok = True
    for tag, fam, p in cases:
        length = 500
        ranks = [fp_rank(sample_word(fam, length,
                                     derive_seed(MASTER_SEED + 3, length, j)
                                     ).product, p)
                 for j in range(2000)]
        law = walk_closure(fam, p).rank_law(length)
        tv = total_variation(empirical_rank_table(ranks), law)
        details.append("%s tv=%.4f" % (tag, tv))
        ok = ok and tv <= 0.05
        if tag == "SL2/F2":
            ev1 = sum(1 for r in ranks if r >= 2) / len(ranks)
            exact = float(1 - law[1])
            details.append("ev1=%.4f (exact %.4f)" % (ev1, exact))
            ok = ok and abs(ev1 - exact) < 0.04
    _report("modp-equidistribution", ok,
            "; ".join(details) + "; limit tv<=0.05")


def test_criterion_07_prescription_round_trip():
    worked = [
        ((1, 1), IntMatrix(((-1, 1), (-3, 2)))),
        ((2, 6), IntMatrix(((-13, 2), (-20, 3)))),
        ((2, 4), IntMatrix(((-9, 2), (-14, 3)))),
    ]
    ok = all(prescribe_symplectic(DivisorChain(ch)) == m for ch, m in worked)
    rng = random.Random(MASTER_SEED)
    checked = 0
    for _ in range(50):
        g = rng.randint(1, 4)
        ds = []
        cur = 1
        for _ in range(2 * g):
            nxt = cur * rng.randint(1, 5)
            cur = nxt if nxt <= 100 else cur
            ds.append(cur)
        chain = DivisorChain(tuple(ds))
        m = prescribe_symplectic(chain)
        if not verify_prescription(m, chain):
            ok = False
            break
        checked += 1
    _report("prescribed-homology", ok,
            "3 worked blocks exact, %d/50 random chains verified" % checked)


def test_criterion_08_lyapunov_matches_torsion_slope(slope_g2, lyapunov_g2):
    rel = abs(lyapunov_g2.positive_sum - slope_g2.slope) / slope_g2.slope
    ok = rel < 0.10
    _report("lyapunov-vs-torsion", ok,
            "positive_sum=%.5f slope=%.5f rel_diff=%.3f limit 0.10"
            % (lyapunov_g2.positive_sum, slope_g2.slope, rel))


def test_criterion_09_symplectic_pairing(lyapunov_g2):
    ok = True
    details = []
    for g, est in ((2, lyapunov_g2),
                   (3, estimate_exponents(humphries_symplectic(3), steps=2000,
                                          trials=100, seed=MASTER_SEED))):
        dim = 2 * g
        for i in range(g):
            lo, hi = est.exponents[dim - 1 - i], est.exponents[i]
            tol = 3 * (est.standard_error[i] + est.standard_error[dim - 1 - i])
            if abs(hi + lo) > tol:
                ok = False
            details.append("g%d pair%d |sum|=%.2e tol=%.2e"
                           % (g, i, abs(hi + lo), tol))
        total_tol = 3 * max(est.standard_error) * dim
        if abs(sum(est.exponents)) > total_tol:
            ok = False
    _report("lyapunov-pairing", ok, "; ".join(details))


def test_criterion_10_snf_against_oracle():
    rng = random.Random(MASTER_SEED)
    mismatches = 0
    for _ in range(1000):
        m = random_int_matrix(rng, 6)
        if smith_normal_form(m).divisors != naive_snf(m):
            mismatches += 1
    ok = mismatches == 0
    _report("snf-oracle-agreement", ok,
            "%d/1000 mismatches on random 6x6" % mismatches)


def _heegaard_log(sample):
    t = heegaard_homology(sample.product).torsion_order
    return math.log(t) if t > 1 else 0.0


def test_criterion_11_heegaard_growth():
    cfg = BatchConfig("humphries", 2, (100, 500, 100), 300, MASTER_SEED + 4)
    by_len = {}
    for length, _, logh in run_batch(cfg, _heegaard_log):
        by_len.setdefault(length, []).append(logh)
    xs = sorted(by_len)
    fit = linear_fit(xs, [sum(by_len[n]) / len(by_len[n]) for n in xs])
    d = clt_diagnostics(by_len[500])
    ident = heegaard_homology(identity(4))
    ok = (fit.slope > 0 and fit.r_squared > 0.98
          and abs(d.skewness) < 0.25 and abs(d.excess_kurtosis) < 0.5
          and d.ks_statistic_vs_normal < 0.06
          and ident.betti == 2 and ident.torsion == ())
    _report("heegaard-growth", ok,
            "slope=%.4f r2=%.4f skew=%.3f exkurt=%.3f ks=%.3f identity betti=%d"
            % (fit.slope, fit.r_squared, d.skewness, d.excess_kurtosis,
               d.ks_statistic_vs_normal, ident.betti))


def test_criterion_12_longest_run_scaling():
    lengths = [2 ** k for k in range(10, 17)]
    res = run_scaling_experiment(2, lengths, samples=60, seed=MASTER_SEED)
    target = 1 / math.log(2)
    rel = abs(res.fit.slope - target) / target
    ok = rel < 0.15 and res.fit.r_squared > 0.95
    _report("run-scaling", ok,
            "slope=%.4f target=%.4f rel=%.3f r2=%.4f limits 0.15/0.95"
            % (res.fit.slope, target, rel, res.fit.r_squared))


def test_criterion_13_manifest_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THREADS", "1")
    invocations = [
        ["torsion-stats", "--family", "humphries", "--genus", "2",
         "--lengths", "40:80:40", "--samples", "4", "--seed", "11"],
        ["modp-rank", "--family", "humphries", "--genus", "2",
         "--lengths", "50", "--samples", "10", "--seed", "12",
         "--primes", "2,3", "--mode", "symmetric"],
        ["heegaard", "--family", "humphries", "--genus", "2",
         "--lengths", "40:80:40", "--samples", "4", "--seed", "13"],
        ["lyapunov", "--family", "humphries", "--genus", "2",
         "--steps", "200", "--trials", "3", "--seed", "14"],
        ["punctured", "--alphabet", "2", "--lengths", "64,256",
         "--samples", "5", "--seed", "15"],
        ["prescribe", "2,6"],
    ]
    ok = True
    details = []
    for argv in invocations:
        first = tmp_path / (argv[0] + "_a")
        second = tmp_path / (argv[0] + "_b")
        code = cli_main(argv + ["--out", str(first)])
        out = capsys.readouterr().out.strip().splitlines()
        csv1, manifest1 = out[-2], out[-1]
        assert code == 0
        code = cli_main([argv[0], "--config", manifest1,
                         "--out", str(second)])
        out = capsys.readouterr().out.strip().splitlines()
        csv2 = out[-2]
        assert code == 0
        same = Path(csv1).read_text() == Path(csv2).read_text()
        ok = ok and same
        details.append("%s=%s" % (argv[0], "ok" if same else "DIFF"))
    _report("manifest-determinism", ok, " ".join(details))
