import json
from dataclasses import asdict
from pathlib import Path

import pytest

from symwalk import __version__
from symwalk.cli import (COMMANDS, FLOAT, ConfigError, _ModpRecord, main,
                         parse_lengths, threads_from_env)
from symwalk.generators import group_order, hua_reiner, symmetric_closure
from symwalk.homology import fp_rank
from symwalk.stats import clt_diagnostics, walk_closure
from symwalk.walker import BatchConfig, derive_seed, sample_word, word_product
from test_imports import fresh


@pytest.fixture(autouse=True)
def _single_thread(monkeypatch):
    monkeypatch.setenv("THREADS", "1")


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, out


def test_fmt_round_trips():
    for x in (0.1, 1 / 3, 12345.678901234567, -0.0):
        assert float(FLOAT % x) == x
    assert FLOAT % 1.0 == "1"


def test_parse_lengths():
    assert parse_lengths("100:500:50") == (100, 500, 50)
    assert parse_lengths("100:500") == (100, 500, 1)
    assert parse_lengths("250") == (250, 250, 1)
    with pytest.raises(ConfigError):
        parse_lengths("a:b")
    with pytest.raises(ConfigError):
        parse_lengths("1:2:3:4")


def test_threads_from_env(monkeypatch):
    monkeypatch.setenv("THREADS", "4")
    assert threads_from_env() == 4
    monkeypatch.setenv("THREADS", "0")
    assert threads_from_env() == 1
    monkeypatch.setenv("THREADS", "zoo")
    with pytest.raises(ConfigError,
                       match=r"^THREADS must be an integer, got 'zoo'$"):
        threads_from_env()


def test_torsion_stats_writes_csv_and_manifest(tmp_path, capsys):
    code, out = _run(capsys, [
        "torsion-stats", "--family", "humphries", "--genus", "2",
        "--lengths", "50:100:50", "--samples", "3", "--seed", "9",
        "--out", str(tmp_path)])
    assert code == 0
    csv_path, manifest_path = out
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "length,sample_index,log_torsion,betti,singular"
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("50,0,")
    manifest = json.loads(Path(manifest_path).read_text())
    assert manifest["command"] == "torsion-stats"
    assert manifest["config"]["samples"] == 3
    assert set(manifest["per_length"]) == {"50", "100"}


def test_manifest_rerun_reproduces_csv(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    code, paths = _run(capsys, [
        "torsion-stats", "--family", "hua-reiner", "--n", "3",
        "--lengths", "40:80:40", "--samples", "4", "--seed", "123",
        "--out", str(out1)])
    assert code == 0
    code, paths2 = _run(capsys, [
        "torsion-stats", "--config", paths[1], "--out", str(out2)])
    assert code == 0
    assert Path(paths[0]).read_text() == Path(paths2[0]).read_text()


def test_modp_rank_with_oracle_table(tmp_path, capsys):
    code, out = _run(capsys, [
        "modp-rank", "--family", "humphries", "--genus", "2",
        "--lengths", "60", "--samples", "20", "--seed", "4",
        "--primes", "2,3", "--mode", "symmetric", "--out", str(tmp_path)])
    assert code == 0
    lines = Path(out[0]).read_text().splitlines()
    assert lines[0] == "length,sample_index,p,fp_rank"
    assert len(lines) == 1 + 20 * 2
    manifest = json.loads(Path(out[1]).read_text())
    tables = manifest["rank_tables"]
    assert set(tables) == {"2", "3"}
    # genus 2 mod 2 has an exact enumerated prediction; mod 3 does not
    assert tables["2"]["predicted"]
    assert "total_variation" in tables["2"]
    assert tables["3"]["predicted"] == {}


@pytest.mark.parametrize("family, param, mode, p, closed", [
    ("humphries", 2, "symmetric", 2, True),     # Sp(4, F_2), the default
    # SL(3, F_2); hru2 agrees with its inverse mod 2: letter weights 1, 1, 2
    ("hua-reiner", 3, "symmetric", 2, True),
    ("humphries", 2, "positive-only", 2, True),  # no inverse letters
    ("humphries", 2, "symmetric", 3, False),    # Sp(4, F_3): over the bound
    ("stanek", 2, "symmetric", 2, True),        # signed permutations, -1
    ("hua-reiner", 2, "symmetric", 7, True),    # SL(2, F_7), an odd p
    ("hua-reiner", 3, "positive-only", 3, True),    # SL(3, F_3), 5616
], ids=["humphries2-sym-p2", "hua-reiner3-sym-p2", "humphries2-p2",
        "humphries2-sym-p3", "stanek2-sym-p2", "hua-reiner2-sym-p7",
        "hua-reiner3-p3"])
def test_modp_record_ranks_equal_exact_ranks(family, param, mode, p, closed):
    walked = BatchConfig(family, param, (1, 1, 1), 1, 0, mode).resolve_family()
    record = _ModpRecord(walked, [p], [group_order(family, param, p)])
    assert (record.closures[0] is not None) == closed
    for length in (1, 2, 129):
        for j in range(20):
            sample = sample_word(walked, length, derive_seed(7, length, j))
            assert record(sample) == (fp_rank(word_product(sample), p),)


def test_modp_rank_builds_no_product_where_the_closure_serves(tmp_path,
                                                               capsys,
                                                               monkeypatch):
    def no_product(word):
        raise RuntimeError("exact product built")

    monkeypatch.setattr("symwalk.walker.word_product", no_product)
    argv = ["modp-rank", "--lengths", "40", "--samples", "5",
            "--out", str(tmp_path)]
    code, _ = _run(capsys, argv + ["--primes", "2"])
    assert code == 0
    # Sp(4, F_3) is over GROUP_ORDER_BOUND: p = 3 needs the exact product
    assert main(argv + ["--primes", "3"]) == 4
    assert capsys.readouterr().err == (
        "internal error: batch sample (length=40, index=0) failed: "
        "exact product built\n")


def test_modp_rank_builds_one_product_per_sample(tmp_path, capsys,
                                                 monkeypatch):
    calls = []

    def counting(word):
        calls.append(word)
        return word_product(word)

    monkeypatch.setattr("symwalk.walker.word_product", counting)
    # Sp(4, F_3) and Sp(4, F_5) are both over GROUP_ORDER_BOUND: one exact
    # product per sample serves both primes, read through the module
    # global that bench/child.py wraps
    code, _ = _run(capsys, ["modp-rank", "--lengths", "20:40:20",
                            "--samples", "3", "--primes", "3,5",
                            "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 6


def test_a_symmetric_run_closes_its_family_once(tmp_path, capsys,
                                                monkeypatch):
    calls = []

    def counting(family):
        calls.append(family)
        return symmetric_closure(family)

    monkeypatch.setattr("symwalk.walker.symmetric_closure", counting)
    code, _ = _run(capsys, ["torsion-stats", "--mode", "symmetric",
                            "--lengths", "5", "--samples", "2",
                            "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1


def test_modp_rank_samples_the_family_its_closures_walk(tmp_path, capsys,
                                                        monkeypatch):
    closed, sampled = [], []

    def closing(family, p, order):
        closed.append(family)
        return walk_closure(family, p, order)

    def sampling(family, length, seed):
        sampled.append(family)
        return sample_word(family, length, seed)

    monkeypatch.setattr("symwalk.cli.walk_closure", closing)
    monkeypatch.setattr("symwalk.walker.sample_word", sampling)
    code, _ = _run(capsys, ["modp-rank", "--lengths", "5", "--samples", "2",
                            "--primes", "2,3", "--out", str(tmp_path)])
    assert code == 0
    assert len(closed) == 2 and len(sampled) == 2
    assert all(family is closed[0] for family in closed + sampled)


def _csv_at_each_thread_count(tmp_path, capsys, monkeypatch, argv):
    csvs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("THREADS", threads)
        code, out = _run(capsys, argv + ["--out", str(tmp_path / threads)])
        assert code == 0
        csvs.append(Path(out[0]).read_bytes())
    return csvs


def test_modp_rank_csv_is_independent_of_threads(tmp_path, capsys,
                                                 monkeypatch):
    # the pickled record carries the closure tables to the pool workers
    csvs = _csv_at_each_thread_count(tmp_path, capsys, monkeypatch, [
        "modp-rank", "--lengths", "1:129:64", "--samples", "12",
        "--primes", "2,3"])
    assert csvs[0] == csvs[1]


# Batch runs at families, modes and sizes that no other case here runs
BATCH_RUNS = [
    pytest.param(["torsion-stats", "--family", "hua-reiner", "--genus", "3",
                  "--mode", "symmetric", "--samples", "3", "--lengths", "5"],
                 id="torsion-stats-hua-reiner3-sym"),
    # products of 600 letters cross two re-packing edges
    pytest.param(["torsion-stats", "--genus", "3", "--mode", "symmetric",
                  "--samples", "3", "--lengths", "600"],
                 id="torsion-stats-humphries3-sym-L600"),
    pytest.param(["heegaard", "--family", "stanek", "--genus", "2",
                  "--samples", "3", "--lengths", "600"],
                 id="heegaard-stanek2-L600"),
    pytest.param(["heegaard", "--family", "stanek", "--genus", "4",
                  "--samples", "3", "--lengths", "5"], id="heegaard-stanek4"),
    # 2**61 - 1: a prime far over the group bound, so an exact product
    pytest.param(["modp-rank", "--family", "stanek", "--genus", "2",
                  "--mode", "symmetric", "--samples", "3", "--lengths", "5",
                  "--primes", "2,2305843009213693951"],
                 id="modp-rank-stanek2-sym-p2**61-1"),
    pytest.param(["modp-rank", "--mode", "symmetric", "--lengths", "500",
                  "--samples", "3"], id="modp-rank-sym-L500"),
    # SL(3, F_3): a closure of 5616 elements, within the group bound
    pytest.param(["modp-rank", "--family", "hua-reiner", "--genus", "3",
                  "--primes", "3", "--samples", "3", "--lengths", "6"],
                 id="modp-rank-hua-reiner3-p3"),
]


@pytest.mark.parametrize("argv", [
    pytest.param(["torsion-stats", "--lengths", "1:257:128", "--samples", "6"],
                 id="torsion-stats"),
    pytest.param(["heegaard", "--family", "stanek", "--genus", "2",
                  "--lengths", "1:257:128", "--samples", "6"], id="heegaard"),
] + BATCH_RUNS)
def test_exact_csv_is_independent_of_threads(tmp_path, capsys, monkeypatch,
                                             argv):
    # each pool worker compiles its own product kernels from the pickled
    # family
    csvs = _csv_at_each_thread_count(tmp_path, capsys, monkeypatch, argv)
    assert csvs[0] == csvs[1]


def _hua_reiner_rank_table(tmp_path, capsys, n, p=2):
    code, out = _run(capsys, [
        "modp-rank", "--family", "hua-reiner", "--genus", str(n),
        "--lengths", "20", "--samples", "5", "--seed", "1",
        "--primes", str(p), "--out", str(tmp_path)])
    assert code == 0
    return json.loads(Path(out[1]).read_text())["rank_tables"][str(p)]


def test_modp_rank_predicts_the_law_of_its_own_walk(tmp_path, capsys):
    # modp-rank walks the symmetric closure of hua-reiner n=3 in SL(3, Z);
    # mod 2 its group is SL(3, F_2)
    table = _hua_reiner_rank_table(tmp_path, capsys, 3)
    law = walk_closure(symmetric_closure(hua_reiner(3)), 2).rank_law(20)
    assert table["predicted"] == {str(r): float(q) for r, q in law.items()}
    assert "total_variation" in table


def test_modp_rank_predicts_nothing_over_the_group_bound(tmp_path, capsys):
    # SL(4, F_2) has 20160 elements, more than GROUP_ORDER_BOUND, and
    # SL(2, F_23) 12144, just more: a bound of 11**4 would predict its law
    for n, p in ((4, 2), (2, 23)):
        table = _hua_reiner_rank_table(tmp_path / str(n), capsys, n, p)
        assert table["predicted"] == {}
        assert "total_variation" not in table


def test_modp_rank_over_the_bound_closes_no_group(tmp_path, capsys,
                                                  monkeypatch):
    # |SL(4, F_2)| = 20160 comes from the closed form, not from a search
    def no_walk(family):
        raise AssertionError("closure searched")

    monkeypatch.setattr("symwalk.stats._family_kernels", no_walk)
    table = _hua_reiner_rank_table(tmp_path, capsys, 4)
    assert table["predicted"] == {}


def test_modp_rank_rejects_composite_prime(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "modp-rank", "--family", "humphries", "--genus", "2",
        "--lengths", "10", "--samples", "1", "--seed", "1",
        "--primes", "4", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "config error: 4 is not prime\n"
    assert not out.exists()


def test_heegaard_outputs(tmp_path, capsys):
    code, out = _run(capsys, [
        "heegaard", "--family", "humphries", "--genus", "2",
        "--lengths", "50:100:50", "--samples", "5", "--seed", "2",
        "--out", str(tmp_path)])
    assert code == 0
    lines = Path(out[0]).read_text().splitlines()
    assert lines[0] == "length,sample_index,log_h1,betti,complexity_lower_bound"
    manifest = json.loads(Path(out[1]).read_text())
    assert manifest["genus"] == 2
    # too few samples at the top length for diagnostics
    assert manifest["clt_diagnostics"] is None


def test_heegaard_diagnoses_the_log_h1_of_its_top_length(tmp_path, capsys):
    code, out = _run(capsys, ["heegaard", "--samples", "30", "--lengths",
                              "20", "--out", str(tmp_path)])
    assert code == 0
    header, *lines = Path(out[0]).read_text().splitlines()
    i = header.split(",").index("log_h1")
    log_h1 = [float(line.split(",")[i]) for line in lines]
    manifest = json.loads(Path(out[1]).read_text())
    assert manifest["clt_diagnostics_at_length"] == 20
    assert manifest["clt_diagnostics"] == asdict(clt_diagnostics(log_h1))


def test_heegaard_constant_top_length_has_no_diagnostics(tmp_path, capsys):
    # every genus-2 Humphries generator gives trivial torsion, so all 30
    # log_h1 at length 1 are 0 and have no CLT shape to diagnose
    code, out = _run(capsys, [
        "heegaard", "--lengths", "1", "--samples", "30",
        "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads(Path(out[1]).read_text())
    assert manifest["per_length"]["1"]["variance"] == 0.0
    assert manifest["clt_diagnostics"] is None


def test_heegaard_rejects_nonsymplectic_family(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "heegaard", "--family", "hua-reiner", "--n", "3",
        "--lengths", "10", "--samples", "1", "--seed", "1",
        "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: heegaard needs a symplectic family")
    assert err.count("\n") == 1
    assert not out.exists()


def test_lyapunov_outputs(tmp_path, capsys):
    code, out = _run(capsys, [
        "lyapunov", "--family", "humphries", "--genus", "2",
        "--steps", "200", "--trials", "2", "--seed", "3",
        "--out", str(tmp_path)])
    assert code == 0
    lines = Path(out[0]).read_text().splitlines()
    assert lines[0] == "exponent_index,value,standard_error"
    assert len(lines) == 5
    manifest = json.loads(Path(out[1]).read_text())
    assert len(manifest["exponents"]) == 4
    assert manifest["exponents"] == sorted(manifest["exponents"], reverse=True)


def test_a_failed_prescription_check_is_internal(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr("symwalk.cli.verify_prescription",
                        lambda m, chain: False)
    out = tmp_path / "out"
    assert main(["prescribe", "2,6", "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "internal error: prescription verification failed\n")
    assert not out.exists()


def test_prescribe_outputs(tmp_path, capsys):
    code, out = _run(capsys, ["prescribe", "2,6", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads(Path(out[1]).read_text())
    assert manifest["matrix"] == [[-13, 2], [-20, 3]]
    assert manifest["verification"] is True
    assert manifest["snf_of_m_minus_i"] == [2, 6]
    lines = Path(out[0]).read_text().splitlines()
    assert lines[0] == "row,c0,c1"
    assert lines[1] == "0,-13,2"


def test_punctured_outputs(tmp_path, capsys):
    code, out = _run(capsys, [
        "punctured", "--alphabet", "2", "--lengths", "64,256",
        "--samples", "5", "--seed", "8", "--out", str(tmp_path)])
    assert code == 0
    lines = Path(out[0]).read_text().splitlines()
    assert lines[0] == "length,mean_longest_run"
    assert len(lines) == 3
    manifest = json.loads(Path(out[1]).read_text())
    assert manifest["fit_vs_log_length"]["slope"] > 0


def test_snf_is_not_a_subcommand(tmp_path, capsys):
    # smith_normal_form gives a Smith form to any caller; the CLI runs
    # only the experiments
    with pytest.raises(SystemExit) as exc:
        main(["snf", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'snf'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_json_format_output(tmp_path, capsys):
    code, out = _run(capsys, [
        "torsion-stats", "--family", "humphries", "--genus", "2",
        "--lengths", "30", "--samples", "2", "--seed", "0",
        "--format", "json", "--out", str(tmp_path)])
    assert code == 0
    assert out[0].endswith(".json")
    records = json.loads(Path(out[0]).read_text())
    assert len(records) == 2
    assert set(records[0]) == {"length", "sample_index", "log_torsion",
                               "betti", "singular"}
    assert all(type(r["singular"]) is int and r["singular"] in (0, 1)
               for r in records)


def _field(text):
    """A CSV field as the number it renders: an int for ``%d``, a float
    for ``%.17g``."""
    try:
        return int(text)
    except ValueError:
        return float(text)


@pytest.mark.parametrize("argv", [
    ["torsion-stats", "--lengths", "5:10:5", "--samples", "2"],
    ["modp-rank", "--lengths", "5", "--samples", "3", "--primes", "2,3"],
    ["heegaard", "--lengths", "5:10:5", "--samples", "2"],
    ["lyapunov", "--steps", "100", "--trials", "2"],
    ["punctured", "--lengths", "64,128", "--samples", "2"],
    ["prescribe", "2,6"],
] + BATCH_RUNS + [
    # the last block of a trial is one letter (101) or three (103); g3 is
    # a 6 x 6 frame
    pytest.param(["lyapunov", "--family", "stanek", "--genus", "2",
                  "--steps", "101", "--trials", "3"], id="lyapunov-stanek2"),
    pytest.param(["lyapunov", "--genus", "3", "--steps", "100",
                  "--trials", "2"], id="lyapunov-humphries3"),
    pytest.param(["lyapunov", "--family", "hua-reiner", "--genus", "3",
                  "--steps", "103", "--trials", "2"],
                 id="lyapunov-hua-reiner3"),
    pytest.param(["punctured", "--alphabet", "255", "--lengths", "64,128",
                  "--samples", "2"], id="punctured-alphabet255"),
], ids=lambda argv: argv[0])
def test_json_records_are_the_csv_rows(tmp_path, capsys, argv):
    data = {}
    for kind in ("csv", "json"):
        code, out = _run(capsys, argv + ["--format", kind,
                                         "--out", str(tmp_path / kind)])
        assert code == 0
        data[kind] = Path(out[0]).read_text()
    header, *lines = data["csv"].splitlines()
    records = json.loads(data["json"])
    assert type(records) is list and len(records) == len(lines) > 0
    for record, line in zip(records, lines):
        assert list(record) == header.split(",")
        for value, text in zip(record.values(), line.split(",")):
            assert type(value) in (int, float)
            assert value == _field(text)


# Every run that must fail: (argv, exit code, text its one stderr line
# holds).  Exit 2 is a config error and 3 an i/o error, and the line
# starts with that prefix; a text that starts with the prefix pins the
# line from its start.  An argv item of bytes is written to a file, and
# None stands for a file that does not exist; either item becomes the
# file's path, which the text names where it has {}.  A row whose
# behaviour is gone stays as RETIRED, so every later row keeps its name.
RETIRED = None
ERRORS = [
    (["modp-rank", "--primes", "x"], 2, "'x'"),
    (["punctured", "--lengths", "x"], 2, "'x'"),
    (["prescribe", "x"], 2, "'x'"),
    (["torsion-stats", "--family", "nope"], 2, "'nope'"),
    (["heegaard", "--family", "nope"], 2, "'nope'"),
    (["modp-rank", "--family", "nope"], 2, "'nope'"),
    (["torsion-stats", "--genus", "1"], 2, "got 1"),
    (["modp-rank", "--genus", "1"], 2, "got 1"),
    (["torsion-stats", "--family", "stanek", "--genus", "0"], 2, "got 0"),
    (["lyapunov", "--steps", "50"], 2, "steps 50"),
    (["lyapunov", "--trials", "0"], 2, "trials 0"),
    (["torsion-stats", "--lengths", "500:100"], 2, "500:100"),
    (["modp-rank", "--lengths", "500:100"], 2, "500:100"),
    (["heegaard", "--lengths", "500:100"], 2, "500:100"),
    (["modp-rank", "--primes", "2,3,2"], 2, "prime 2 "),
    (["punctured", "--alphabet", "1"], 2, "alphabet 1"),
    (["punctured", "--samples", "0"], 2, "samples 0"),
    (["punctured", "--lengths", "64,0"], 2, "[64, 0]"),
    (["punctured", "--lengths", "64,64"], 2,
     "distinct lengths, got [64, 64]"),
    (["punctured", "--alphabet", "4294967296"], 2, "alphabet 4294967296"),
    (["modp-rank", "--primes", "4"], 2, "4 is not prime"),
    (["modp-rank", "--primes", "1"], 2, "1 is not prime"),
    (["modp-rank", "--primes", "3317044064679887385961981"], 2,
     "only decided below"),
    (["heegaard", "--family", "hua-reiner", "--n", "3"], 2,
     "heegaard needs a symplectic family"),
    (["heegaard", "--family", "hua-reiner", "--n", "3", "--mode",
      "symmetric"], 2, "heegaard needs a symplectic family"),
    (["torsion-stats", "--samples", "0"], 2, "samples must be >= 1, got 0"),
    (["heegaard", "--lengths", "0:10"], 2,
     "lengths must start >= 1 with step >= 1, got 0:10:1"),
    (["punctured", "--alphabet", "256"], 2, "alphabet 256"),
    (["prescribe", "2"], 2, "chain length must be even, got (2,)"),
    (["prescribe", "0,0"], 2, "chain entries must be positive, got (0, 0)"),
    (["prescribe", "2,0"], 2, "chain entries must be positive, got (2, 0)"),
    (["prescribe", "--config", b'{"chain": [-1, 2]}'], 2,
     "divisors must be nonnegative, got (-1, 2)"),
    (["prescribe", "--config", b'{"chain": [0, 2]}'], 2,
     "zeros must come last, got (0, 2)"),
    RETIRED,
    RETIRED,
    RETIRED,
    (["torsion-stats", "--genus", "128"], 2, "humphries family at genus 128"),
    # refused by its member count before any matrix is built
    (["torsion-stats", "--genus", "200"], 2,
     "humphries family at genus 200 has 401 members"),
    # a config file's values keep their JSON types: nothing is coerced
    (["modp-rank", "--config", b'{"primes": [2.5]}'], 2,
     "primes[0] must be an integer, got 2.5"),
    (["modp-rank", "--config", b'{"primes": ["x"]}'], 2,
     "config error: primes[0] must be an integer, got 'x'\n"),
    (["modp-rank", "--config", b'{"primes": 2}'], 2,
     "primes must be a list of integers, got 2"),
    (["modp-rank", "--config", b'{"samples": 2.7}'], 2,
     "samples must be an integer, got 2.7"),
    (["torsion-stats", "--config", b'{"lengths": [20.5, 20.5, 1]}'], 2,
     "lengths[0] must be an integer, got 20.5"),
    (["torsion-stats", "--config", b'{"seed": true}'], 2,
     "seed must be an integer, got True"),
    (["heegaard", "--config", b'{"param": "2"}'], 2,
     "param must be an integer, got '2'"),
    (["lyapunov", "--config", b'{"steps": 150.9}'], 2,
     "steps must be an integer, got 150.9"),
    (["lyapunov", "--config", b'{"trials": false}'], 2,
     "trials must be an integer, got False"),
    (["punctured", "--config", b'{"alphabet": 2.0}'], 2,
     "alphabet must be an integer, got 2.0"),
    (["punctured", "--config", b'{"lengths": [64, 1e3]}'], 2,
     "lengths[1] must be an integer, got 1000.0"),
    (["prescribe", "--config", b'{"chain": [2, 6.0]}'], 2,
     "chain[1] must be an integer, got 6.0"),
    (["torsion-stats", "--config", b'{"sampels": 3}'], 2,
     "torsion-stats does not read config key 'sampels'"),
    (["lyapunov", "--config", b'{"mode": "symmetric"}'], 2,
     "lyapunov does not read config key 'mode'"),
    RETIRED,
    (["modp-rank", "--config", b'{"primes": []}'], 2,
     "modp-rank needs at least one prime"),
    (["torsion-stats", "--config", b'{"lengths": [1, 2]}'], 2,
     "lengths must be (start, end, step), got (1, 2)"),
    (["heegaard", "--config", b'{"lengths": [1, 2, 3, 4]}'], 2,
     "lengths must be (start, end, step), got (1, 2, 3, 4)"),
    RETIRED,
    RETIRED,
    RETIRED,
    RETIRED,
    RETIRED,
    (["torsion-stats", "--config", b'{"family": 1}'], 2,
     "family must be a string, got 1"),
    (["lyapunov", "--config", b'{"family": null}'], 2,
     "family must be a string, got None"),
    (["heegaard", "--config", b'{"mode": ["positive"]}'], 2,
     "mode must be a string, got ['positive']"),
    (["modp-rank", "--config", b"[1, 2]"], 2,
     "config file {} must hold a JSON object, got list"),
    (["modp-rank", "--config", b"3"], 2,
     "config file {} must hold a JSON object, got int"),
    (["modp-rank", "--config", b'{"primes": [2'], 2,
     "config file {} is not valid JSON: Expecting ',' delimiter"),
    (["modp-rank", "--config", None], 3, "No such file or directory: '{}'"),
    (["prescribe", "2,3"], 2, "divisibility chain violated: 2 | 3"),
    (["prescribe"], 2, "prescribe needs a divisor chain"),
    (["prescribe", "--config", b'{"chain": []}'], 2,
     "config error: chain must be nonempty\n"),
    RETIRED,
    (["modp-rank", "--config", b"\xff"], 2,
     "config file {} is not valid JSON: 'utf-8' codec can't decode"),
    RETIRED,
    RETIRED,
    # 129 members and their 129 distinct inverses: the message names the
    # family, its parameter and the mode
    (["torsion-stats", "--genus", "64", "--mode", "symmetric", "--samples",
      "1", "--lengths", "5"], 2,
     "humphries family at param 64 in symmetric mode: a generator family "
     "holds at most 255 members, got 258"),
    (["lyapunov", "--family", "nope"], 2,
     "config error: invalid lyapunov config: unknown family 'nope'\n"),
    # one spelling per family
    (["torsion-stats", "--family", "hua_reiner"], 2,
     "config error: invalid batch config: unknown family 'hua_reiner'\n"),
]
PREFIX = {2: "config error:", 3: "i/o error:"}


# each row is named by its place in ERRORS and its text
@pytest.mark.parametrize("argv, code, bad", [row for row in ERRORS if row],
                         ids=["argv%d-%s" % (i, row[2])
                              for i, row in enumerate(ERRORS) if row])
def test_config_errors_exit_2(tmp_path, capsys, argv, code, bad):
    out = tmp_path / "out"
    args, paths = [], []
    for i, item in enumerate(argv):
        if item is None or isinstance(item, bytes):
            path = tmp_path / ("arg%d" % i)
            if item is not None:
                path.write_bytes(item)
            item = str(path)
            paths.append(item)
        args.append(item)
    assert main(args + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    text, prefix = bad.format(*paths), PREFIX[code]
    assert err.startswith(text if text.startswith(prefix) else prefix)
    assert text in err and err.count("\n") == 1
    assert not out.exists()


def test_a_process_exits_with_what_main_returns(tmp_path):
    # python -m symwalk runs sys.exit(main()), as the installed script does
    version = fresh("-m", "symwalk", "--version")
    assert (version.returncode, version.stdout) == (0, __version__ + "\n")
    out = tmp_path / "out"
    bad = fresh("-m", "symwalk", "modp-rank", "--primes", "4",
                "--out", str(out))
    assert bad.returncode == 2
    assert bad.stderr == "config error: 4 is not prime\n"
    assert not out.exists()


def test_mode_is_spelled_alike_in_flag_and_config_file(tmp_path, capsys):
    # modp-rank walks the symmetric closure by default; "positive" selects
    # the positive walk from a config file as from the flag, and manifests
    # record it as "positive-only" either way
    argv = ["modp-rank", "--family", "hua-reiner", "--n", "3",
            "--lengths", "20", "--samples", "5", "--primes", "2"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "positive"}))
    runs = {}
    for name, extra in (("flag", ["--mode", "positive"]),
                        ("file", ["--config", str(config)]),
                        ("default", [])):
        code, runs[name] = _run(capsys, argv + extra + [
            "--out", str(tmp_path / name)])
        assert code == 0
    data = {name: Path(out[0]).read_bytes() for name, out in runs.items()}
    assert data["flag"] == data["file"] != data["default"]
    for name in ("flag", "file"):
        manifest = json.loads(Path(runs[name][1]).read_text())
        assert manifest["config"]["mode"] == "positive-only"
    config.write_text(json.dumps({"mode": "nope"}))
    code = main(argv + ["--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    assert "unknown mode 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("command, where", [
    ("torsion-stats", "symwalk.walker.make_family"),
    ("lyapunov", "symwalk.cli.make_family"),
])
def test_a_type_error_while_reading_the_family_is_internal(
        tmp_path, capsys, monkeypatch, command, where):
    # every key has a default and a checked type, so a TypeError here is
    # a bug, not a config error
    def broken(name, param):
        raise TypeError("boom")

    monkeypatch.setattr(where, broken)
    assert main([command, "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "internal error: boom\n"


def test_config_defaults_are_flag_keys():
    # a config file may set only the keys a flag sets, defaults included
    for name, command in COMMANDS.items():
        flags = {key for _, key, _, _ in command.flags}
        assert set(command.defaults) <= flags, name


def test_debug_prints_the_traceback_of_an_internal_error(tmp_path, capsys,
                                                          monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("symwalk.cli.estimate_exponents", broken)
    argv = ["lyapunov", "--out", str(tmp_path)]
    assert main(argv) == 4
    assert capsys.readouterr().err == "internal error: boom\n"
    assert main(["--debug"] + argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert "RuntimeError: boom\n" in err
    assert err.endswith("\ninternal error: boom\n")
