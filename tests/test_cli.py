import json
from pathlib import Path

import pytest

from symwalk.cli import (COMMANDS, FLOAT, ConfigError, _ModpRecord, main,
                         parse_lengths, read_matrix_file, threads_from_env)
from symwalk.generators import hua_reiner, symmetric_closure
from symwalk.homology import fp_rank
from symwalk.stats import walk_closure
from symwalk.walker import BatchConfig, derive_seed, sample_word, word_product


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
    record = _ModpRecord(walked, [p])
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


@pytest.mark.parametrize("argv", [
    ["torsion-stats", "--lengths", "1:257:128", "--samples", "6"],
    ["heegaard", "--family", "stanek", "--genus", "2",
     "--lengths", "1:257:128", "--samples", "6"],
], ids=["torsion-stats", "heegaard"])
def test_exact_csv_is_independent_of_threads(tmp_path, capsys, monkeypatch,
                                             argv):
    # each pool worker compiles its own product kernels from the pickled
    # family
    csvs = _csv_at_each_thread_count(tmp_path, capsys, monkeypatch, argv)
    assert csvs[0] == csvs[1]


def _hua_reiner_rank_table(tmp_path, capsys, n):
    code, out = _run(capsys, [
        "modp-rank", "--family", "hua-reiner", "--genus", str(n),
        "--lengths", "20", "--samples", "5", "--seed", "1",
        "--primes", "2", "--out", str(tmp_path)])
    assert code == 0
    return json.loads(Path(out[1]).read_text())["rank_tables"]["2"]


def test_modp_rank_predicts_the_law_of_its_own_walk(tmp_path, capsys):
    # modp-rank walks the symmetric closure of hua-reiner n=3 in SL(3, Z);
    # mod 2 its group is SL(3, F_2)
    table = _hua_reiner_rank_table(tmp_path, capsys, 3)
    law = walk_closure(symmetric_closure(hua_reiner(3)), 2).rank_law(20)
    assert table["predicted"] == {str(r): float(q) for r, q in law.items()}
    assert "total_variation" in table


def test_modp_rank_predicts_nothing_over_the_group_bound(tmp_path, capsys):
    # SL(4, F_2) has 20160 elements, more than GROUP_ORDER_BOUND
    table = _hua_reiner_rank_table(tmp_path, capsys, 4)
    assert table["predicted"] == {}
    assert "total_variation" not in table


def test_modp_rank_rejects_composite_prime(tmp_path, capsys):
    code, _ = _run(capsys, [
        "modp-rank", "--family", "humphries", "--genus", "2",
        "--lengths", "10", "--samples", "1", "--seed", "1",
        "--primes", "4", "--out", str(tmp_path)])
    assert code == 2


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
    code, _ = _run(capsys, [
        "heegaard", "--family", "hua-reiner", "--n", "3",
        "--lengths", "10", "--samples", "1", "--seed", "1",
        "--out", str(tmp_path)])
    assert code == 2


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


def test_prescribe_rejects_bad_chain(tmp_path, capsys):
    code, _ = _run(capsys, ["prescribe", "2,3", "--out", str(tmp_path)])
    assert code == 2
    code, _ = _run(capsys, ["prescribe", "--out", str(tmp_path)])
    assert code == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chain": []}))
    out = tmp_path / "out"
    code = main(["prescribe", "--config", str(config), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == \
        "config error: chain must be nonempty\n"
    assert not out.exists()


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


def test_snf_outputs(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    mat.write_text("2\n2 4\n6 8\n")
    code, out = _run(capsys, ["snf", str(mat), "--out", str(tmp_path)])
    assert code == 0
    assert Path(out[0]).read_text() == "divisor\n2\n4\n"
    manifest = json.loads(Path(out[1]).read_text())
    assert manifest["divisors"] == [2, 4]


def test_snf_missing_file_is_io_error(tmp_path, capsys):
    code, _ = _run(capsys, [
        "snf", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert code == 3


def test_snf_matrix_file_that_is_not_text_is_a_config_error(tmp_path,
                                                            capsys):
    mat = tmp_path / "m.txt"
    mat.write_bytes(b"\xff")
    out = tmp_path / "out"
    code = main(["snf", str(mat), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: matrix file %s is not text: " % mat)
    assert not out.exists()


def test_read_matrix_file_validation(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2\n1 2 3\n")
    with pytest.raises(ConfigError):
        read_matrix_file(p)
    p.write_text("x\n")
    with pytest.raises(ConfigError):
        read_matrix_file(p)
    p.write_text("")
    with pytest.raises(ConfigError):
        read_matrix_file(p)
    p.write_text("-1\n5\n")      # n * n == 1 entry: only n is wrong
    with pytest.raises(ConfigError, match="dimension must be >= 0, got -1"):
        read_matrix_file(p)


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
    ["snf"],
], ids=lambda argv: argv[0])
def test_json_records_are_the_csv_rows(tmp_path, capsys, argv):
    if argv == ["snf"]:
        matrix = tmp_path / "m.txt"
        matrix.write_text("2\n-14 2\n-20 2\n")
        argv = argv + [str(matrix)]
    data = {}
    for kind in ("csv", "json"):
        code, out = _run(capsys, argv + ["--format", kind,
                                         "--out", str(tmp_path / kind)])
        assert code == 0
        data[kind] = Path(out[0]).read_text()
    header, *lines = data["csv"].splitlines()
    records = json.loads(data["json"])
    assert len(records) == len(lines) > 0
    for record, line in zip(records, lines):
        assert list(record) == header.split(",")
        for value, text in zip(record.values(), line.split(",")):
            assert type(value) in (int, float)
            assert value == _field(text)


@pytest.mark.parametrize("argv, bad", [
    (["modp-rank", "--primes", "x"], "'x'"),
    (["punctured", "--lengths", "x"], "'x'"),
    (["prescribe", "x"], "'x'"),
    (["torsion-stats", "--family", "nope"], "'nope'"),
    (["heegaard", "--family", "nope"], "'nope'"),
    (["modp-rank", "--family", "nope"], "'nope'"),
    (["torsion-stats", "--genus", "1"], "got 1"),
    (["modp-rank", "--genus", "1"], "got 1"),
    (["torsion-stats", "--family", "stanek", "--genus", "0"], "got 0"),
    (["lyapunov", "--steps", "50"], "steps 50"),
    (["lyapunov", "--trials", "0"], "trials 0"),
    (["torsion-stats", "--lengths", "500:100"], "500:100"),
    (["modp-rank", "--lengths", "500:100"], "500:100"),
    (["heegaard", "--lengths", "500:100"], "500:100"),
    (["modp-rank", "--primes", "2,3,2"], "prime 2 "),
    (["punctured", "--alphabet", "1"], "alphabet 1"),
    (["punctured", "--samples", "0"], "samples 0"),
    (["punctured", "--lengths", "64,0"], "[64, 0]"),
    (["punctured", "--lengths", "64,64"], "distinct lengths, got [64, 64]"),
    (["punctured", "--alphabet", "4294967296"], "alphabet 4294967296"),
    (["modp-rank", "--primes", "4"], "4 is not prime"),
    (["modp-rank", "--primes", "1"], "1 is not prime"),
    (["modp-rank", "--primes", "3317044064679887385961981"],
     "only decided below"),
    (["heegaard", "--family", "hua-reiner", "--n", "3"],
     "heegaard needs a symplectic family"),
    (["heegaard", "--family", "hua-reiner", "--n", "3", "--mode",
      "symmetric"], "heegaard needs a symplectic family"),
    (["torsion-stats", "--samples", "0"], "samples must be >= 1, got 0"),
    (["heegaard", "--lengths", "0:10"],
     "lengths must start >= 1 with step >= 1, got 0:10:1"),
    (["punctured", "--alphabet", "256"], "alphabet 256"),
    (["prescribe", "2"], "chain length must be even, got (2,)"),
    (["prescribe", "0,0"], "chain entries must be positive, got (0, 0)"),
    (["prescribe", "2,0"], "chain entries must be positive, got (2, 0)"),
    (["prescribe", "--config", b'{"chain": [-1, 2]}'],
     "divisors must be nonnegative, got (-1, 2)"),
    (["prescribe", "--config", b'{"chain": [0, 2]}'],
     "zeros must come last, got (0, 2)"),
    (["snf", b""], "matrix file {} is empty"),
    (["snf", b"2\n1 x 3 4\n"], "matrix file {} must contain integers"),
    (["snf", b"2\n1 2 3\n"], "matrix file {}: expected 4 entries, got 3"),
    (["torsion-stats", "--genus", "128"], "humphries family at genus 128"),
])
def test_config_errors_exit_2(tmp_path, capsys, argv, bad):
    # a bytes item is written to a file and stands for the file's path,
    # which the message must name where ``bad`` has {}
    out = tmp_path / "out"
    args, paths = [], []
    for i, item in enumerate(argv):
        if isinstance(item, bytes):
            path = tmp_path / ("arg%d" % i)
            path.write_bytes(item)
            item = str(path)
            paths.append(item)
        args.append(item)
    code = main(args + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert bad.format(*paths) in err
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


def test_modp_rank_primes_from_config_must_be_integers(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"primes": ["x"]}))
    out = tmp_path / "out"
    code = main(["modp-rank", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: primes[0] must be an integer, got 'x'\n"
    assert not out.exists()


@pytest.mark.parametrize("command, config, bad", [
    ("modp-rank", {"primes": [2.5]}, "primes[0] must be an integer, got 2.5"),
    ("modp-rank", {"primes": 2}, "primes must be a list of integers, got 2"),
    ("modp-rank", {"samples": 2.7}, "samples must be an integer, got 2.7"),
    ("torsion-stats", {"lengths": [20.5, 20.5, 1]},
     "lengths[0] must be an integer, got 20.5"),
    ("torsion-stats", {"seed": True}, "seed must be an integer, got True"),
    ("heegaard", {"param": "2"}, "param must be an integer, got '2'"),
    ("lyapunov", {"steps": 150.9}, "steps must be an integer, got 150.9"),
    ("lyapunov", {"trials": False}, "trials must be an integer, got False"),
    ("punctured", {"alphabet": 2.0}, "alphabet must be an integer, got 2.0"),
    ("punctured", {"lengths": [64, 1e3]},
     "lengths[1] must be an integer, got 1000.0"),
    ("prescribe", {"chain": [2, 6.0]}, "chain[1] must be an integer, got 6.0"),
    ("torsion-stats", {"sampels": 3},
     "torsion-stats does not read config key 'sampels'"),
    ("lyapunov", {"mode": "symmetric"},
     "lyapunov does not read config key 'mode'"),
    ("snf", {"matrix_file": "m.txt", "seed": 1},
     "snf does not read config key 'seed'"),
    ("modp-rank", {"primes": []}, "modp-rank needs at least one prime"),
    ("torsion-stats", {"lengths": [1, 2]},
     "lengths must be (start, end, step), got (1, 2)"),
    ("heegaard", {"lengths": [1, 2, 3, 4]},
     "lengths must be (start, end, step), got (1, 2, 3, 4)"),
    ("snf", {"matrix_file": None}, "matrix_file must be a string, got None"),
    ("snf", {"matrix_file": ["m.txt"]},
     "matrix_file must be a string, got ['m.txt']"),
    ("snf", {"matrix_file": 3.5}, "matrix_file must be a string, got 3.5"),
    ("snf", {"matrix_file": True}, "matrix_file must be a string, got True"),
    ("snf", {"matrix_file": 0}, "matrix_file must be a string, got 0"),
    ("torsion-stats", {"family": 1}, "family must be a string, got 1"),
    ("lyapunov", {"family": None}, "family must be a string, got None"),
    ("heegaard", {"mode": ["positive"]},
     "mode must be a string, got ['positive']"),
])
def test_config_file_integers_are_strict(tmp_path, capsys, command, config,
                                         bad):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert bad in err
    assert not out.exists()


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


@pytest.mark.parametrize("text, bad", [
    ("[1, 2]", "must hold a JSON object, got list"),
    ("3", "must hold a JSON object, got int"),
    ('{"primes": [2', "is not valid JSON: Expecting ',' delimiter"),
])
def test_config_file_must_be_a_json_object(tmp_path, capsys, text, bad):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    code = main(["modp-rank", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: config file ")
    assert bad in err
    assert not out.exists()


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
