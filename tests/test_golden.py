"""Golden sha256 digests of fixed-seed CLI data files.

Each exact subcommand runs at a small fixed config, once per output
format, and the bytes of its data file must hash to the digest recorded
here.  Any change to sampling, the exact arithmetic or the output layout
shows up as a changed digest.

Not covered: ``lyapunov`` (its bytes depend on the LAPACK build) and the
manifests (their float means depend on how the Python version sums).
"""

import hashlib

import pytest

from symwalk.cli import main

MATRIX = "2\n-14 2\n-20 2\n"

CONFIGS = {
    "torsion-stats": ["torsion-stats", "--family", "humphries", "--genus", "2",
                      "--lengths", "40:80:40", "--samples", "4",
                      "--seed", "11"],
    "modp-rank": ["modp-rank", "--family", "humphries", "--genus", "2",
                  "--lengths", "50", "--samples", "10", "--seed", "12",
                  "--primes", "2,3", "--mode", "symmetric"],
    "heegaard": ["heegaard", "--family", "humphries", "--genus", "2",
                 "--lengths", "40:80:40", "--samples", "4", "--seed", "13"],
    "punctured": ["punctured", "--alphabet", "2", "--lengths", "64,256",
                  "--samples", "5", "--seed", "15"],
    "prescribe": ["prescribe", "2,6"],
    "snf": ["snf"],
}

GOLDEN = {
    ("heegaard", "csv"):
        "3172e522042717ecd9d5e2dfa7ae5d4a7aadf4fbf494271e7ffbca364ce69a65",
    ("heegaard", "json"):
        "4f4f3c75e9a14a114cc23e664267382679dae1aa4f5f2735fa265bd9f73c75ec",
    ("modp-rank", "csv"):
        "63362a0024feef1cb1a64ddb627209c931074562324e7bfd39d15a34d3289c16",
    ("modp-rank", "json"):
        "ee38fd2fc471a1b02dfc02f753076187f8b7af88759067c42243e4d1f0ff8ff2",
    ("prescribe", "csv"):
        "292c41c0ace08981c38854fa5874b65e2e52a6c05c3e51149f71c121305aba84",
    ("prescribe", "json"):
        "d1d3576fb7f0c6986d6975ee2927e51dda2d99c6e916e9525af43dd697b00031",
    ("punctured", "csv"):
        "ad1ab58ab17140fe8ea425d4955f19b571058a8a28c925aae532d7a813719b90",
    ("punctured", "json"):
        "095163e3c39ff5fb34ab0583c689fa62c020ee6ec9eb3c85324780db1ee580b1",
    ("snf", "csv"):
        "5f8df1affc9547402782c957a87136cf29c6310867a5fdff9478d63f80081d0c",
    ("snf", "json"):
        "d4df886f2d6977e8748ab43cbb3fcfde97434bd950e17ed46091e4c28d4bb02c",
    ("torsion-stats", "csv"):
        "8de8553656f2a72c83e793f357ade548c5d2867df57624d3f1e13c0623c238c1",
    ("torsion-stats", "json"):
        "682040916472deff9053c9421fb542b38ae5f1b5d6a59351416188778c0c6d8a",
}


@pytest.mark.parametrize("command,kind", sorted(GOLDEN))
def test_golden_digest(command, kind, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THREADS", "1")
    argv = list(CONFIGS[command])
    if command == "snf":
        matrix = tmp_path / "m.txt"
        matrix.write_text(MATRIX)
        argv.append(str(matrix))
    code = main(argv + ["--format", kind, "--out", str(tmp_path / "out")])
    data_path = capsys.readouterr().out.splitlines()[0]
    assert code == 0
    with open(data_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == GOLDEN[command, kind]
