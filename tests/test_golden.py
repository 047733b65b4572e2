"""Golden sha256 digests of fixed-seed CLI data files and manifests.

Each exact subcommand runs at a small fixed config, once per output
format (``json`` is the list of the CSV records, for every subcommand),
and the bytes of its data file must hash to the digest recorded here; so
must its manifest, with the timestamp removed.  Any change to sampling,
the exact arithmetic, the summaries or the output layout shows up as a
changed digest.

Not covered: ``lyapunov`` (its bytes depend on the BLAS and SIMD kernels
of the numpy build).
"""

import hashlib
import json

import pytest

from symwalk.cli import main

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
        "5bbe249dbb8441763bdf0cd15b5d084c432fc98d163635c1c5d7cf57555468bd",
    ("punctured", "csv"):
        "ad1ab58ab17140fe8ea425d4955f19b571058a8a28c925aae532d7a813719b90",
    ("punctured", "json"):
        "095163e3c39ff5fb34ab0583c689fa62c020ee6ec9eb3c85324780db1ee580b1",
    ("torsion-stats", "csv"):
        "8de8553656f2a72c83e793f357ade548c5d2867df57624d3f1e13c0623c238c1",
    ("torsion-stats", "json"):
        "0b117f55846534b28124679673b14983bd0e4db94574b6ece2872618abf5cded",
}


GOLDEN_MANIFESTS = {
    "heegaard":
        "863c1a41addc80dcc8d478064c454749c2fa134d43c8d7e4011389023dd76e4b",
    "modp-rank":
        "10a2b6d9c6d6e2de0576b976ea92f2789f3c0af2e82a4cd731c2ab9c696738b9",
    "prescribe":
        "e7ec69a9840de4de3548498b8e7f2911dfb5e0c4eb8c8fdcb6416b8a8e551db9",
    "punctured":
        "326416eae3008d1797434a6c304b7ad3ced82a4d610a3ce8ad6fe59dcf7f20ef",
    "torsion-stats":
        "5b119e90eb5756a0ba55ac1896edc696fed73f7f717537c54e5f74f7aa25ee95",
}


def _run(command, kind, tmp_path, capsys, monkeypatch):
    """The paths of the data file and the manifest of ``command``."""
    monkeypatch.setenv("THREADS", "1")
    code = main(CONFIGS[command] + ["--format", kind,
                                    "--out", str(tmp_path / "out")])
    paths = capsys.readouterr().out.splitlines()
    assert code == 0
    return paths


@pytest.mark.parametrize("command,kind", sorted(GOLDEN))
def test_golden_digest(command, kind, tmp_path, capsys, monkeypatch):
    data_path, _ = _run(command, kind, tmp_path, capsys, monkeypatch)
    with open(data_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == GOLDEN[command, kind]


@pytest.mark.parametrize("command", sorted(GOLDEN_MANIFESTS))
def test_golden_manifest_digest(command, tmp_path, capsys, monkeypatch):
    _, manifest_path = _run(command, "csv", tmp_path, capsys, monkeypatch)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    del manifest["timestamp"]
    text = json.dumps(manifest, indent=2, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_MANIFESTS[command]
