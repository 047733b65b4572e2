"""Command-line front end.

Subcommands: torsion-stats, modp-rank, heegaard, lyapunov, prescribe,
punctured.  Each experiment writes a CSV of per-sample records and
a JSON manifest echoing the full configuration; re-running with a
manifest's config reproduces both byte-for-byte, on any supported Python
version: the timestamp is the only field that changes (lyapunov aside,
whose floats depend on the BLAS and SIMD kernels of the numpy build).

Every subcommand is one entry of ``COMMANDS``: its handler, its config
defaults and its flags.  Every handler returns a column schema with its
rows, and the schema alone drives the CSV header and rows and the
``--format json`` records.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 internal invariant
violation (``symwalk --debug <cmd>`` prints its traceback first).

A process that imports this module freezes the garbage collector at exit
(``gc.freeze`` by ``atexit``): the ~22,000 objects it still holds, numpy's
among them, die with the process, and freezing them spares the
interpreter's final collections a pass over each (12-15 ms of a
~140 ms run on 2 vCPUs, Python 3.11).
"""

from __future__ import annotations

import argparse
import atexit
import datetime
import gc
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, dataclass

from . import __version__
from .generators import group_order, make_family
from .homology import (DivisorChain, complexity_lower_bound, fp_rank,
                       heegaard_homology, torsion_order)
# No call goes through this name (torsion_order calls homology's own); it
# stays only because bench/child.py looks the name up on this module.
from .homology import mapping_torus_homology  # noqa: F401
from .intmat import is_symplectic
from .lyapunov import estimate_exponents
from .prescribe import prescribe_symplectic, verify_prescription
from .punctured import run_scaling_experiment
from .stats import (WalkClosure, clt_diagnostics, empirical_rank_table,
                    linear_fit, summarize, total_variation, walk_closure)
from .walker import POSITIVE, SYMMETRIC, BatchConfig, run_batch

exhaustive_sp2_oracle = WalkClosure.rank_law   # the name bench/child.py traces

# Runs before the interpreter's final collections, which then skip every
# frozen object; main called in a longer-lived process leaves gc as it is.
atexit.register(gc.freeze)


class ConfigError(ValueError):
    pass


FLOAT = "%.17g"     # round-trippable decimal rendering of a float


def parse_lengths(text: str):
    try:
        parts = [int(p) for p in text.split(":")]
    except ValueError:
        raise ConfigError("bad lengths spec %r (want start:end:step)" % text)
    if len(parts) == 1:
        return (parts[0], parts[0], 1)
    if len(parts) == 2:
        return (parts[0], parts[1], 1)
    if len(parts) == 3:
        return tuple(parts)
    raise ConfigError("bad lengths spec %r" % text)


def threads_from_env() -> int:
    raw = os.environ.get("THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError("THREADS must be an integer, got %r" % raw)
    return max(1, n)


# --- per-sample record callbacks (module level: picklable) ------------------

def _torsion_record(word):
    t = torsion_order(word.product)
    return (math.log(t.value), t.betti, t.singular)


class _ModpRecord:
    """fp_rank per prime: by a walk on the closure G of the family mod p
    when ``orders`` gives its |G| (``generators.group_order``), else, for
    a G too large to close (None), from the exact product.  The record
    keeps only the closures."""

    def __init__(self, family, primes, orders):
        self.primes = tuple(primes)
        self.closures = tuple(walk_closure(family, p, order)
                              for p, order in zip(self.primes, orders))

    def __call__(self, word):
        return tuple(fp_rank(word.product, p) if closure is None
                     else closure.rank(word.letters)
                     for p, closure in zip(self.primes, self.closures))


def _heegaard_record(word):
    h = heegaard_homology(word.product)
    return (math.log(h.torsion_order), h.betti, complexity_lower_bound(h))


# --- column schemas: (name, CSV format) per column --------------------------

_KEY = (("length", "%d"), ("sample_index", "%d"))
TORSION_COLUMNS = _KEY + (("log_torsion", FLOAT), ("betti", "%d"),
                          ("singular", "%d"))
MODP_COLUMNS = _KEY + (("p", "%d"), ("fp_rank", "%d"))
HEEGAARD_COLUMNS = _KEY + (("log_h1", FLOAT), ("betti", "%d"),
                           ("complexity_lower_bound", FLOAT))
LYAPUNOV_COLUMNS = (("exponent_index", "%d"), ("value", FLOAT),
                    ("standard_error", FLOAT))
PUNCTURED_COLUMNS = (("length", "%d"), ("mean_longest_run", FLOAT))


def render(columns, rows, fmt_kind="csv") -> str:
    """The CSV text, or the JSON list of records, of ``rows`` (tuples in
    column order) under a column schema.  A JSON value takes its column's
    type: a ``%d`` column holds integers (a bool is 0 or 1, as in the CSV)."""
    names = [name for name, _ in columns]
    if fmt_kind == "json":
        types = [int if f == "%d" else float for _, f in columns]
        return json.dumps([{name: t(v) for name, t, v in
                            zip(names, types, row)} for row in rows],
                          indent=2) + "\n"
    line = ",".join(f for _, f in columns) + "\n"
    return ",".join(names) + "\n" + "".join(line % row for row in rows)


def _column_by_length(rows, columns, name):
    """The values of column ``name`` grouped by word length (column 0)."""
    i = [c for c, _ in columns].index(name)
    groups = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row[i])
    return groups


def _length_summaries(groups):
    """Manifest ``per_length`` summaries and the ``fit`` of their means
    against length."""
    lengths = sorted(groups)
    per_length = {str(n): asdict(summarize(groups[n])) for n in lengths}
    fit = None
    if len(lengths) >= 2:
        fit = asdict(linear_fit(lengths, [per_length[str(n)]["mean"]
                                          for n in lengths]))
    return {"per_length": per_length, "fit": fit}


# --- subcommands --------------------------------------------------------------
#
# A handler takes the merged config and returns (column schema, rows,
# manifest fields).

def _batch_config(cfg):
    """The batch of a batch subcommand's config and the family it walks
    (after any symmetric closure)."""
    try:
        batch = BatchConfig(
            family_name=cfg["family"],
            family_param=cfg["param"],
            lengths=tuple(cfg["lengths"]),
            samples_per_length=cfg["samples"],
            master_seed=cfg["seed"],
            mode=cfg["mode"],
        )
        family = batch.resolve_family()
    except ValueError as exc:
        raise ConfigError("invalid batch config: %s" % exc)
    return batch, family


def cmd_torsion_stats(cfg):
    batch, _ = _batch_config(cfg)
    rows = [(length, j) + record for length, j, record in
            run_batch(batch, _torsion_record, threads=threads_from_env())]
    return TORSION_COLUMNS, rows, _length_summaries(
        _column_by_length(rows, TORSION_COLUMNS, "log_torsion"))


def cmd_modp_rank(cfg):
    primes = cfg["primes"]
    if not primes:
        raise ConfigError("modp-rank needs at least one prime")
    for i, p in enumerate(primes):
        if p in primes[:i]:
            raise ConfigError("prime %d is listed twice" % p)
    batch, family = _batch_config(cfg)
    orders = [group_order(cfg["family"], cfg["param"], p) for p in primes]
    try:
        record = _ModpRecord(family, primes, orders)
    except ValueError as exc:   # mod_p refuses p: not prime, or undecided
        raise ConfigError(str(exc))
    rows = [(length, j, p, r) for length, j, ranks in
            run_batch(batch, record, threads=threads_from_env())
            for p, r in zip(primes, ranks)]

    # empirical distribution at the largest length, with the exact law of
    # the walk alongside, from the closures the samples walked, when G is
    # small enough
    top = max(batch.length_values())
    tables = {}
    for p, closure in zip(primes, record.closures):
        ranks = [r for length, _, q, r in rows if length == top and q == p]
        law = {} if closure is None else closure.rank_law(top)
        table = empirical_rank_table(ranks)
        entry = {"empirical": {str(k): v for k, v in table.items()},
                 "predicted": {str(k): float(v) for k, v in law.items()}}
        if law:
            entry["total_variation"] = total_variation(table, law)
        tables[str(p)] = entry
    return MODP_COLUMNS, rows, {"rank_tables_at_length": top,
                                "rank_tables": tables}


def cmd_heegaard(cfg):
    batch, fam = _batch_config(cfg)
    if not all(map(is_symplectic, fam.matrices)):
        raise ConfigError("heegaard needs a symplectic family")
    rows = [(length, j) + record for length, j, record in
            run_batch(batch, _heegaard_record, threads=threads_from_env())]
    groups = _column_by_length(rows, HEEGAARD_COLUMNS, "log_h1")
    top = max(batch.length_values())
    top_samples = groups.get(top, [])
    diagnostics = None
    if len(top_samples) >= 30 and len(set(top_samples)) > 1:
        diagnostics = asdict(clt_diagnostics(top_samples))
    return HEEGAARD_COLUMNS, rows, dict(
        _length_summaries(groups), genus=fam.dim // 2,
        clt_diagnostics_at_length=top, clt_diagnostics=diagnostics)


def cmd_lyapunov(cfg):
    try:
        fam = make_family(cfg["family"], cfg["param"])
    except ValueError as exc:
        raise ConfigError("invalid lyapunov config: %s" % exc)
    try:
        est = estimate_exponents(fam, cfg["steps"], cfg["trials"],
                                 cfg["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    rows = [(i, e, se) for i, (e, se) in
            enumerate(zip(est.exponents, est.standard_error))]
    return LYAPUNOV_COLUMNS, rows, {
        "exponents": list(est.exponents),
        "standard_error": list(est.standard_error),
        "positive_sum": est.positive_sum, "trials": cfg["trials"],
        "steps_per_trial": cfg["steps"]}


def cmd_prescribe(cfg):
    if "chain" not in cfg:
        raise ConfigError("prescribe needs a divisor chain")
    try:
        chain = DivisorChain(tuple(cfg["chain"]))
        m = prescribe_symplectic(chain)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not verify_prescription(m, chain):
        raise AssertionError("prescription verification failed")
    columns = (("row", "%d"),) + tuple(("c%d" % j, "%d")
                                       for j in range(m.dim))
    return columns, [(i,) + row for i, row in enumerate(m.rows)], {
        "matrix": m.to_lists(), "verification": True,
        "snf_of_m_minus_i": list(chain.divisors)}


def cmd_punctured(cfg):
    try:
        result = run_scaling_experiment(cfg["alphabet"], cfg["lengths"],
                                        cfg["samples"], cfg["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    fit = asdict(result.fit) if result.fit is not None else None
    return PUNCTURED_COLUMNS, list(result.rows), {"fit_vs_log_length": fit}


# --- the command table ----------------------------------------------------------

def _ints(text):
    """The integers of comma-separated flag text."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError("bad integer list %r (want comma-separated "
                          "integers)" % text)


def _flag(names, key, convert=None, **options):
    """A flag: its option strings (or one positional name), the config key
    it overrides, and how its text becomes that key's value."""
    return names, key, convert, options


_FAMILY_FLAGS = (
    _flag(("--family",), "family"),
    _flag(("--genus", "--n"), "param", type=int),
)
_BATCH_FLAGS = _FAMILY_FLAGS + (
    _flag(("--lengths",), "lengths", lambda t: list(parse_lengths(t)),
          help="start:end:step"),
    _flag(("--samples",), "samples", type=int),
    _flag(("--seed",), "seed", type=int),
    _flag(("--mode",), "mode", choices=["positive", SYMMETRIC]),
)


@dataclass(frozen=True)
class Command:
    handler: object
    defaults: dict
    flags: tuple


COMMANDS = {
    "torsion-stats": Command(
        cmd_torsion_stats,
        {"family": "humphries", "param": 2, "lengths": [100, 500, 50],
         "samples": 200, "seed": 1, "mode": POSITIVE},
        _BATCH_FLAGS),
    "modp-rank": Command(
        cmd_modp_rank,
        {"family": "humphries", "param": 2, "lengths": [500, 500, 1],
         "samples": 2000, "seed": 1, "mode": SYMMETRIC, "primes": [2]},
        _BATCH_FLAGS + (_flag(("--primes",), "primes", _ints,
                              help="comma-separated primes"),)),
    "heegaard": Command(
        cmd_heegaard,
        {"family": "humphries", "param": 2, "lengths": [100, 500, 100],
         "samples": 300, "seed": 1, "mode": POSITIVE},
        _BATCH_FLAGS),
    "lyapunov": Command(
        cmd_lyapunov,
        {"family": "humphries", "param": 2, "steps": 2000, "trials": 100,
         "seed": 1},
        _FAMILY_FLAGS + (_flag(("--steps",), "steps", type=int),
                         _flag(("--trials",), "trials", type=int),
                         _flag(("--seed",), "seed", type=int))),
    "prescribe": Command(
        cmd_prescribe, {},
        (_flag(("chain",), "chain", _ints, nargs="?",
               help="comma-separated divisor chain, e.g. 2,6"),)),
    "punctured": Command(
        cmd_punctured,
        {"alphabet": 2, "lengths": [2 ** k for k in range(10, 17)],
         "samples": 30, "seed": 1},
        (_flag(("--alphabet",), "alphabet", type=int),
         _flag(("--lengths",), "lengths", _ints,
               help="comma-separated word lengths"),
         _flag(("--samples",), "samples", type=int),
         _flag(("--seed",), "seed", type=int))),
}


# --- argument parsing and the run ------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symwalk",
        description="Exact-arithmetic experiments on random matrix walks: "
                    "torsion growth, mod-p ranks, Heegaard homology, "
                    "Lyapunov spectra, prescribed homology.")
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--debug", action="store_true",
                    help="print the traceback of an internal error")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name)
        for names, key, _, options in command.flags:
            if names[0].startswith("-"):
                options = dict(options, dest=key)
            sp.add_argument(*names, default=None, **options)
        sp.add_argument("--config", default=None,
                        help="JSON config file (or an emitted manifest)")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--format", dest="fmt", choices=["csv", "json"],
                        default="csv")
    return ap


def _load_config(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:          # also bytes that are not UTF-8
            raise ConfigError("config file %s is not valid JSON: %s"
                              % (path, exc))
    if isinstance(doc, dict) and "config" in doc and "artifact" in doc:
        doc = doc["config"]      # an emitted manifest
    if not isinstance(doc, dict):
        raise ConfigError("config file %s must hold a JSON object, got %s"
                          % (path, type(doc).__name__))
    return doc


def _check_types(cfg, flags):
    """Each config value must have the JSON type its flag declares: an
    integer for a ``type=int`` flag, a list of integers for a flag with a
    converter, a string for a text flag.  Nothing is truncated or coerced
    (true is not 1, 2.0 is not 2); the error names the key."""
    for _, key, convert, options in flags:
        if key not in cfg:
            continue
        value = cfg[key]
        kind = options.get("type", int if convert else str)
        if convert:
            if not isinstance(value, list):
                raise ConfigError("%s must be a list of integers, got %r"
                                  % (key, value))
            named = [("%s[%d]" % (key, i), v) for i, v in enumerate(value)]
        else:
            named = [(key, value)]
        for name, v in named:
            if type(v) is not kind:
                raise ConfigError("%s must be %s, got %r" % (
                    name, "an integer" if kind is int else "a string", v))


def _merge_config(args) -> dict:
    """Defaults, then the --config file, then the flags given."""
    command = COMMANDS[args.command]
    cfg = dict(command.defaults)
    if args.config:
        doc = _load_config(args.config)
        known = {key for _, key, _, _ in command.flags}
        for key in doc:
            if key not in known:
                raise ConfigError("%s does not read config key %r"
                                  % (args.command, key))
        cfg.update(doc)
    for _, key, convert, _ in command.flags:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = convert(value) if convert else value
    _check_types(cfg, command.flags)
    if cfg.get("mode") == "positive":   # from the flag or a config file
        cfg["mode"] = POSITIVE          # the name manifests record
    return cfg


def _manifest(command, config, extra):
    doc = {
        "artifact": "symwalk",
        "version": __version__,
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config,
    }
    doc.update(extra)
    return doc


def run_command(name, cfg, out_dir, fmt_kind="csv"):
    """Run one subcommand and write its data file and manifest; returns
    their paths."""
    columns, rows, extra = COMMANDS[name].handler(cfg)
    text = render(columns, rows, fmt_kind)
    manifest = _manifest(name, cfg, extra)
    stem = os.path.join(out_dir, name.replace("-", "_"))
    os.makedirs(out_dir, exist_ok=True)
    data_path = stem + "." + fmt_kind
    manifest_path = stem + "_manifest.json"
    with open(data_path, "w") as fh:
        fh.write(text)
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data_path, manifest_path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data_path, manifest_path = run_command(
            args.command, _merge_config(args), args.out, args.fmt)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:                       # internal invariant broke
        if args.debug:
            traceback.print_exc()
        print("internal error: %s" % exc, file=sys.stderr)
        return 4
    print(data_path)
    print(manifest_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
