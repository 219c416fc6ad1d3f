"""Command-line interface.

Subcommands: gen, sketch, recover, eval, experiment. Each takes a JSON config
(--config) merged over built-in defaults, with a few flags (--seed, --rank,
--two-pass, --threads) overriding the merged values; --print-config shows the
result and exits. Every tensor-bearing input is a whole-tensor TNSR file or a
TSKC slab stream, told apart by its magic: sketch, recover --two-pass and eval
take it through --chunks. Each reads it in bounded pieces at fixed last-mode
positions (``TensorFile.slabs``), never whole and whatever its records. A
stream whose records overlap or leave a gap is refused before any of it is used.
Failures, command-line mistakes included, exit nonzero with one JSON line on
stderr: {"error": {"category": ..., "message": ...}}. A failed allocation is
a config error, and a failed LAPACK routine a singular one.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import ExitStack

import numpy as np

from .ensembles import derive_seed
from .errors import EXIT_CODES, ConfigError, IOFormatError, ShapeError, TsketchError
from .evaluate import (
    add_noise_snr,
    bound_rhs,
    gen_lowrank,
    gen_superdiag_exp,
    gen_superdiag_poly,
    max_principal_angle,
    relative_error,
    score,
    snr_db,
    tail_baseline,
    tail_energy,
)
from .formats import (
    TensorFile,
    read_bundle,
    read_chunks_dense,
    read_factorization,
    write_bundle,
    write_chunks,
    write_factorization,
    write_tensor,
    write_text,
)
from .recover import (
    TuckerFactorization,
    compute_core_twopass,
    one_pass,
    reconstruct,
    recover_core_onepass,
    recover_factors,
    two_pass,
)
from .sketch import make_plan, sketch, slab_chunks
from .tensor import norm

__all__ = ["main"]

CSV_HEADER_COMMENT = "# tsketch-csv v1"

CSV_COLUMNS = [
    "variant",
    "loo_kind",
    "family",
    "n",
    "d",
    "r_true",
    "r_fit",
    "snr_db_target",
    "m",
    "m_c",
    "trial",
    "seed",
    "rel_err_onepass",
    "rel_err_twopass",
    "rel_err_onepass_input",
    "snr_db",
    "angle_max_deg",
    "angles_deg",
    "storage_loo_entries",
    "storage_core_entries",
    "storage_total_entries",
    "bound_rhs",
    "tail_baseline",
    "wall_sketch_s",
    "wall_factor_s",
    "wall_core_s",
]

_GEN_DEFAULTS = {
    "generator": "lowrank",
    "n": 40,
    "d": 3,
    "r_true": 5,
    "snr_db": None,
    "slabs": None,
    "seed": 0,
}

_SKETCH_DEFAULTS = {
    "loo_kind": "kronecker",
    "m": 15,
    "m_c": 15,
    "loo_family": "gaussian",
    "core_family": None,
    "seed": 0,
}

_RECOVER_DEFAULTS = {
    "rank": None,
    "two_pass": False,
}

_EVAL_DEFAULTS = {
    "clean": None,
}

_EXPERIMENT_DEFAULTS = {
    "generator": "lowrank",
    "input": None,
    "n": 40,
    "d": 3,
    "r_true": 5,
    "r_fit": 5,
    "snr_db": None,
    "loo_kind": "kronecker",
    "loo_family": "gaussian",
    "core_family": None,
    "variants": None,
    "m": [15],
    "m_c": [15],
    "trials": 1,
    "two_pass": False,
    "bound_eps": 0.99,
    "seed": 0,
    "threads": 1,
}

_DEFAULTS = {
    "gen": _GEN_DEFAULTS,
    "sketch": _SKETCH_DEFAULTS,
    "recover": _RECOVER_DEFAULTS,
    "eval": _EVAL_DEFAULTS,
    "experiment": _EXPERIMENT_DEFAULTS,
}

# Variant entries in an experiment config may override only these.
_VARIANT_KEYS = {"loo_kind", "loo_family", "core_family", "m", "m_c"}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage mistakes are config errors, not exits."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    """Every subcommand's flags; --config and --print-config are common to all."""
    parser = _Parser(
        prog="tsketch",
        description="Sketch large dense tensors in one pass and recover "
        "low Tucker-rank factorizations from the sketches.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--print-config", action="store_true",
                        help="print the merged config as JSON and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="synthesize a test tensor")
    gen.add_argument("--output", metavar="PATH",
                     help="tensor file to write (TNSR, or TSKC when config slabs is set)")
    gen.add_argument("--seed", type=int, default=argparse.SUPPRESS, metavar="U64",
                     help="override config seed")

    sk = sub.add_parser("sketch", parents=[common], help="sketch a tensor into a bundle")
    sk.add_argument("--chunks", metavar="PATH",
                    help="tensor to sketch (TNSR or TSKC), read in bounded pieces")
    sk.add_argument("--output", metavar="PATH", help="bundle file to write (TSKB)")
    sk.add_argument("--seed", type=int, default=argparse.SUPPRESS, metavar="U64",
                    help="override config seed")

    rec = sub.add_parser("recover", parents=[common], help="recover a factorization from a bundle")
    rec.add_argument("--input", metavar="PATH", help="bundle file (TSKB)")
    rec.add_argument("--output", metavar="PATH", help="factorization file to write (TUCK)")
    rec.add_argument("--rank", type=int, default=argparse.SUPPRESS, metavar="R",
                     help="target Tucker rank")
    rec.add_argument("--two-pass", action="store_true", default=argparse.SUPPRESS,
                     help="recompute the core from the data (needs --chunks)")
    rec.add_argument("--chunks", metavar="PATH", help="tensor for the second pass (TNSR or TSKC)")

    ev = sub.add_parser("eval", parents=[common], help="score a factorization against a tensor")
    ev.add_argument("--input", metavar="PATH", help="factorization file (TUCK)")
    ev.add_argument("--output", metavar="PATH", help="JSON report path (default: stdout)")
    ev.add_argument("--chunks", metavar="PATH", help="tensor it was fit to (TNSR or TSKC)")

    ex = sub.add_parser("experiment", parents=[common],
                        help="run a sweep and write one CSV row per trial")
    ex.add_argument("--output", metavar="PATH", help="CSV file to write")
    ex.add_argument("--seed", type=int, default=argparse.SUPPRESS, metavar="U64",
                    help="override config seed")
    ex.add_argument("--threads", type=int, default=argparse.SUPPRESS, metavar="N",
                    help="worker threads")
    return parser


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise IOFormatError(f"cannot open config {path}: {e}")
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    if not isinstance(loaded, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return loaded


def _merge_config(command, args):
    cfg = dict(_DEFAULTS[command])
    if args.config:
        loaded = _load_config_file(args.config)
        unknown = sorted(set(loaded) - set(cfg))
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")
        cfg.update(loaded)
    # A flag whose dest is a config key (--seed, --rank, --two-pass, --threads)
    # overrides it; with default SUPPRESS it is in `args` only when given.
    cfg.update((key, value) for key, value in vars(args).items() if key in cfg)
    _check_values(command, cfg)
    for v_idx, overrides in enumerate(cfg.get("variants") or ()):
        unknown = sorted(set(overrides) - _VARIANT_KEYS)
        if unknown:
            raise ConfigError(f"variant {v_idx} overrides unknown keys: {', '.join(unknown)}")
        _check_values(command, overrides, f"variants[{v_idx}].")
    return cfg


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v):
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _positive(v):
    return _is_int(v) and v >= 1


# What each config value must be, as (description, test). A JSON integer is
# required wherever an integer is meant, so "6" and true are refused. A key
# whose default is null may also be null.
_CHECKS = {
    **dict.fromkeys(
        ("generator", "input", "clean", "loo_kind"),
        ("a string", lambda v: isinstance(v, str)),
    ),
    **dict.fromkeys(
        ("n", "d", "r_true", "r_fit", "rank", "slabs", "trials", "threads", "m", "m_c"),
        ("a positive integer", _positive),
    ),
    **dict.fromkeys(
        ("loo_family", "core_family"),
        (
            "a family name or a list of them",
            lambda v: isinstance(v, str) or (isinstance(v, list) and all(isinstance(f, str) for f in v)),
        ),
    ),
    "snr_db": ("a finite number", _is_real),
    "bound_eps": ("a number in (0, 1)", lambda v: _is_real(v) and 0 < v < 1),
    # The bundle stores the seed as a u64.
    "seed": ("an integer in [0, 2^64)", lambda v: _is_int(v) and 0 <= v < 2**64),
    "two_pass": ("true or false", lambda v: isinstance(v, bool)),
    "variants": (
        "a list of config-override objects",
        lambda v: isinstance(v, list) and all(isinstance(o, dict) for o in v),
    ),
}

# An experiment sweeps m and m_c over lists.
_SWEEP = (
    "a positive integer or a non-empty list of them",
    lambda v: _positive(v) or (isinstance(v, list) and v and all(_positive(x) for x in v)),
)


def _check_values(command, cfg, where=""):
    for key, value in cfg.items():
        if value is None and _DEFAULTS[command][key] is None:
            continue
        what, ok = _SWEEP if command == "experiment" and key in ("m", "m_c") else _CHECKS[key]
        if not ok(value):
            raise ConfigError(f"config key {where}{key} must be {what}, got {value!r}")


def _require(value, flag):
    if not value:
        raise ConfigError(f"{flag} is required")
    return value


# -- gen -----------------------------------------------------------------


def _generate_clean(cfg, seed):
    gen = cfg["generator"]
    n, d, r = cfg["n"], cfg["d"], cfg["r_true"]
    if gen == "lowrank":
        return gen_lowrank(n, d, r, seed=seed)
    if gen == "superdiag_exp":
        return gen_superdiag_exp(n, d, r), None
    if gen == "superdiag_poly":
        return gen_superdiag_poly(n, d, r), None
    raise ConfigError(f"unknown generator {gen!r}")


def cmd_gen(args, cfg):
    output = _require(args.output, "--output")
    x0, _ = _generate_clean(cfg, cfg["seed"])
    x = x0 if cfg["snr_db"] is None else add_noise_snr(x0, cfg["snr_db"], seed=cfg["seed"])
    slabs = cfg["slabs"]
    if slabs is None:
        write_tensor(output, x)
    else:
        write_chunks(output, x.shape, slab_chunks(x, slabs))
    return 0


# -- sketch --------------------------------------------------------------


def _plan_from_config(cfg, shape):
    return make_plan(
        shape,
        cfg["loo_kind"],
        cfg["m"],
        cfg["m_c"],
        loo_family=cfg["loo_family"],
        core_family=cfg["core_family"],
        seed=cfg["seed"],
    )


def cmd_sketch(args, cfg):
    output = _require(args.output, "--output")
    with TensorFile(_require(args.chunks, "--chunks")) as x:
        bundle = sketch(x.slabs(), _plan_from_config(cfg, x.shape))
    write_bundle(output, bundle)
    return 0


# -- recover -------------------------------------------------------------


def cmd_recover(args, cfg):
    bundle_path = _require(args.input, "--input")
    output = _require(args.output, "--output")
    rank = _require(cfg["rank"], "--rank")
    if cfg["two_pass"] and not args.chunks:
        raise ConfigError("--two-pass needs the tensor via --chunks")
    if args.chunks and not cfg["two_pass"]:
        raise ConfigError("--chunks is read only by the second pass: add --two-pass")
    if cfg["two_pass"]:
        # No local holds the bundle, so `two_pass` frees it before its pass.
        with TensorFile(args.chunks) as x:
            t = two_pass(read_bundle(bundle_path), x.slabs(), rank)
    else:
        t = one_pass(read_bundle(bundle_path), rank)
    write_factorization(output, t)
    return 0


# -- eval ----------------------------------------------------------------


def cmd_eval(args, cfg):
    t = read_factorization(_require(args.input, "--input"))
    with ExitStack() as files:
        x = files.enter_context(TensorFile(_require(args.chunks, "--chunks")))
        if t.shape != x.shape:
            raise ShapeError(f"factorization reconstructs to {t.shape}, tensor has shape {x.shape}")
        clean = None
        if cfg["clean"] is not None:
            x0 = files.enter_context(TensorFile(cfg["clean"]))
            if x0.shape != x.shape:
                raise ShapeError(f"shape mismatch: {x0.shape} vs {x.shape}")
            clean = x0.read  # over each observed slab's range, whatever its own records
        report = {"shape": list(x.shape), "rank": t.rank, **score(t, x.slabs(), clean)}
    if math.isinf(report.get("snr_db", 0.0)):
        report["snr_db"] = None  # noiseless: the clean tensor equals the observed one
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.output:
        write_text(args.output, text + "\n")
    else:
        print(text)
    return 0


# -- experiment ----------------------------------------------------------


def _as_sweep(value):
    return value if isinstance(value, list) else [value]


def _experiment_tasks(cfg):
    """Expand (variant, m, m_c, trial) cross product into per-row task dicts."""
    tasks = []
    for v_idx, overrides in enumerate(cfg["variants"] or [{}]):
        row_cfg = dict(cfg)
        row_cfg.update(overrides)
        for m in _as_sweep(row_cfg["m"]):
            for m_c in _as_sweep(row_cfg["m_c"]):
                for trial in range(cfg["trials"]):
                    tasks.append(
                        {
                            "cfg": row_cfg,
                            "variant": v_idx,
                            "m": m,
                            "m_c": m_c,
                            "trial": trial,
                            "seed": derive_seed(cfg["seed"], "trial", v_idx, m, m_c, trial),
                        }
                    )
    return tasks


def _run_trial(task, shared):
    cfg = task["cfg"]
    seed = task["seed"]
    r_fit = cfg["r_fit"]

    if "x0" in shared:
        x0, factors_true = shared["x0"], None
    else:
        x0, factors_true = _generate_clean(cfg, seed)
    n, d = x0.shape[0], x0.ndim
    x = x0 if cfg["snr_db"] is None else add_noise_snr(x0, cfg["snr_db"], seed=seed)

    plan = _plan_from_config({**cfg, "m": task["m"], "m_c": task["m_c"], "seed": seed}, x.shape)

    t0 = time.perf_counter()
    bundle = sketch(x, plan)
    t_sketch = time.perf_counter() - t0

    # The two stages of one_pass, timed separately. Two-pass keeps the factors.
    t0 = time.perf_counter()
    qs = recover_factors(bundle, r_fit)
    t_factor = time.perf_counter() - t0

    t0 = time.perf_counter()
    core = recover_core_onepass(bundle.core, plan.core_maps, qs)
    t_core = time.perf_counter() - t0

    x_hat = reconstruct(TuckerFactorization(core=core, factors=qs))
    rel_err_twopass = None
    if cfg["two_pass"]:
        x_hat2 = reconstruct(TuckerFactorization(core=compute_core_twopass(x, qs), factors=qs))
        rel_err_twopass = relative_error(x_hat2, x, x0)

    if "deltas" in shared:
        deltas = shared["deltas"]
    else:
        deltas = [tail_energy(x, r_fit, j) for j in range(1, x.ndim + 1)]

    angles = None
    if factors_true is not None:
        angles = [max_principal_angle(q, u) for q, u in zip(qs, factors_true)]

    measured_snr = snr_db(x, x0)
    return {
        "variant": task["variant"],
        "loo_kind": cfg["loo_kind"],
        "family": cfg["loo_family"],
        "n": n,
        "d": d,
        "r_true": cfg["r_true"],
        "r_fit": r_fit,
        "snr_db_target": cfg["snr_db"],
        "m": task["m"],
        "m_c": task["m_c"],
        "trial": task["trial"],
        "seed": seed,
        # residual against the observed tensor, normalized by the clean norm
        "rel_err_onepass": relative_error(x_hat, x, x0),
        "rel_err_twopass": rel_err_twopass,
        # same residual normalized by the observed norm (pairs with bound_rhs)
        "rel_err_onepass_input": relative_error(x_hat, x),
        "snr_db": None if math.isinf(measured_snr) else measured_snr,
        "angle_max_deg": max(angles) if angles else None,
        "angles_deg": ";".join(repr(a) for a in angles) if angles else None,
        "storage_loo_entries": plan.loo_entry_count(),
        "storage_core_entries": plan.core_entry_count(),
        "storage_total_entries": plan.loo_entry_count() + plan.core_entry_count(),
        "bound_rhs": bound_rhs(cfg["bound_eps"], deltas) / norm(x),
        "tail_baseline": (
            tail_baseline(x0, r_fit) if cfg["generator"].startswith("superdiag") else None
        ),
        "wall_sketch_s": t_sketch,
        "wall_factor_s": t_factor,
        "wall_core_s": t_core,
    }


def _shared_state(cfg):
    """Deterministic work hoisted out of the trial loop.

    A file input and a super-diagonal one do not depend on the trial seed, so
    the tensor and (when noiseless) its per-mode tail energies are computed
    once per sweep instead of once per row. Variants override none of the
    keys they depend on.
    """
    generator = cfg["generator"]
    if generator == "file":
        if not cfg["input"]:
            raise ConfigError('generator "file" needs an input tensor path in the config')
        x0 = read_chunks_dense(cfg["input"])  # a TNSR file or a TSKC stream
    elif generator.startswith("superdiag"):
        x0, _ = _generate_clean(cfg, None)  # super-diagonal tensors take no seed
    else:
        return {}
    shared = {"x0": x0}
    if cfg["snr_db"] is None:
        shared["deltas"] = [tail_energy(x0, cfg["r_fit"], j) for j in range(1, x0.ndim + 1)]
    return shared


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_experiment(cfg):
    from concurrent.futures import ThreadPoolExecutor  # only the experiment uses a pool

    tasks = _experiment_tasks(cfg)
    shared = _shared_state(cfg)
    # A failed trial ends the sweep: map cancels the trials still queued.
    with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
        rows = list(pool.map(_run_trial, tasks, [shared] * len(tasks)))
    rows.sort(key=lambda r: (r["variant"], r["m"], r["m_c"], r["trial"]))
    return rows


def write_csv(path, rows):
    import csv  # only the experiment writes CSV
    import io

    f = io.StringIO()
    f.write(CSV_HEADER_COMMENT + "\n")
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(row[col]) for col in CSV_COLUMNS])
    write_text(path, f.getvalue())


def cmd_experiment(args, cfg):
    output = _require(args.output, "--output")
    rows = run_experiment(cfg)
    write_csv(output, rows)
    return 0


# -- entry point -----------------------------------------------------------


_COMMANDS = {
    "gen": cmd_gen,
    "sketch": cmd_sketch,
    "recover": cmd_recover,
    "eval": cmd_eval,
    "experiment": cmd_experiment,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = _merge_config(args.command, args)
        if args.print_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return 0
        return _COMMANDS[args.command](args, cfg)
    except (TsketchError, MemoryError, np.linalg.LinAlgError) as e:
        category = getattr(e, "category", "config" if isinstance(e, MemoryError) else "singular")
        line = json.dumps({"error": {"category": category, "message": str(e) or "out of memory"}})
        sys.stderr.write(line + "\n")
        return EXIT_CODES[category]


if __name__ == "__main__":
    sys.exit(main())
