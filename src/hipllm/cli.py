"""Command-line front end.

Subcommands cover the full experiment surface: `infer`, also named
`reliability` (envelope report; `--horizons` sets n_F), `sweep-hyper` (repeat
inference over prior boxes), `sweep-op` (repeat inference over weight vectors),
`synth` (synthetic ground-truth comparison tables), `bench` (scaling sweeps
with power-law fits), and `baseline` (closed-form Beta-Binomial runs).

Exit codes: 0 success; 2 a `model.ConfigError` (a `ValidationError` among
them) or a `MemoryError`; 3 a `numerics.NumericalError`; 4 an `OSError`.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .baselines import bb_expected_future_reliability, bb_mean_envelope, bb_update
from .config import RunConfig, config_to_dict, parse_config, parse_sweep
from .inference import CONFIG_BLOCK, PAIRING_CHUNK, infer
from .model import MAX_COUNT, SEED_LIMIT, SIZE_FIELDS, ConfigError, McSpec, ReliabilityQuery
from .numerics import NumericalError
from .report import emit_csv, emit_json, emit_svg, write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _arg(parse, ok, what: str):
    """argparse type: `parse(text)`, accepted where `ok` holds of it;
    otherwise an error saying the value expected is `what`."""

    def read(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return read


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _pair(text: str) -> tuple[float, float]:
    lo, hi = map(float, text.split(","))
    return lo, hi


_int_list = _arg(_ints, lambda vs: vs and all(0 <= v <= MAX_COUNT for v in vs), "integers in [0, 2**53], at least one")
_count = _arg(int, lambda v: 0 <= v <= MAX_COUNT, "an integer in [0, 2**53]")
_seed = _arg(int, lambda v: 0 <= v < SEED_LIMIT, "an integer in [0, 2**64)")
_threads = _arg(int, lambda v: v >= 1, "a positive integer")
_positive = _arg(float, lambda v: 0.0 < v < math.inf, "a finite positive number")
_fraction = _arg(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
_interval = _arg(_pair, lambda iv: 0.0 < iv[0] <= iv[1] < math.inf, "a positive interval lo,hi")


def _load_run_config(args) -> RunConfig:
    """The config file with the command-line overrides applied."""
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.mc = replace(cfg.mc, master_seed=args.seed)
    if getattr(args, "horizons", ""):
        cfg.query = ReliabilityQuery(horizons=tuple(args.horizons))
    cfg.emit_svg = cfg.emit_svg or args.svg
    return cfg


def _run(cfg: RunConfig, out_dir: Path, threads: int) -> None:
    """Infer, then write the outputs the config asks for."""
    report = infer(cfg.system, cfg.grid, cfg.mc, cfg.query, threads=threads)
    if cfg.emit_csv:
        emit_csv(report, out_dir)
    if cfg.emit_json:
        emit_json(report, out_dir, config_echo=config_to_dict(cfg))
    if cfg.emit_svg:
        emit_svg(report, out_dir)


def cmd_infer(args) -> int:
    _run(_load_run_config(args), Path(args.out), args.threads)
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Run once per entry of the sweep file, into `<out>/<kind><idx:02d>`.
    Every entry is read and checked before the first run."""
    for idx, cfg in enumerate(parse_sweep(args.entries, _load_run_config(args), args.kind)):
        _run(cfg, Path(args.out) / f"{args.kind}{idx:02d}", args.threads)
    return EXIT_OK


def cmd_synth(args) -> int:
    gt = harness.default_ground_truth()
    regimes = {"small": args.small, "large": args.large}
    for name, sizes in regimes.items():
        if len(sizes) != len(gt.theta):
            raise ConfigError(f"--{name}: need {len(gt.theta)} sample sizes, got {len(sizes)}")
        # the "data" weight scenario splits the system by each domain's trials
        ends = itertools.accumulate(gt.domain_sizes)
        if any(sum(sizes[e - n : e]) == 0 for n, e in zip(gt.domain_sizes, ends)):
            raise ConfigError(f"--{name}: every domain needs a positive total sample size")
    mc = McSpec(configs_per_domain=args.configs, samples_per_config=args.samples)
    rows = harness.run_rq5(gt, regimes, noise=args.noise, seed=args.seed, mc=mc)

    table = [
        {"regime": row.regime, "scenario": row.scenario, **dataclasses.asdict(row.summary)}
        for row in rows
    ]
    out_dir = Path(args.out)
    write_csv(
        out_dir / "synth_comparison.csv",
        "regime,scenario,method,median_lo,median_hi,error_lo,error_hi,q05,q95".split(","),
        (
            [r["regime"], r["scenario"], r["method"]]
            + [f"{v:.9g}" for k in ("median", "error", "interval_90") for v in r[k]]
            for r in table
        ),
    )
    doc = {
        "seed": args.seed,
        "noise": args.noise,
        "ground_truth": {"theta": gt.theta, "op": gt.op, "domain_sizes": gt.domain_sizes},
        "regimes": regimes,
        "mc": {"configs_per_domain": mc.configs_per_domain, "samples_per_config": mc.samples_per_config},
        "p_system_gt": gt.p_system,
        "rows": table,
    }
    write_json(out_dir / "synth_comparison.json", doc)
    return EXIT_OK


def cmd_bench(args) -> int:
    values = args.values
    if len(values) < 3 or values[0] < 1 or values != sorted(set(values)):
        raise ConfigError("--values: need at least 3 positive, strictly increasing values")
    records = harness.run_scaling_sweep(args.param, values, seed=args.seed)
    c, alpha = harness.fit_power_law(
        [r.value for r in records], [r.seconds for r in records]
    )
    out_dir = Path(args.out)
    write_csv(
        out_dir / f"scaling_{args.param}.csv",
        ["parameter", "value", "seconds", "peak_bytes"],
        ([r.parameter, f"{r.value:.9g}", f"{r.seconds:.9g}", r.peak_bytes] for r in records),
    )
    fit = {"parameter": args.param, "seed": args.seed, "scale": c, "exponent": alpha}
    write_json(out_dir / f"scaling_{args.param}_fit.json", fit)
    print(f"fitted time = {c:.4g} * {args.param}^{alpha:.3f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    if (args.alpha_range is None) != (args.beta_range is None):
        raise ConfigError("--alpha-range and --beta-range must be given together")
    post = bb_update(args.correct, args.total, args.prior_alpha, args.prior_beta)
    # E[theta ** n] falls with n, so capping each horizon's value by the one
    # before moves it by no more than their errors, and keeps the row monotone
    reliability, cap = {}, 1.0
    for n in sorted(set(args.horizons)):
        reliability[n] = cap = min(cap, bb_expected_future_reliability(post, n))
    doc = {
        "posterior": {"alpha": post.alpha, "beta": post.beta},
        "posterior_mean": post.mean,
        "future_reliability": {str(n): reliability[n] for n in args.horizons},
    }
    if args.alpha_range is not None:
        lo_hi = bb_mean_envelope(args.correct, args.total, args.alpha_range, args.beta_range)
        doc["mean_envelope"] = list(lo_hi)
    print(json.dumps(doc, indent=2))
    if args.out:
        write_json(Path(args.out) / "baseline.json", doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hipllm",
        description="Reliability envelope inference from per-subdomain success counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_opts(p):
        p.add_argument("--config", required=True, help="JSON config file path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=_seed, default=None, help="override master seed")
        p.add_argument(
            "--threads", type=_threads, default=1,
            help=f"workers over blocks of {CONFIG_BLOCK} configs and chunks of {PAIRING_CHUNK} pairings (speed only)",
        )
        p.add_argument("--svg", action="store_true", help="also emit SVG bands")

    p = sub.add_parser("infer", aliases=["reliability"], help="CDF envelope and future-reliability report")
    add_run_opts(p)
    p.add_argument("--horizons", type=_int_list, default=[], help="comma-separated n_F values, at least one")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("sweep-hyper", help="repeat inference over prior boxes")
    add_run_opts(p)
    p.add_argument("--boxes", dest="entries", required=True, help="JSON list of box objects")
    p.set_defaults(func=cmd_sweep, kind="box")

    p = sub.add_parser("sweep-op", help="repeat inference over weight vectors")
    add_run_opts(p)
    p.add_argument("--weights", dest="entries", required=True, help="JSON list of weight overrides")
    p.set_defaults(func=cmd_sweep, kind="op")

    p = sub.add_parser("synth", help="synthetic ground-truth comparison tables")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--noise", type=_fraction, default=0.2)
    p.add_argument("--small", type=_int_list, default=list(harness.default_ground_truth().sample_sizes))
    p.add_argument("--large", type=_int_list, default="1000,5000,10000,3000")
    p.add_argument("--configs", type=int, default=McSpec.configs_per_domain,
                   help="configs per domain (default: %(default)s)")
    p.add_argument("--samples", type=int, default=McSpec.samples_per_config,
                   help="samples per config (default: %(default)s)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="scaling sweep with power-law fit")
    p.add_argument("--param", required=True, choices=["m", "n", "K", "S", "G"])
    p.add_argument("--values", type=_int_list, required=True, help="comma-separated sweep values")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("baseline", help="closed-form Beta-Binomial run")
    p.add_argument("--prior-alpha", type=_positive, default=1.0)
    p.add_argument("--prior-beta", type=_positive, default=1.0)
    p.add_argument("--correct", type=_count, required=True)
    p.add_argument("--total", type=_count, required=True)
    p.add_argument("--horizons", type=_int_list, default="1,10,100")
    p.add_argument("--alpha-range", type=_interval, default=None, help="prior alpha interval lo,hi")
    p.add_argument("--beta-range", type=_interval, default=None, help="prior beta interval lo,hi")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        sizes = ", ".join(f"{spec}.{name}" for spec, name, _ in SIZE_FIELDS)
        print(f"configuration error: {exc or 'out of memory'}; lower the sizes ({sizes})", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
