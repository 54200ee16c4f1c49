"""Command-line experiment runner.

Subcommands:

* ``run``      - execute one seeded simulation and write its artifacts
* ``analyze``  - bandwidth and safe-key analytics over a colluder sweep
* ``attack``   - empirical bypass-rate grid for the adversary strategies
* ``selftest`` - fast built-in invariant suite

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .attack import bypass_rate_grid
from .config import RunConfig, apply_settings, load_config, validate_command, write_config_echo
from .errors import ConfigError, NcSecError
from .keydist import SCHEME_BY_LABEL, Scheme, SchemeConfig, colluder_sweep
from .ledger import key_blocks
from .simulation import run_simulation, write_run_artifacts


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ncsecsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("run", "run one seeded simulation"),
        ("analyze", "colluder sweep analytics (bandwidth, safe keys)"),
        ("attack", "empirical bypass-rate measurements"),
        ("selftest", "execute the built-in invariant suite"),
    ):
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument("--seed", type=int, metavar="N", help="master random seed")
        p.add_argument(
            "--scheme",
            choices=sorted(SCHEME_BY_LABEL),
            help="key distribution scheme for the run",
        )
        p.add_argument("--predict", choices=("on", "off"), help="HO prediction")
        p.add_argument("--horizon-ms", type=int, metavar="N", help="simulated time span")
        p.add_argument("--out", metavar="DIR", help="output directory")
    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        config = load_config(args.config, base=config)
    overrides: dict[str, str] = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
    if args.predict is not None:
        overrides["prediction.enabled"] = args.predict
    if args.horizon_ms is not None:
        overrides["horizon_ms"] = str(args.horizon_ms)
    if args.out is not None:
        overrides["output_dir"] = args.out
    if overrides:
        config = apply_settings(config, overrides)
    return config


def _fmt(value) -> str:
    return f"{float(value):.12g}"


def _cmd_run(config: RunConfig) -> int:
    result = run_simulation(config)
    paths = write_run_artifacts(result, config.output_dir)
    events = result.events
    # the count needs only the upload times, not the blocks' key rings
    boundaries, _ = key_blocks(
        [events.uploaded_at[c] for c in events.uploads], events.clock, events.period
    )
    print(
        f"run: scheme={config.scheme.label} seed={config.seed} "
        f"horizon={config.horizon_ms} ms: {len(events)} HO triggers, "
        f"{len(result.completed)} completed, {len(boundaries)} ledger blocks"
    )
    for name in sorted(paths):
        print(f"  {name}: {paths[name]}")
    return 0


def _cmd_analyze(config: RunConfig) -> int:
    az = config.analyze
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    c_values = range(az.c_min, az.c_max + 1)
    seq = np.random.SeedSequence(config.seed)
    rows = []
    for scheme, child in zip(
        (Scheme.BLOCKCHAIN, Scheme.DOUBLE_RANDOM, Scheme.C_COVER_FREE), seq.spawn(3)
    ):
        base = SchemeConfig(
            scheme,
            l=config.security.l,
            L=az.L,
            s=az.s,
            epsilon=az.epsilon,
            d=az.d,
            q=config.security.q,
            m=config.security.m,
            n=config.security.n,
        )
        rows.extend(
            colluder_sweep(base, c_values, rng=np.random.default_rng(child), trials=az.trials)
        )

    with open(out / "fig4.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "c", "l", "bandwidth"])
        for r in rows:
            w.writerow([r.scheme, r.c, r.l, _fmt(r.bandwidth)])
    with open(out / "fig5.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "c", "l", "safe_key_prob", "ci_low", "ci_high"])
        for r in rows:
            w.writerow([r.scheme, r.c, config.security.l, _fmt(r.safe_key_prob),
                        _fmt(r.ci_low), _fmt(r.ci_high)])
    with open(out / "analytics.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "c", "l", "bandwidth", "safe_key_prob", "ci_low", "ci_high"])
        for r in rows:
            w.writerow([r.scheme, r.c, r.l, _fmt(r.bandwidth), _fmt(r.safe_key_prob),
                        _fmt(r.ci_low), _fmt(r.ci_high)])
    write_config_echo(config, out / "config.txt")
    print(f"analyze: {len(rows)} rows over c={az.c_min}..{az.c_max} -> {out}/fig4.csv, fig5.csv")
    return 0


def _cmd_attack(config: RunConfig) -> int:
    at = config.attack
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    # trials=0 selects an empty measurement grid (header-only CSV)
    rows = [] if at.trials == 0 else bypass_rate_grid(at.q, at.trials, rng, n=at.n, m=at.m, l=at.l)
    with open(out / "bypass_rates.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "strategy", "q", "l_prime", "trials", "rate", "ci_low", "ci_high"])
        for r in rows:
            w.writerow([r.scheme, r.strategy, r.q, r.l_prime, r.trials,
                        _fmt(r.rate), _fmt(r.ci_low), _fmt(r.ci_high)])
    write_config_echo(config, out / "config.txt")
    print(f"attack: {len(rows)} measurements -> {out}/bypass_rates.csv")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _effective_config(args)
        validate_command(args.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return _cmd_run(config)
        if args.command == "analyze":
            return _cmd_analyze(config)
        if args.command == "attack":
            return _cmd_attack(config)
        from .selftest import run_selftest

        return run_selftest()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NcSecError, OSError, MemoryError, OverflowError, FloatingPointError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
