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
import sys

import numpy as np

from . import __version__
from .attack import bypass_rate_grid
from .config import RunConfig, apply_settings, load_config, validate_command, write_config_echo
from .errors import ConfigError, NcSecError
from .keydist import SCHEME_BY_LABEL, SchemeConfig, colluder_sweep
from .ledger import key_blocks
from .simulation import _ALL_SCHEMES, output_dir, run_simulation, write_run_artifacts, write_table


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ConfigError(message)


# A flag's ``dest`` is the setting it overrides; ``--config`` names the file.
_FLAGS = {
    "--config": dict(metavar="PATH", help="key=value config file"),
    "--seed": dict(dest="seed", type=int, metavar="N", help="master random seed"),
    "--scheme": dict(dest="scheme", choices=sorted(SCHEME_BY_LABEL),
                     help="key distribution scheme for the run"),
    "--predict": dict(dest="prediction.enabled", choices=("on", "off"), help="HO prediction"),
    "--horizon-ms": dict(dest="horizon_ms", type=int, metavar="N", help="simulated time span"),
    "--out": dict(dest="output_dir", metavar="DIR", help="output directory"),
}
# Each subcommand takes only the flags whose settings it reads.
_COMMANDS = (
    ("run", "run one seeded simulation", tuple(_FLAGS)),
    ("analyze", "colluder sweep analytics (bandwidth, safe keys)", ("--config", "--seed", "--out")),
    ("attack", "empirical bypass-rate measurements", ("--config", "--seed", "--out")),
    ("selftest", "execute the built-in invariant suite", ()),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ncsecsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr, flags in _COMMANDS:
        p = sub.add_parser(name, help=descr)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    settings = {k: v for k, v in vars(args).items() if k != "command"}
    path = settings.pop("config", None)
    config = load_config(path, base=RunConfig()) if path else RunConfig()
    overrides = {key: str(value) for key, value in settings.items() if value is not None}
    return apply_settings(config, overrides) if overrides else config


def _columns(rows: list, texts: list[str], ints: list[str], floats: list[str]) -> list:
    """The attributes of ``rows`` so named as ``write_table`` columns, in
    that order: texts (a text per row), ints, and floats, which the table
    writes to 12 significant digits."""
    values = {name: [getattr(row, name) for row in rows] for name in texts + ints + floats}
    return ([(np.arange(len(rows)), values[name]) for name in texts]
            + [np.array(values[name], dtype=np.int64) for name in ints]
            + [np.array(values[name], dtype=float) for name in floats])


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
        f"{np.count_nonzero(events.t_complete >= 0)} completed, {len(boundaries)} ledger blocks"
    )
    for name in sorted(paths):
        print(f"  {name}: {paths[name]}")
    return 0


def _cmd_analyze(config: RunConfig) -> int:
    az, sec = config.analyze, config.security
    out = output_dir(config.output_dir)
    rows = []
    for scheme, child in zip(
        _ALL_SCHEMES, np.random.SeedSequence(config.seed).spawn(len(_ALL_SCHEMES))
    ):
        base = SchemeConfig(scheme, l=sec.l, L=az.L, s=az.s, epsilon=az.epsilon, d=az.d,
                            q=sec.q, m=sec.m, n=sec.n)
        rows += colluder_sweep(base, range(az.c_min, az.c_max + 1),
                               rng=np.random.default_rng(child), trials=az.trials)
    # fig4: bandwidth at each scheme's own tag count; fig5: safe-key
    # probability, which every scheme takes at security.l
    header = ["scheme", "c", "l", "bandwidth", "safe_key_prob", "ci_low", "ci_high"]
    columns = _columns(rows, header[:1], header[1:3], header[3:])
    write_table(out / "fig4.csv", header[:4], columns[:4])
    write_table(out / "fig5.csv", header[:3] + header[4:],
                [*columns[:2], np.full(len(rows), sec.l), *columns[4:]])
    write_table(out / "analytics.csv", header, columns)
    write_config_echo(config, out / "config.txt")
    print(f"analyze: {len(rows)} rows over c={az.c_min}..{az.c_max} -> {out}/fig4.csv, fig5.csv")
    return 0


def _cmd_attack(config: RunConfig) -> int:
    at = config.attack
    out = output_dir(config.output_dir)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    # trials=0 selects an empty measurement grid (header-only CSV)
    rows = [] if at.trials == 0 else bypass_rate_grid(at.q, at.trials, rng, n=at.n, m=at.m, l=at.l)
    header = ["scheme", "strategy", "q", "l_prime", "trials", "rate", "ci_low", "ci_high"]
    write_table(out / "bypass_rates.csv", header,
                _columns(rows, header[:2], header[2:5], header[5:]))
    write_config_echo(config, out / "config.txt")
    print(f"attack: {len(rows)} measurements -> {out}/bypass_rates.csv")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _effective_config(args)
        validate_command(args.command, config)
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
