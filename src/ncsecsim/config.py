"""Run configuration: defaults, flat config-file parsing, canonical echo.

Config files are flat ``key=value`` text with dotted section prefixes
(``scenario.isd_m=100``), blank lines and ``#`` comments ignored.  Every
run writes a canonicalised echo of its effective configuration next to
its output CSVs; replaying that file reproduces the run bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import mobility
from .attack import grid_bytes
from .errors import ConfigError, InvalidParameter
from .gf import field_of_order
from .handover import PredictionConfig
from .keydist import SCHEME_BY_LABEL, Scheme, safe_key_bytes
from .ledger import DEFAULT_COLLECTION_PERIOD_MS

# The most bytes a config may make one command hold at once: the sum of its
# layers' peaks (``simulation.run_bytes`` for every command, then its own:
# ``keydist.safe_key_bytes`` for ``analyze``, ``attack.grid_bytes`` for ``attack``).
BYTE_BOUND = 2**30
# The most trials a bypass-grid row may take.  A row's batches hold the
# same bytes at any count, so this bounds time: about five minutes a row
# at 3.4M trials/s.
BYPASS_TRIALS = 10**9
# The coarsest rounding of a received power that a run accepts: a
# hundredth of the box prefilter's slack (``CellGrid.may_fire``), and so
# far finer than any offset.
POWER_RESOLUTION_DB = mobility.PREFILTER_SLACK_DB / 100


@dataclass(frozen=True)
class ScenarioConfig:
    """Grid, mobility and trigger parameters (defaults: the 16-cell,
    20-UE, 60 km/h reference scenario)."""

    rows: int = 4
    cols: int = 4
    isd_m: float = 100.0
    wrap: bool = True
    num_ues: int = 20
    ue_speed_kmh: float = 60.0
    rs_period_ms: int = 160
    ul_offset_db: float = 1.0
    ul_ttt_ms: int = 32
    ptx_dbm: float = mobility.DEFAULT_PTX_DBM
    pl0_db: float = mobility.DEFAULT_PL0_DB
    pl_exponent: float = mobility.DEFAULT_PL_EXPONENT
    shadow_sigma_db: float = 0.0
    dump_measurements: bool = False

    @property
    def ue_speed_mps(self) -> float:
        return self.ue_speed_kmh / 3.6

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class SecurityConfig:
    q: int = 256
    n: int = 1024  # payload symbols (1024 bytes at q=2^8)
    m: int = 32  # generation size
    l: int = 8  # tags per packet


@dataclass(frozen=True)
class LedgerConfig:
    collection_period_ms: int = DEFAULT_COLLECTION_PERIOD_MS
    ho_timeout_ms: int = 2000  # two collection periods


@dataclass(frozen=True)
class AnalyzeConfig:
    c_min: int = 1
    c_max: int = 7
    epsilon: float = 0.01
    d: float = 0.5
    L: int = 16
    s: int = 8
    trials: int = 100_000


@dataclass(frozen=True)
class AttackSweepConfig:
    q: int = 16
    n: int = 32
    m: int = 4
    l: int = 8
    trials: int = 100_000


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    security: SecurityConfig = field(default_factory=SecurityConfig)
    ledger: LedgerConfig = field(default_factory=LedgerConfig)
    prediction: PredictionConfig = field(default_factory=PredictionConfig)
    analyze: AnalyzeConfig = field(default_factory=AnalyzeConfig)
    attack: AttackSweepConfig = field(default_factory=AttackSweepConfig)
    scheme: Scheme = Scheme.BLOCKCHAIN
    horizon_ms: int = 10_000
    seed: int = 0
    output_dir: str = "out"


# The one table of settings: each key of a config file, with the section
# of ``RunConfig`` that holds it (None at the top level) and its field
# there, whose annotation names the type its value converts to.
_KEYS = {
    **{f"{section.name}.{f.name}": (section.name, f)
       for section in dataclasses.fields(RunConfig)
       if dataclasses.is_dataclass(section.default_factory)
       for f in dataclasses.fields(section.default_factory)},
    **{f.name: (None, f) for f in dataclasses.fields(RunConfig)
       if not dataclasses.is_dataclass(f.default_factory)},
}


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "on", "1", "yes"):
        return True
    if low in ("false", "off", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_scheme(raw: str, key: str) -> Scheme:
    label = raw.strip().lower()
    if label not in SCHEME_BY_LABEL:
        raise ConfigError(f"{key}: {raw!r} is not one of {sorted(SCHEME_BY_LABEL)}")
    return SCHEME_BY_LABEL[label]


def _parse_number(raw: str, key: str, kind: type):
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    # numpy seeds any int; every other int setting meets int64 arrays
    if kind is int and key != "seed" and not -(2**63) <= value < 2**63:
        raise ConfigError(f"{key}: {value} is outside the int64 range")
    return value


# A field's annotation (a string: ``from __future__ import annotations``)
# -> how a config value of it converts.
_PARSERS = {
    "bool": _parse_bool,
    "int": lambda raw, key: _parse_number(raw, key, int),
    "float": lambda raw, key: _parse_number(raw, key, float),
    "str": lambda raw, key: raw.strip(),
    "Scheme": _parse_scheme,
}


def apply_settings(config: RunConfig, settings: dict[str, str]) -> RunConfig:
    """Return a new RunConfig with the given dotted-key settings applied."""
    updates: dict[str | None, dict[str, object]] = {}
    for key, raw in settings.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        section, f = _KEYS[key]
        updates.setdefault(section, {})[f.name] = _PARSERS[f.type](raw, key)
    top = updates.pop(None, {})
    for section, values in updates.items():
        try:
            top[section] = dataclasses.replace(getattr(config, section), **values)
        except InvalidParameter as exc:  # a section's own checks (``__post_init__``)
            raise ConfigError(f"{', '.join(section + '.' + k for k in values)}: {exc}") from None
    out = dataclasses.replace(config, **top)
    validate(out)
    return out


def load_config(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    base = RunConfig() if base is None else base
    settings: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        settings[key.strip()] = value.strip()
    return apply_settings(base, settings)


def validate(config: RunConfig) -> None:
    """Check the settings every command reads, and that their run fits ``BYTE_BOUND``."""
    sc = config.scenario
    if sc.rows < 1 or sc.cols < 1:
        raise ConfigError("scenario.rows/cols: must be >= 1")
    if sc.isd_m <= 0:
        raise ConfigError("scenario.isd_m: must be positive")
    if sc.num_ues < 0:
        raise ConfigError("scenario.num_ues: must be >= 0")
    if sc.ue_speed_kmh < 0:
        raise ConfigError("scenario.ue_speed_kmh: must be >= 0")
    if sc.rs_period_ms <= 0:
        raise ConfigError("scenario.rs_period_ms: must be positive")
    if sc.ul_ttt_ms < 0:
        raise ConfigError("scenario.ul_ttt_ms: must be >= 0")
    if sc.shadow_sigma_db < 0:
        raise ConfigError("scenario.shadow_sigma_db: must be >= 0")
    sec = config.security
    _check_field_order("security.q", sec.q)
    if sec.n < 1 or sec.m < 1 or sec.l < 1:
        raise ConfigError("security.n/m/l: must be >= 1")
    if config.ledger.collection_period_ms <= 0:
        raise ConfigError("ledger.collection_period_ms: must be positive")
    if config.ledger.ho_timeout_ms < config.ledger.collection_period_ms:
        raise ConfigError(
            f"ledger.ho_timeout_ms={config.ledger.ho_timeout_ms} is below "
            f"ledger.collection_period_ms={config.ledger.collection_period_ms}: "
            "a first-visit handover can wait a whole period for its keys"
        )
    if config.horizon_ms < 0:
        raise ConfigError("horizon_ms: must be >= 0")
    if config.seed < 0:
        raise ConfigError("seed: must be >= 0")
    from .simulation import run_bytes  # which imports this module
    _check_bytes("a run", run_bytes(config))
    # finite distances: the grid's diagonal and box reach, a tick's step
    reach = math.sqrt(2) * max(sc.rows, sc.cols, mobility.BOX_REACH_ISD) * sc.isd_m
    if not math.isfinite(reach):
        raise ConfigError(f"scenario.isd_m: {sc.isd_m} m overflows the grid's extent")
    if not math.isfinite(sc.ue_speed_mps * sc.rs_period_ms):
        raise ConfigError(f"scenario.ue_speed_kmh: {sc.ue_speed_kmh} km/h overflows a tick's step")
    _check_power_resolution(sc, reach)


def validate_command(command: str, config: RunConfig) -> None:
    """Check the settings only ``command`` reads: ``analyze.*`` for
    ``analyze`` and ``attack.*`` for ``attack``."""
    az, at, sec = config.analyze, config.attack, config.security
    if command == "analyze":
        if not 0 < az.epsilon < 1 or not 0 <= az.d < 1 or 1 / az.epsilon == math.inf:
            raise ConfigError("analyze.epsilon, analyze.d: need 1 < 1/epsilon < inf, 0 <= d < 1")
        if az.c_min < 0 or az.c_max < az.c_min:
            raise ConfigError("analyze.c_min/c_max: need 0 <= c_min <= c_max")
        if az.L < sec.l:
            raise ConfigError(
                f"analyze.L={az.L} is below security.l={sec.l}: the baseline key "
                "universe must hold every tag of a packet"
            )
        if az.s > az.L:
            raise ConfigError(
                f"analyze.s={az.s} exceeds analyze.L={az.L}: a node draws s distinct "
                "keys from the universe"
            )
        if az.s < sec.l:
            raise ConfigError(
                f"analyze.s={az.s} is below security.l={sec.l}: the macsig source "
                "tags with l keys from its own s"
            )
        if az.trials < 1:
            raise ConfigError("analyze.trials: must be >= 1")
        held = safe_key_bytes(az.L, az.trials, az.c_max)
        _check_bytes("analyze", [("analyze.trials, analyze.L, analyze.c_max", held)])
    if command == "attack":
        _check_field_order("attack.q", at.q)
        if at.n < 1 or at.m < 1:
            raise ConfigError("attack.n/m: must be >= 1")
        if at.l < 2:
            raise ConfigError("attack.l: must be >= 2, the grid verifies up to 2 tags")
        if at.trials != 0 and at.trials < 1000:
            raise ConfigError(
                f"attack.trials={at.trials}: must be 0 (empty grid) or at least 1000"
            )
        if at.trials > BYPASS_TRIALS:
            raise ConfigError(f"attack.trials={at.trials}: above {BYPASS_TRIALS} per grid row")
        held = grid_bytes(at.q, at.n, at.m, at.l)
        _check_bytes("attack", [("attack.n, attack.m, attack.l", held)])


def _check_bytes(holder: str, terms: list[tuple[str, int]]) -> None:
    """Reject (keys, bytes) ``terms`` summing past ``BYTE_BOUND``, naming the largest's keys."""
    total = sum(held for _, held in terms)
    if total > BYTE_BOUND:
        keys, held = max(terms, key=lambda term: term[1])
        raise ConfigError(f"{keys}: {held} of the {total} bytes {holder} holds at once, "
                          f"above {BYTE_BOUND}")


def _check_power_resolution(sc: ScenarioConfig, reach: float) -> None:
    """Reject power settings that round a received power over distances
    from 1 m to ``reach`` more coarsely than ``POWER_RESOLUTION_DB``.

    A power is ptx - pl0 - 10 * exponent * log10(d), so it rounds at the
    float spacing of ``ptx_dbm`` and of ``pl0_db``, and the rounding of a
    distance, up to about one spacing of ``reach`` in metres, moves it by
    the exponent's slope 10 * |exponent| / (ln 10 * d), most at d = 1 m.
    """
    spacing = 2.0**-52
    rounding = {
        "scenario.ptx_dbm": abs(sc.ptx_dbm) * spacing,
        "scenario.pl0_db": abs(sc.pl0_db) * spacing,
        "scenario.pl_exponent, scenario.isd_m, scenario.rows, scenario.cols":
            10 * abs(sc.pl_exponent) / math.log(10) * max(reach, 1) * spacing,
    }
    for key, db in rounding.items():
        if not db <= POWER_RESOLUTION_DB:
            raise ConfigError(
                f"{key}: rounds received powers to about {db:.3g} dB, coarser than "
                f"{POWER_RESOLUTION_DB:g} dB"
            )


def _check_field_order(key: str, q: int) -> None:
    try:
        field_of_order(q)
    except InvalidParameter:
        raise ConfigError(f"{key}: must be a power of two, at most 2^16") from None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Scheme):
        return value.label
    return str(value)  # a float's str is its repr


def config_items(config: RunConfig) -> list[tuple[str, str]]:
    """Flat, sorted (key, value) view of the effective configuration, but
    for ``output_dir``, which decides where artifacts land, not what they
    contain."""
    return sorted(
        (key, _format_value(getattr(config if section is None else getattr(config, section),
                                    f.name)))
        for key, (section, f) in _KEYS.items() if key != "output_dir"
    )


def write_config_echo(config: RunConfig, path: str | Path) -> None:
    lines = [f"{k}={v}" for k, v in config_items(config)]
    Path(path).write_text("\n".join(lines) + "\n")
