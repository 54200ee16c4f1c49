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

from .errors import ConfigError, InvalidParameter
from .gf import field_of_order
from .handover import PredictionConfig
from .keydist import SCHEME_BY_LABEL, Scheme


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
    ptx_dbm: float = 23.0
    pl0_db: float = 38.5
    pl_exponent: float = 3.5
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
    collection_period_ms: int = 1000
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


_SECTIONS = {
    "scenario": ScenarioConfig,
    "security": SecurityConfig,
    "ledger": LedgerConfig,
    "prediction": PredictionConfig,
    "analyze": AnalyzeConfig,
    "attack": AttackSweepConfig,
}

_TOP_LEVEL = {"scheme", "horizon_ms", "seed", "output_dir"}


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "on", "1", "yes"):
        return True
    if low in ("false", "off", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _convert(raw: str, target_type, key: str):
    try:
        if target_type is bool:
            return _parse_bool(raw, key)
        if target_type is int:
            return int(raw)
        if target_type is not float:
            return raw
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def _parse_scheme(raw: str) -> Scheme:
    label = raw.strip().lower()
    if label not in SCHEME_BY_LABEL:
        raise ConfigError(
            f"scheme: {raw!r} is not one of {sorted(SCHEME_BY_LABEL)}"
        )
    return SCHEME_BY_LABEL[label]


def apply_settings(config: RunConfig, settings: dict[str, str]) -> RunConfig:
    """Return a new RunConfig with the given dotted-key settings applied."""
    section_updates: dict[str, dict[str, object]] = {}
    top_updates: dict[str, object] = {}
    for key, raw in settings.items():
        if key in _TOP_LEVEL:
            if key == "scheme":
                top_updates[key] = _parse_scheme(raw)
            elif key == "output_dir":
                top_updates[key] = raw.strip()
            else:
                top_updates[key] = _convert(raw, int, key)
            continue
        if "." not in key:
            raise ConfigError(f"unknown configuration key {key!r}")
        section, _, name = key.partition(".")
        cls = _SECTIONS.get(section)
        if cls is None:
            raise ConfigError(f"unknown configuration section {section!r} in {key!r}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        if name not in fields:
            raise ConfigError(f"unknown configuration key {key!r}")
        target_type = fields[name].type
        if isinstance(target_type, str):
            target_type = {"int": int, "float": float, "bool": bool, "str": str}.get(
                target_type, str
            )
        section_updates.setdefault(section, {})[name] = _convert(raw, target_type, key)
    updates: dict[str, object] = dict(top_updates)
    for section, values in section_updates.items():
        current = getattr(config, section)
        try:
            updates[section] = dataclasses.replace(current, **values)
        except Exception as exc:  # dataclass __post_init__ validation
            raise ConfigError(f"{section}: {exc}") from None
    try:
        out = dataclasses.replace(config, **updates)
    except Exception as exc:
        raise ConfigError(str(exc)) from None
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
    """Check the settings every command reads (see ``validate_command``)."""
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
    if config.ledger.ho_timeout_ms <= 0:
        raise ConfigError("ledger.ho_timeout_ms: must be positive")
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


def validate_command(command: str, config: RunConfig) -> None:
    """Check the settings only ``command`` reads: ``analyze.*`` for
    ``analyze`` and ``attack.*`` for ``attack``."""
    az, at, sec = config.analyze, config.attack, config.security
    if command == "analyze":
        if not 0 < az.epsilon < 1 or not 0 <= az.d < 1:
            raise ConfigError("analyze.epsilon/d: epsilon in (0,1), d in [0,1)")
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
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_items(config: RunConfig) -> list[tuple[str, str]]:
    """Flat, sorted (key, value) view of the effective configuration.

    ``output_dir`` is left out: it decides where artifacts land, not what
    they contain.
    """
    items: list[tuple[str, str]] = []
    for section, cls in _SECTIONS.items():
        current = getattr(config, section)
        for f in dataclasses.fields(cls):
            items.append((f"{section}.{f.name}", _format_value(getattr(current, f.name))))
    items.append(("scheme", _format_value(config.scheme)))
    items.append(("horizon_ms", str(config.horizon_ms)))
    items.append(("seed", str(config.seed)))
    return sorted(items)


def write_config_echo(config: RunConfig, path: str | Path) -> None:
    lines = [f"{k}={v}" for k, v in config_items(config)]
    Path(path).write_text("\n".join(lines) + "\n")
