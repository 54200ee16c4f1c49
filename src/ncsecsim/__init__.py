"""Deterministic simulator and library for secure network-coded small cells.

Subsystems: finite-field arithmetic (``gf``), random linear network coding
(``rlnc``), homomorphic MAC integrity with ledger-pinned tags
(``integrity``), key-distribution schemes and their analytics
(``keydist``), the simulated distributed ledger (``ledger``), mobility and
uplink-measurement handover triggering (``mobility``), the handover
protocol with pluggable key sharing (``handover``), the adversary harness
(``attack``), and the seeded event-loop simulator with CSV artifacts
(``config``, ``simulation``, ``cli``).
"""

__version__ = "0.1.0"

from .errors import (
    ClockError,
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    GenerationMismatch,
    HoPreparationTimeout,
    InvalidParameter,
    InversionOfZero,
    NcSecError,
    NoOpHandover,
    PollutionDetectedAtDecode,
    TagSetUnavailable,
    UnknownController,
)
from .gf import GF16, GF256, FieldSpec, FieldVector
from .rlnc import CodedPacket, DecodeResult, Generation, decode, encode, random_generation, recode
from .integrity import (
    KeyRing,
    TagSet,
    attach_tags,
    combine_tags,
    generate_domain_keys,
    ledger_check,
    tagset_for_generation,
    verify_tags,
)
from .keydist import (
    SafeKeyEstimate,
    Scheme,
    SchemeConfig,
    bandwidth_blockchain,
    bandwidth_hmac,
    bandwidth_macsig,
    colluder_sweep,
    required_tags,
    safe_key_probability,
    sample_holdings,
    security_level,
)
from .ledger import (
    CandidateEntry,
    EntryKind,
    LedgerBlock,
    SignalKind,
    SignalRecord,
    SignalTrace,
    SimulatedLedger,
    key_exchange_count,
    per_window_signaling,
)
from .mobility import (
    CellGrid,
    UeArrays,
    advance,
    first_fires,
    place_ues,
    trigger_targets,
)
from .handover import (
    HoTable,
    HoView,
    KeyPath,
    PredictionConfig,
    cumulative_key_exchanges,
    replay_key_signaling,
)
from .attack import (
    AdversaryConfig,
    AdversaryKnowledge,
    AttackStrategy,
    BypassRateResult,
    bypass_rate_grid,
    inject,
    measure_bypass_rate,
)
from .config import (
    AnalyzeConfig,
    AttackSweepConfig,
    LedgerConfig,
    RunConfig,
    ScenarioConfig,
    SecurityConfig,
    load_config,
    write_config_echo,
)
from .simulation import SimulationResult, run_simulation, write_run_artifacts
