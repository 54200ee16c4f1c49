"""Per-layer tracing for the benchmark, installed from outside ``src/``.

The tracer replaces each public layer function with a wrapper at every name
a caller looks it up by: ``ncsecsim.simulation.step`` as well as
``ncsecsim.mobility.step``, methods such as ``FieldSpec.vec_mul`` on the
class.  Every call is a span.  Spans are aggregated in memory per
(name, parent span name) as a call count, the total time and the time
covered by child spans, so a function's self time is its total minus its
children.  A few hooks count the work a call did: elements multiplied,
Monte Carlo trials, ledger blocks, handovers by key path.

The program is single-threaded, so no layer waits on another in host time
and the trace has no "time waited" figure.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

# Span name -> every site the function is looked up by ("module:attr" or
# "module:Class.attr").  Sites that do not exist are skipped and listed in
# the trace file, so a later refactor degrades to zero counts, not a crash.
SPANS = {
    "gf.vec_mul": ["ncsecsim.gf:FieldSpec.vec_mul"],
    "gf.vec_dot": ["ncsecsim.gf:FieldSpec.vec_dot"],
    "gf.combine_rows": ["ncsecsim.gf:FieldSpec.combine_rows"],
    "gf.mul": ["ncsecsim.gf:FieldSpec.mul"],
    "gf.inv": ["ncsecsim.gf:FieldSpec.inv"],
    "rlnc.encode": ["ncsecsim.rlnc:encode", "ncsecsim.attack:encode"],
    "rlnc.recode": ["ncsecsim.rlnc:recode"],
    "rlnc.decode": ["ncsecsim.rlnc:decode"],
    "integrity.make_tag": ["ncsecsim.integrity:make_tag", "ncsecsim.attack:make_tag"],
    "integrity.attach_tags": ["ncsecsim.integrity:attach_tags", "ncsecsim.attack:attach_tags"],
    "integrity.verify_tags": ["ncsecsim.integrity:verify_tags", "ncsecsim.attack:verify_tags"],
    "integrity.tagset_for_generation": [
        "ncsecsim.integrity:tagset_for_generation",
        "ncsecsim.attack:tagset_for_generation",
    ],
    "integrity.ledger_check": ["ncsecsim.integrity:ledger_check", "ncsecsim.attack:ledger_check"],
    "integrity.combine_tags": ["ncsecsim.integrity:combine_tags"],
    "integrity.generate_domain_keys": [
        "ncsecsim.integrity:generate_domain_keys",
        "ncsecsim.simulation:generate_domain_keys",
        "ncsecsim.attack:generate_domain_keys",
    ],
    "keydist.safe_key_probability": ["ncsecsim.keydist:safe_key_probability"],
    "keydist.colluder_sweep": ["ncsecsim.keydist:colluder_sweep"],
    "attack.inject": ["ncsecsim.attack:inject"],
    "attack.measure_bypass_rate": ["ncsecsim.attack:measure_bypass_rate"],
    "mobility.step": ["ncsecsim.mobility:step", "ncsecsim.simulation:step"],
    "mobility.ho_trigger": ["ncsecsim.mobility:ho_trigger", "ncsecsim.simulation:ho_trigger"],
    "mobility.place_ues": ["ncsecsim.mobility:place_ues", "ncsecsim.simulation:place_ues"],
    "mobility.CellGrid.rsrp": ["ncsecsim.mobility:CellGrid.rsrp"],
    "mobility.CellGrid.bs_positions": ["ncsecsim.mobility:CellGrid.bs_positions"],
    "mobility.CellGrid.wrap_position": ["ncsecsim.mobility:CellGrid.wrap_position"],
    "handover.begin_handover": ["ncsecsim.handover:begin_handover", "ncsecsim.simulation:begin_handover"],
    "handover.try_complete": ["ncsecsim.handover:try_complete", "ncsecsim.simulation:try_complete"],
    "handover.predict_and_prestage": [
        "ncsecsim.handover:predict_and_prestage",
        "ncsecsim.simulation:predict_and_prestage",
    ],
    "handover.replay_key_signaling": [
        "ncsecsim.handover:replay_key_signaling",
        "ncsecsim.simulation:replay_key_signaling",
    ],
    "handover.cumulative_key_exchanges": [
        "ncsecsim.handover:cumulative_key_exchanges",
        "ncsecsim.simulation:cumulative_key_exchanges",
    ],
    "ledger.SimulatedLedger.submit_candidate": ["ncsecsim.ledger:SimulatedLedger.submit_candidate"],
    "ledger.SimulatedLedger.tick": ["ncsecsim.ledger:SimulatedLedger.tick"],
    "ledger.SimulatedLedger.is_pending": ["ncsecsim.ledger:SimulatedLedger.is_pending"],
    "ledger.SimulatedLedger.is_ledgered": ["ncsecsim.ledger:SimulatedLedger.is_ledgered"],
    "ledger.SimulatedLedger.query_keys": ["ncsecsim.ledger:SimulatedLedger.query_keys"],
    "ledger.SimulatedLedger.query_tagset": ["ncsecsim.ledger:SimulatedLedger.query_tagset"],
    "ledger.per_second_signaling": [
        "ncsecsim.ledger:per_second_signaling",
        "ncsecsim.simulation:per_second_signaling",
    ],
    "simulation.run_simulation": ["ncsecsim.simulation:run_simulation"],
    "simulation.write_run_artifacts": ["ncsecsim.simulation:write_run_artifacts"],
}

KEY_PATHS = ("ledger_first_ho", "ledger_steady_state", "baseline_per_ho", "intra_domain")

# Per-layer metrics besides <span>.calls and <span>.self_s: (name, unit, better).
COUNTERS = [
    ("gf.mul_elems", "count", "lower"),
    ("gf.mul_elems_per_s", "1/s", "higher"),
    ("keydist.trials", "count", "higher"),
    ("attack.trials", "count", "higher"),
    ("mobility.ue_ticks", "count", "higher"),
    ("handover.prestage_upload_ratio", "ratio", "higher"),
    *((f"handover.ho.{path}", "count", "higher") for path in KEY_PATHS),
    ("ledger.blocks", "count", "lower"),
    ("ledger.entries_per_block", "count", "higher"),
    ("ledger.submit_accept_ratio", "ratio", "higher"),
    ("simulation.artifact_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run prints, as (name, unit, better)."""
    out = []
    for span in SPANS:
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    return out + COUNTERS


# ----------------------------------------------------------------------
# hooks: (before(args) -> state, after(counters, state, args, result))
# ----------------------------------------------------------------------

def _count_elems(c, _state, _args, result):
    c["gf.mul_elems"] += int(result.size)


def _count_safekey(c, _state, _args, result):
    c["keydist.trials"] += result.trials


def _count_bypass(c, _state, _args, result):
    c["attack.trials"] += result.trials


def _count_prestage(c, _state, _args, result):
    c["prestage_calls"] += 1
    c["prestage_uploads"] += int(result is not None and result.uploaded)


def _count_begin(c, _state, _args, proc):
    if proc.complete:
        c[f"handover.ho.{proc.key_path.value}"] += 1


def _count_complete(c, was_complete, args, done):
    if done and not was_complete:
        c[f"handover.ho.{args[0].key_path.value}"] += 1


def _count_blocks(c, blocks_before, args, _result):
    new = args[0].blocks[blocks_before:]
    c["ledger.blocks"] += len(new)
    c["block_entries"] += sum(len(b.entries) for b in new)


def _count_submit(c, _state, _args, receipt):
    c["submitted"] += 1
    c["accepted"] += int(receipt.accepted)


def _count_ue_ticks(c, _state, args, _result):
    config = args[0]
    if config.horizon_ms > 0:
        ticks = len(range(0, config.horizon_ms + 1, config.scenario.rs_period_ms))
        c["mobility.ue_ticks"] += config.scenario.num_ues * ticks


def _count_artifacts(c, _state, _args, paths):
    c["simulation.artifact_bytes"] += sum(Path(p).stat().st_size for p in paths.values())


HOOKS = {
    "gf.vec_mul": (None, _count_elems),
    "keydist.safe_key_probability": (None, _count_safekey),
    "attack.measure_bypass_rate": (None, _count_bypass),
    "handover.predict_and_prestage": (None, _count_prestage),
    "handover.begin_handover": (None, _count_begin),
    "handover.try_complete": (lambda args: args[0].complete, _count_complete),
    "ledger.SimulatedLedger.tick": (lambda args: len(args[0].blocks), _count_blocks),
    "ledger.SimulatedLedger.submit_candidate": (None, _count_submit),
    "simulation.run_simulation": (None, _count_ue_ticks),
    "simulation.write_run_artifacts": (None, _count_artifacts),
}


class Tracer:
    """Installs span wrappers on ncsecsim and aggregates what they record.

    ``clock`` returns seconds; the benchmark passes one that stops while it
    samples the host's speed.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, sites in SPANS.items():
            for site in sites:
                module_name, _, path = site.partition(":")
                owner = importlib.import_module(module_name)
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls, None)
                original = None if owner is None else vars(owner).get(attr)
                if original is None:
                    self.missing.append(site)
                    continue
                if isinstance(original, property):
                    wrapped = property(self._wrap(original.fget, name))
                else:
                    wrapped = self._wrap(original, name)
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name):
        stack, spans, counters, clock = self._stack, self.spans, self.counters, self.clock
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # [span name, time covered by child spans]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (name, parent[0] if parent else None)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if after:
                after(counters, state, args, result)
            return result

        return wrapper

    def span_table(self) -> list[dict]:
        """Aggregated spans, largest self time first."""
        rows = [
            {"name": name, "parent": parent, "calls": calls,
             "total_s": total, "self_s": total - child}
            for (name, parent), (calls, total, child) in self.spans.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values (all but the trace overhead)."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, _parent), (n, total, child) in self.spans.items():
            calls[name] += n
            self_s[name] += total - child
        c = self.counters
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in ("gf.mul_elems", "keydist.trials", "attack.trials", "mobility.ue_ticks",
                     "ledger.blocks", "simulation.artifact_bytes"):
            out[name] = c[name]
        for path in KEY_PATHS:
            out[f"handover.ho.{path}"] = c[f"handover.ho.{path}"]
        out["gf.mul_elems_per_s"] = _ratio(c["gf.mul_elems"], self_s["gf.vec_mul"])
        out["handover.prestage_upload_ratio"] = _ratio(c["prestage_uploads"], c["prestage_calls"])
        out["ledger.entries_per_block"] = _ratio(c["block_entries"], c["ledger.blocks"])
        out["ledger.submit_accept_ratio"] = _ratio(c["accepted"], c["submitted"])
        return out


def _ratio(num, den) -> float:
    """num/den, or 0 when the layer did no work in this workload."""
    return num / den if den else 0.0
