"""Print how much trigger work one run does: its blocks and their ticks,
its trigger calls, the (tick, UE) entries they took, the fires they found
and the entries the box path computed powers for.

    PYTHONPATH=src python3 tools/chain_counts.py scenario.rows=8 scenario.cols=8 \\
        scenario.num_ues=200 horizon_ms=300000 seed=1

Each argument is a ``key=value`` setting over the defaults, as in a config
file.  The run is ``ncsecsim run``'s ``run_simulation``, with
``simulation._Chains`` and ``CellGrid._box_targets`` wrapped to count:

- ``blocks``: the blocks of ticks, one ``_Chains`` each;
- ``ticks``: the sum of their lengths, so ``ticks / blocks`` is the mean
  block length;
- ``calls`` and ``entries``: the chain rounds' trigger calls and entries;
- ``fires``: the handovers the chains found, before waits cut them;
- ``boxed``: the entries the box computed powers for, chains and forecast;
- ``boxed_no_fire``: those of them that did not fire.

Counts, unlike timings, do not vary by host.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncsecsim import simulation  # noqa: E402
from ncsecsim.config import RunConfig, apply_settings  # noqa: E402
from ncsecsim.mobility import CellGrid  # noqa: E402

FIELDS = ("blocks", "ticks", "calls", "entries", "fires", "boxed", "boxed_no_fire")


def chain_counts(settings: dict[str, str]) -> Counter:
    """The counts of one run over the default config with ``settings``."""
    config = apply_settings(RunConfig(), settings)
    counts = Counter({name: 0 for name in FIELDS})
    chains, box_targets = simulation._Chains, CellGrid._box_targets

    class Counting(chains):
        def __init__(self, *args):
            super().__init__(*args)
            counts["blocks"] += 1
            counts["ticks"] += len(self.fires)
            counts["calls"] += self.calls
            counts["entries"] += self.entries
            counts["fires"] += int(np.count_nonzero(self.fires >= 0))

    def counting_box(grid, pos, serving, offset):
        targets = box_targets(grid, pos, serving, offset)
        counts["boxed"] += len(targets)
        counts["boxed_no_fire"] += int(np.count_nonzero(targets < 0))
        return targets

    simulation._Chains, CellGrid._box_targets = Counting, counting_box
    try:
        simulation.run_simulation(config)
    finally:
        simulation._Chains, CellGrid._box_targets = chains, box_targets
    return counts


def main(argv: list[str]) -> int:
    settings = {}
    for arg in argv:
        key, sep, value = arg.partition("=")
        if not sep:
            print(f"expected key=value, got {arg!r}", file=sys.stderr)
            return 1
        settings[key] = value
    counts = chain_counts(settings)
    for name in FIELDS:
        print(f"{name} {counts[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
