import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "chain_counts.py"


def _tool():
    spec = importlib.util.spec_from_file_location("chain_counts", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "settings",
    [
        {"scenario.rows": "8", "scenario.cols": "8", "scenario.num_ues": "200",
         "horizon_ms": "300000", "seed": "1"},
        {"horizon_ms": "60000", "seed": "1"},
        {"horizon_ms": "60000", "seed": "1", "prediction.enabled": "true",
         "prediction.lead_ms": "1000"},
    ],
    ids=["8x8", "reference", "reference-predict"],
)
def test_the_box_sees_only_the_entries_that_decide_a_chain(settings):
    # The box computes powers for each chain round's first surviving entry
    # per UE, and for the next one only where that did not fire; every
    # fire of a chain was boxed.  At 8x8 cells, 200 UEs over 300 s,
    # boxing every survivor took 126,457 entries for 12,320 fires.
    counts = _tool().chain_counts(settings)
    assert counts["fires"] <= counts["boxed"]
    if "prediction.enabled" not in settings:
        # a forecast's fires are boxed too, but are no chain's fires
        assert counts["boxed"] <= 1.2 * (counts["fires"] + counts["boxed_no_fire"])


def test_chain_counts_prints_every_count_of_a_run(capsys):
    tool = _tool()
    settings = ["scenario.rows=6", "scenario.cols=6", "scenario.num_ues=30",
                "horizon_ms=20000", "seed=1"]
    assert tool.main(settings) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = {name: int(value) for name, value in (line.split() for line in lines)}
    assert list(counts) == list(tool.FIELDS)
    # 126 ticks, each fire boxed
    assert counts["ticks"] == 126
    assert 1 <= counts["blocks"] <= 126 and counts["calls"] >= 1
    assert counts["boxed_no_fire"] <= counts["boxed"]
    assert 0 < counts["fires"] <= counts["boxed"] - counts["boxed_no_fire"]
    assert counts["fires"] <= counts["entries"]
    # the wrapped names are restored
    assert tool.simulation._Chains.__name__ == "_Chains"
    assert tool.main(["seed"]) == 1
