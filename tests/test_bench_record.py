import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def recorder(tmp_path, monkeypatch):
    """``tools/bench_record.py`` with its root in ``tmp_path``, a clean
    ``git`` at commit ``abc123`` and no benchmark process: every run
    reports one operation, no failure and correct output unless a test
    says otherwise through ``recorder.bad``."""
    spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "SEEDS", [1, 2, 3])
    monkeypatch.setattr(module, "git", lambda *args: "" if args[0] == "status" else "abc123")
    module.bad = {}

    def run_bench(workload, seed, trace):
        result = {"correct": True, "attempted": 1, "failed": 0}
        result.update(module.bad.get((workload, seed, trace), {}))
        result["metrics"] = {"run_s": {"value": 0.1 * seed, "unit": "s"}}
        return result, 0.01

    monkeypatch.setattr(module, "run_bench", run_bench)
    return module


def test_records_a_point_when_every_run_is_clean(recorder, tmp_path):
    assert recorder.main() == 0
    point = json.loads((tmp_path / "BENCH_1.json").read_text())
    assert point["commit"] == "abc123"
    assert point["end_to_end"]["predict"]["run_s"]["median"] == pytest.approx(0.2)
    assert [r["failed"] for r in point["runs"]["city"]] == [0, 0, 0]


@pytest.mark.parametrize("value, recorded", [(None, False), ("", False), ("1", True)])
def test_records_whether_bytecode_writing_is_off(
    recorder, tmp_path, monkeypatch, value, recorded
):
    # Python turns bytecode writing off for any non-empty value.
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert recorder.main() == 0
    point = json.loads((tmp_path / "BENCH_1.json").read_text())
    assert point["machine"]["pythondontwritebytecode"] is recorded


@pytest.mark.parametrize(
    "workload, seed, trace, report",
    [
        ("predict", 2, 0, {"failed": 1}),
        ("relay", 3, 0, {"correct": False}),
        ("security", 1, 1, {"failed": 2, "correct": False}),
    ],
)
def test_refuses_a_point_with_a_failed_or_wrong_run(
    recorder, tmp_path, workload, seed, trace, report
):
    recorder.bad[(workload, seed, trace)] = report
    with pytest.raises(SystemExit, match=rf"{workload} seed {seed} reported"):
        recorder.main()
    assert list(tmp_path.glob("BENCH_*.json")) == []
