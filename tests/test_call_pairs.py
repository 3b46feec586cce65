"""The statistics `tools/call_pairs.py` writes for its call shapes."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "call_pairs.py"
_spec = importlib.util.spec_from_file_location("call_pairs", _TOOL)
call_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_pairs)


def rounds(parent, change, shape="layout:flood"):
    return {"parent": [{shape: ms} for ms in parent], "change": [{shape: ms} for ms in change]}


def test_medians_ratios_and_wins():
    # round 3 is a slow spell for both sides; round 4 a tie
    got = call_pairs.summarize(rounds([1.0, 1.2, 4.0, 1.0, 1.1], [0.5, 0.6, 2.0, 1.0, 1.21]))
    shape = got["layout:flood"]
    assert (shape["parent_ms"], shape["change_ms"]) == (1.1, 1.0)
    assert shape["change_over_parent"] == round(1.0 / 1.1, 4)
    # per-round parent/change: 2, 2, 2, 1 and 1.1 / 1.21
    assert shape["median_pair_speedup"] == 2.0
    assert shape["change_wins"] == "3/5"
    assert shape["parent_runs"] == [1.0, 1.2, 4.0, 1.0, 1.1]


def test_every_shape_is_summarized_on_its_own():
    doc = {"parent": [{"a": 2.0, "b": 1.0}] * 2, "change": [{"a": 1.0, "b": 2.0}] * 2}
    got = call_pairs.summarize(doc)
    assert sorted(got) == ["a", "b"]
    assert (got["a"]["median_pair_speedup"], got["b"]["median_pair_speedup"]) == (2.0, 0.5)
    assert (got["a"]["change_wins"], got["b"]["change_wins"]) == ("2/2", "0/2")
