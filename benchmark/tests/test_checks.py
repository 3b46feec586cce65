"""Every output check passes on good output and fails on corrupted output.

    python3 -m pytest benchmark/tests -q
"""

import contextlib
import copy
import io
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402


# -- flood -------------------------------------------------------------------

def _flood_rows():
    expected = [0.4, 0.2]
    rows = [
        {"request_rate": 1.0, "success_rate": p, "j_mean": 30.0, "j_se": 0.5,
         "j_dp": 30.2, "requests": 2500}
        for p in expected
    ]
    return rows, expected


def test_flood_passes_consistent_output():
    rows, expected = _flood_rows()
    assert checks.check_flood(rows, expected) == []


@pytest.mark.parametrize("field,value", [
    ("request_rate", 0.999),
    ("success_rate", 0.4 + 6 * math.sqrt(0.24 / 2500)),
    ("j_mean", 30.2 + 6 * 0.5),
    ("j_mean", float("nan")),
])
def test_flood_fails_on_corruption(field, value):
    rows, expected = _flood_rows()
    rows[0][field] = value
    assert checks.check_flood(rows, expected)


# -- paired_halfline -------------------------------------------------------------

def _paired(**over):
    episodes = 8000
    p = 0.0734
    n1 = round(p * episodes)
    ticks = [1] * n1 + [3] * 500
    args = dict(episodes=episodes, identical=episodes - len(ticks),
                first_divergence_ticks=ticks, mse_diff=-0.2, mse_diff_se=0.01,
                p_step1=p)
    args.update(over)
    return args


def test_paired_passes_consistent_output():
    assert checks.check_paired(**_paired()) == []


@pytest.mark.parametrize("over", [
    {"first_divergence_ticks": [0] + [1] * 587 + [3] * 499},   # diverges at step 0
    {"p_step1": 0.09},                                          # share off the integral
    {"mse_diff": -0.02},                                        # gap under 3 SE
    {"identical": 0},                                           # pairs do not add up
])
def test_paired_fails_on_corruption(over):
    assert checks.check_paired(**_paired(**over))


# -- two_step_silent -----------------------------------------------------------

def test_two_step_checks():
    assert checks.check_silent_solve("s", 0.35070, 0.350696, 1e-5) == []
    assert checks.check_silent_solve("s", 0.35070 + 1e-4, 0.350696, 1e-5)
    assert checks.check_silent_solve("s", float("nan"), 0.350696, 1e-5)
    assert checks.check_delivered_solve("d", 0.0352531, [0.0352531], 1e-8) == []
    assert checks.check_delivered_solve("d", 0.0352631, [0.0352531], 1e-8)
    assert checks.check_delivered_solve("d", 0.0352531, [0.0352531, 2.0], 1e-8)


# -- innovation_dump -----------------------------------------------------------

EPISODES = 12


@pytest.fixture(scope="module")
def dump():
    """A real `simulate --dump-trace --dump-events` run, parsed."""
    from macloops import cli

    (BENCH / "out").mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="test-dump-", dir=BENCH / "out"))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--scenario", "example3", "--seed", "5",
                             "--episodes", str(EPISODES), "--out", str(out / "run"),
                             "--dump-trace", "--dump-events"])
        assert code == 0
        yield (checks.read_csv(out / "run_summary.csv"),
               checks.read_csv(out / "run_trace.csv"),
               checks.read_csv(out / "run_events.csv"))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _check(summary, trace, events):
    return checks.check_innovation_dump(summary, trace, events, EPISODES, 3)


def test_innovation_dump_passes_real_output(dump):
    assert _check(*dump) == []


def _first(rows, **match):
    return next(i for i, r in enumerate(rows) if all(r[k] == v for k, v in match.items()))


def test_flipped_delta_is_caught(dump):
    summary, trace, events = copy.deepcopy(dump)
    trace[_first(trace, delta="1")]["delta"] = "0"
    assert any("successes in the events CSV" in f for f in _check(summary, trace, events))


def test_shifted_cost_term_is_caught(dump):
    summary, trace, events = copy.deepcopy(dump)
    row = trace[_first(trace, delta="0")]
    row["cost_term"] = repr(float(row["cost_term"]) + 1e-3)
    assert any("summed cost_term" in f for f in _check(summary, trace, events))


def test_delivery_without_request_is_caught(dump):
    summary, trace, events = copy.deepcopy(dump)
    trace[_first(trace, delta="1")]["gamma"] = "0"
    assert any("without a request" in f for f in _check(summary, trace, events))


def test_error_after_delivery_is_caught(dump):
    summary, trace, events = copy.deepcopy(dump)
    trace[_first(trace, delta="1")]["err"] = "0.25"
    assert any("nonzero err" in f for f in _check(summary, trace, events))


def test_attempt_over_the_limit_is_caught(dump):
    summary, trace, events = copy.deepcopy(dump)
    events[0]["attempt"] = "4"
    assert any("attempt 4" in f for f in _check(summary, trace, events))


def test_two_successes_in_one_slot_are_caught(dump):
    summary, trace, events = copy.deepcopy(dump)
    events.append(dict(events[_first(events, result="success")]))
    assert any("several successes" in f for f in _check(summary, trace, events))


def test_bound_prob_off_the_request_rate_is_caught(dump):
    summary, trace, events = copy.deepcopy(dump)
    summary[0]["bound_prob"] = repr(float(summary[0]["bound_prob"]) + 1e-6)
    assert any("bound_prob" in f for f in _check(summary, trace, events))


def test_cost_far_from_prediction_is_caught(dump):
    summary = dump[0]
    j_mean, j_se, j_dp = (float(summary[0][k]) for k in ("j_mean", "j_se", "j_dp"))
    assert checks.cost_check("loop 0", j_mean, j_se, j_dp) == []
    assert checks.cost_check("loop 0", j_mean, j_se, j_dp + 6 * j_se)
    assert checks.cost_check("loop 0", j_mean, float("nan"), j_dp)


def test_wrong_episode_count_is_caught(dump):
    summary, trace, events = copy.deepcopy(dump)
    assert _check(summary, trace, events) == []
    assert checks.check_innovation_dump(summary, trace, events, EPISODES + 1, 3)
