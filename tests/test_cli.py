"""Scenario files, presets, subcommands, CSV outputs and exit codes."""

import csv
import hashlib
import io
import json
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macloops.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    _fmt,
    _vec,
    emit_scenario,
    main,
    parse_scenario_doc,
    presets,
    scenario_hash,
    trace_rows,
)
from macloops.errors import ConfigurationError
from macloops.sim import LoopTrace
from macloops.stats import TruncatedGaussian, truncated_moments
from test_control import U0_OPT_SILENT


class TestParsing:
    def test_example1_preset_layout(self):
        doc = parse_scenario_doc("example1")
        scn = doc.scenario
        assert len(scn.loops) == 20
        assert doc.groups == tuple([0] * 6 + [1] * 7 + [2] * 7)
        assert [scn.loops[i].plant.A[0, 0] for i in (0, 6, 13)] == [1.0, 0.75, 0.5]
        assert [scn.loops[i].plant.Rw[0, 0] for i in (0, 6, 13)] == [1.0, 1.5, 2.0]
        assert [scn.loops[i].plant.period for i in (0, 6, 13)] == [10, 20, 25]
        assert all(lc.scheduler.kind == "state" and lc.scheduler.eps == 2.5
                   for lc in scn.loops)
        assert scn.crm.persistence == (1.0, 0.75, 0.5)
        assert scn.global_horizon == 250

    def test_baseline_preset_always_transmits(self):
        scn = parse_scenario_doc("example1-baseline").scenario
        assert all(lc.scheduler.kind == "always" for lc in scn.loops)

    def test_example3_preset_layout(self):
        scn = parse_scenario_doc("example3").scenario
        assert len(scn.loops) == 20
        assert all(lc.plant.period == 10 for lc in scn.loops)
        assert all(lc.scheduler.kind == "innovation" and lc.scheduler.eps == 3.5
                   for lc in scn.loops)
        phases = sorted(lc.plant.phase for lc in scn.loops)
        assert phases == [0] * 10 + [5] * 10

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigurationError):
            parse_scenario_doc("no-such-preset")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_scenario_doc(path)

    def test_unknown_keys_rejected_with_path(self, tmp_path):
        doc = presets()["example3"]
        bad = json.loads(json.dumps(doc))
        bad["loops"][0]["scheduler"]["epsilon"] = 1.0
        with pytest.raises(ConfigurationError, match=r"loops\[0\].scheduler"):
            parse_scenario_doc(bad)

    def test_q2_zero_is_a_validation_error(self):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["loops"][0]["weights"]["Q2"] = 0.0
        with pytest.raises(ConfigurationError, match="Q2 must be positive definite"):
            parse_scenario_doc(doc)

    def test_round_trip(self):
        for name in ("example1", "example1-baseline", "example3"):
            doc = parse_scenario_doc(name)
            rebuilt = parse_scenario_doc(emit_scenario(doc))
            assert emit_scenario(rebuilt) == emit_scenario(doc)
            assert scenario_hash(doc) == scenario_hash(rebuilt)
        changed = json.loads(json.dumps(presets()["example3"]))
        changed["loops"][0]["scheduler"]["eps"] = 3.0
        assert emit_scenario(parse_scenario_doc(changed)) != emit_scenario(doc)

    def test_matrix_plants_parse(self, tmp_path):
        doc = {
            "name": "vector",
            "crm": {"persistence": [1.0]},
            "loops": [{
                "plant": {"A": [[1.0, 0.1], [0.0, 0.9]], "B": [[0.0], [1.0]],
                          "Rw": [[0.1, 0.0], [0.0, 0.1]],
                          "R0": [[1.0, 0.0], [0.0, 1.0]]},
                "scheduler": {"kind": "innovation", "eps": 1.0},
                "horizon": 4,
                "weights": {"Q0": [[1.0, 0.0], [0.0, 1.0]],
                            "Q1": [[1.0, 0.0], [0.0, 1.0]], "Q2": 1.0},
            }],
        }
        scn = parse_scenario_doc(doc).scenario
        assert scn.loops[0].plant.n == 2

    def test_scenario_hashes_are_pinned(self):
        # the canonical document, and so every manifest hash, is unchanged
        assert {name: scenario_hash(parse_scenario_doc(name)) for name in SCENARIO_HASHES} \
            == SCENARIO_HASHES

    def test_unused_source_key_rejected(self):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["sources"] = [{"kind": "bernoulli", "p_on": 0.3}]
        with pytest.raises(ConfigurationError, match=r"sources\[0\]: unknown keys"):
            parse_scenario_doc(doc)

    @pytest.mark.parametrize("path,where", [
        (("loops", 0, "horizon"), "loops[0].horizon"),
        (("loops", 0, "count"), "loops[0].count"),
        (("loops", 0, "phase_step"), "loops[0].phase_step"),
        (("loops", 0, "plant", "period"), "loops[0].plant.period"),
        (("loops", 0, "plant", "phase"), "loops[0].plant.phase"),
        (("crm", "max_attempts"), "crm.max_attempts"),
        (("crm", "slots_per_sample"), "crm.slots_per_sample"),
        (("episodes",), "scenario.episodes"),
        (("seed",), "scenario.seed"),
        (("global_horizon",), "scenario.global_horizon"),
    ])
    def test_integer_fields_reject_fractions(self, path, where):
        doc = json.loads(json.dumps(presets()["example3"]))
        block = doc
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = 10.7
        with pytest.raises(ConfigurationError) as info:
            parse_scenario_doc(doc)
        assert str(info.value) == f"{where}: must be an integer, got 10.7"

    def test_integral_floats_accepted(self):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["loops"][0]["horizon"] = 10.0
        doc["episodes"] = 50.0
        parsed = parse_scenario_doc(doc)
        assert parsed.scenario.loops[0].horizon == 10 and parsed.episodes == 50
        assert isinstance(parsed.episodes, int)


SCENARIO_HASHES = {
    "example1": "448292ff8c24c2d390407d574d2deb23b3518e7d80612e8bd75adc8c8c0bd580",
    "example1-baseline": "d7b69e899585c874b995967b1c2b098713726fac35f7f9037d82219ae7bc0fa8",
    "example3": "6fa0abebe149d1226be44e3c34c2ed0d96b43e45921284cc0fb3069198a4e5f8",
}

# SHA-256 of `simulate --scenario NAME --seed 7 --episodes E --dump-trace
# --dump-events`, measured with numpy 2.4.6 (the draws come from numpy's
# samplers).  A change that alters the random-stream layout on purpose
# updates these digests and says so in CHANGES.md.
OUTPUT_DIGESTS = {
    ("example3", 20): {
        "summary": "9c80b2bec5ed0c88848c338b6863d14eaccd97e76e2e5367d88a2d45f4c9f924",
        "trace": "1ca4535506dbb6daff7102a37f30f02d11eafdaea3b3fdd6835c89fa1f3d933f",
        "events": "972145ef48b6b415c9d272ee5b9c05034b2ae49458557cf4b9ff7aadf488bfe7",
    },
    ("example1-baseline", 10): {
        "summary": "85659db552679532e97648b5194dfb6de016a3147728074976f4c4ed22ffecde",
        "trace": "f56f5b1aeb5cdeb390b0724eff869fac37c6a07aeeb3d467541f70fbdc78434d",
        "events": "2d2cd3cb31d63b1dbbe2dac703bbb50dd613abca838eea539f2c8e9d59eb89a0",
    },
    ("example1", 10): {
        "summary": "6001bb0699260697b6daaca818595c020b12b42802f9f57cd437e2057802c155",
        "trace": "5f6db1ba5044af22d4aac41ba3a609b9fcbbf4f061d7f0a35b6c68773f18c5bc",
        "events": "a09ffc6ea831083aaa3f470c43b8ed62cf8307bd1a91fb31a9d24abe556bc56a",
    },
}


# The same run of example1 on a channel with persistence 1, two sources and a
# global horizon past the last sampling tick.  Every transmit decision is
# certain, so no contention draw is made and these bytes do not depend on the
# layout of the contention streams.
CERTAIN_CHANNEL_DIGESTS = {
    "summary": "0fdfd2b4ccdd2752d6de72238d93c216b7247a3b414d74ee638898540497bf41",
    "trace": "f9bf2248e541fd27c6440f1ebe841810425f5ce63ae9f72ab4ca4d97e5b21727",
    "events": "53ecebd5961840bc019d2aa4ce2d14a03d53c889c99bcd1c05f65eca782b2f7a",
}


# Two 2-state loops, the second with a 2-input B, and a Bernoulli source on a
# channel with persistence (1, 0.75, 0.5): every vector cell of the trace
# joins several entries with ';', which no preset exercises.
MATRIX_PLANT_DOC = {
    "name": "matrix",
    "seed": 7,
    "episodes": 10,
    "crm": {"persistence": [1.0, 0.75, 0.5], "slots_per_sample": 5},
    "sources": [{"kind": "bernoulli", "rate": 0.3}],
    "loops": [
        {
            "plant": {"A": [[1.0, 0.1], [0.0, 0.9]], "B": [[0.0], [1.0]],
                      "Rw": [[0.2, 0.05], [0.05, 0.1]], "R0": [[1.0, 0.0], [0.0, 1.0]],
                      "x0_mean": [0.5, -0.25]},
            "scheduler": {"kind": "innovation", "eps": 0.2},
            "horizon": 8,
            "weights": {"Q0": [[1.0, 0.0], [0.0, 1.0]],
                        "Q1": [[1.0, 0.0], [0.0, 0.5]], "Q2": 1.0},
        },
        {
            "plant": {"A": [[0.9, 0.2], [-0.1, 1.05]], "B": [[1.0, 0.0], [0.5, 1.0]],
                      "Rw": [[0.3, 0.0], [0.0, 0.3]], "R0": [[0.5, 0.1], [0.1, 0.5]],
                      "period": 2, "phase": 1},
            "scheduler": {"kind": "state", "eps": 0.5},
            "horizon": 5,
            "weights": {"Q0": [[2.0, 0.0], [0.0, 2.0]], "Q1": [[1.0, 0.0], [0.0, 1.0]],
                        "Q2": [[1.0, 0.0], [0.0, 0.5]]},
        },
    ],
}

MATRIX_PLANT_DIGESTS = {
    "summary": "ae52dd5703609a066a8c72c5766c5894270e544630a886d3415e405eafa8b5a7",
    "trace": "918602f4f63a9f33ed509b24e2b5491ec31d36e05e1070102eb17ecc6b4c485a",
    "events": "abbf3ef93c2bdb2088f85b0f413ffbd374c524f36603b3328e51bf4d8fbc4122",
}


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSimulateCommand:
    def test_writes_summary_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--scenario", "example3", "--seed", "2",
                     "--episodes", "5", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "run_summary.csv")
        assert len(rows) == 20
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["seed"] == 2
        assert manifest["scenario_hash"] == scenario_hash(parse_scenario_doc("example3"))

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["simulate", "--scenario", "example3", "--seed", "9",
                "--episodes", "4", "--dump-trace"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for suffix in ("_summary.csv", "_trace.csv"):
            a = (tmp_path / ("a" + suffix)).read_bytes()
            b = (tmp_path / ("b" + suffix)).read_bytes()
            assert a == b

    def test_summary_rederivable_from_trace(self, tmp_path):
        out = tmp_path / "re"
        main(["simulate", "--scenario", "example3", "--seed", "3",
              "--episodes", "6", "--out", str(out), "--dump-trace"])
        trace = read_csv(tmp_path / "re_trace.csv")
        totals = defaultdict(float)
        for row in trace:
            totals[(row["episode"], row["loop"])] += float(row["cost_term"])
        per_loop = defaultdict(list)
        for (_, loop), j in totals.items():
            per_loop[loop].append(j)
        summary = read_csv(tmp_path / "re_summary.csv")
        for row in summary:
            recomputed = np.mean(per_loop[row["loop"]])
            assert float(row["j_mean"]) == pytest.approx(recomputed, rel=1e-12)

    @pytest.mark.parametrize("name,episodes", sorted(OUTPUT_DIGESTS))
    def test_output_bytes_are_pinned(self, tmp_path, name, episodes):
        code = main(["simulate", "--scenario", name, "--seed", "7", "--episodes",
                     str(episodes), "--out", str(tmp_path / "run"), "--dump-trace",
                     "--dump-events"])
        assert code == EXIT_OK
        digests = {kind: hashlib.sha256((tmp_path / f"run_{kind}.csv").read_bytes()).hexdigest()
                   for kind in ("summary", "trace", "events")}
        assert digests == OUTPUT_DIGESTS[(name, episodes)]

    def test_certain_channel_bytes_are_pinned(self, tmp_path):
        doc = json.loads(json.dumps(presets()["example1"]))
        doc["crm"] = {"persistence": [1.0], "slots_per_sample": 10}
        doc["sources"] = [{"kind": "bernoulli", "rate": 0.25},
                          {"kind": "markov", "p_on": 0.2, "p_off": 0.5}]
        doc["global_horizon"] = 400
        path = tmp_path / "certain.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", "--scenario", str(path), "--seed", "7", "--episodes", "10",
                     "--out", str(tmp_path / "run"), "--dump-trace", "--dump-events"])
        assert code == EXIT_OK
        digests = {kind: hashlib.sha256((tmp_path / f"run_{kind}.csv").read_bytes()).hexdigest()
                   for kind in ("summary", "trace", "events")}
        assert digests == CERTAIN_CHANNEL_DIGESTS

    def test_matrix_plant_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(MATRIX_PLANT_DOC))
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run"),
                     "--dump-trace", "--dump-events"])
        assert code == EXIT_OK
        digests = {kind: hashlib.sha256((tmp_path / f"run_{kind}.csv").read_bytes()).hexdigest()
                   for kind in ("summary", "trace", "events")}
        assert digests == MATRIX_PLANT_DIGESTS

    def test_events_dump(self, tmp_path):
        out = tmp_path / "ev"
        main(["simulate", "--scenario", "example3", "--seed", "3",
              "--episodes", "2", "--out", str(out), "--dump-events"])
        rows = read_csv(tmp_path / "ev_events.csv")
        assert rows, "contention events expected"
        assert {r["result"] for r in rows} <= {"success", "collided", "deferred", "dropped"}


class TestOtherCommands:
    def test_sweep(self, tmp_path):
        out = tmp_path / "sw"
        code = main(["sweep", "--scenario", "example3", "--eps-grid", "1.0:3.0:1.0",
                     "--seed", "4", "--episodes", "4", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "sw_sweep.csv")
        assert [float(r["eps"]) for r in rows] == [1.0, 2.0, 3.0]

    def test_sweep_grid_list_form(self, tmp_path):
        out = tmp_path / "sw2"
        code = main(["sweep", "--scenario", "example3", "--eps-grid", "0.5,4",
                     "--seed", "4", "--episodes", "3", "--out", str(out)])
        assert code == EXIT_OK

    def test_sweep_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "swp"
        code = main(["sweep", "--scenario", "example3", "--episodes", "5", "--eps-grid",
                     "2,3.5", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        digest = hashlib.sha256((tmp_path / "swp_sweep.csv").read_bytes()).hexdigest()
        assert digest == "1c02122b157f68c8eebf14b030916c74d6a9c00cca464ef136c1128d2d0cdef5"

    def test_riccati(self, tmp_path):
        out = tmp_path / "ric"
        code = main(["riccati", "--horizon", "2", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "ric.csv")
        assert float(rows[0]["s"]) == pytest.approx(1.6, abs=1e-12)
        assert float(rows[0]["l"]) == pytest.approx(0.6, abs=1e-12)
        assert rows[2]["l"] == ""

    def test_two_step(self, tmp_path, capsys):
        out = tmp_path / "ts"
        code = main(["two-step", "--branch", "delta0=1", "--x0", "0",
                     "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "CE u0" in text and "optimal u0" in text and "residual" in text
        row = read_csv(tmp_path / "ts.csv")[0]
        assert float(row["ce_u0"]) == pytest.approx(0.0)
        assert float(row["optimal_u0"]) == pytest.approx(0.035253, abs=1e-4)
        assert abs(float(row["residual_at_ce"])) > 0.1

    def test_two_step_silent_branch(self, tmp_path):
        out = tmp_path / "ts0"
        assert main(["two-step", "--branch", "delta0=0", "--out", str(out)]) == EXIT_OK
        row = read_csv(tmp_path / "ts0.csv")[0]
        assert float(row["optimal_u0"]) == pytest.approx(U0_OPT_SILENT, abs=1e-8)

    def test_moments(self, tmp_path):
        out = tmp_path / "mom"
        code = main(["moments", "--upper", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        rows = {r["quantity"]: float(r["value"]) for r in read_csv(tmp_path / "mom.csv")}
        want = truncated_moments(TruncatedGaussian(0.0, 1.0, 0.5))
        assert rows["truncated_mean"] == pytest.approx(want[0])
        assert rows["truncated_var"] == pytest.approx(want[1])


class TestOutputDirEnv:
    def test_default_directory_comes_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MACLOOPS_OUT_DIR", str(tmp_path))
        assert main(["riccati", "--horizon", "1"]) == EXIT_OK
        assert (tmp_path / "riccati-n1.csv").exists()


def reference_trace_rows(episode, traces):
    """The trace rows built cell by cell with `_vec` and `_fmt`."""
    rows = []
    for tr in traces:
        for k in range(tr.ks.size):
            rows.append([
                episode, tr.loop, int(tr.ks[k]), int(tr.ticks[k]),
                _vec(tr.xs[k]), _vec(tr.us[k]),
                int(tr.gammas[k]), int(tr.deltas[k]), int(tr.attempts[k]),
                _vec(tr.xhats[k]), _vec(tr.errs[k]), _fmt(float(tr.pred_err_sq[k])),
                int(tr.taus[k]), int(tr.delays[k]), _fmt(float(tr.cost_terms[k])),
            ])
        steps = tr.ks.size
        rows.append([episode, tr.loop, steps, int(tr.phase + tr.period * steps),
                     _vec(tr.xs[-1]), "", "", "", "", "", "", "", "", "",
                     _fmt(tr.terminal_cost)])
    return rows


# any double, with the ones whose text is easy to get wrong drawn often
TRACE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e-300, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def loop_traces(draw, loop):
    n, m = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 2]))
    steps = draw(st.integers(1, 4))
    period = draw(st.integers(1, 5))
    phase = draw(st.integers(0, period - 1))
    ks = np.arange(steps)

    def floats(*shape):
        values = draw(st.lists(TRACE_FLOATS, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        return np.array(values, dtype=float).reshape(shape)

    def ints(lo, hi):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=steps,
                                      max_size=steps)), dtype=int)

    return LoopTrace(
        loop=loop, episode=0, period=period, phase=phase, ks=ks, ticks=phase + period * ks,
        xs=floats(steps + 1, n), us=floats(steps, m),
        gammas=ints(0, 1), deltas=ints(0, 1), attempts=ints(0, 3),
        xhats=floats(steps, n), errs=floats(steps, n), pred_err_sq=floats(steps),
        taus=ints(-1, steps), delays=ints(-steps, steps + 1), cost_terms=floats(steps),
        terminal_cost=draw(TRACE_FLOATS), j=0.0, j_lambda=0.0,
    )


class TestTraceRows:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(episode=st.integers(0, 10 ** 6), data=st.data())
    def test_rows_match_the_per_cell_reference(self, episode, data):
        count = data.draw(st.integers(1, 3))
        traces = [data.draw(loop_traces(i)) for i in range(count)]
        rows = trace_rows(episode, traces)
        expected = reference_trace_rows(episode, traces)
        assert len(rows) == len(expected)

        def text(table):
            buf = io.StringIO()
            csv.writer(buf).writerows(table)
            return buf.getvalue()

        assert text(rows) == text(expected)


class TestExitCodes:
    def test_usage(self):
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["simulate", "--scenario", str(bad)]) == EXIT_VALIDATION

    def test_numerical(self):
        assert main(["moments", "--upper", "-8.0"]) == EXIT_NUMERICAL

    def test_non_integral_horizon(self, tmp_path, capsys):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["loops"][0]["horizon"] = 10.7
        path = tmp_path / "frac.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--episodes", "1",
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert "loops[0].horizon" in capsys.readouterr().err

    def test_unused_scheduler_key(self, tmp_path, capsys):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["loops"][0]["scheduler"]["threshold"] = 9
        path = tmp_path / "unused.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--episodes", "1",
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert "loops[0].scheduler: unknown keys ['threshold']" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("sources", [{"kind": "bernoulli", "rate": 1.5}],
         "sources[0]: rate must lie in [0,1], got 1.5"),
        ("crm", {"persistence": [1.5]}, "crm: persistence probabilities must lie in [0,1]"),
        ("sources", {"kind": "bernoulli", "rate": 0.2}, "scenario.sources: must be an array"),
    ])
    def test_crm_and_source_errors_name_their_path(self, tmp_path, capsys, key, value,
                                                   message):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--episodes", "1",
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_half_line_scheduler_needs_a_scalar_plant(self, tmp_path, capsys):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["loops"][0]["plant"].update(A=[[1.0, 0.1], [0.0, 0.9]], B=[[0.0], [1.0]],
                                        Rw=[[1.0, 0.0], [0.0, 1.0]], R0=[[1.0, 0.0], [0.0, 1.0]],
                                        x0_mean=[0.0, 0.0])
        doc["loops"][0]["weights"].update(Q0=[[1.0, 0.0], [0.0, 1.0]], Q1=[[1.0, 0.0], [0.0, 1.0]])
        doc["loops"][0]["scheduler"] = {"kind": "halfline", "threshold": 0.5}
        path = tmp_path / "halfline.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--episodes", "1",
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert ("loops[0].scheduler: half-line scheduling is defined for scalar states only"
                in capsys.readouterr().err)

    def test_nan_dynamics(self, tmp_path, capsys):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["loops"][0]["plant"]["A"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--episodes", "1",
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert "A must be finite" in capsys.readouterr().err

    def test_overflowing_dynamics(self, tmp_path, capsys):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["loops"][0]["plant"]["A"] = 1e200
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--episodes", "1",
                     "--out", str(tmp_path / "r")]) == EXIT_NUMERICAL
        assert "not finite" in capsys.readouterr().err

    # the last grid's step is below the resolution of its bounds
    @pytest.mark.parametrize("grid", ["1,x", "1:2:x", "nan,1", "1:inf:1", "1e20:2e20:1"])
    def test_eps_grid_values_must_be_finite_numbers(self, tmp_path, capsys, grid):
        assert main(["sweep", "--scenario", "example3", "--eps-grid", grid,
                     "--episodes", "1", "--out", str(tmp_path / "sw")]) == EXIT_VALIDATION
        assert "--eps-grid" in capsys.readouterr().err
        assert not (tmp_path / "sw_sweep.csv").exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "example3", "--seed", "-1",
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_negative_scenario_seed(self, tmp_path, capsys):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["seed"] = -3
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--episodes", "1",
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert "scenario.seed: must be >= 0, got -3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--scenario", "example3", "--eps-grid=-1,2", "--episodes", "1"],
         "--eps-grid: thresholds must be >= 0, got -1.0"),
        (["sweep", "--scenario", "example3", "--eps-grid", ",", "--episodes", "1"],
         "--eps-grid: must hold at least one value"),
        (["simulate", "--scenario", "example3", "--episodes", "0"],
         "--episodes: must be >= 1, got 0"),
        (["two-step", "--branch", "delta0=0", "--a", "nan"],
         "--a: must be a finite number, got nan"),
        (["two-step", "--branch", "delta0=1", "--x0", "inf"],
         "--x0: must be a finite number, got inf"),
        (["moments", "--upper", "1", "--cond-upper", "1", "--noise-var", "nan"],
         "--noise-var: must be a finite number, got nan"),
    ])
    def test_bad_flags_are_named(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,message", [
        (["--a", "[[1, 2]]"], "--a: A must be square, got shape (1, 2)"),
        (["--a", "[[1, 0], [0, 1]]"], "--b: B must be 2 x 1 (n = 2, m = 1), got shape (1, 1)"),
        (["--q0", "[[1, 0], [0, 1]]"], "--q0: Q0 must be 1 x 1 (n = 1, m = 1), got shape (2, 2)"),
        (["--q1", "[[1, 0], [0, 1]]"], "--q1: Q1 must be 1 x 1 (n = 1, m = 1), got shape (2, 2)"),
        (["--b", "[[1, 1]]"], "--q2: Q2 must be 2 x 2 (n = 1, m = 2), got shape (1, 1)"),
    ], ids=["a-not-square", "b-rows", "q0", "q1", "q2"])
    def test_riccati_shape_mismatch_names_the_flag(self, tmp_path, capsys, flags, message):
        assert main(["riccati", "--horizon", "3", *flags,
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,message", [
        (["--a", "[[1,"], "validation error: --a: cannot parse value '[[1,': Expecting value"),
        (["--horizon", "0"], "validation error: --horizon: horizon must be >= 1, got 0"),
        (["--q2", "0"], "validation error: --q2: Q2 must be positive definite, eigenvalues [0.]"),
        (["--a", "NaN"], "validation error: --a: A must be finite, got [[nan]]"),
    ], ids=["unparsable", "horizon", "q2-not-pd", "not-finite"])
    def test_riccati_bad_value_names_the_flag(self, tmp_path, capsys, flags, message):
        assert main(["riccati", "--horizon", "3", *flags,
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(message)
        assert not list(tmp_path.iterdir())

    def test_io(self, tmp_path, capsys):
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        assert main(["simulate", "--scenario", "example3", "--episodes", "1",
                     "--out", str(blocker / "run")]) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
