"""Scenario files, presets, subcommands, CSV outputs and exit codes."""

import csv
import hashlib
import io
import json
import math
import platform
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macloops import cli
from macloops.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    emit_scenario,
    main,
    parse_scenario_doc,
    presets,
    scenario_hash,
    trace_rows,
)
from macloops.control import two_step_u0_optimal
from macloops.errors import ConfigurationError
from macloops.sim import LoopTrace, _episode_trace
from macloops.stats import TruncatedGaussian, truncated_moments
from test_control import U0_OPT_SILENT
from test_sim import chunks_of


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

    def test_weight_shape_error_names_the_weight(self):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["loops"][0]["weights"]["Q0"] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ConfigurationError) as info:
            parse_scenario_doc(doc)
        assert str(info.value) == \
            "loops[0].weights.Q0: Q0 must be 1 x 1 (n = 1, m = 1), got shape (2, 2)"

    @pytest.mark.parametrize("name,distinct", [("example1", 3), ("example3", 2)])
    def test_copies_of_one_phase_share_one_loop(self, name, distinct):
        # a block's copies are built once per distinct sampling phase
        loops = parse_scenario_doc(name).scenario.loops
        assert len(loops) == 20
        assert len({id(lc) for lc in loops}) == distinct

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
    ])
    def test_integer_fields_reject_fractions(self, path, where):
        doc = json.loads(json.dumps(presets()["example3"]))
        block = doc
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = 10.7
        with pytest.raises(ConfigurationError) as info:
            parse_scenario_doc(doc)
        what = {"horizon": "a positive integer", "count": "an integer >= 1",
                "phase_step": "an integer", "period": "a positive integer",
                "phase": "an integer in [0, period)", "max_attempts": "an integer >= 0",
                "slots_per_sample": "an integer >= 0", "episodes": "an integer >= 1",
                "seed": "an integer >= 0"}[path[-1]]
        assert str(info.value) == f"{where}: {path[-1]} must be {what}, got 10.7"

    @pytest.mark.parametrize("path,value,message", [
        (("plant", "A"), math.nan, "loops[0].plant.A: A must be finite, got [[nan]]"),
        (("plant", "Rw"), -1.0, "loops[0].plant.Rw: Rw must be positive semi-definite"),
        (("plant", "phase"), -3, "loops[0].plant.phase: phase must be an integer in [0, period), "
                                 "got -3"),
        (("plant", "phase"), 12, "loops[0].plant.phase: phase must be an integer in [0, period), "
                                 "got 12"),
        (("plant", "period"), None, "loops[0].plant.period: period must be a positive integer, "
                                    "got None"),
        (("scheduler", "eps"), -1.0, "loops[0].scheduler.eps: eps must be >= 0, got -1.0"),
        (("weights", "Q1"), -1.0, "loops[0].weights.Q1: Q1 must be positive semi-definite"),
        (("net_penalty",), -1.0, "loops[0].net_penalty: net_penalty must be a finite number >= 0"),
    ], ids=["nan-A", "negative-Rw", "negative-phase", "phase-past-period", "null-period",
            "negative-eps", "negative-Q1", "negative-penalty"])
    def test_loop_block_errors_name_the_field(self, path, value, message):
        # the block's own phase is checked before `phase_step` staggers the copies
        doc = json.loads(json.dumps(presets()["example3"]))
        block = doc["loops"][0]
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        with pytest.raises(ConfigurationError) as info:
            parse_scenario_doc(doc)
        assert str(info.value).startswith(message)

    def test_quoted_integer_is_named_by_its_type(self):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["loops"][0]["plant"]["period"] = "10"
        with pytest.raises(ConfigurationError) as info:
            parse_scenario_doc(doc)
        message = str(info.value)
        assert message.startswith("loops[0].plant.period:") and message.endswith("got '10'")

    def test_integral_floats_accepted(self):
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["loops"][0]["horizon"] = 10.0
        doc["episodes"] = 50.0
        parsed = parse_scenario_doc(doc)
        assert parsed.scenario.loops[0].horizon == 10 and parsed.episodes == 50
        assert isinstance(parsed.episodes, int)


SCENARIO_HASHES = {
    "example1": "af04115c346fbe72654608dc1a5c1e89b9dc545822603d7fc07a109f9c2f50da",
    "example1-baseline": "711bfe92725173a467ddeafbf4f634d2bdb20e748782ebdd009a4e1d95027af6",
    "example3": "3d2e41a1e24eabaf508009a93681606261809d7ce6921390d9b6e6fb56d501e3",
}

# SHA-256 of `simulate --scenario NAME --seed 7 --episodes E --dump-trace
# --dump-events`, measured with numpy 2.4.6 (the draws come from numpy's
# samplers).  Each episode has three streams, noise, traffic and contention,
# keyed and laid out as `sim._Layout` states.  A change that alters the
# random-stream layout on purpose updates these digests and says so in
# CHANGES.md.
OUTPUT_DIGESTS = {
    ("example3", 20): {
        "summary": "bf3bf9f2647aff84102d9cbbf86de3b471369c7a3acc8018d5a73789a946ce04",
        "trace": "49e25b30311d941ba5bab59ef6325fb42b5cf17c48258c1ef6d80bf5a7a84b76",
        "events": "f00e6dbbc4f9307cfa0c9eee37666ef28a83734676914be6191ebcecf2891db7",
    },
    ("example1-baseline", 10): {
        "summary": "80352dc5a95ad4715a1ddf2e200e9b4ef1c98044a6f577368f9f2a2cd558df41",
        "trace": "bae4bf7b88aa158eb4e03a0a44df0f641b7a3e011a25a7f0a5e48686942913b6",
        "events": "2d2cd3cb31d63b1dbbe2dac703bbb50dd613abca838eea539f2c8e9d59eb89a0",
    },
    ("example1", 10): {
        "summary": "72873ff3e1466583f09e242757618884fcb8c5158004e8516c88466cdf794c85",
        "trace": "47c685eb3de9720cb4f154a4fb6e7ab48c6e60e7478a2761584562870ce178d6",
        "events": "c11f4133eceb9fac79b387ebaa385e5993229594f3cb0f8c87ec44f102fe10a4",
    },
}


# The same run of example1 on a channel with persistence 1, two sources and a
# global horizon past the last sampling tick.  Every transmit decision is
# certain, so no contention draw is made and these bytes do not depend on the
# layout of the contention streams.
CERTAIN_CHANNEL_DIGESTS = {
    "summary": "642506b4d887227152755f701f6c28a085b6781078e507df62004380ae2b5ba6",
    "trace": "0794e6477fb043b4add163c15f8dbd14ff48bc0e8c27014448a8b7d1376bd95b",
    "events": "34118129a410ed255c9739619d42149a1514949f077db0df4719d859aaa2b46f",
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
    "summary": "d00f1618ee7de4e3c9d4509d1bf9fc32c11daf5ab5ac911b3c2ba929df8fdec5",
    "trace": "bb6637edc335ab6486fd406a2d2ead8b31ee7454397f8fac074db457bb538829",
    "events": "e2a6cbb71fd30f752e0c3fc6bbcdc1a4f39d045f36211ea2f13c0f4b574cedc3",
}


# One scalar loop and one Bernoulli source on a channel with persistence
# (1, 0.5), over 70 episodes, run in chunks of 64 so that the run straddles
# a chunk boundary.  Each episode's noise and traffic streams are keyed by
# the first loop and the first source, so these bytes hold whatever the
# layout of further loops' and sources' draws.
ONE_LOOP_DOC = {
    "name": "one-loop",
    "seed": 7,
    "episodes": 70,
    "crm": {"persistence": [1.0, 0.5], "slots_per_sample": 5},
    "sources": [{"kind": "bernoulli", "rate": 0.4}],
    "loops": [
        {
            "plant": {"A": 1.2, "B": 1.0, "Rw": 0.5, "R0": 2.0, "x0_mean": 0.3},
            "scheduler": {"kind": "innovation", "eps": 1.0},
            "horizon": 12,
            "weights": {"Q0": 1.0, "Q1": 1.0, "Q2": 1.0},
        },
    ],
}

ONE_LOOP_DIGESTS = {
    "summary": "fccd1cff22d842bd2e50314d046f03afdafc63814e423c7a0c38bd6705604894",
    "trace": "f4d5264a3d219d6f990447c15e0d1aab5f5c5ed3bc2bf77774072580e9100046",
    "events": "ac25e3987bb6a02efd8e4415bb604229c52fe8c1a4e95078400854008342f48f",
}


# Eight loops whose (n, m, horizon) alternate in loop order: scalar loops of
# horizon 10 on three periods and phases, with every scheduler kind (always,
# state, innovation, half-line ge and le), two 2-state loops of horizon 8 and
# a scalar loop of horizon 7; one Bernoulli and one Markov source on a
# channel whose persistence lies strictly inside (0, 1).  70 episodes in
# chunks of 64 cross a chunk boundary.  No preset mixes plant shapes,
# horizons or scheduler kinds, so only this run checks which contention
# column each loop takes.
_SCALAR_WEIGHTS = {"Q0": 1.0, "Q1": 1.0, "Q2": 1.0}
_MATRIX_WEIGHTS = {"Q0": [[1.0, 0.0], [0.0, 1.0]], "Q1": [[1.0, 0.0], [0.0, 0.5]], "Q2": 1.0}
MIXED_STACKS_DOC = {
    "name": "mixed-stacks",
    "seed": 11,
    "episodes": 70,
    "crm": {"persistence": [0.8, 0.6, 0.5], "slots_per_sample": 6},
    "sources": [{"kind": "bernoulli", "rate": 0.3},
                {"kind": "markov", "p_on": 0.2, "p_off": 0.4}],
    "loops": [
        {"plant": {"A": 1.1, "B": 1.0, "Rw": 0.5, "R0": 1.0, "x0_mean": 0.2},
         "scheduler": {"kind": "always"}, "horizon": 10, "weights": _SCALAR_WEIGHTS},
        {"plant": {"A": [[1.0, 0.1], [0.0, 0.9]], "B": [[0.0], [1.0]],
                   "Rw": [[0.2, 0.05], [0.05, 0.1]], "R0": [[1.0, 0.0], [0.0, 1.0]],
                   "x0_mean": [0.5, -0.25]},
         "scheduler": {"kind": "innovation", "eps": 0.2}, "horizon": 8,
         "weights": _MATRIX_WEIGHTS},
        {"plant": {"A": 0.9, "B": 0.5, "Rw": 1.0, "R0": 2.0, "period": 3, "phase": 2},
         "scheduler": {"kind": "state", "eps": 1.5}, "horizon": 10, "weights": _SCALAR_WEIGHTS},
        {"plant": {"A": 1.2, "B": 1.0, "Rw": 0.8, "R0": 1.0},
         "scheduler": {"kind": "innovation", "eps": 1.0}, "horizon": 7,
         "weights": _SCALAR_WEIGHTS},
        {"plant": {"A": 1.0, "B": 1.0, "Rw": 1.0, "R0": 1.0, "period": 2},
         "scheduler": {"kind": "innovation", "eps": 2.0}, "horizon": 10,
         "weights": _SCALAR_WEIGHTS},
        {"plant": {"A": [[0.9, 0.2], [-0.1, 1.05]], "B": [[1.0], [0.5]],
                   "Rw": [[0.3, 0.0], [0.0, 0.3]], "R0": [[0.5, 0.1], [0.1, 0.5]],
                   "period": 2, "phase": 1},
         "scheduler": {"kind": "state", "eps": 0.5}, "horizon": 8, "weights": _MATRIX_WEIGHTS},
        {"plant": {"A": 1.0, "B": 1.0, "Rw": 1.0, "R0": 1.0, "x0_mean": -0.3},
         "scheduler": {"kind": "halfline", "threshold": 0.5, "direction": "ge"},
         "horizon": 10, "weights": _SCALAR_WEIGHTS},
        {"plant": {"A": 0.8, "B": 1.0, "Rw": 1.5, "R0": 1.0, "period": 2, "phase": 1},
         "scheduler": {"kind": "halfline", "threshold": -0.5, "direction": "le"},
         "horizon": 10, "weights": {"Q0": 2.0, "Q1": 1.0, "Q2": 0.5}},
    ],
}

MIXED_STACKS_DIGESTS = {
    "summary": "1f5b00ee1533a399b2f9cd4fc5587e6b49d6ff80e9f7b960cb0d06db78016096",
    "trace": "d5200082db7cb154c76afb9b4057ac3a9c7d4c09d1c02e50ced89cd4ac932280",
    "events": "0a4b4d32000e70fa3bd8d06c3582cd9acb2829427e0c621f5b0eafb723c304e8",
}


# Two always-transmit loops of period 2, an innovation loop of period 3 and
# a Bernoulli source on a channel with persistence (1, 0.75, 0.5).  At ticks
# 0, 2, 6, 8, 12 and 14 only the always loops sample, so every episode's
# round there is fixed before the first tick and one contention call
# resolves them all; at the other ticks the round follows the innovation
# loop's requests.  70 episodes in chunks of 64 cross a chunk boundary.  The
# digests were taken before fixed rounds were resolved ahead.
FIXED_ROUNDS_DOC = {
    "name": "fixed-rounds",
    "seed": 5,
    "episodes": 70,
    "crm": {"persistence": [1.0, 0.75, 0.5], "slots_per_sample": 6},
    "sources": [{"kind": "bernoulli", "rate": 0.3}],
    "loops": [
        {"count": 2, "plant": {"A": 1.0, "B": 1.0, "Rw": 1.0, "R0": 1.0, "period": 2},
         "scheduler": {"kind": "always"}, "horizon": 8, "weights": _SCALAR_WEIGHTS},
        {"plant": {"A": 1.1, "B": 1.0, "Rw": 0.5, "R0": 1.0, "x0_mean": 0.2, "period": 3,
                   "phase": 1},
         "scheduler": {"kind": "innovation", "eps": 1.0}, "horizon": 6,
         "weights": _SCALAR_WEIGHTS},
    ],
}

FIXED_ROUNDS_DIGESTS = {
    "summary": "1f4081d9f4b5e63a6c84c8684a0fabfe89799b0d1b05e5308964c730f04ca515",
    "trace": "5fda200eb1e45767166ee98d9b3542525651f003c77d1f2e1d365adba589cf68",
    "events": "e840e1cb214675c7d81c1cb763aeec4e59a4b4e2c360d690c6236fcde01560a0",
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
        assert manifest["argv"] == ["simulate", "--scenario", "example3", "--seed", "2",
                                    "--episodes", "5", "--out", str(out)]
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        wall_s = manifest["wall_s"]
        assert isinstance(wall_s, float) and math.isfinite(wall_s) and wall_s >= 0.0

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

    def test_one_loop_bytes_are_pinned(self, tmp_path, monkeypatch):
        chunks_of(monkeypatch, parse_scenario_doc(ONE_LOOP_DOC).scenario)
        path = tmp_path / "one-loop.json"
        path.write_text(json.dumps(ONE_LOOP_DOC))
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run"),
                     "--dump-trace", "--dump-events"])
        assert code == EXIT_OK
        digests = {kind: hashlib.sha256((tmp_path / f"run_{kind}.csv").read_bytes()).hexdigest()
                   for kind in ("summary", "trace", "events")}
        assert digests == ONE_LOOP_DIGESTS

    def test_one_loop_bytes_hold_in_dump_slices(self, tmp_path, monkeypatch):
        # the 70 episodes run as one chunk and are dumped 16 at a time
        monkeypatch.setattr(cli, "DUMP_EPISODES", 16)
        path = tmp_path / "one-loop.json"
        path.write_text(json.dumps(ONE_LOOP_DOC))
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run"),
                     "--dump-trace", "--dump-events"])
        assert code == EXIT_OK
        digests = {kind: hashlib.sha256((tmp_path / f"run_{kind}.csv").read_bytes()).hexdigest()
                   for kind in ("summary", "trace", "events")}
        assert digests == ONE_LOOP_DIGESTS

    def test_mixed_stacks_bytes_are_pinned(self, tmp_path, monkeypatch):
        chunks_of(monkeypatch, parse_scenario_doc(MIXED_STACKS_DOC).scenario)
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(MIXED_STACKS_DOC))
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run"),
                     "--dump-trace", "--dump-events"])
        assert code == EXIT_OK
        digests = {kind: hashlib.sha256((tmp_path / f"run_{kind}.csv").read_bytes()).hexdigest()
                   for kind in ("summary", "trace", "events")}
        assert digests == MIXED_STACKS_DIGESTS

    def test_fixed_rounds_bytes_are_pinned(self, tmp_path, monkeypatch):
        chunks_of(monkeypatch, parse_scenario_doc(FIXED_ROUNDS_DOC).scenario)
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps(FIXED_ROUNDS_DOC))
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run"),
                     "--dump-trace", "--dump-events"])
        assert code == EXIT_OK
        digests = {kind: hashlib.sha256((tmp_path / f"run_{kind}.csv").read_bytes()).hexdigest()
                   for kind in ("summary", "trace", "events")}
        assert digests == FIXED_ROUNDS_DIGESTS

    def test_events_dump(self, tmp_path):
        out = tmp_path / "ev"
        main(["simulate", "--scenario", "example3", "--seed", "3",
              "--episodes", "2", "--out", str(out), "--dump-events"])
        rows = read_csv(tmp_path / "ev_events.csv")
        assert rows, "contention events expected"
        assert {r["result"] for r in rows} <= {"success", "collided", "deferred", "dropped"}

    def test_events_dump_without_requests_is_its_header(self, tmp_path):
        # no prediction error reaches the threshold, so no round runs: the
        # chunk's event table is empty, the events CSV is its header line
        # alone, and the trace is that of a run without the event dump
        doc = json.loads(json.dumps(presets()["example3"]))
        doc["loops"][0]["scheduler"]["eps"] = 1e300
        path = tmp_path / "quiet.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate", "--scenario", str(path), "--seed", "4", "--episodes", "3",
                "--dump-trace"]
        assert main(argv + ["--out", str(tmp_path / "both"), "--dump-events"]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "alone")]) == EXIT_OK
        assert (tmp_path / "both_events.csv").read_bytes() == \
            b"episode,tick,slot,contender,attempt,result\r\n"
        trace = (tmp_path / "both_trace.csv").read_bytes()
        assert trace == (tmp_path / "alone_trace.csv").read_bytes()
        assert {row["gamma"] for row in read_csv(tmp_path / "both_trace.csv")} == {"0", ""}


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
        assert digest == "45ad602ebb92796bc1aca3609f307d77e429777a69a577b0a831a55eab346195"

    def test_riccati(self, tmp_path):
        out = tmp_path / "ric"
        code = main(["riccati", "--horizon", "2", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "ric.csv")
        assert float(rows[0]["s"]) == pytest.approx(1.6, abs=1e-12)
        assert float(rows[0]["l"]) == pytest.approx(0.6, abs=1e-12)
        assert rows[2]["l"] == ""

    def test_riccati_bytes_are_pinned(self, tmp_path, capsys):
        # a 2-state plant with two inputs, so every cell holds several entries
        code = main(["riccati", "--a", "[[1.0, 0.1], [0.0, 0.9]]",
                     "--b", "[[1.0, 0.0], [0.5, 1.0]]", "--q0", "[[2.0, 0.0], [0.0, 2.0]]",
                     "--q1", "[[1.0, 0.2], [0.2, 0.5]]", "--q2", "[[1.0, 0.0], [0.0, 0.5]]",
                     "--horizon", "4", "--out", str(tmp_path / "ric")])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out.replace(str(tmp_path), "")
        digests = [hashlib.sha256(data).hexdigest()
                   for data in ((tmp_path / "ric.csv").read_bytes(), stdout.encode())]
        assert digests == [
            "cae96e9af5e4d555f4ee1415bb31ce40a440e7d0f45352c7f3fa65057198571a",
            "f09db3ecba941cbe962f1f1ddc8e5c5c4d4360afe93117739013e37571eda96c"]

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

    # the CE input grows with |a| (about 10.1 at a = 20), past any fixed window
    @pytest.mark.parametrize("a", ["20", "50", "1e3", "1e6"])
    def test_two_step_silent_branch_at_scale(self, tmp_path, a):
        assert main(["two-step", "--branch", "delta0=0", "--a", a,
                     "--out", str(tmp_path / "ts")]) == EXIT_OK
        row = read_csv(tmp_path / "ts.csv")[0]
        # the probing input overshoots the CE one
        assert 1.0 < float(row["optimal_u0"]) / float(row["ce_u0"]) < 1.25

    def test_two_step_default_window_is_the_commands(self, tmp_path):
        # the library's default scan window is the one the command uses, so
        # a = 20 solves there too
        assert main(["two-step", "--branch", "delta0=0", "--a", "20",
                     "--out", str(tmp_path / "ts")]) == EXIT_OK
        row = read_csv(tmp_path / "ts.csv")[0]
        assert two_step_u0_optimal(20.0, 1, 1, 1, 1, 0, 0.0) == float(row["optimal_u0"])

    # the probing term's density factor underflows to 0 and its squared
    # distance to the bound would overflow
    @pytest.mark.parametrize("threshold", ["1e155", "1e300"])
    @pytest.mark.parametrize("branch", [["delta0=0"], ["delta0=1", "--x0", "0.7"]],
                             ids=["silent", "delivered"])
    def test_two_step_far_threshold_is_certainty_equivalent(self, tmp_path, branch, threshold):
        assert main(["two-step", "--branch", *branch, "--threshold", threshold,
                     "--out", str(tmp_path / "ts")]) == EXIT_OK
        row = read_csv(tmp_path / "ts.csv")[0]
        assert float(row["optimal_u0"]) == pytest.approx(float(row["ce_u0"]), abs=1e-8)

    def test_moments_large_source_coefficient(self, tmp_path):
        assert main(["moments", "--upper", "0.5", "--cond-upper", "0.5", "--a", "1e5",
                     "--out", str(tmp_path / "mom")]) == EXIT_OK
        rows = {r["quantity"]: float(r["value"]) for r in read_csv(tmp_path / "mom.csv")}
        assert rows["compound_cond_mean"] == pytest.approx(-79788.13777466229, rel=1e-10)
        assert rows["compound_cond_var"] == pytest.approx(3633813177.382621, rel=1e-10)

    def test_moments(self, tmp_path):
        out = tmp_path / "mom"
        code = main(["moments", "--upper", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        rows = {r["quantity"]: float(r["value"]) for r in read_csv(tmp_path / "mom.csv")}
        want = truncated_moments(TruncatedGaussian(0.0, 1.0, 0.5))
        assert rows["truncated_mean"] == pytest.approx(want[0])
        assert rows["truncated_var"] == pytest.approx(want[1])

    def test_moments_keeps_a_dotted_prefix(self, tmp_path):
        assert main(["moments", "--upper", "0.5",
                     "--out", str(tmp_path / "mom-upper0.5")]) == EXIT_OK
        assert [p.name for p in tmp_path.iterdir()] == ["mom-upper0.5.csv"]


class TestOutputDirEnv:
    def test_default_directory_comes_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MACLOOPS_OUT_DIR", str(tmp_path))
        assert main(["riccati", "--horizon", "1"]) == EXIT_OK
        assert (tmp_path / "riccati-n1.csv").exists()


def _vec(v: np.ndarray) -> str:
    """One trace cell, entry by entry: the `repr` of each float, joined by ";"."""
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    return ";".join(repr(float(c)) for c in arr)


def reference_trace_rows(episode, traces):
    """The trace rows built cell by cell with `_vec` and `repr`."""
    rows = []
    for tr in traces:
        for k in range(tr.ks.size):
            rows.append([
                episode, tr.loop, int(tr.ks[k]), int(tr.ticks[k]),
                _vec(tr.xs[k]), _vec(tr.us[k]),
                int(tr.gammas[k]), int(tr.deltas[k]), int(tr.attempts[k]),
                _vec(tr.xhats[k]), _vec(tr.errs[k]), repr(float(tr.pred_err_sq[k])),
                int(tr.taus[k]), int(tr.delays[k]), repr(float(tr.cost_terms[k])),
            ])
        steps = tr.ks.size
        rows.append([episode, tr.loop, steps, int(tr.phase + tr.period * steps),
                     _vec(tr.xs[-1]), "", "", "", "", "", "", "", "", "",
                     repr(float(tr.terminal_cost))])
    return rows


# any double, with the ones whose text is easy to get wrong drawn often
TRACE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e-300, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def loop_traces(draw, loop, episodes):
    """A chunk trace of one loop: every per-step array and the costs carry
    a leading axis of `episodes`."""
    n, m = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 2]))
    steps = draw(st.integers(1, 4))
    period = draw(st.integers(1, 5))
    phase = draw(st.integers(0, period - 1))
    ks = np.arange(steps)

    def floats(*shape):
        shape = (episodes,) + shape
        values = draw(st.lists(TRACE_FLOATS, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        return np.array(values, dtype=float).reshape(shape)

    def ints(lo, hi):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=episodes * steps,
                                      max_size=episodes * steps)), dtype=int
                        ).reshape(episodes, steps)

    return LoopTrace(
        loop=loop, episode=0, period=period, phase=phase, ks=ks, ticks=phase + period * ks,
        xs=floats(steps + 1, n), us=floats(steps, m),
        gammas=ints(0, 1), deltas=ints(0, 1), attempts=ints(0, 3),
        xhats=floats(steps, n), errs=floats(steps, n), pred_err_sq=floats(steps),
        taus=ints(-1, steps), delays=ints(-steps, steps + 1), cost_terms=floats(steps),
        terminal_cost=floats(), j=np.zeros(episodes), j_lambda=np.zeros(episodes),
    )


class TestTraceRows:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(start=st.integers(0, 10 ** 6), data=st.data())
    def test_rows_match_the_per_cell_reference(self, start, data):
        # a chunk's lines are the csv.writer text of the reference rows of
        # each of its episodes in turn, one line per row
        episodes = range(start, start + data.draw(st.integers(1, 3)))
        count = data.draw(st.integers(1, 3))
        traces = [data.draw(loop_traces(i, len(episodes))) for i in range(count)]
        lines = trace_rows(episodes, traces)
        expected = [row for e, ep in enumerate(episodes) for row in
                    reference_trace_rows(ep, [_episode_trace(tr, e, ep) for tr in traces])]
        assert len(lines) == len(expected)
        assert all(line.endswith("\r\n") for line in lines)
        buf = io.StringIO()
        csv.writer(buf).writerows(expected)
        assert "".join(lines) == buf.getvalue()


class TestExitCodes:
    def test_usage(self):
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["simulate", "--scenario", str(bad)]) == EXIT_VALIDATION

    def test_numerical(self):
        assert main(["moments", "--upper", "-8.0"]) == EXIT_NUMERICAL

    # a^2 var overflows, a * var underflows, var * noise_var underflows
    @pytest.mark.parametrize("flags", [["--a", "1e200"], ["--a", "1e-200", "--var", "1e-200"],
                                       ["--a", "1", "--var", "1e-200", "--noise-var", "1e-200"]],
                             ids=["overflow", "a-var-underflow", "noise-underflow"])
    def test_compound_law_out_of_range(self, tmp_path, capsys, flags):
        argv = ["moments", "--upper", "0.5", "--cond-upper", "0.5", "--out", str(tmp_path / "m")]
        assert main(argv + flags) == EXIT_NUMERICAL
        assert "out of floating-point range" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_two_step_overflowing_ce_input(self, tmp_path, capsys):
        # a * b * s1 overflows at a = 1e150, so no scan window can be centred
        assert main(["two-step", "--branch", "delta0=0", "--a", "1e150",
                     "--out", str(tmp_path / "ts")]) == EXIT_NUMERICAL
        assert "the certainty-equivalent input overflows: inf" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    def test_two_step_overflowing_window(self, tmp_path, capsys):
        # u0_ce = -0.6 x0 is finite, but the window edge u0_ce - |u0_ce| is not
        assert main(["two-step", "--branch", "delta0=1", "--x0", "1.7e308",
                     "--out", str(tmp_path / "ts")]) == EXIT_NUMERICAL
        assert "its scan window is" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
         "sources[0].rate: rate must lie in [0,1], got 1.5"),
        ("crm", {"persistence": [1.5]},
         "crm.persistence: persistence probabilities must lie in [0,1]"),
        ("sources", {"kind": "bernoulli", "rate": 0.2}, "scenario.sources: must be an array"),
        ("global_horizon", 400, "scenario: unknown keys ['global_horizon']"),
        ("crm", {"persistence": ["a"]}, "crm.persistence: persistence must be numeric"),
        ("crm", {"persistence": [True, 0.75, 0.5]},
         "crm.persistence: persistence must be numeric probabilities, got (True, 0.75, 0.5)"),
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

    @pytest.mark.parametrize("command,scheduler,flags,what,tick", [
        ("simulate", {"kind": "always"}, ["--law", "zero"], "state", 31),
        ("simulate", {"kind": "always"}, ["--law", "zero", "--dump-trace", "--dump-events"],
         "state", 31),
        ("simulate", {"kind": "innovation", "eps": 1e300}, [], "cost", 15),
        ("sweep", {"kind": "innovation", "eps": 1.0}, ["--eps-grid", "1e300"], "cost", 15),
    ], ids=["simulate-zero-law", "simulate-zero-law-dumps", "simulate-ce-law", "sweep"])
    def test_breakdown_names_episode_loop_and_tick(self, tmp_path, capsys, command, scheduler,
                                                   flags, what, tick):
        # x+ = 1e10 x + B u + w overflows: under the zero law the state does
        # at tick 31; under the CE law the innovation passes 1e300 near tick
        # 15, and the input that answers it has a square that overflows.
        # A failed run leaves no CSV behind, not even the dumps it opened.
        doc = {"name": "blowup", "seed": 0, "episodes": 3, "crm": {"persistence": [1.0]},
               "loops": [{"plant": {"A": 1e10, "B": 1.0, "Rw": 1.0, "R0": 1.0},
                          "scheduler": scheduler, "horizon": 40,
                          "weights": {"Q0": 1.0, "Q1": 1.0, "Q2": 1.0}}]}
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / "r")]
                     + flags) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"numerical failure: the {what} of loop 0 is not finite at tick {tick} "
            "of episode 0\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["blowup.json"]

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
        assert "scenario.seed: seed must be an integer >= 0, got -3" in capsys.readouterr().err

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
        # the scalar form of riccati's rule: Q0 and Q1 PSD, Q2 PD, and a noise variance > 0
        (["two-step", "--branch", "delta0=1", "--x0", "0", "--q2", "-1"],
         "--q2: q2 must be > 0, got -1.0"),
        (["two-step", "--branch", "delta0=1", "--x0", "0", "--q2", "0"],
         "--q2: q2 must be > 0, got 0.0"),
        (["two-step", "--branch", "delta0=1", "--x0", "0", "--q0", "-1"],
         "--q0: q0 must be >= 0, got -1.0"),
        (["two-step", "--branch", "delta0=0", "--q1", "-3"],
         "--q1: q1 must be >= 0, got -3.0"),
        (["moments", "--upper", "0.5", "--a", "1", "--noise-var", "-0.5", "--cond-upper", "0.5"],
         "--noise-var: must be > 0, got -0.5"),
        # the truncated Gaussian's own checks
        (["moments", "--upper", "1", "--var", "0"],
         "--var: var must be positive and finite, got 0.0"),
        (["moments", "--upper", "1", "--var", "-1"],
         "--var: var must be positive and finite, got -1.0"),
        (["moments", "--upper", "-40"],
         "--upper: truncation keeps no probability mass (upper=-40.0, mean=0.0, var=1.0)"),
        (["two-step", "--branch", "delta0=0", "--threshold", "-40"],
         "--threshold: truncation keeps no probability mass (upper=-40.0, mean=0.0, var=1.0)"),
        (["two-step", "--branch", "delta0=1", "--x0", "0", "--threshold", "-40"],
         "--threshold: the delta1 = 0 event has probability 0: its noise bound "
         "threshold - a*x0 - b*u0 = -40.0 keeps no probability mass"),
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
        (["--horizon", "0"],
         "validation error: --horizon: horizon must be a positive integer, got 0"),
        (["--q2", "0"], "validation error: --q2: Q2 must be positive definite, eigenvalues [0.]"),
        (["--a", "NaN"], "validation error: --a: A must be finite, got [[nan]]"),
        # the command solves one problem, so a stack is no flag's value
        (["--a", "[[[1.0]],[[2.0]]]", *(arg for flag in ("--b", "--q0", "--q1", "--q2")
                                       for arg in (flag, "[[[1.0]],[[1.0]]]"))],
         "validation error: --a: A must be a matrix, got shape (2, 1, 1)"),
        (["--a", "[[[1.0]]]"], "validation error: --a: A must be a matrix, got shape (1, 1, 1)"),
    ], ids=["unparsable", "horizon", "q2-not-pd", "not-finite", "stack", "stack-of-one"])
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

    def test_io_after_the_dumps_leaves_no_dump(self, tmp_path, capsys):
        # the dumps are complete when the summary cannot be written; without
        # a summary and a manifest they go too
        (tmp_path / "run_summary.csv").mkdir()
        assert main(["simulate", "--scenario", "example3", "--episodes", "2", "--dump-trace",
                     "--dump-events", "--out", str(tmp_path / "run")]) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["run_summary.csv"]
