"""Output checks for the benchmark's workloads.

Each function takes plain data (numbers, lists, parsed CSV rows) and returns
a list of failure messages; an empty list means the outputs passed.  The
reference values come from ``oracles`` or from properties the method must
have, never from a stored copy of earlier output.

Statistical checks allow Z_LIMIT standard errors.  Two-sided, that is a
false alarm about once in 1.7 million comparisons, so a correct program
passes every seed while a shifted rate or cost is caught.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

Z_LIMIT = 5.0
# |bound_prob - (1 - request_rate)| and summed cost_term versus j_mean are
# identities up to float summation order.
IDENTITY_RTOL = 1e-9


def _close(a: float, b: float, rtol: float = IDENTITY_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def binomial_z(observed: float, p: float, n: int) -> float:
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
    return (observed - p) / se


# ---------------------------------------------------------------------------
# flood
# ---------------------------------------------------------------------------

def check_flood(loops: list[dict], expected_success: list[float]) -> list[str]:
    """`loops[i]` holds request_rate, success_rate, j_mean, j_se, j_dp and
    requests (the number of requests behind success_rate)."""
    failures = []
    if len(loops) != len(expected_success):
        return [f"flood: {len(loops)} loop summaries for {len(expected_success)} loops"]
    for i, (lp, p) in enumerate(zip(loops, expected_success)):
        if lp["request_rate"] != 1.0:
            failures.append(f"flood loop {i}: request_rate {lp['request_rate']} != 1 "
                            "under the always scheduler")
        z = binomial_z(lp["success_rate"], p, lp["requests"])
        if not abs(z) <= Z_LIMIT:
            failures.append(f"flood loop {i}: success_rate {lp['success_rate']:.5f} vs "
                            f"exact chain {p:.5f} ({z:+.1f} SE)")
        failures += cost_check(f"flood loop {i}", lp["j_mean"], lp["j_se"], lp["j_dp"])
    return failures


def cost_check(label: str, j_mean: float, j_se: float, j_dp: float) -> list[str]:
    if not (j_se > 0.0 and math.isfinite(j_mean) and math.isfinite(j_dp)):
        return [f"{label}: non-finite cost statistics j_mean={j_mean} j_se={j_se} j_dp={j_dp}"]
    z = (j_mean - j_dp) / j_se
    if abs(z) > Z_LIMIT:
        return [f"{label}: j_mean {j_mean:.4f} vs predicted j_dp {j_dp:.4f} ({z:+.1f} SE)"]
    return []


# ---------------------------------------------------------------------------
# innovation_dump
# ---------------------------------------------------------------------------

def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_innovation_dump(summary: list[dict], trace: list[dict], events: list[dict],
                          episodes: int, max_attempts: int) -> list[str]:
    """Consistency of the summary, trace and events CSVs of one simulate run.

    The cost-versus-prediction check is left to the caller, which pools it
    over runs (``cost_check``)."""
    failures = []
    n_loops = len(summary)
    if n_loops == 0:
        return ["innovation_dump: empty summary"]

    cost = defaultdict(float)
    delta_sum = defaultdict(int)
    for row in trace:
        key = (int(row["episode"]), int(row["loop"]))
        cost[key] += float(row["cost_term"])
        if row["gamma"] == "":
            continue  # terminal row: state and terminal cost only
        gamma, delta = int(row["gamma"]), int(row["delta"])
        delta_sum[key[1]] += delta
        where = f"episode {key[0]} loop {key[1]} k {row['k']}"
        if gamma == 0 and delta == 1:
            failures.append(f"innovation_dump: delivery without a request at {where}")
        if delta == 1 and any(float(v) != 0.0 for v in row["err"].split(";")):
            failures.append(f"innovation_dump: nonzero err {row['err']} after a delivery at {where}")
        if int(row["attempts"]) > max_attempts:
            failures.append(f"innovation_dump: {row['attempts']} attempts at {where}")

    slot_wins = defaultdict(int)
    event_successes = defaultdict(int)
    for row in events:
        if int(row["attempt"]) > max_attempts:
            failures.append(f"innovation_dump: event attempt {row['attempt']} > {max_attempts}")
        if row["result"] == "success":
            slot_wins[(row["episode"], row["tick"], row["slot"])] += 1
            event_successes[int(row["contender"])] += 1
    crowded = [k for k, v in slot_wins.items() if v > 1]
    if crowded:
        failures.append(f"innovation_dump: {len(crowded)} mini-slots with several successes, "
                        f"first {crowded[0]}")

    for row in summary:
        i = int(row["loop"])
        label = f"innovation_dump loop {i}"
        if int(row["episodes"]) != episodes:
            failures.append(f"{label}: {row['episodes']} episodes, asked for {episodes}")
        req, bound = float(row["request_rate"]), float(row["bound_prob"])
        if not _close(bound, 1.0 - req, 1e-12):
            failures.append(f"{label}: bound_prob {bound} != 1 - request_rate {1.0 - req}")
        per_episode = [cost[(ep, i)] for ep in range(episodes)]
        j_mean = float(row["j_mean"])
        if not _close(sum(per_episode) / episodes, j_mean):
            failures.append(f"{label}: summed cost_term gives {sum(per_episode) / episodes}, "
                            f"summary j_mean {j_mean}")
        if event_successes[i] != delta_sum[i]:
            failures.append(f"{label}: {event_successes[i]} successes in the events CSV, "
                            f"{delta_sum[i]} deliveries in the trace")
    return failures


# ---------------------------------------------------------------------------
# paired_halfline
# ---------------------------------------------------------------------------

def check_paired(episodes: int, identical: int, first_divergence_ticks: list[int],
                 mse_diff: float, mse_diff_se: float, p_step1: float) -> list[str]:
    failures = []
    if identical + len(first_divergence_ticks) != episodes:
        failures.append(f"paired_halfline: {identical} identical + "
                        f"{len(first_divergence_ticks)} diverging pairs != {episodes}")
    early = [t for t in first_divergence_ticks if t < 1]
    if early:
        failures.append(f"paired_halfline: {len(early)} pairs diverge before step 1")
    share = sum(1 for t in first_divergence_ticks if t == 1) / episodes
    z = binomial_z(share, p_step1, episodes)
    if abs(z) > Z_LIMIT:
        failures.append(f"paired_halfline: step-1 divergence share {share:.5f} vs exact "
                        f"{p_step1:.5f} ({z:+.1f} SE)")
    if not (mse_diff_se > 0.0 and abs(mse_diff) > 3.0 * mse_diff_se):
        failures.append(f"paired_halfline: mse_diff {mse_diff:.5f} is not 3 SE "
                        f"({mse_diff_se:.5f}) from zero")
    return failures


# ---------------------------------------------------------------------------
# two_step_silent
# ---------------------------------------------------------------------------

def check_silent_solve(label: str, u0: float, oracle_root: float, allowance: float) -> list[str]:
    if not abs(u0 - oracle_root) <= allowance:
        return [f"two_step_silent {label}: u0 {u0!r} vs closed-form root {oracle_root!r} "
                f"(|diff| {abs(u0 - oracle_root):.3e} > {allowance:.3e})"]
    return []


def check_delivered_solve(label: str, u0: float, oracle_roots: list[float],
                          tol: float) -> list[str]:
    if len(oracle_roots) != 1:
        return [f"two_step_silent {label}: residual has {len(oracle_roots)} roots in the window"]
    if not abs(u0 - oracle_roots[0]) <= tol:
        return [f"two_step_silent {label}: u0 {u0!r} vs erfc root {oracle_roots[0]!r}"]
    return []
