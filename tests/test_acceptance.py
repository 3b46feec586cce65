"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion.  Two checks assert
reference magnitudes that are not reachable under the documented contention
mechanics (see the failure messages, which carry the blocking analysis); they
are kept faithful rather than loosened, so this suite is expected to run red
on exactly those assertions.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from macloops.cli import main as cli_main, parse_scenario_doc
from macloops.control import (
    ce_u0,
    riccati_backward,
    two_step_s1,
    two_step_stationarity_residual,
    two_step_u0_optimal,
    two_step_u1,
)
from macloops.model import LoopConfig, NetworkScenario, PlantModel
from macloops.network import CrmConfig, TrafficSource
from macloops.scheduling import SchedulerPolicy
from macloops.sim import (
    _layout,
    _rules,
    _run_arms,
    ce_law,
    dual_effect_experiment,
    monte_carlo,
    run_episode,
    sweep_threshold,
    zero_law,
)
from macloops.stats import (
    QuadratureSpec,
    TruncatedGaussian,
    compound_density,
    integrate,
    truncated_moments,
)
from test_sim import per_episode

REF_BASELINE_COST = (45.3074, 10.0028, 6.1213)
REF_SCHEDULED_COST = (23.5785, 8.3489, 5.3803)
TYPE_GROUPS = (range(0, 6), range(6, 13), range(13, 20))


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def per_type_costs(result):
    """Mean episode cost per plant type with its standard error."""
    out = []
    for grp in TYPE_GROUPS:
        per_ep = np.mean([result.per_loop[i].costs for i in grp], axis=0)
        out.append((float(per_ep.mean()),
                    float(per_ep.std(ddof=1) / math.sqrt(per_ep.size))))
    return out


def single_loop(scheduler, horizon=10, rw=1.0, r0=1.0, x0_mean=None):
    plant = PlantModel(A=1.0, B=1.0, Rw=rw, R0=r0, x0_mean=x0_mean)
    loop = LoopConfig(plant=plant, scheduler=scheduler, horizon=horizon,
                      Q0=1.0, Q1=1.0, Q2=1.0)
    return NetworkScenario(loops=(loop,), crm=CrmConfig(persistence=(1.0,)))


def test_criterion_01_riccati_reference_values():
    sol1 = riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, 1)
    sol2 = riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, 2)
    checks = {
        "N=1 S0": (sol1.S[0][0, 0], 1.5),
        "N=1 L0": (sol1.L[0][0, 0], 0.5),
        "N=2 S0": (sol2.S[0][0, 0], 1.6),
        "N=2 L1": (sol2.L[1][0, 0], 0.5),
        "N=2 L0": (sol2.L[0][0, 0], 0.6),
    }
    for label, (got, want) in checks.items():
        assert abs(got - want) < 1e-12, f"{label}: {got} != {want}"
    report("criterion 1 (riccati oracle)", True,
           "S0/L gains match hand values to 1e-12")


def test_criterion_02_deterministic_rollout():
    t0 = time.time()
    scn = single_loop(SchedulerPolicy.always_transmit(), horizon=2,
                      rw=0.0, r0=0.0, x0_mean=[1.0])
    tr = run_episode(scn, seed=0, episode=0)[0]
    elapsed = time.time() - t0
    sol = riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, 2)
    want = float(np.array([1.0]) @ sol.S[0] @ np.array([1.0]))
    assert abs(tr.j - 1.60) < 1e-10
    assert abs(tr.j - want) < 1e-10
    assert elapsed < 1.0
    report("criterion 2 (deterministic rollout)", True,
           f"cost {tr.j:.12f} equals x0'S0x0, {elapsed*1e3:.0f} ms")


@pytest.fixture(scope="module")
def example1_results():
    baseline = parse_scenario_doc("example1-baseline").scenario
    scheduled = parse_scenario_doc("example1").scenario
    cn = monte_carlo(baseline, seed=11, episodes=1000)
    ss = monte_carlo(scheduled, seed=11, episodes=1000)
    return per_type_costs(cn), per_type_costs(ss)


def test_criterion_03a_scheduling_beats_baseline_per_type(example1_results):
    cn, ss = example1_results
    lines = []
    for i, name in enumerate(("T1", "T2", "T3")):
        (m_cn, se_cn), (m_ss, se_ss) = cn[i], ss[i]
        hi_ss = m_ss + 1.96 * se_ss
        lo_cn = m_cn - 1.96 * se_cn
        assert hi_ss < lo_cn, (
            f"{name}: scheduled cost CI [{m_ss - 1.96 * se_ss:.2f}, {hi_ss:.2f}] "
            f"overlaps baseline CI [{lo_cn:.2f}, {m_cn + 1.96 * se_cn:.2f}]"
        )
        lines.append(f"{name} {m_ss:.1f}<{m_cn:.1f}")
    report("criterion 3a (cost ordering, non-overlapping CIs)", True,
           "; ".join(lines))


def test_criterion_03b_cost_magnitudes_match_reference(example1_results):
    cn, ss = example1_results
    violations = []
    for i, name in enumerate(("T1", "T2", "T3")):
        for label, (mean, _), ref in (("baseline", cn[i], REF_BASELINE_COST[i]),
                                      ("scheduled", ss[i], REF_SCHEDULED_COST[i])):
            if not 0.7 * ref <= mean <= 1.3 * ref:
                sol = riccati_backward(
                    (1.0, 0.75, 0.5)[i], 1.0, 1.0, 1.0, 1.0, 10)
                rw = (1.0, 1.5, 2.0)[i]
                floor = rw * sum(float(s[0, 0]) for s in sol.S[1:])
                violations.append(
                    f"{name}/{label}: {mean:.2f} outside [{0.7 * ref:.2f}, "
                    f"{1.3 * ref:.2f}] (full-information cost floor for this "
                    f"plant is {floor:.2f}, already above the window top)"
                )
    ok = not violations
    report("criterion 3b (cost magnitudes +/-30%)", ok,
           "all in window" if ok else "; ".join(violations))
    assert ok, (
        "reference magnitudes are unreachable for the slower plant types: "
        + "; ".join(violations)
    )


@pytest.fixture(scope="module")
def example3_sweep():
    scn = parse_scenario_doc("example3").scenario
    grid = [round(0.5 * i, 10) for i in range(1, 17)]
    return grid, sweep_threshold(scn, grid, seed=11, episodes=400)


def test_criterion_04a_sweep_has_interior_minimum(example3_sweep):
    grid, res = example3_sweep
    best = int(np.argmin(res.j_mean))
    assert 0 < best < len(grid) - 1, f"minimum sits at the grid edge eps={grid[best]}"
    for end in (0, len(grid) - 1):
        rise = res.j_mean[end] - res.j_mean[best]
        bar = 3.0 * max(res.j_se[end], res.j_se[best])
        assert rise >= bar, (
            f"cost at eps={grid[end]} exceeds the minimum by {rise:.2f} < 3 SE ({bar:.2f})"
        )
    report("criterion 4a (interior minimum)", True,
           f"argmin eps={grid[best]}, ends rise by "
           f"{res.j_mean[0]-res.j_mean[best]:.1f}/{res.j_mean[-1]-res.j_mean[best]:.1f}")


def test_criterion_04b_cost_at_reference_threshold(example3_sweep):
    grid, res = example3_sweep
    i35 = grid.index(3.5)
    j35 = float(res.j_mean[i35])
    assert 20.0 <= j35 <= 36.0, f"cost at eps=3.5 is {j35:.2f}, outside [20, 36]"
    report("criterion 4b (cost at eps=3.5)", True, f"J = {j35:.2f} in [20, 36]")


def test_criterion_04c_bound_probability(example3_sweep):
    grid, res = example3_sweep
    i35 = grid.index(3.5)
    bound = float(res.bound_prob[i35])
    req = float(res.request_rate[i35])
    ok = 0.90 <= bound <= 0.98
    report("criterion 4c (bound probability at eps=3.5)", ok,
           f"measured {bound:.3f}, request rate {req:.3f}")
    assert ok, (
        f"empirical bound probability is {bound:.3f}, outside 0.94 +/- 0.04. "
        "By construction Pr(prediction error^2 <= eps) = 1 - request rate, and "
        "the innovation accumulates variance during voluntary silences, so the "
        "renewal request rate at eps=3.5 is ~0.15 even on a collision-free "
        "channel (ceiling ~0.85). The reference 0.94 equals the one-step "
        "crossing probability Pr(chi2_1 <= 3.5) = 0.9387, attained only if "
        "every innovation were a single fresh noise draw."
    )


def test_criterion_05_truncated_moments_and_compound_normalization():
    tg = TruncatedGaussian(0.0, 1.0, 0.5)
    mean, var = truncated_moments(tg)
    spec = QuadratureSpec(tol=1e-10)
    lo = -12.0
    z = integrate(tg.pdf, lo, tg.upper, spec)
    qmean = integrate(lambda x: x * tg.pdf(x), lo, tg.upper, spec) / z
    qvar = integrate(lambda x: (x - qmean) ** 2 * tg.pdf(x), lo, tg.upper, spec) / z
    assert abs(mean - qmean) < 1e-6
    assert abs(var - qvar) < 1e-6
    total = integrate(lambda e: compound_density(1.0, tg, 1.0, e),
                      -15.0, 15.0, QuadratureSpec(tol=1e-8))
    assert abs(total - 1.0) < 1e-6
    report("criterion 5 (truncated moments / compound density)", True,
           f"mean {mean:.6f}, var {var:.6f}, compound mass {total:.9f}")


def test_criterion_06_two_step_probing_controller():
    a = b = q0 = q1 = q2 = 1.0
    s1 = two_step_s1(a, b, q0, q1, q2)

    # (i) the last-step input coincides with the CE form exactly
    for xhat in (-2.0, -0.3, 0.0, 0.7, 1.9):
        want = -(a * b * q0 / (q2 + b * b * q0)) * xhat
        assert two_step_u1(a, b, q0, q2, xhat) == want

    # (ii) the stationarity residual at the CE point is nonzero
    u0_ce = ce_u0(a, b, s1, q2, 0.0)
    resid = two_step_stationarity_residual(a, b, q0, q1, q2, 1, 0.0, u0_ce)
    assert abs(resid) > 1e-3

    # (iii) the root agrees with a common-random-number value oracle
    root = two_step_u0_optimal(a, b, q0, q1, q2, 1, 0.0)
    rng = np.random.default_rng(60301)
    n = 1_000_000
    w0 = rng.standard_normal(n)
    w1 = rng.standard_normal(n)
    grid = np.round(np.arange(-3.0, 3.0001, 0.01), 10)

    def costs_for(u0):
        x1 = u0 + w0
        delivered = x1 >= 0.5
        wbar, _ = truncated_moments(TruncatedGaussian(0.0, 1.0, 0.5 - u0))
        xhat11 = np.where(delivered, x1, u0 + wbar)
        u1 = -0.5 * xhat11
        x2 = x1 + u1 + w1
        return u0 * u0 + x1 * x1 + u1 * u1 + x2 * x2

    # On either side of the delivery bound the cost is a quadratic in (w0,
    # w1), so after one sort of w0 the prefix sums of 1, w0, w0^2, w1, w1^2
    # and w0 w1 give each grid value's mean cost
    order = np.argsort(w0, kind="stable")
    s0, s1 = w0[order], w1[order]
    sums = np.zeros((6, n + 1))
    np.cumsum(np.stack((np.ones(n), s0, s0 * s0, s1, s1 * s1, s0 * s1)), axis=1,
              out=sums[:, 1:])

    def mean_cost(u0):
        # the delivered draws, u0 + w0 >= 0.5 as costs_for rounds it, are a
        # suffix of the sorted w0 that starts at k
        k = int(np.searchsorted(s0, 0.5 - u0))
        while k > 0 and u0 + s0[k - 1] >= 0.5:
            k -= 1
        while k < n and u0 + s0[k] < 0.5:
            k += 1
        wbar, _ = truncated_moments(TruncatedGaussian(0.0, 1.0, 0.5 - u0))
        h = 0.5 * (u0 + wbar)  # -u1 after a silence
        total = 0.0
        for part, delivered in ((sums[:, n] - sums[:, k], True), (sums[:, k], False)):
            c, w, ww, v, vv, wv = part
            x1 = c * u0 + w                            # sum of x1
            x1x1 = c * u0 * u0 + 2.0 * u0 * w + ww     # of x1^2
            x1v = u0 * v + wv                          # of x1 w1
            if delivered:  # u1 = -x1 / 2, x2 = x1 / 2 + w1
                total += c * u0 * u0 + 1.5 * x1x1 + x1v + vv
            else:          # u1 = -h, x2 = x1 - h + w1
                total += (c * u0 * u0 + 2.0 * x1x1 + 2.0 * c * h * h + vv + 2.0 * x1v
                          - 2.0 * h * x1 - 2.0 * h * v)
        return total / n

    values = np.array([mean_cost(float(u)) for u in grid])
    best = int(np.argmin(values))
    # the scan checks itself against the direct means, at its argmin and
    # across the grid
    for j in (best, 0, 150, 300, 450, 600):
        direct = costs_for(float(grid[j])).mean()
        assert abs(values[j] - direct) <= 1e-12 * abs(direct), (grid[j], values[j], direct)
    # paired CRN differences around the empirical argmin decide which grid
    # points are statistically indistinguishable from it
    base = costs_for(float(grid[best]))
    close = [grid[best]]
    for j in range(max(0, best - 20), min(len(grid), best + 21)):
        if j == best:
            continue
        diff = costs_for(float(grid[j])) - base
        if diff.mean() <= 3.0 * diff.std(ddof=1) / math.sqrt(n):
            close.append(grid[j])
    lo, hi = min(close) - 0.0101, max(close) + 0.0101
    assert lo <= root <= hi, (
        f"root {root:.4f} outside the oracle's argmin region [{lo:.4f}, {hi:.4f}]"
    )
    report("criterion 6 (two-step probing controller)", True,
           f"residual at CE {resid:.4f}, root {root:.4f}, "
           f"oracle argmin {grid[best]:.2f} (+/-{0.0101 + (hi-lo)/2:.3f})")


def test_criterion_07_control_free_requests_are_bit_identical():
    plant = PlantModel(A=1.0, B=1.0, Rw=1.0, R0=1.0)
    loops = tuple(
        LoopConfig(plant=plant, scheduler=SchedulerPolicy.innovation_threshold(e),
                   horizon=10, Q0=1.0, Q1=1.0, Q2=1.0)
        for e in (1.0, 3.5)
    )
    scn = NetworkScenario(loops=loops, crm=CrmConfig(persistence=(1.0, 0.75, 0.5)),
                          sources=(TrafficSource.bernoulli(0.3),))
    rep = dual_effect_experiment(scn, ce_law, zero_law, seed=41, episodes=1000)
    assert rep.gamma_identical_episodes == 1000, (
        f"{1000 - rep.gamma_identical_episodes} episodes diverged"
    )
    report("criterion 7 (control-free request sequences)", True,
           "1000/1000 episodes bit-identical across control laws")


def test_criterion_08_control_dependent_scheduler_shows_the_coupling():
    scn = single_loop(SchedulerPolicy.half_line_state(0.5))
    rep = dual_effect_experiment(scn, ce_law, zero_law, seed=42, episodes=100_000)
    assert rep.divergence_fraction > 0.0
    ratio = abs(rep.mse_diff) / rep.mse_diff_se
    assert ratio > 3.0, f"error-covariance gap only {ratio:.1f} standard errors"
    report("criterion 8 (control-dependent scheduler)", True,
           f"{rep.divergence_fraction:.1%} episodes diverge, "
           f"E[err^2] gap {rep.mse_diff:.3f} = {ratio:.0f} SE")


def test_criterion_09_observer_mse_beats_offset_family():
    scn = single_loop(SchedulerPolicy.innovation_threshold(3.5))
    errs, silent = [], []

    def keep(ep, traces):
        tr = traces[0]
        errs.append(tr.errs[:, 0])
        silent.append(tr.deltas == 0)

    monte_carlo(scn, seed=51, episodes=5000, trace_hook=per_episode(keep))
    err = np.concatenate(errs)
    quiet = np.concatenate(silent)
    base = float((err ** 2).mean())
    sigma = 1.0  # process-noise standard deviation
    worst = base
    for c in (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0):
        alt = err.copy()
        alt[quiet] = alt[quiet] - c * sigma
        mse = float((alt ** 2).mean())
        assert base <= mse, f"offset {c} sigma beat the observer: {mse} < {base}"
        worst = max(worst, mse)
    report("criterion 9 (observer MSE dominates offsets)", True,
           f"observer MSE {base:.4f} <= best offset alternative (max {worst:.4f})")


def test_criterion_10_silent_burst_noise_has_zero_mean():
    scn = single_loop(SchedulerPolicy.innovation_threshold(3.5), horizon=1000)
    # episodes 0, 1, 2, ... at seed 61, run a chunk at a time and read one
    # episode at a time, as the stopping rule needs
    layout = _layout(scn)
    chunks = _run_arms(scn, layout, [(_rules(scn, layout), ce_law)], 61, range(sys.maxsize))
    episodes = ((tr.errs[e], tr.deltas[e]) for chunk, ((tr,),), _ in chunks
                for e in range(len(chunk)))
    samples = []
    total = 0
    while total < 1_000_000:
        errs, deltas = next(episodes)
        vals = errs[deltas == 0, 0]
        samples.append(vals)
        total += vals.size
    sample = np.concatenate(samples)
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    assert abs(sample.mean()) <= 3.0 * se, (
        f"mean {sample.mean():.5f} exceeds 3 SE ({3 * se:.5f}) over {sample.size} samples"
    )
    report("criterion 10 (zero-mean silent-burst noise)", True,
           f"mean {sample.mean():.2e} within 3 SE ({3*se:.2e}) at n={sample.size}")


def test_criterion_11_byte_identical_outputs(tmp_path):
    args = ["simulate", "--scenario", "example3", "--seed", "7",
            "--episodes", "5", "--dump-trace"]
    assert cli_main(args + ["--out", str(tmp_path / "one")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "two")]) == 0
    for suffix in ("_summary.csv", "_trace.csv"):
        a = Path(tmp_path / ("one" + suffix)).read_bytes()
        b = Path(tmp_path / ("two" + suffix)).read_bytes()
        assert a == b, f"{suffix} differs between identical reruns"
    report("criterion 11 (byte-identical reruns)", True,
           "summary and trace CSVs identical across reruns")
