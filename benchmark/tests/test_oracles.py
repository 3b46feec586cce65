"""Each oracle on a case with a known answer.

    python3 -m pytest benchmark/tests -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402


def test_one_contender_always_wins_with_persistence_one():
    assert oracles.tagged_success_probability(1, (1.0, 0.75, 0.5), 10) == 1.0


def test_one_contender_wins_unless_it_never_transmits():
    p, slots = 0.3, 4
    got = oracles.tagged_success_probability(1, (p,), slots)
    assert got == pytest.approx(1.0 - (1.0 - p) ** slots, abs=1e-15)


def _two_contenders_single_attempt(p: float, slots: int) -> float:
    """Closed form for two contenders with one attempt each.

    Both stay silent with probability (1-p)^2 per slot.  In the first slot
    that is not silent, the tagged contender wins if it transmits alone; if
    the other transmits alone, the tagged one still wins if it transmits in
    one of the remaining slots; if both transmit, both are dropped.
    """
    q = 1.0 - p
    return sum(
        q ** (2 * (s - 1)) * p * q * (2.0 - q ** (slots - s))
        for s in range(1, slots + 1)
    )


@pytest.mark.parametrize("p,slots", [(0.5, 1), (0.5, 2), (0.3, 10), (0.9, 3)])
def test_two_contenders_match_closed_form(p, slots):
    got = oracles.tagged_success_probability(2, (p,), slots)
    assert got == pytest.approx(_two_contenders_single_attempt(p, slots), abs=1e-14)


def test_two_contenders_persistence_one_collide_then_retry():
    # Slot 1 always collides; afterwards each slot is won by exactly one of
    # the two with probability 2q(1-q), and the loser then needs one more
    # transmission; a second collision drops both (two attempts).
    q, slots = 0.6, 2
    # Two slots: collide in slot 1, then slot 2 must be won outright.
    got = oracles.tagged_success_probability(2, (1.0, q), slots)
    assert got == pytest.approx(q * (1.0 - q), abs=1e-15)


def test_source_count_zero_reduces_to_loop_contenders():
    rates = oracles.loop_success_rates([(10, 0, 2), (10, 0, 2)], (0.5,), 1, 0, 0.3)
    assert rates == pytest.approx([0.25, 0.25])


def test_esn_density_integrates_to_one_and_tends_to_normal():
    grid = np.linspace(-20.0, 20.0, 8001)
    assert oracles.simpson(oracles.esn_density(grid, 0.9, 0.3), grid) == pytest.approx(1.0, abs=1e-10)
    far = oracles.esn_density(grid, 0.9, 40.0)
    v = 0.9 ** 2 + 1.0
    normal = np.exp(-0.5 * grid ** 2 / v) / math.sqrt(2.0 * math.pi * v)
    assert np.max(np.abs(far - normal)) < 1e-15


def test_esn_conditional_mean_without_source_is_truncated_normal_mean():
    u = 0.4
    want = -oracles.norm_pdf(u) / oracles.norm_cdf(u)
    assert oracles.esn_conditional_mean(0.0, 0.5, u) == pytest.approx(want, abs=1e-12)


def test_silent_residual_without_terminal_weight_is_certainty_equivalent():
    # q0 = 0 removes the probing term: the root is the CE input.
    a, b, q1, q2, c = 1.1, 0.9, 1.0, 2.0, 0.5
    s1 = oracles.riccati_s1(a, b, 0.0, q1, q2)
    xhat00 = -oracles.norm_pdf(c) / oracles.norm_cdf(c)
    u_ce = -(a * b * s1 / (q2 + b * b * s1)) * xhat00
    root, slope = oracles.silent_root(a, b, 0.0, q1, q2, c, u_ce - 1.0, u_ce + 1.0)
    assert root == pytest.approx(u_ce, abs=1e-10)
    assert slope == pytest.approx(2.0 * (q2 + b * b * s1), rel=1e-6)


def test_delivered_roots_without_terminal_weight_are_certainty_equivalent():
    a, b, q1, q2, x0 = 1.0, 1.0, 1.0, 1.0, 0.7
    s1 = oracles.riccati_s1(a, b, 0.0, q1, q2)
    roots = oracles.delivered_roots(a, b, 0.0, q1, q2, 0.5, x0)
    assert roots == pytest.approx([-(a * b * s1 / (q2 + b * b * s1)) * x0], abs=1e-12)


def test_scalar_gain_matches_hand_values():
    assert oracles.scalar_first_gain(1.0, 1.0, 1.0, 1.0, 1.0, 1) == pytest.approx(0.5)
    assert oracles.scalar_first_gain(1.0, 1.0, 1.0, 1.0, 1.0, 2) == pytest.approx(0.6)


def test_divergence_probability_is_zero_for_equal_laws_and_matches_sampling():
    assert oracles.first_step_divergence_probability(1.0, 1.0, 1.0, 1.0, 0.0, 0.5) == 0.0
    gain = 0.6
    p = oracles.first_step_divergence_probability(1.0, 1.0, 1.0, 1.0, gain, 0.5)
    rng = np.random.default_rng(0)
    n = 400_000
    x0 = rng.standard_normal(n)
    w0 = rng.standard_normal(n)
    sent = x0 >= 0.5
    ce = np.where(sent, (1.0 - gain) * x0, x0) + w0 >= 0.5
    zero = x0 + w0 >= 0.5
    share = float(np.mean(sent & (ce != zero)))
    assert abs(share - p) < 5.0 * math.sqrt(p * (1.0 - p) / n)


def test_illinois_root_finds_a_simple_root():
    assert oracles.illinois_root(lambda x: x ** 3 - 2.0, 0.0, 2.0) == pytest.approx(2 ** (1 / 3), abs=1e-11)
