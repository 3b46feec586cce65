"""The probing incentive in the exact two-step problem.

With a half-line trigger (transmit when x >= 0.5) the first input does two
jobs: steer the state and steer the next step's information.  The optimal u0
therefore deviates from the certainty-equivalent answer; the last input u1
never does, because there is no future information left to shape.  Both
branches of the first-step outcome are solved here.
"""

from macloops import (
    TruncatedGaussian,
    ce_u0,
    truncated_moments,
    two_step_s1,
    two_step_stationarity_residual,
    two_step_u0_optimal,
)


def main():
    a = b = q0 = q1 = q2 = 1.0
    s1 = two_step_s1(a, b, q0, q1, q2)
    print(f"one-step value weight S1 = {s1}")

    print("\nbranch 1: the first sample was delivered, x0 = 0")
    u_ce = ce_u0(a, b, s1, q2, 0.0)
    resid = two_step_stationarity_residual(a, b, q0, q1, q2, 1, 0.0, u_ce)
    u_opt = two_step_u0_optimal(a, b, q0, q1, q2, 1, 0.0)
    print(f"  certainty-equivalent u0 : {u_ce:+.6f}")
    print(f"  stationarity residual   : {resid:+.6f}  (nonzero: CE is not optimal)")
    print(f"  optimal u0              : {u_opt:+.6f}")
    print(f"  probing gap             : {u_opt - u_ce:+.6f} "
          "(pushes the state toward the transmit region)")

    print("\nbranch 0: the first sample stayed silent (x0 < 0.5 inferred)")
    xhat, _ = truncated_moments(TruncatedGaussian(0.0, 1.0, 0.5))
    u_ce0 = ce_u0(a, b, s1, q2, xhat)
    resid0 = two_step_stationarity_residual(a, b, q0, q1, q2, 0, 0.0, u_ce0)
    u_opt0 = two_step_u0_optimal(a, b, q0, q1, q2, 0, 0.0)
    print(f"  posterior mean of x0    : {xhat:+.6f}")
    print(f"  certainty-equivalent u0 : {u_ce0:+.6f}")
    print(f"  stationarity residual   : {resid0:+.6f}")
    print(f"  optimal u0              : {u_opt0:+.6f}")
    print(f"  probing gap             : {u_opt0 - u_ce0:+.6f}")

    print("\nprobing fades as the trigger moves out of reach:")
    for thr in (0.5, 1.5, 3.0, 6.0):
        u = two_step_u0_optimal(a, b, q0, q1, q2, 1, 0.0, threshold=thr)
        print(f"  threshold {thr:3.1f}: optimal u0 = {u:+.8f}")


if __name__ == "__main__":
    main()
