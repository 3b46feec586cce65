"""Machine-speed calibration for the benchmark's timings.

The 2-core host the benchmark was built on is a shared virtual machine
whose speed drifts by up to a factor of two within a few minutes: six
equal-sized `innovation_dump` runs in a row gave median batch times from
0.40 s to 0.73 s.  A fixed calibration loop timed next to the work slows
down with it, so every timed span is divided by the loop's time measured
around it and multiplied by the loop's time on the reference machine,
CALIB_REF_S.  The result reads in reference-machine seconds.

The slow spells do not slow all code alike, so there are two loops, and
each workload is timed against the one closer to its own work.  The
"numpy" loop mixes Python arithmetic and dict updates with small numpy
products, a 2 x 2 eigh and the construction of a seeded generator, as the
episode engine does.  The "python" loop does Python integer arithmetic and
dict updates only, closer to the pure-Python quadrature of the two-step
solves.  Over ten runs each, the numpy loop gave `wall_s` spreads
(interquartile range over median) of 0.016 to 0.020 on the three engine
workloads against 0.040 to 0.080 with the python loop, and the python loop
gave 0.040 and 0.044 on `two_step_silent` against 0.154 with the numpy loop.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Median times of each loop over 300 calls on the reference machine.  They
# only fix the unit of the normalized timings.
CALIB_REF_S = {"numpy": 0.0175, "python": 0.0211}


def _numpy_loop() -> float:
    mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    vec = np.array([1.0, -1.0])
    table = {}
    acc = 0.0
    for i in range(3500):
        x = mat @ vec + vec
        acc += float(x @ x)
        table[i & 63] = acc
        if i % 50 == 0:
            np.linalg.eigh(mat)
            acc += np.random.Generator(np.random.PCG64(np.random.SeedSequence(i))).random()
    return acc


def _python_loop() -> int:
    table = {}
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
        table[i & 255] = acc
    return acc


_LOOPS = {"numpy": _numpy_loop, "python": _python_loop}
# The loop each workload is timed against.
WORKLOAD_LOOP = {"flood": "numpy", "innovation_dump": "numpy",
                 "paired_halfline": "numpy", "two_step_silent": "python"}


def calibration_s(kind: str) -> float:
    """Wall time of one run of the `kind` calibration loop, about 20 ms."""
    loop = _LOOPS[kind]
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


# Median wall time of startup_s() over 54 calls on the reference machine.
STARTUP_REF_S = 0.142


def startup_s() -> float:
    """Wall time of starting an interpreter that imports numpy and exits.

    Set-up times are mostly interpreter start-up and imports, which a slow
    spell of the machine stretches unlike the loops above, so they are
    scaled by this instead.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def normalized(kind: str, elapsed_s: float, calib_before: float, calib_after: float) -> float:
    """`elapsed_s` in reference-machine seconds, given the `kind`
    calibration times measured just before and just after it; `kind`
    "startup" means startup_s()."""
    ref = STARTUP_REF_S if kind == "startup" else CALIB_REF_S[kind]
    return elapsed_s * ref / (0.5 * (calib_before + calib_after))
