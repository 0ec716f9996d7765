"""Fixed-input layer probes (ROADMAP aim 1): series kernels, member construction, containment.

Each probe calls one public function on an input that depends on nothing
but its order, repeatedly, and reports the median time per call of several
timed batches.  The probes run untraced.
"""

from __future__ import annotations

import statistics
import time

ORDERS = (16, 32, 128)

#: Fixed witness: rotation times z times two Blaschke factors.
_ROTATION = complex(0.6, 0.8)
_ZEROS = (complex(0.3, -0.2), complex(-0.45, 0.1))


def _per_call_us(fn, batches: int = 5, min_batch_s: float = 0.02) -> float:
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - start >= min_batch_s:
            break
        reps *= 2
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - start) / reps)
    return statistics.median(times) * 1e6


def run_probes() -> dict[str, float]:
    import numpy as np

    from gshlab import caratheodory as cara
    from gshlab import core, regions
    from gshlab import series as ts

    omega = cara.SchwarzSample(rotation=_ROTATION, zeros=_ZEROS)
    out = {}
    for n in ORDERS:
        w = omega.series(n)
        denominator = ts.constant(1.0, n) - 0.5 * w
        out[f"series.exp_us.n{n}"] = _per_call_us(lambda: ts.exp(w))
        out[f"series.sinh_us.n{n}"] = _per_call_us(lambda: ts.sinh(w))
        out[f"series.div_us.n{n}"] = _per_call_us(lambda: ts.div(w, denominator))
        out[f"core.member_us.n{n}"] = _per_call_us(lambda: core.member_from_witness(omega, n))
    # images of a curve within 2% of the unit circle: points near the boundary of sinh(D)
    t =np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    radius = 1.0 + 0.02 * np.cos(7.0 * t)
    points = np.sinh(radius * np.exp(1j * t))
    region = regions.sinh_region()
    out["regions.classify_us_per_point"] = _per_call_us(
        lambda: region.classify(points), batches=3) / points.size
    return out
