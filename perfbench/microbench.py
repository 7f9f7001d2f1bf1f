"""Layer microbenchmarks at fixed inputs, for comparison with the baseline
that ROADMAP item 1 records (2 vCPU machine):

- example21 Jacobians on 4096 points in the core |x|<1, the bump annulus
  1<|x|<3 and the far shell |x|>3: 1.2 / 8.4 / 1.1 ms;
- Philox increments for 4096 paths x 1000 steps (234 ms, about 57 us/path);
- the OU Euler step at 4096 and 65536 paths: 51 / 37 ns per path-step;
- a mollified example21 member with the 12x24 ball rule on 1024 points:
  fields 55 ms, Jacobians 94 ms.

    python3 perfbench/microbench.py <seed>

prints one JSON object of metrics; each is the median of several repeats.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from flowlab.approximation import mollified_family
from flowlab.coefficients import builtin
from flowlab.engine import BatchEuler, IntegratorConfig, increments_block


def _median_s(fn, repeats: int) -> float:
    fn()                                    # warm caches and lazy set-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _ring(rng, n: int, r_lo: float, r_hi: float) -> np.ndarray:
    r = rng.uniform(r_lo, r_hi, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)


def run(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}

    ex21 = builtin("example21")
    for region, (lo, hi) in {"core": (0.01, 1.0), "annulus": (1.0, 3.0),
                             "shell": (3.0, 6.0)}.items():
        pts = _ring(rng, 4096, lo, hi)
        out[f"micro.coefficients.jacobians.{region}_us_per_4k"] = 1e6 * \
            _median_s(lambda: ex21.jacobians_stacked(pts), 15)

    out["micro.engine.increments.us_per_path"] = 1e6 / 4096 * _median_s(
        lambda: increments_block(seed, 0, 4096, 1000, 1e-3, 1), 3)

    ou = builtin("ornstein_uhlenbeck", theta=1.0, sigma=1.0, d=1)
    for n_paths, n_steps, label in ((4096, 200, "4k"), (65536, 20, "64k")):
        cfg = IntegratorConfig(h=1e-3, T=n_steps * 1e-3)
        dws = rng.normal(0.0, np.sqrt(cfg.h), (n_paths, n_steps, 1))
        x0 = np.zeros((n_paths, 1))
        v0 = np.ones((n_paths, 1))
        out[f"micro.engine.step.ns_per_path_step_{label}"] = 1e9 / (
            n_paths * n_steps) * _median_s(
            lambda: BatchEuler(ou, x0, v0, dws, cfg).run(), 5)

    fam = mollified_family(ex21, eps0=0.25, n_radial=12, n_angular=24)
    member = fam.member(0.1)
    pts = _ring(rng, 1024, 0.0, 1.0)
    out["micro.approximation.member.fields_ms_per_1k"] = 1e3 * _median_s(
        lambda: member.fields(pts), 5)
    out["micro.approximation.member.jacobians_ms_per_1k"] = 1e3 * _median_s(
        lambda: member.jacobians_stacked(pts), 5)
    return out


if __name__ == "__main__":
    print(json.dumps(run(int(sys.argv[1]))))
