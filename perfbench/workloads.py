"""The four workloads: a flowlab config each, the work it represents, why it
is in the benchmark, and the checks its result.csv must pass.

Path counts and steps are scaled down from the reference configs so that one
CLI run takes about 2-3 s on a 2 vCPU machine and a measuring window holds
several; each workload keeps the property it exists for (see `why`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

# |value - e^-1| / SE beyond this fails the OU oracle check. At 3 SE a
# correct program fails on 0.27% of seeds, and the benchmark is run on
# about a hundred seeds per evaluation; at 4 SE the rate is 6e-5.
OU_ORACLE_Z = 4.0


@dataclass(frozen=True)
class Row:
    estimator: str
    value: float
    std_error: float
    flags: dict


def parse_csv(text: str) -> list[Row]:
    lines = text.strip().splitlines()
    if not lines or lines[0].split(",")[0] != "estimator":
        raise ValueError("result.csv has no header")
    rows = []
    for line in lines[1:]:
        cols = line.split(",")
        flags = {}
        for token in cols[8].split(";"):
            key, _, val = token.partition("=")
            flags[key] = val
        rows.append(Row(cols[0], float(cols[4]), float(cols[5]), flags))
    return rows


def excluded_paths(rows: list[Row]) -> int:
    """Excluded paths from the `excluded=` flag; 0 when it is absent."""
    return max((int(r.flags.get("excluded", 0)) for r in rows), default=0)


def check_finite(rows: list[Row]) -> list[str]:
    if not rows:
        return ["result.csv has no rows"]
    return [f"{r.estimator}: non-finite estimate {r.value!r} ± {r.std_error!r}"
            for r in rows
            if not (math.isfinite(r.value) and math.isfinite(r.std_error))]


def check_ou_oracle(rows: list[Row]) -> list[str]:
    target = math.exp(-1.0)
    (row,) = rows
    if abs(row.value - target) <= OU_ORACLE_Z * row.std_error:
        return []
    return [f"gradient {row.value!r} is more than {OU_ORACLE_Z} SE "
            f"({row.std_error!r}) from e^-1"]


def check_c06(rows: list[Row]) -> list[str]:
    """Each consecutive gap is at most the previous one plus 2(sum of SEs)."""
    failures = []
    for kind in ("converge_flow", "converge_derivative"):
        gaps = [r for r in rows if r.estimator == kind]
        if len(gaps) < 2:
            failures.append(f"{kind}: fewer than two gaps")
        for prev, cur in zip(gaps, gaps[1:]):
            slack = 2.0 * (prev.std_error + cur.std_error)
            if cur.value > prev.value + slack:
                failures.append(f"{kind}: gap {cur.value!r} at eps="
                                f"{cur.flags.get('eps')} exceeds {prev.value!r}"
                                f" + {slack!r}")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    workers: int
    checks: tuple = ()

    @property
    def command(self) -> str:
        return self.config["command"]

    @property
    def block(self) -> dict:
        return self.config[self.command]

    def resolved(self, seed: int) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["mc"]["master_seed"] = int(seed)
        return cfg

    @property
    def n_paths(self) -> int:
        return int(self.config["mc"]["n_paths"])

    @property
    def n_steps(self) -> int:
        horizon = self.block["t" if "t" in self.block else "T"]
        return int(round(horizon / self.config["integrator"]["h"]))

    @property
    def flows_per_path(self) -> int:
        """Flows integrated per path: one per member for `converge`, two
        common-noise flows for a finite-difference gradient."""
        if self.command == "converge":
            return len(self.block["eps_list"])
        return 2 if self.block.get("method") == "fd" else 1

    @property
    def path_steps(self) -> int:
        return self.n_paths * self.n_steps * self.flows_per_path


EX21 = {"name": "example21", "params": {}}
X_EX21 = [0.3, 0.0]
V_EX21 = [1.0, 0.0]

WORKLOADS = {w.name: w for w in [
    Workload(
        name="ou_bel",
        why="OU BEL gradient: trivial coefficients, so Philox increments, "
            "the Euler step and the BEL accumulator do the work; checked "
            "against the closed form e^-1",
        config={"command": "gradient",
                "system": {"name": "ornstein_uhlenbeck",
                           "params": {"theta": 1.0, "sigma": 1.0, "d": 1}},
                "integrator": {"h": 1e-3, "T": 1.0},
                "mc": {"n_paths": 12288},
                "gradient": {"x": [0.0], "v": [1.0], "payoff": "identity",
                             "t": 1.0, "method": "bel"}},
        workers=1, checks=(check_ou_oracle,)),
    Workload(
        name="ex21_bel",
        why="example21 BEL gradient: Jacobians (30% of points in the "
            "finite-difference annulus) and fields dominate; increments are "
            "a few percent, so it bypasses the increments layer",
        config={"command": "gradient", "system": EX21,
                "integrator": {"h": 2e-3, "T": 1.0},
                "mc": {"n_paths": 1024},
                "gradient": {"x": X_EX21, "v": V_EX21, "payoff": "identity",
                             "t": 1.0, "method": "bel"}},
        workers=1),
    Workload(
        name="ex21_fd_w2",
        why="example21 FD gradient on two workers: two common-noise flows "
            "per path with v=0, so every Jacobian is wasted work; the only "
            "workload whose chunk map runs on two workers",
        config={"command": "gradient", "system": EX21,
                "integrator": {"h": 2e-3, "T": 0.2},
                "mc": {"n_paths": 8192},
                "gradient": {"x": X_EX21, "v": V_EX21, "payoff": "identity",
                             "t": 0.2, "method": "fd", "delta": 1e-2}},
        workers=2),
    Workload(
        name="ex21_converge",
        why="example21 family convergence: mollified-member convolutions "
            "are over 99% of the work; the only approximation workload, and "
            "it bypasses the engine and the annulus",
        config={"command": "converge", "system": EX21,
                "integrator": {"h": 1e-2, "T": 0.1},
                "mc": {"n_paths": 32},
                "converge": {"eps_list": [0.2, 0.1, 0.05, 0.025],
                             "eps0": 0.25, "x": X_EX21, "v": V_EX21,
                             "T": 0.1}},
        workers=1, checks=(check_c06,)),
]}
