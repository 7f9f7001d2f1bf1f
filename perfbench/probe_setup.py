"""Set-up probe: do what a flowlab run does before its first path step, then
print the CLOCK_MONOTONIC time in ns at which that point was reached.

    python3 perfbench/probe_setup.py <config.json>

The parent takes its spawn time from the same clock, so the difference
covers interpreter start, `import flowlab`, `parse_config` and `builtin`,
and for `converge` also `mollified_family` and `member(eps)` for each eps.
"""

from __future__ import annotations

import sys
import time


def main(config_path: str) -> int:
    from flowlab.approximation import mollified_family
    from flowlab.cli import parse_config
    from flowlab.coefficients import builtin

    config = parse_config(config_path)
    system = builtin(config.system_spec["name"], **config.system_spec["params"])
    if config.command == "converge":
        blk = config.block
        fam = mollified_family(system, lambda0=blk["lambda0"],
                               eps0=blk["eps0"])
        for eps in blk["eps_list"]:
            fam.member(float(eps))
    print(time.monotonic_ns())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
