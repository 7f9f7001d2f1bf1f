"""Run the flowlab CLI with spans around the public functions of each module.

    python3 perfbench/traced_cli.py SPANS.json -- <flowlab CLI arguments>

Nothing under src/ changes: each public function is replaced, for this
process only, by a wrapper that records a span, and it is replaced under
every name the calling code looks it up by (a function imported by name
into another module is patched there too). Spans and counters are kept in
memory and written to SPANS.json when the CLI returns; the exit code is the
CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys

from tracer import Tracer

MEMBER = "approximation.member"


def _points(x) -> int:
    shape = getattr(x, "shape", None)
    if not shape:
        return 1
    n = 1
    for size in shape[:-1]:
        n *= size
    return n


def install(tracer: Tracer) -> None:
    import numpy as np

    import flowlab.approximation as ap
    import flowlab.cli as cli
    import flowlab.coefficients as co
    import flowlab.engine as eng
    import flowlab.estimators as est

    def spanned(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
        return wrapper

    def in_member() -> bool:
        return any(n.startswith(MEMBER) for n in tracer.open_names())

    def counting(fn, *args):
        """Bookkeeping in its own span, so that no layer is charged for it."""
        tracer.call("trace.count", fn, *args)

    # cli: the entry point and what it calls by name
    cli.run = spanned("cli.run", cli.run)
    cli.parse_config = spanned("cli.parse_config", cli.parse_config)
    cli.builtin = spanned("coefficients.builtin", cli.builtin)
    cli.mollified_family = spanned("approximation.family",
                                   cli.mollified_family)
    ap.MollifiedFamily.member = spanned("approximation.member_build",
                                        ap.MollifiedFamily.member)

    # estimators: cli calls them as attributes of the module
    for name in est.__all__:
        obj = getattr(est, name)
        if inspect.isfunction(obj) and obj.__module__ == est.__name__:
            setattr(est, name, spanned(f"estimators.{name}", obj))

    # pool work nests under the estimator span that submitted it
    class TracedPool(est.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopting(fn), *args, **kwargs)

    est.ThreadPoolExecutor = TracedPool

    # engine: increments are imported by name into estimators
    increments = eng.increments_block

    def _note_block(n_paths, n_steps, m):
        tracer.count("engine.increments.paths", n_paths)
        tracer.peak("engine.increments.block_bytes", n_paths * n_steps * m * 8)

    def increments_block(master_seed, first_path, n_paths, n_steps, h, m):
        counting(_note_block, n_paths, n_steps, m)
        return tracer.call("engine.increments", increments, master_seed,
                           first_path, n_paths, n_steps, h, m)

    eng.increments_block = increments_block
    est.increments_block = increments_block

    advance = eng.BatchEuler.advance

    def _note_step(driver):
        tracer.count("engine.step.calls")
        tracer.count("engine.step.path_steps", driver.n)
        if not driver.v.any():
            tracer.count("engine.step.vzero")

    def _note_finished(driver):
        tracer.count("engine.clamped_steps", int(driver.clamped.sum()))
        tracer.count("engine.exploded_paths", int(driver.exploded.sum()))
        tracer.count("engine.failed_paths", int(driver.failed.sum()))

    def traced_advance(self):
        if self.step_index >= self.n_steps:
            return advance(self)
        counting(_note_step, self)
        moved = tracer.call("engine.step", advance, self)
        if self.step_index == self.n_steps:
            counting(_note_finished, self)
        return moved

    eng.BatchEuler.advance = traced_advance

    # coefficients and mollified members share CoefficientSystem; a member
    # carries its eps in params, and what it evaluates on its convolution
    # nodes belongs to the member's span
    def _note_annulus(x):
        r = np.sqrt(np.einsum("...i,...i->...", x, x))
        tracer.count("coefficients.jacobians.example21_points", r.size)
        tracer.count("coefficients.jacobians.annulus_points",
                     int(np.count_nonzero((r > 1.0) & (r < 3.0))))

    def per_system(method, what):
        def wrapper(self, x):
            nested = in_member()
            if self.name == "example21" and what == "jacobians":
                counting(_note_annulus, np.asarray(x, dtype=float))
            if nested:
                return method(self, x)
            layer = MEMBER if "eps" in self.params else "coefficients"
            name = f"{layer}.{what}"
            n = _points(x)
            tracer.count(f"{name}.calls")
            tracer.count(f"{name}.points", n)
            if what == "jacobians":
                tracer.count(f"{name}.field_points", n * (self.m + 1))
            return tracer.call(name, method, self, x)
        return functools.wraps(method)(wrapper)

    co.CoefficientSystem.fields = per_system(co.CoefficientSystem.fields,
                                             "fields")
    co.CoefficientSystem.jacobians_stacked = per_system(
        co.CoefficientSystem.jacobians_stacked, "jacobians")

    # finite-difference Jacobians: the example21 annulus (looked up in
    # coefficients; inside a member's convolution it is the member's work)
    # and the member's fallback across the truncation kink (looked up in
    # approximation)
    base_fd = co.fd_jacobian

    def fd_in(outside, inside):
        def fd_jacobian(value_fn, x, h=co.DEFAULT_H_FD):
            name = inside if in_member() else outside
            tracer.count(f"{name}.points", _points(x))
            return tracer.call(name, base_fd, value_fn, x, h)
        return fd_jacobian

    co.fd_jacobian = fd_in("coefficients.jacobians.fd",
                           f"{MEMBER}.jacobians.base_fd")
    ap.fd_jacobian = fd_in(f"{MEMBER}.edge_fd", f"{MEMBER}.edge_fd")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- <flowlab CLI arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    import flowlab.cli as cli
    code = cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "peaks": tracer.peaks}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
