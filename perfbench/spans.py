"""Spans around ytensor's layer functions, installed from outside the package.

Each traced function is replaced by a wrapper at every module that binds it
by name (``functionals`` imports ``quad_breakpoints``, ``harness`` imports
``profile`` and so on), so calls made through any of those names are seen.
A span's self time is its duration minus the durations of its direct child
spans.  Its total time is its duration, counted only for the outermost span
of each name, so a function that recurses through its own integrands (as
``quad_breakpoints`` does) is counted once in both.

Functions that run inside quadrature integrands (``shape.omega_c``,
``omega_c_prime``, ``phi``, ``G``, ``H_tilde``) are deliberately left
unwrapped: they run millions of times per pass and a span on each would cost
more than the work it measures.  Their time lands in the calling span.
"""

from __future__ import annotations

import functools
import sys
import time

# module.function under ytensor, in the order the metrics are reported.
TRACED = (
    "rsk.trial_rng",
    "rsk.sample_schur_weyl",
    "rsk.rsk_shape_from_letters",
    "exact.neg_log_measure_scaled",
    "exact.schur_weyl_measure",
    "exact.dim_sym",
    "exact.dim_gl",
    "exact.hook_lengths",
    "exact.partition_count",
    "diagrams.profile",
    "harness.cmd_bounds",
    "harness.cmd_biane",
    "harness.cmd_verify_all",
    "functionals.prop41_identity",
    "functionals.sobolev_half_sq",
    "functionals.h_term",
    "functionals.theta_shape",
    "functionals.rho",
    "functionals.theta_profile",
    "functionals.prop31_decompose",
    "functionals.alpha_constant",
    "functionals.lemma_A",
    "functionals.lemma_I",
    "functionals.lemma_F3",
    "functionals.lemma_intIOmega",
    "quadrature.quad_breakpoints",
    "quadrature.tanh_sinh",
)

# The span the benchmark puts around each of its own jobs; its self time is
# the benchmark's code between library calls (tallies, the chi-square sum).
JOB_SPAN = "bench.job"


class Tracer:
    """Per-name call counts and self times of the spans seen while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self s, total s, open spans]
        self.letters = 0  # letters passed to rsk_shape_from_letters
        self._child_time: list[float] = []  # one accumulator per open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count_letters: bool = False):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if count_letters:  # rsk's samplers pass a list, so len() needs no copy
                self.letters += len(args[0])
            stack.append(0.0)
            stat[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stat[3] -= 1
                if not stat[3]:
                    stat[2] += elapsed
                if stack:
                    stack[-1] += elapsed

        return spanned

    def install(self) -> None:
        """Wrap every TRACED function wherever a ytensor module binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ytensor" or name.startswith("ytensor."))]
        for qualname in TRACED:
            home, attr = qualname.split(".")
            original = getattr(sys.modules[f"ytensor.{home}"], attr)
            wrapper = self.wrap(qualname, original,
                                count_letters=qualname == "rsk.rsk_shape_from_letters")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
