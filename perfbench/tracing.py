"""Per-layer spans around the library's module-level functions.

A traced name is rebound in the module that calls it, so calls made from
inside the library (``sweep_steps`` calling ``partition_system``) are
caught as well as the benchmark's own calls.  Each call opens a span with a
parent, the innermost open span; when it closes, its duration is charged to
its name and subtracted from the parent's self time.  RVIA opens one span
per sweep, millions over a suite, so spans are reduced to (calls, self
seconds) as they close instead of being stored.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Span bookkeeping for one traced run; ``uninstall`` restores the modules."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self._open = []        # child seconds of each open span, innermost last
        self._installed = []

    def wrap(self, module, attr: str, name: str):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                if self._open:
                    self._open[-1] += elapsed

        setattr(module, attr, traced)
        self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def reset(self):
        self.calls.clear()
        self.self_s.clear()


def install(relaybuf) -> Tracer:
    """Wrap the layer boundaries the benchmark reports; returns the tracer."""
    chain, mdp, sim, symmetric = relaybuf.chain, relaybuf.mdp, relaybuf.sim, relaybuf.symmetric
    tracer = Tracer()
    for module, prefix, attrs in (
        (chain, "chain", ("partition_system", "rank_one_inverse_update",
                          "build_transition_matrix", "steady_state_from_partition",
                          "steady_state_folding", "recurrent_class",
                          "optimal_threshold_search")),
        (mdp, "mdp", ("rvia_solve", "action_values", "evaluate_policy_direct",
                      "policy_iteration_solve", "greedy_policy")),
        (sim, "sim", ("_policy_table", "_symbols", "simulate")),
        (symmetric, "symmetric", ("symmetric_throughput",)),
    ):
        for attr in attrs:
            tracer.wrap(module, attr, f"{prefix}.{attr}")
    # the simulator's table compile calls the model's action rule by this name
    tracer.wrap(sim, "select_action", "model.select_action")
    return tracer
