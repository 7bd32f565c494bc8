"""Output checks: each returns None when it holds and a message when not.

They compare throughputs against bounds only.  Thresholds whose throughputs
tie to within roundoff are legitimately chosen differently by each path, so
no check compares threshold indices or threshold sets.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

import reference

# Slack on every throughput comparison; tighter than the CLI's cross-check
# tolerance (cli.AGREEMENT_TOL = 1e-7).  The solvers' 1e-9 tie rules leave
# their chosen policies up to ~5e-10 below the optimum.
TOL = 1e-8

# Largest accepted width of the Odoni bracket from RVIA's value vector.
SPAN_TOL = 1e-8

# Standard deviations allowed between a simulated and an exact throughput.
Z = 6.0


def odoni_span(lo: float, hi: float) -> Optional[str]:
    if not hi - lo <= SPAN_TOL:
        return f"Odoni bracket [{lo!r}, {hi!r}] wider than {SPAN_TOL}"
    return None


def within_bounds(label: str, value: float, lo: float, hi: float) -> Optional[str]:
    """``value`` claims to be the optimal throughput, bracketed by [lo, hi]."""
    if not lo - TOL <= value <= hi + TOL:
        return f"{label}={value!r} outside Odoni bracket [{lo!r}, {hi!r}] +- {TOL}"
    return None


def not_above(label: str, value: float, hi: float) -> Optional[str]:
    """A baseline's exact throughput cannot beat the optimum."""
    if not value <= hi + TOL:
        return f"{label}={value!r} exceeds the optimum's upper bound {hi!r}"
    return None


def matches(label: str, value: float, exact: float) -> Optional[str]:
    if not abs(value - exact) <= TOL:
        return f"{label}={value!r} differs from the reference {exact!r}"
    return None


def conservation(label: str, throughput: float, arrival_rate: float,
                 nr: int, window: int) -> Optional[str]:
    """Packets in minus packets out is the change of a queue held in 0..nr."""
    if not abs(arrival_rate - throughput) <= nr / window:
        return (f"{label}: arrival rate {arrival_rate!r} and throughput {throughput!r} "
                f"differ by more than nr/window = {nr / window!r}")
    return None


def statistical_bound(variance: float, bias_span: float, replications: int,
                      window: int) -> float:
    """Largest credible |simulated - exact| for a mean over replications.

    ``variance`` is the asymptotic variance of the per-slot reward and
    ``bias_span`` the span of its relative values (see reference.evaluate).
    The mean of ``replications`` runs of ``window`` slots has standard
    deviation sqrt(variance / (replications * window)), and a run started
    away from stationarity is off in mean by at most bias_span / window.
    """
    return Z * math.sqrt(variance / (replications * window)) + bias_span / window


def simulated(label: str, throughput: float, exact: float, bound: float) -> Optional[str]:
    if not abs(throughput - exact) <= bound:
        return (f"{label}: simulated {throughput!r} is {abs(throughput - exact):.3g} "
                f"from the exact {exact!r}, beyond the bound {bound:.3g}")
    return None


def check_config(lib, workload, index, run) -> dict:
    """Check one configuration's outputs; returns the figures and any failures.

    Paths that raised are skipped here: they are counted as failed
    operations.  The Odoni bracket comes from RVIA's value vector or, when
    RVIA raised, from the reference's relative values of PIA's policy; with
    neither there is no bracket, and the checks that need it are skipped.
    """
    cfg = run.cfg
    fails = []
    out = {"config": [cfg.rs, cfg.rr, cfg.nr, cfg.ps, cfg.pr], "failures": fails}
    evaluations = {}

    def exact(key, rule):
        if key not in evaluations:
            evaluations[key] = reference.evaluate(cfg, rule)
        return evaluations[key]

    def threshold(q):
        return exact(("threshold", q), reference.threshold_rule(cfg, q))

    def pia_policy():
        return exact("pia", np.asarray(run.pia[1].relay_choice, float))

    if run.rvia is not None:
        out["bracket_from"], values = "rvia.v", run.rvia.v
    elif run.pia is not None:
        out["bracket_from"], values = "pia.g", pia_policy().g
    else:
        return out
    lo, hi = reference.odoni_bounds(cfg, values)
    out["bracket"] = [lo, hi]
    fails.append(odoni_span(lo, hi))

    optimal = {}
    if run.rvia is not None:
        optimal["rvia.theta"] = run.rvia.theta
    if run.q_rvia is not None:
        optimal["rvia.q_th"] = threshold(run.q_rvia).throughput
    if run.sweep is not None:
        optimal["sweep.theta"] = run.sweep.throughput
        optimal["sweep.q_opt"] = threshold(run.sweep.q_opt).throughput
    if run.pia is not None:
        optimal["pia.theta"] = run.pia[0]
        optimal["pia.policy"] = pia_policy().throughput
    if run.symmetric is not None:
        thresholds, theta = run.symmetric
        optimal["symmetric.theta"] = theta
        optimal["symmetric.q_min"] = threshold(min(thresholds)).throughput
        optimal["symmetric.q_max"] = threshold(max(thresholds)).throughput
    out["optimal"] = optimal
    fails += [within_bounds(k, v, lo, hi) for k, v in optimal.items()]

    if run.sweep is not None:
        rng = np.random.default_rng(np.random.SeedSequence((workload.seed, 3, index)))
        trace = run.sweep.trace
        picks = rng.choice(len(trace), min(workload.trace_samples, len(trace)), replace=False)
        for j in sorted(picks):
            q, value = trace[j]
            fails.append(matches(f"sweep.trace[q={q}]", value, threshold(q).throughput))

    if run.rows is not None:
        settings = run.rows[0][1].settings
        window = settings.horizon - settings.resolved_warmup()
        sims = []
        for policy, res in run.rows:
            label = lib.sim.policy_label(policy)
            if hasattr(policy, "q_th"):
                ev = threshold(policy.q_th)
            else:   # queue-blind: the same relay probability in every state
                ev = exact(("csi", policy.sigma), policy.sigma)
            bound = statistical_bound(ev.variance, ev.bias_span, settings.replications, window)
            sims.append({"policy": label, "exact": ev.throughput,
                         "simulated": res.mean_throughput, "bound": bound})
            if policy is not run.rows[0][0]:
                fails.append(not_above(f"baseline {label}", ev.throughput, hi))
            fails.append(conservation(label, res.mean_throughput, res.mean_arrival_rate,
                                      cfg.nr, window))
            fails.append(simulated(label, res.mean_throughput, ev.throughput, bound))
        out["sim"] = sims
    out["failures"] = [f for f in fails if f is not None]
    return out
