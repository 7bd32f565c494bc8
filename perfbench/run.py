"""Benchmark of relaybuf's solve-then-simulate pipeline.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

For every configuration of the workload, one process runs the paper's
pipeline through the library: the threshold sweep, RVIA with threshold
extraction, policy iteration, the symmetric closed form (symmetric
configurations only), and a common-random-numbers comparison of the RVIA
threshold with the dopn, adop, top and csi:0.5 baselines.  Each path call on
each configuration is one operation; it fails if it raises.  Whole rounds of
the workload repeat until ``--seconds`` have passed, and at least
``min_rounds`` times.  The outputs of the
first round are then checked against the independent reference in
``reference.py``, and every later round must reproduce them exactly.

The last line on stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  A per-run record with every
configuration's results goes to ``perfbench/results/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# one process, one thread: keep BLAS from spreading over the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# metric names and units, as BENCHMARK.json at the root of the checkout lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def import_library():
    """Import relaybuf from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import relaybuf
    from relaybuf import chain, mdp, model, sim, symmetric  # noqa: F401
    if src not in Path(relaybuf.__file__).resolve().parents:
        raise ImportError(f"relaybuf imported from {relaybuf.__file__}, not from {src}")
    return relaybuf


@dataclass
class ConfigRun:
    """Outputs of every path on one configuration; ``errors`` names failed paths."""

    cfg: object
    sweep: object = None
    rvia: object = None
    q_rvia: int = None
    pia: tuple = None
    symmetric: tuple = None      # (closed-form threshold set, closed-form theta)
    rows: list = None            # (policy, SimResult) in compare order
    errors: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)

    def fingerprint(self):
        sim_rows = None if self.rows is None else [
            (r.mean_throughput, r.mean_arrival_rate) for _, r in self.rows]
        return (None if self.sweep is None else (self.sweep.q_opt, self.sweep.throughput),
                None if self.rvia is None else self.rvia.theta, self.q_rvia,
                None if self.pia is None else (self.pia[0], self.pia[1].relay_choice),
                self.symmetric, sim_rows, sorted(self.errors))


class Pipeline:
    """Runs the workload's paths through the library and times each one."""

    def __init__(self, lib, workload, counter=None):
        self.lib = lib
        self.workload = workload
        self.counter = counter    # FlopCounter handed to the sweep in traced runs
        self.seconds = dict.fromkeys(("sweep", "rvia", "pia", "symmetric", "sim"), 0.0)
        self.attempted = 0
        self.slots = 0

    def _op(self, run, path, fn):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn()
        except Exception:  # an operation that raises is counted and recorded, not fatal
            run.errors[path] = traceback.format_exc(limit=-3)
            return None
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[path] += elapsed
            run.seconds[path] = elapsed

    def _closed_form(self, sc):
        sym = self.lib.symmetric
        thresholds = sym.symmetric_optimal_threshold(sc)
        theta = max(sym.symmetric_throughput(sc, m) for m in range(sc.n + 1))
        return thresholds, theta

    def _compare(self, cfg, policies, settings):
        rows = self.lib.sim.compare(cfg, policies, settings)
        return [(p, r) for p, (_, r) in zip(policies, rows)]

    def run_config(self, cfg, sim_seed) -> ConfigRun:
        lib, wl = self.lib, self.workload
        chain, mdp, sim = lib.chain, lib.mdp, lib.sim
        run = ConfigRun(cfg)
        run.sweep = self._op(run, "sweep", lambda: chain.optimal_threshold_search(cfg, self.counter))

        def rvia():
            vf = mdp.rvia_solve(cfg)
            return vf, mdp.extract_threshold(vf, cfg)
        run.rvia, run.q_rvia = self._op(run, "rvia", rvia) or (None, None)
        run.pia = self._op(run, "pia", lambda: mdp.policy_iteration_solve(cfg))
        sc = lib.symmetric.symmetric_config_of(cfg)
        if sc is not None:
            run.symmetric = self._op(run, "symmetric", lambda: self._closed_form(sc))
        if run.q_rvia is None:   # nothing to simulate: not attempted
            return run
        policies = [lib.model.ThresholdPolicy(run.q_rvia)]
        policies += [sim.baseline_policy(kind, cfg) for kind in ("dopn", "adop", "top")]
        policies.append(lib.model.CsiOnlyPolicy(0.5))
        settings = sim.SimSettings(horizon=wl.horizon, seed=sim_seed,
                                   replications=wl.replications)
        run.rows = self._op(run, "sim", lambda: self._compare(cfg, policies, settings))
        if run.rows is not None:
            self.slots += wl.horizon * wl.replications * len(policies)
        return run

    def run_round(self):
        start = time.perf_counter()
        runs = [self.run_config(cfg, s)
                for cfg, s in zip(self.workload.configs, self.workload.sim_seeds)]
        total = time.perf_counter() - start
        return runs, total


def run_metrics(per_round, timings, slots):
    """The end-to-end timings over the rounds of a run.

    ``total_s`` is the median of the rounds' wall times.  Each path's time
    is the sum over configurations of that configuration's median over the
    rounds, so a burst of load on the host during one round moves only the
    configurations it hit.
    """
    def path(name):
        return sum(statistics.median(t[i].get(name, 0.0) for t in timings)
                   for i in range(len(timings[0])))
    sim = path("sim")
    return {"total_s": statistics.median(m["total_s"] for m in per_round),
            "sweep_s": path("sweep"), "rvia_s": path("rvia"), "pia_s": path("pia"),
            "sim_slots_per_s": slots / sim if sim > 0 else 0.0}


def round_metrics(pipe, total):
    s = pipe.seconds
    return {"total_s": total, "sweep_s": s["sweep"], "rvia_s": s["rvia"], "pia_s": s["pia"],
            "sim_slots_per_s": pipe.slots / s["sim"] if s["sim"] > 0 else 0.0}


def layer_metrics(tracer, runs, counter, slots):
    out = {}
    for key in PER_LAYER:
        name, _, kind = key.rpartition(".")
        if kind == "calls":
            out[key] = tracer.calls[name]
        elif kind == "self_s":
            out[key] = tracer.self_s[name]
    sweeps = [r.sweep for r in runs if r.sweep is not None]
    out["chain.sweep.thresholds"] = sum(len(sw.trace) for sw in sweeps)
    out["chain.sweep.rebuilt"] = sum(sw.fallbacks for sw in sweeps)
    out["chain.sweep.degraded"] = sum(sw.degraded for sw in sweeps)
    # every threshold after the first either keeps its rank-one update or is rebuilt
    kept = sum(len(sw.trace) - 1 - sw.fallbacks for sw in sweeps)
    attempts = tracer.calls["chain.rank_one_inverse_update"]
    out["chain.update_accept_ratio"] = kept / attempts if attempts else 1.0
    out["chain.flops"] = counter.total
    out["sim.slots"] = slots
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        lib = import_library()
    except ImportError as exc:
        print(f"error: cannot import relaybuf from this checkout: {exc}", file=sys.stderr)
        return 2
    import checks
    import workloads
    wl = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - _START

    tracer = counter = None
    if args.trace:
        import tracing
        tracer = tracing.install(lib)
        counter = lib.chain.FlopCounter()

    per_round, timings, layers, first, fingerprints = [], [], [], None, None
    failures = []
    loop_start = time.perf_counter()
    while len(per_round) < wl.min_rounds or time.perf_counter() - loop_start < args.seconds:
        if tracer is not None:
            tracer.reset()
            counter.total = 0
        pipe = Pipeline(lib, wl, counter)
        runs, total = pipe.run_round()
        per_round.append(round_metrics(pipe, total))
        timings.append([r.seconds for r in runs])
        if tracer is not None:
            layers.append(layer_metrics(tracer, runs, counter, pipe.slots))
        prints = [r.fingerprint() for r in runs]
        if first is None:
            first, fingerprints = runs, prints
        elif prints != fingerprints:
            failures.append(f"round {len(per_round)} did not reproduce round 1")
    if tracer is not None:
        tracer.uninstall()
    rounds = len(per_round)
    attempted = rounds * pipe.attempted
    failed = rounds * sum(len(r.errors) for r in first)

    details = [{**checks.check_config(lib, wl, i, run), "seconds": run.seconds}
               for i, run in enumerate(first)]
    failures += [f"config {i} {first[i].cfg}: {msg}"
                 for i, d in enumerate(details) for msg in d["failures"]]

    if args.trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = run_metrics(per_round, timings, pipe.slots)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": per_round, "layers": layers, "failures": failures,
        "errors": {str(i): r.errors for i, r in enumerate(first) if r.errors},
        "configs": details,
        "result": result,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    summary = " ".join(f"{k}={m[k]:.4g}" for m in per_round[:1] for k in m)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"first round: {summary} record={out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
