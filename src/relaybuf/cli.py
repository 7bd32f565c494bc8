"""Command-line front end: solve, simulate, compare, sweep, bench.

Every command reads the system parameters from flags (optionally seeded
from a flat key=value config file, flags winning), writes machine-readable
outputs (JSON for reports, CSV for vectors and tables) into --out, and
finishes with a run manifest listing every file it emitted.

Exit codes: 0 success, 2 bad input, 3 cross-check disagreement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from . import __version__
from .chain import (
    SweepResult,
    _best_of,
    brute_force_search,
    map_threshold_set,
    optimal_threshold_search,
    rank_one_search,
    recurrent_class,
    sweep_flop_counts,
    threshold_throughput,
    tie_maximizers,
    trace_csv,
)
from .errors import RelayBufError
from .mdp import (
    SolverSettings,
    check_value_properties,
    extract_threshold,
    policy_iteration_solve,
    relay_activation_state,
    rvia_solve,
    value_function_csv,
)
from .model import (
    CsiOnlyPolicy,
    SystemConfig,
    ThresholdPolicy,
    config_from_mapping,
    parse_config_text,
)
from .sim import (
    SimSettings,
    baseline_policy,
    compare,
    histogram_csv,
    policy_label,
    result_csv,
    simulate,
)
from .symmetric import symmetric_config_of, symmetric_optimal_threshold, symmetric_throughput

AGREEMENT_TOL = 1e-7


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--rs", type=int, help="max source rate (packets/slot)")
    p.add_argument("--rr", type=int, help="max relay rate (packets/slot)")
    p.add_argument("--nr", type=int, help="relay buffer size (packets)")
    p.add_argument("--ps", type=float, help="source link on-probability")
    p.add_argument("--pr", type=float, help="relay link on-probability")
    p.add_argument("--config", type=Path, help="key=value config file (flags override)")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _add_sim_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=100_000)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--warmup", type=int, default=None)


def _load_config(args) -> SystemConfig:
    values = {}
    if args.config is not None:
        values.update(parse_config_text(Path(args.config).read_text()))
    for key in ("rs", "rr", "nr", "ps", "pr"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return config_from_mapping(values)


class _Emitter:
    """Collects output files so the manifest can list them all at the end."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.write_text(text)
        self.paths.append(str(path))
        return path

    def manifest(self, command: str, cfg: SystemConfig, settings: dict):
        payload = {
            "command": command,
            "config": {"rs": cfg.rs, "rr": cfg.rr, "nr": cfg.nr, "ps": cfg.ps, "pr": cfg.pr},
            "settings": settings,
            "outputs": self.paths + [str(self.out_dir / "manifest.json")],
            "tool_version": __version__,
        }
        (self.out_dir / "manifest.json").write_text(json.dumps(payload, indent=2) + "\n")


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    tol = args.tol if args.tol is not None else AGREEMENT_TOL
    settings = SolverSettings()
    vf = rvia_solve(cfg, settings)
    threshold = extract_threshold(vf, cfg)
    activation = relay_activation_state(vf, cfg)
    theta_pia, _ = policy_iteration_solve(cfg, settings)
    sweep = optimal_threshold_search(cfg)
    mapped = map_threshold_set(sweep.q_opt, sweep.structure)
    optimal_set = sorted(
        {q for qm in tie_maximizers(sweep.trace) for q in map_threshold_set(qm, sweep.structure)}
    )
    structure = check_value_properties(vf, cfg)

    # Thresholds count as optimal when their own throughput is within tol of
    # the sweep's: the trace is flat to roundoff near its top, so each path
    # may pick a different member of the plateau.
    def near_optimal(q):
        return abs(threshold_throughput(cfg, q, sweep.structure) - sweep.throughput) <= tol

    sym = symmetric_config_of(cfg)
    sym_report = {"applicable": sym is not None}
    sym_ok = True
    if sym is not None:
        sym_set = sorted(symmetric_optimal_threshold(sym))
        sym_theta = max(symmetric_throughput(sym, m) for m in range(sym.n + 1))
        sym_ok = (all(near_optimal(q) for q in sym_set)
                  and abs(sym_theta - sweep.throughput) <= tol)
        sym_report.update({
            "optimal_threshold_set": sym_set,
            "throughput": sym_theta,
            "matches_sweep": sym_ok,
        })

    deltas = {
        "theta_rvia_vs_pia": abs(vf.theta - theta_pia),
        "theta_rvia_vs_sweep": abs(vf.theta - sweep.throughput),
    }
    agree = (
        deltas["theta_rvia_vs_pia"] <= tol
        and deltas["theta_rvia_vs_sweep"] <= tol
        and near_optimal(threshold)
        and structure.all_hold
        and sym_ok
    )

    report = {
        "config": {"rs": cfg.rs, "rr": cfg.rr, "nr": cfg.nr, "ps": cfg.ps, "pr": cfg.pr},
        "theta": {"rvia": vf.theta, "pia": theta_pia, "sweep": sweep.throughput},
        "threshold": {
            "rvia": threshold,
            "relay_activation_state": activation,
            "sweep_q_opt": sweep.q_opt,
            "sweep_mapped_set": list(mapped),
            "optimal_set": optimal_set,
        },
        "structure": {
            "monotone": structure.monotone,
            "increments_le_one": structure.increments_le_one,
            "k_concave": structure.k_concave,
            "supermodular": structure.supermodular,
        },
        "symmetric": sym_report,
        "agreement": {**deltas, "tolerance": tol, "ok": agree},
    }
    em = _Emitter(args.out)
    em.write("solve_report.json", json.dumps(report, indent=2) + "\n")
    em.write("value_function.csv", value_function_csv(vf))
    em.write("sweep_trace.csv", trace_csv(sweep))
    em.manifest("solve", cfg, {"tol": tol})
    print(f"theta={vf.theta:.12g} threshold={threshold} "
          f"activation_state={activation} optimal_set={optimal_set}")
    return 0 if agree else 3


def _parse_policy(spec: str, cfg: SystemConfig):
    spec = spec.lower()
    if spec == "optimal":
        vf = rvia_solve(cfg)
        return ThresholdPolicy(extract_threshold(vf, cfg))
    if spec in ("dopn", "adop", "top"):
        return baseline_policy(spec, cfg)
    if spec.startswith("csi:"):
        return CsiOnlyPolicy(sigma=float(spec.split(":", 1)[1]))
    if spec == "csi":
        return CsiOnlyPolicy()
    if spec.startswith("threshold:"):
        return ThresholdPolicy(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown policy {spec!r}")


def _sim_settings(args) -> SimSettings:
    return SimSettings(horizon=args.horizon, seed=args.seed,
                       warmup=args.warmup, replications=args.replications)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    policy = _parse_policy(args.policy, cfg)
    settings = _sim_settings(args)
    result = simulate(cfg, policy, settings)
    summary = {
        "policy": policy_label(policy),
        "mean_throughput": result.mean_throughput,
        "std_error": result.std_error,
        "mean_arrival_rate": result.mean_arrival_rate,
        "horizon": settings.horizon,
        "warmup": settings.resolved_warmup(),
        "replications": settings.replications,
        "seed": settings.seed,
    }
    em = _Emitter(args.out)
    em.write("sim_result.csv", result_csv(result))
    em.write("sim_summary.json", json.dumps(summary, indent=2) + "\n")
    em.write("occupancy.csv", histogram_csv(result))
    em.manifest("simulate", cfg, summary)
    print(f"{policy_label(policy)}: throughput={result.mean_throughput:.6f} "
          f"+/- {result.std_error:.6f}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    policies = [_parse_policy(s.strip(), cfg) for s in args.policies.split(",") if s.strip()]
    settings = _sim_settings(args)
    rows = compare(cfg, policies, settings)
    lines = ["policy,mean_throughput,std_error"]
    for label, res in rows:
        lines.append(f"{label},{res.mean_throughput:.12g},{res.std_error:.12g}")
        print(f"{label}: {res.mean_throughput:.6f} +/- {res.std_error:.6f}")
    em = _Emitter(args.out)
    em.write("compare.csv", "\n".join(lines) + "\n")
    em.manifest("compare", cfg, {"policies": args.policies, "seed": settings.seed,
                                 "horizon": settings.horizon,
                                 "replications": settings.replications})
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    how = ""
    if args.symmetric:
        sym = symmetric_config_of(cfg)
        if sym is None:
            raise ValueError("--symmetric needs rs == rr, ps == pr and nr a multiple of rs")
        trace = tuple((m * sym.rate, symmetric_throughput(sym, m)) for m in range(sym.n + 1))
        best_q, best = _best_of(trace)
        sweep = SweepResult(q_opt=best_q, throughput=best, trace=trace,
                            structure=recurrent_class(cfg))
        how = " (closed form)"
    else:
        sweep = optimal_threshold_search(cfg)
    em = _Emitter(args.out)
    em.write("sweep_trace.csv", trace_csv(sweep))
    em.manifest("sweep", cfg, {"symmetric": args.symmetric})
    print(f"q_opt={sweep.q_opt} throughput={sweep.throughput:.12g} "
          f"|C|={sweep.structure.size}{how}")
    return 0


def _median_time(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cmd_bench(args) -> int:
    nr_values = [int(s) for s in args.nr_list.split(",") if s.strip()]
    if not nr_values:
        raise ValueError(f"bad buffer list {args.nr_list!r}")
    if args.nr is None:
        args.nr = nr_values[0]
    base = _load_config(args)
    if any(n <= max(base.rs, base.rr) for n in nr_values):
        raise ValueError(f"bad buffer list {args.nr_list!r}")
    lines = ["nr,c_size,t_pia,t_rvia,t_brute,t_alg3,flops_direct,flops_updated"]
    for nr in nr_values:
        cfg = SystemConfig(rs=base.rs, rr=base.rr, nr=nr, ps=base.ps, pr=base.pr)
        c_size = recurrent_class(cfg).size
        t_pia = _median_time(lambda: policy_iteration_solve(cfg), args.repeats)
        t_rvia = _median_time(lambda: rvia_solve(cfg), args.repeats)
        t_brute = _median_time(lambda: brute_force_search(cfg), args.repeats)
        t_alg3 = _median_time(lambda: rank_one_search(cfg), args.repeats)
        flops_direct, flops_updated = sweep_flop_counts(cfg)
        lines.append(f"{nr},{c_size},{t_pia:.12g},{t_rvia:.12g},{t_brute:.12g},"
                     f"{t_alg3:.12g},{flops_direct},{flops_updated}")
        print(f"nr={nr} |C|={c_size} pia={t_pia:.4f}s rvia={t_rvia:.4f}s "
              f"brute={t_brute:.4f}s alg3={t_alg3:.4f}s")
    em = _Emitter(args.out)
    em.write("bench.csv", "\n".join(lines) + "\n")
    em.manifest("bench", base, {"nr_list": args.nr_list, "repeats": args.repeats})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaybuf",
        description="Throughput-optimal link selection for a buffered two-hop relay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve for the optimal threshold via all paths")
    _add_config_flags(p)
    p.add_argument("--tol", type=float, default=None, help="cross-check tolerance")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo run of one policy")
    _add_config_flags(p)
    _add_sim_flags(p)
    p.add_argument("--policy", required=True,
                   help="optimal|dopn|adop|top|csi:<sigma>|threshold:<q>")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="simulate several policies on common randomness")
    _add_config_flags(p)
    _add_sim_flags(p)
    p.add_argument("--policies", required=True, help="comma-separated policy specs")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="per-threshold throughput trace")
    _add_config_flags(p)
    p.add_argument("--symmetric", action="store_true",
                   help="use the symmetric closed forms instead of the linear-algebra sweep")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("bench", help="time the solvers over a buffer-size range")
    _add_config_flags(p)
    p.add_argument("--nr-list", required=True, help="comma-separated buffer sizes")
    p.add_argument("--repeats", type=int, default=5, help="timing repetitions (median)")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (RelayBufError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
