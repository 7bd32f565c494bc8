"""Seeded Monte Carlo simulation of the relay queue under any policy.

The per-slot dynamics are compiled into a lookup table over (queue, channel
symbol) so a replication is a tight scalar loop; randomness comes from
independent child streams of a single 64-bit seed, which makes every result
bit-reproducible.  Boundary link probabilities (0 or 1) are allowed here
even though the analytic modules reject them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    ChannelState,
    CsiOnlyPolicy,
    PolicySpec,
    SystemConfig,
    TabularPolicy,
    ThresholdPolicy,
    select_action,
    validate_config,
)

_REW_BITS = 32  # packed accumulator: reward in the low word, arrivals above


def _check_accumulator(cfg: SystemConfig, window: int):
    """Refuse a window whose delivered packets could carry into the arrivals."""
    if window * cfg.rr >= 1 << _REW_BITS:
        raise ValueError(f"a window of {window} slots at rr={cfg.rr} can deliver "
                         f"2**{_REW_BITS} packets or more, past the packed accumulator")


@dataclass(frozen=True)
class SimSettings:
    """Horizon/seed bundle for one simulation run.

    warmup slots are excluded from every average; None means 1% of the
    horizon.  Replication r draws its streams from child seeds of
    (seed, r), so replications are independent and order-insensitive.
    """

    horizon: int
    seed: int = 0
    warmup: Optional[int] = None
    replications: int = 1

    def resolved_warmup(self) -> int:
        w = self.horizon // 100 if self.warmup is None else self.warmup
        if not 0 <= w < self.horizon:
            raise ValueError(f"need horizon > warmup >= 0, got {self.horizon}, {w}")
        return w

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")


@dataclass
class SimResult:
    """Aggregated empirical output of one simulate() call."""

    mean_throughput: float
    std_error: float
    per_replication: Tuple[Tuple[int, float], ...]
    occupancy_histogram: np.ndarray
    mean_arrival_rate: float
    settings: SimSettings


def sample_channel(rng: np.random.Generator, cfg: SystemConfig) -> ChannelState:
    """One joint connectivity draw: independent on/off coins for both links."""
    return ChannelState(gs=int(rng.random() < cfg.ps), gr=int(rng.random() < cfg.pr))


def _channel_rng(settings: SimSettings, rep: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((settings.seed, rep, 0))))


def _policy_rng(settings: SimSettings, rep: int) -> np.random.Generator:
    # separate stream so the channel path is common across policies
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((settings.seed, rep, 1))))


def _replication_seed(settings: SimSettings, rep: int) -> int:
    return int(np.random.SeedSequence((settings.seed, rep, 0)).generate_state(1, np.uint64)[0])


def _policy_table(cfg: SystemConfig, policy: PolicySpec):
    """Compile per-slot dynamics into flat lookup lists.

    Symbols 0..3 encode the joint channel state 2*gs + gr; for queue-blind
    randomized policies the both-on symbol is pre-split by the sigma draw
    into 3 = keep source link, 4 = relay link, making the slot update a pure
    (queue, symbol) lookup for every policy kind.
    """
    if isinstance(policy, TabularPolicy) and len(policy.relay_choice) != cfg.nr + 1:
        raise ValueError(f"tabular policy has {len(policy.relay_choice)} entries, "
                         f"need nr + 1 = {cfg.nr + 1}")
    randomized = isinstance(policy, CsiOnlyPolicy)
    ncols = 5 if randomized else 4
    next_q: List[int] = []
    packed: List[int] = []
    acode: List[int] = []  # 0 idle, 1 source link, 2 relay link
    for q in range(cfg.nr + 1):
        for sym in range(ncols):
            if randomized and sym >= 3:
                act = select_action(q, ChannelState(1, 1), policy, cfg,
                                    draw=0.0 if sym == 4 else 1.0)
            else:
                act = select_action(q, ChannelState(sym >> 1, sym & 1), policy, cfg)
            q2 = q + act.a_s * act.u_s - act.a_r * act.u_r
            next_q.append(q2)
            packed.append(act.a_r * act.u_r + ((act.a_s * act.u_s) << _REW_BITS))
            acode.append(act.a_s + 2 * act.a_r)
    return next_q, packed, acode, ncols


def _symbols(cfg, policy, settings, rep):
    """Per-slot channel symbols for one replication (policy draws pre-applied)."""
    h = settings.horizon
    rng = _channel_rng(settings, rep)
    gs = rng.random(h) < cfg.ps
    gr = rng.random(h) < cfg.pr
    sym = (2 * gs + gr).astype(np.uint8)
    if isinstance(policy, CsiOnlyPolicy):
        draws = _policy_rng(settings, rep).random(h)
        both = sym == 3
        sym[both] = np.where(draws[both] < policy.sigma, 4, 3).astype(np.uint8)
    return sym.tolist()


def simulate(cfg: SystemConfig, policy: PolicySpec, settings: SimSettings) -> SimResult:
    """Run the queue forward from Q = 0 and average the delivered packets.

    Throughput is the mean per-slot reward over the post-warmup window;
    replications are aggregated in index order so the standard error is
    deterministic.  The occupancy histogram counts the start-of-slot queue
    state for every counted slot of every replication.
    """
    validate_config(cfg)
    warmup = settings.resolved_warmup()
    window = settings.horizon - warmup
    _check_accumulator(cfg, window)
    next_q, packed, _, ncols = _policy_table(cfg, policy)
    hist = np.zeros(cfg.nr + 1, dtype=np.int64)
    throughputs = []
    arrival_rates = []
    seeds = []
    for rep in range(settings.replications):
        sym = _symbols(cfg, policy, settings, rep)
        q = 0
        for s in sym[:warmup]:
            q = next_q[q * ncols + s]
        local = [0] * (cfg.nr + 1)
        acc = 0
        for s in sym[warmup:]:
            local[q] += 1
            i = q * ncols + s
            acc += packed[i]
            q = next_q[i]
        hist += np.asarray(local, dtype=np.int64)
        reward = acc & ((1 << _REW_BITS) - 1)
        arrivals = acc >> _REW_BITS
        throughputs.append(reward / window)
        arrival_rates.append(arrivals / window)
        seeds.append(_replication_seed(settings, rep))
    mean = float(np.mean(throughputs))
    if settings.replications > 1:
        se = float(np.std(throughputs, ddof=1) / np.sqrt(settings.replications))
    else:
        se = 0.0
    return SimResult(
        mean_throughput=mean,
        std_error=se,
        per_replication=tuple(zip(seeds, throughputs)),
        occupancy_histogram=hist,
        mean_arrival_rate=float(np.mean(arrival_rates)),
        settings=settings,
    )


BASELINE_KINDS = ("dopn", "adop", "top", "csi_only")


def baseline_policy(kind: str, cfg: SystemConfig, sigma: float = 0.5) -> PolicySpec:
    """Construct one of the reference policies.

    dopn pins the threshold at 0, adop at the relay rate, top at half the
    buffer; csi_only ignores the queue and picks the relay link w.p. sigma
    when both links are on.
    """
    kind = kind.lower()
    if kind == "dopn":
        return ThresholdPolicy(0)
    if kind == "adop":
        return ThresholdPolicy(cfg.rr)
    if kind == "top":
        return ThresholdPolicy(cfg.nr // 2)
    if kind in ("csi_only", "csi"):
        return CsiOnlyPolicy(sigma=sigma)
    raise ValueError(f"unknown baseline {kind!r}; expected one of {BASELINE_KINDS}")


def policy_label(policy: PolicySpec) -> str:
    if isinstance(policy, ThresholdPolicy):
        return f"threshold:{policy.q_th}"
    if isinstance(policy, CsiOnlyPolicy):
        return f"csi:{policy.sigma:g}"
    if isinstance(policy, TabularPolicy):
        return "tabular"
    return repr(policy)


def compare(cfg: SystemConfig, policies: Sequence[PolicySpec],
            settings: SimSettings) -> List[Tuple[str, SimResult]]:
    """Simulate each policy under common random numbers and tabulate.

    All policies see the identical channel sample path per replication (the
    channel stream never depends on the policy), so differences between rows
    are pure policy effects.
    """
    if not policies:
        raise ValueError("need at least one policy to compare")
    return [(policy_label(p), simulate(cfg, p, settings)) for p in policies]


def _record_baseline(next_q, packed, acode, ncols, sym_list):
    """Baseline trajectory: cumulative reward plus the link-choice record."""
    h = len(sym_list)
    codes = np.empty(h, dtype=np.uint8)
    q = 0
    acc = 0
    for t, s in enumerate(sym_list):
        i = q * ncols + s
        codes[t] = acode[i]
        acc += packed[i]
        q = next_q[i]
    return acc & ((1 << _REW_BITS) - 1), codes


def dominance_check(cfg: SystemConfig, policy: PolicySpec, settings: SimSettings,
                    perturbations: int = 100) -> bool:
    """Check the greedy-rate trajectory dominates rate-cut and idling variants.

    On one channel sample path, the policy with greedy rates is compared
    against (a) `perturbations` trajectories that repeat its link choices
    slot by slot but transmit a uniformly drawn feasible amount instead of
    the greedy rate, and (b) the same policy forced to idle whenever both
    links are on.  True iff the greedy trajectory's cumulative delivered
    packets at the horizon weakly dominates every variant.
    """
    validate_config(cfg)
    _check_accumulator(cfg, settings.horizon)   # _record_baseline packs the whole path
    next_q, packed, acode, ncols = _policy_table(cfg, policy)
    sym = _symbols(cfg, policy, settings, rep=0)
    base_reward, codes = _record_baseline(next_q, packed, acode, ncols, sym)

    # (a) same link choices, random feasible rates, vectorized across variants
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((settings.seed, 0, 2))))
    qc = np.zeros(perturbations, dtype=np.int64)
    rew = np.zeros(perturbations, dtype=np.int64)
    for code in codes:
        if code == 1:
            cap = np.minimum(cfg.rs, cfg.nr - qc)
            u = (rng.random(perturbations) * (cap + 1)).astype(np.int64)
            qc += u
        elif code == 2:
            cap = np.minimum(cfg.rr, qc)
            u = (rng.random(perturbations) * (cap + 1)).astype(np.int64)
            qc -= u
            rew += u
    if int(rew.max(initial=0)) > base_reward:
        return False

    # (b) idle at both-on slots, greedy rates elsewhere
    idle_reward = 0
    q = 0
    for s in sym:
        if s >= 3:
            continue
        i = q * ncols + s
        idle_reward += packed[i] & ((1 << _REW_BITS) - 1)
        q = next_q[i]
    return idle_reward <= base_reward


def result_csv(result: SimResult) -> str:
    """Per-replication CSV export (replication, seed, throughput)."""
    lines = ["replication,seed,throughput"]
    for rep, (seed, tp) in enumerate(result.per_replication):
        lines.append(f"{rep},{seed},{tp:.12g}")
    return "\n".join(lines) + "\n"


def histogram_csv(result: SimResult) -> str:
    lines = ["q,count"]
    for q, count in enumerate(result.occupancy_histogram):
        lines.append(f"{q},{int(count)}")
    return "\n".join(lines) + "\n"
