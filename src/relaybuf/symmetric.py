"""Closed forms for the symmetric system (rs = rr = R, nr = n*R, ps = pr = p).

In the symmetric case the recurrent class is the lattice {0, R, ..., n*R}
and the chain under threshold m*R is a birth-death walk, so its stationary
distribution, the objective, and the optimal threshold all have closed
forms.  These provide an independent fast path that the general sweep is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .chain import SteadyState
from .errors import BufferTooSmall, DegenerateP, ThresholdNotRecurrent
from .model import SystemConfig


@dataclass(frozen=True)
class SymmetricConfig:
    """Symmetric-case parameters: common rate R, buffer multiple n, link prob p."""

    rate: int
    n: int
    p: float

    def __post_init__(self):
        if self.n < 2:
            raise BufferTooSmall(f"need n >= 2 so the buffer exceeds the rate, got n={self.n}")
        if not 0.0 < self.p < 1.0:
            raise DegenerateP(f"closed forms need 0 < p < 1, got p={self.p}")

    @property
    def p_bar(self) -> float:
        return 1.0 - self.p

    @property
    def nr(self) -> int:
        return self.n * self.rate

    def to_config(self) -> SystemConfig:
        return SystemConfig(rs=self.rate, rr=self.rate, nr=self.nr, ps=self.p, pr=self.p)


def symmetric_config_of(cfg: SystemConfig) -> Optional[SymmetricConfig]:
    """The SymmetricConfig matching cfg, or None when cfg is not symmetric."""
    if cfg.rs != cfg.rr or cfg.ps != cfg.pr or cfg.nr % cfg.rs != 0:
        return None
    if not 0.0 < cfg.ps < 1.0:
        return None
    return SymmetricConfig(rate=cfg.rs, n=cfg.nr // cfg.rs, p=cfg.ps)


def _check_m(sc: SymmetricConfig, m: int):
    if not 0 <= m <= sc.n:
        raise ThresholdNotRecurrent(f"m={m} outside 0..{sc.n}")


def _normalizer(sc: SymmetricConfig, m: int) -> float:
    # Sum of the unnormalized masses p * p_bar**k below, 2 - p_bar**(m+1) -
    # p_bar**(n-m), in [1, 2): no power of p_bar is divided by, so nothing
    # cancels to 0/0 once the large powers underflow.
    _check_m(sc, m)
    return 2.0 - sc.p_bar ** (m + 1) - sc.p_bar ** (sc.n - m)


def symmetric_steady_state(sc: SymmetricConfig, m: int) -> SteadyState:
    """Stationary distribution over the lattice states {0, R, ..., n*R}.

    Index i of the returned vector is the state i*R; m is the threshold in
    lattice units (q_th = m*R).  The masses follow geometric recurrences:
    rising by 1/p_bar below the threshold, flat across it, falling by p_bar
    above it, so state i carries p * p_bar**k / normalizer with k = m - i
    up to the threshold and k = i - m - 1 above it.
    """
    norm = _normalizer(sc, m)
    i = np.arange(sc.n + 1)
    k = np.where(i <= m, m - i, i - m - 1)
    return SteadyState(pi=sc.p * sc.p_bar ** k / norm)


def symmetric_objective(sc: SymmetricConfig, m: int) -> float:
    """Boundary mass pi_0(m) + pi_n(m); minimizing it maximizes throughput.

    At m = n (the relay never wins a both-on slot) the p_bar**(n-m-1) term
    is 1/p_bar rather than pi_n's 1: the value is then the boundary loss the
    throughput formula needs, not a mass.
    """
    norm = _normalizer(sc, m)
    pb = sc.p_bar
    return sc.p * (pb ** (sc.n - m - 1) + pb ** m) / norm


def symmetric_throughput(sc: SymmetricConfig, m: int) -> float:
    """Closed-form ergodic throughput of the lattice threshold m.

    Interior states move packets at rate (p + p*p_bar)R/2 on average; the
    empty and full states each lose p*p_bar*R/2, weighted by their mass.
    """
    p, pb, r = sc.p, sc.p_bar, sc.rate
    boundary = symmetric_objective(sc, m)
    return (p + p * pb) * r / 2.0 - p * pb * r / 2.0 * boundary


def symmetric_optimal_threshold(sc: SymmetricConfig) -> Tuple[int, ...]:
    """All buffer-space thresholds achieving the symmetric optimum.

    For odd n the optimal lattice threshold is (n-1)/2 and the set spans R
    consecutive integers; for even n both n/2 - 1 and n/2 are optimal and
    the set spans 2R integers.
    """
    n, r = sc.n, sc.rate
    if n % 2 == 1:
        lo = (n - 1) * r // 2
        hi = (n + 1) * r // 2 - 1
    else:
        lo = n * r // 2 - r
        hi = n * r // 2 + r - 1
    return tuple(range(lo, hi + 1))
