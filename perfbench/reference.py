"""Reference evaluator for the relay model, independent of the solvers.

Everything here is derived from the model definition alone: each slot the
source link is on with probability ps and the relay link with probability
pr, independently; a connected source sends min(rs, nr - q) packets and a
connected relay delivers min(rr, q); when both are on, the policy serves the
relay link with probability ``relay_prob[q]``.  Nothing is imported from
``relaybuf.chain`` or ``relaybuf.mdp``, so a fault there cannot hide in the
reference that checks them.

* ``evaluate`` gives the exact stationary distribution, throughput, arrival
  rate and asymptotic variance of the per-slot reward for any per-state relay
  probability (thresholds, tabular rules, queue-blind coins).
* ``odoni_bounds`` brackets the optimal throughput from any value vector:
  min_q h(q) <= theta* <= max_q h(q) with h = max_a J(q, a) - V(q).  The
  relative values ``g`` of an optimal policy give a bracket of zero width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def outcomes(cfg, relay_prob):
    """One-slot outcomes per queue state as (prob, next, reward, arrivals).

    Each array has shape (5, nr + 1): the channel outcomes off/off, source
    only, relay only, both on with the source served, both on with the relay
    served.  ``relay_prob`` is a scalar or a per-state vector in [0, 1].
    """
    q = np.arange(cfg.nr + 1)
    a = np.broadcast_to(np.asarray(relay_prob, dtype=float), q.shape)
    us = np.minimum(cfg.rs, cfg.nr - q)
    ur = np.minimum(cfg.rr, q)
    ps, pr = cfg.ps, cfg.pr
    qs, qr = 1.0 - ps, 1.0 - pr
    zero = np.zeros_like(q)
    prob = np.stack([np.full(q.shape, qs * qr), np.full(q.shape, ps * qr),
                     np.full(q.shape, qs * pr), ps * pr * (1.0 - a), ps * pr * a])
    nxt = np.stack([q, q + us, q - ur, q + us, q - ur])
    reward = np.stack([zero, zero, ur, zero, ur]).astype(float)
    arrivals = np.stack([zero, us, zero, us, zero]).astype(float)
    return prob, nxt, reward, arrivals


def transition_matrix(prob, nxt) -> np.ndarray:
    m = prob.shape[1]
    p = np.zeros((m, m))
    rows = np.arange(m)
    for k in range(prob.shape[0]):
        np.add.at(p, (rows, nxt[k]), prob[k])
    return p


def stationary(p: np.ndarray, below: int, above: int) -> np.ndarray:
    """Stationary vector by GTH state reduction within the chain's band.

    Row q of ``p`` may only be non-zero in columns q - below .. q + above;
    eliminating states from the top keeps that band, so each step touches an
    above x below block.  Only non-negative numbers are added, multiplied
    and divided, so every mass keeps a small relative error however drifted
    the chain is.  Pass ``below = above = len(p)`` for the dense reduction.
    """
    p = np.array(p, dtype=float)
    m = p.shape[0]
    for n in range(m - 1, 0, -1):
        lo_c, lo_r = max(0, n - below), max(0, n - above)
        escape = p[n, lo_c:n].sum()
        if escape <= 0.0:
            raise ValueError(f"state {n} cannot reach a lower state")
        p[lo_r:n, n] /= escape
        p[lo_r:n, lo_c:n] += np.outer(p[lo_r:n, n], p[n, lo_c:n])
    x = np.zeros(m)
    x[0] = 1.0
    for n in range(1, m):
        lo_r = max(0, n - above)
        x[n] = x[lo_r:n] @ p[lo_r:n, n]
    return x / x.sum()


@dataclass(frozen=True)
class Evaluation:
    """Exact long-run figures of one stationary policy."""

    pi: np.ndarray
    throughput: float
    arrival_rate: float
    variance: float     # asymptotic variance of the per-slot delivered packets
    bias_span: float    # span of the relative values over the recurrent states
    g: np.ndarray       # relative values, the Poisson equation's solution with g(0) = 0


def evaluate(cfg, relay_prob) -> Evaluation:
    """Exact throughput and reward statistics of a per-state relay rule.

    The variance comes from the martingale decomposition of the reward sum:
    with g solving the Poisson equation g - P g = r - theta, the increments
    reward - theta + g(next) - g(q) are uncorrelated, so the time-average
    over W slots has variance E_pi[increment^2] / W, and starting away from
    stationarity moves its mean by at most span(g) / W.
    """
    prob, nxt, reward, arrivals = outcomes(cfg, relay_prob)
    p = transition_matrix(prob, nxt)
    pi = stationary(p, below=cfg.rr, above=cfg.rs)
    r_bar = (prob * reward).sum(axis=0)
    theta = float(pi @ r_bar)
    m = p.shape[0]
    bordered = np.zeros((m + 1, m + 1))
    bordered[:m, :m] = np.eye(m) - p
    bordered[:m, m] = 1.0
    bordered[m, 0] = 1.0
    g = np.linalg.solve(bordered, np.concatenate([r_bar, [0.0]]))[:m]
    incr = reward - theta + g[nxt] - g[None, :]
    variance = float(pi @ (prob * incr * incr).sum(axis=0))
    live = pi > 0.0
    return Evaluation(pi=pi, throughput=theta,
                      arrival_rate=float(pi @ (prob * arrivals).sum(axis=0)),
                      variance=variance,
                      bias_span=float(g[live].max() - g[live].min()), g=g)


def threshold_rule(cfg, q_th: int) -> np.ndarray:
    """Relay probability of the rule "serve the relay link iff q > q_th"."""
    return (np.arange(cfg.nr + 1) > q_th).astype(float)


def action_values(cfg, v: np.ndarray):
    """J(q, a) for a = source (0) and relay (1): expected reward plus V(next)."""
    out = []
    for a in (0.0, 1.0):
        prob, nxt, reward, _ = outcomes(cfg, a)
        out.append((prob * (reward + v[nxt])).sum(axis=0))
    return out[0], out[1]


def odoni_bounds(cfg, v) -> tuple:
    """(lower, upper) bounds on the optimal throughput from any value vector."""
    v = np.asarray(v, dtype=float)
    j0, j1 = action_values(cfg, v)
    h = np.maximum(j0, j1) - v
    return float(h.min()), float(h.max())
