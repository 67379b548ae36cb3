"""Gauss rules, singular panel-pair rules, and a 1-D adaptive integration oracle.

All rules live on the unit interval / unit square; callers map them into
panel parameter intervals.  The pair rules handle kernels with a logarithmic
singularity on the diagonal (identical panels) or at a shared corner
(adjacent panels) by Duffy maps that turn the singularity into log factors
along coordinate directions, each integrated by a 1-D rule for p + q log x.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

# pull-back exponent of the log rule: x = y**LOG_POWER turns x^k and
# x^k log x (k <= 7, the highest power degree-3 pairs produce) into
# integrands that 20-point Gauss resolves to 5e-14; y**6 leaves 2e-13 on
# log x itself
LOG_POWER = 7
# the log rule has this many more points than the smooth direction's Gauss
LOG_EXTRA_POINTS = 8


@dataclass(frozen=True)
class QuadRule:
    """Quadrature rule on [0, 1] with a declared polynomial exactness."""

    nodes: np.ndarray
    weights: np.ndarray
    degree: int


@dataclass(frozen=True)
class PairRule:
    """Rule on the parameter product square [0,1]^2 for a pair of touching
    panels, identical or adjacent (see :func:`pair_rule`).

    For an adjacent pair the singular corner is canonically (t, u) = (1, 0),
    i.e. the end of the first panel touches the start of the second.
    ``offsets`` holds the singular distance variable without cancellation:
    t - u for an identical pair and 1 - t for an adjacent one.
    """

    tnodes: np.ndarray
    unodes: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray


def _read_only(rule):
    """The rule with its arrays made read-only, as it is shared by every
    caller of the cache."""
    for f in fields(rule):
        a = getattr(rule, f.name)
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return rule


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadRule:
    """Gauss-Legendre rule with ``n`` points on [0, 1], exact up to degree
    2n-1; built once per process, with read-only arrays."""
    if not 1 <= n <= 64:
        raise ValueError(f"gauss_rule: n must be in [1, 64], got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(QuadRule(nodes=0.5 * (x + 1.0), weights=0.5 * w, degree=2 * n - 1))


def log_rule(n: int) -> QuadRule:
    """Rule on [0, 1] for p(x) + q(x) log x: Gauss pulled back by x = y**7.

    x^k becomes the polynomial 7 y^(7k+6), exact for k <= (2n-7)/7;
    x^k log x becomes 49 y^(7k+6) log y, which Gauss resolves to about
    1e-13 at n = 20 for k <= 7.
    """
    g = gauss_rule(n)
    y = g.nodes
    return QuadRule(nodes=y ** LOG_POWER,
                    weights=LOG_POWER * y ** (LOG_POWER - 1) * g.weights,
                    degree=(2 * n - LOG_POWER) // LOG_POWER)


def _tensor(a, b):
    """Tensor product of two 1-D rules: (a nodes, b nodes, weights) flat."""
    return (np.repeat(a.nodes, b.nodes.size), np.tile(b.nodes, a.nodes.size),
            np.repeat(a.weights, b.nodes.size) * np.tile(b.weights, a.nodes.size))


@lru_cache(maxsize=None)
def pair_rule(relation: str, base_n: int) -> PairRule:
    """Quadrature rule on [0,1]^2 for a pair of panels in the given relation.
    Separated pairs take tensor Gauss rules from :func:`gauss_rule`.

    ``identical``  -> Duffy split u = t(1 - v) of the lower triangle and its
                      mirror: log|t - u| = log t + log v, the log rule in
                      both t and v.
    ``adjacent``   -> corner Duffy split in (s, u), s = 1 - t: u = s v on
                      {u <= s} and s = u v on {s <= u}; the distance to the
                      corner factors as s (or u) times a smooth function of
                      v, so the log rule runs along s (or u) and Gauss
                      along v.
    The log rule has ``base_n + LOG_EXTRA_POINTS`` points; Gauss has ``base_n``.
    Each rule is built once per process, with read-only arrays.
    """
    if base_n < 4:
        raise ValueError(f"pair_rule: base_n must be >= 4, got {base_n}")
    lg = log_rule(base_n + LOG_EXTRA_POINTS)

    if relation == "identical":
        # lower triangle {0 <= u <= t}: u = t(1 - v), Jacobian t
        t, v, w = _tensor(lg, lg)
        u, d, w = t * (1.0 - v), t * v, w * t
        return _read_only(PairRule(np.concatenate([t, u]), np.concatenate([u, t]),
                                   np.concatenate([w, w]), np.concatenate([d, -d])))

    if relation == "adjacent":
        # {u <= s}: u = s v, Jacobian s; {s <= u}: s = u v, Jacobian u
        r, v, w = _tensor(lg, gauss_rule(base_n))
        s = np.concatenate([r, r * v])
        u = np.concatenate([r * v, r])
        return _read_only(PairRule(1.0 - s, u, np.concatenate([w * r, w * r]), s))

    raise ValueError(f"pair_rule: unknown relation {relation!r}")


# ---------------------------------------------------------------------------
# adaptive oracle: greedy bisection of the interval with the largest embedded
# error estimate until the accumulated estimate meets the relative tolerance


def adaptive_integrate(f, box, tol=1e-10, max_pieces=40000):
    """Adaptive integration oracle over an interval ``box = (a, b)``; ``f``
    maps a node array to values.  Bisects the piece with the largest
    embedded-rule (7- against 15-point Gauss) error estimate until the
    accumulated estimate drops below tol times the integral; suitable for
    endpoint (integrable) singularities."""
    a, b = box
    g7 = gauss_rule(7)
    g15 = gauss_rule(15)

    def piece(a, b):
        h = b - a
        i7 = h * np.dot(g7.weights, f(a + h * g7.nodes))
        i15 = h * np.dot(g15.weights, f(a + h * g15.nodes))
        return i15, abs(i15 - i7)

    val, err = piece(a, b)
    heap = [(-err, 0, a, b, val)]
    total, total_err, counter = val, err, 0
    while total_err > tol * max(abs(total), 1e-300) and len(heap) < max_pieces:
        neg_err, _, a0, b0, v0 = heapq.heappop(heap)
        if -neg_err <= 0:
            break
        m = 0.5 * (a0 + b0)
        vl, el = piece(a0, m)
        vr, er = piece(m, b0)
        total += vl + vr - v0
        total_err += el + er + neg_err
        counter += 1
        heapq.heappush(heap, (-el, 2 * counter, a0, m, vl))
        heapq.heappush(heap, (-er, 2 * counter + 1, m, b0, vr))
    return total
