"""Quantities computed apart from the program, for the benchmark's checks.

Nothing here calls into ``calderon_bench``.  The curves are parametrized
from the workload's own description, the Lagrange basis is built from its
nodes, and the Galerkin entries of the single layer operator A and the
hypersingular operator B are double integrals done by ``scipy.integrate``
with the logarithmic singularity handed to QUADPACK as an explicit weight:

* identical panels: log|x(xi) - x(eta)| = log|xi - eta| + log rho(xi, eta)
  with rho smooth and positive; the first term is integrated with the
  weights ``alg-loga`` / ``alg-logb`` on either side of the diagonal;
* adjacent panels: a Duffy split around the shared end point gives
  |x - y| = r * rho(r, w), so log r is integrated with the weight
  ``alg-loga`` and the remainder is smooth;
* separated panels: a plain smooth double integral.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial
from scipy import integrate, special

_EPSREL = 1e-11
_QUAD = dict(epsabs=0.0, epsrel=_EPSREL, limit=200)
_KERNEL = -1.0 / (2.0 * math.pi)  # single layer kernel is this * log|x - y|


class SquareCurve:
    """Boundary of the square [0, side]^2; chart i runs from corner i to
    corner i + 1 over the parameter interval [2i, 2i + 1]."""

    def __init__(self, side):
        self.side = side
        self.corner_xy = [(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)]

    def length(self):
        return 4.0 * self.side

    def point(self, chart, t):
        (x0, y0), (x1, y1) = self.corner_xy[chart], self.corner_xy[(chart + 1) % 4]
        s = t - 2.0 * chart
        return x0 + s * (x1 - x0), y0 + s * (y1 - y0)

    def speed(self, chart, t):
        return self.side

    def identical_rho(self, panel, xi, eta):
        return self.side * (panel[2] - panel[1])

    def adjacent_rho(self, first, second, r, s_w, eta_w):
        # x - y = -r (s_w E_p + eta_w E_q) with E the panel edge vectors
        (a0, a1), (b0, b1) = self.point(first[0], first[1]), self.point(first[0], first[2])
        (c0, c1), (d0, d1) = self.point(second[0], second[1]), self.point(second[0], second[2])
        return math.hypot(s_w * (b0 - a0) + eta_w * (d0 - c0), s_w * (b1 - a1) + eta_w * (d1 - c1))


class EllipseCurve:
    """(a cos t, b sin t) over the single chart [0, 2 pi]."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def length(self):
        return 4.0 * self.a * special.ellipe(1.0 - (self.b / self.a) ** 2)

    def point(self, chart, t):
        return self.a * math.cos(t), self.b * math.sin(t)

    def speed(self, chart, t):
        return math.hypot(self.a * math.sin(t), self.b * math.cos(t))

    def _chord_rho(self, delta, mid):
        # |x(t) - x(u)| / |t - u| = |sin(delta/2) / (delta/2)| * speed-like
        # factor at the mid parameter; no cancellation as delta -> 0
        sinc = math.sin(0.5 * delta) / (0.5 * delta) if delta else 1.0
        return abs(sinc) * math.hypot(self.a * math.sin(mid), self.b * math.cos(mid))

    def identical_rho(self, panel, xi, eta):
        dt = panel[2] - panel[1]
        delta = dt * (xi - eta)
        return dt * self._chord_rho(delta, panel[1] + 0.5 * dt * (xi + eta))

    def adjacent_rho(self, first, second, r, s_w, eta_w):
        # t = p1 - r s_w dp on the first panel, u = p1 + r eta_w dq on the
        # second (unwrapped past the chart end), so u - t = r * lin
        dp, dq = first[2] - first[1], second[2] - second[1]
        lin = s_w * dp + eta_w * dq
        mid = first[2] + 0.5 * r * (eta_w * dq - s_w * dp)
        return lin * self._chord_rho(r * lin, mid)


def _horner(poly):
    """A fast evaluator of a numpy polynomial, for scalars or arrays."""
    coef = [float(c) for c in poly.coef[::-1]]

    def f(x):
        acc = 0.0
        for c in coef:
            acc = acc * x + c
        return acc
    return f


def lagrange_basis(degree):
    """Equispaced Lagrange basis on [0, 1] and its derivatives, as lists
    of callables."""
    nodes = np.linspace(0.0, 1.0, degree + 1)
    phi = []
    for a, xa in enumerate(nodes):
        p = Polynomial.fromroots(np.delete(nodes, a))
        phi.append(p / p(xa))
    return [_horner(p) for p in phi], [_horner(p.deriv()) for p in phi]


def reference_richardson_weight(degree):
    """omega = 2 / (lambda_min + lambda_max) of D^{-1/2} M D^{-1/2} for the
    reference Lagrange element (M its mass matrix, D the row sums)."""
    phi, _ = lagrange_basis(degree)
    x, w = np.polynomial.legendre.leggauss(degree + 2)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    V = np.array([p(x) for p in phi])
    M = (V * w) @ V.T
    r = 1.0 / np.sqrt(M.sum(axis=1))
    lam = np.linalg.eigvalsh(M * np.outer(r, r))
    return 2.0 / (lam[0] + lam[-1])


class CornerEntries:
    """Entries A[nu, mu] and B[nu, mu] of one mesh, by panel-pair integrals.

    ``panels`` is a list of (chart, t0, t1) in cyclic order and ``conn``
    the node ids of each panel (vertex node first), as the mesh and space
    under test define them.
    """

    def __init__(self, curve, panels, conn, degree, alpha):
        self.curve = curve
        self.panels = panels
        self.conn = np.asarray(conn)
        self.alpha = alpha
        self.phi, self.dphi = lagrange_basis(degree)

    # -- one-panel factors -------------------------------------------------

    def _param(self, p, xi):
        chart, t0, t1 = self.panels[p]
        return chart, t0 + (t1 - t0) * xi

    def _factor(self, p, a, kind):
        """Integrand factor of basis function a on panel p: value times
        arc-length element for A, local derivative for B (the arc-length
        derivative times ds is exactly d(phi)/d(xi) d(xi))."""
        if kind == "B":
            return self.dphi[a]
        chart, t0, t1 = self.panels[p]
        phi = self.phi[a]
        return lambda xi: phi(xi) * self.curve.speed(chart, t0 + (t1 - t0) * xi) * (t1 - t0)

    def _point(self, p, xi):
        return self.curve.point(*self._param(p, xi))

    # -- panel-pair integrals of log|x - y| * F(xi) * G(eta) ---------------

    def _identical(self, p, F, G):
        def inner(xi):
            # log(xi - eta) on [0, xi] and log(eta - xi) on [xi, 1]
            left = integrate.quad(G, 0.0, xi, weight="alg-logb", wvar=(0, 0), **_QUAD)[0]
            right = integrate.quad(G, xi, 1.0, weight="alg-loga", wvar=(0, 0), **_QUAD)[0]
            return F(xi) * (left + right)

        singular = integrate.quad(inner, 0.0, 1.0, **_QUAD)[0]
        panel = self.panels[p]
        smooth = integrate.dblquad(
            lambda eta, xi: math.log(self.curve.identical_rho(panel, xi, eta)) * F(xi) * G(eta),
            0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=_EPSREL)[0]
        return singular + smooth

    def _adjacent(self, p, q, F, G):
        """p ends where q starts; F belongs to p, G to q."""
        total = 0.0
        # triangle s >= eta: s = r, eta = r w; triangle eta > s: eta = r, s = r w
        first, second = self.panels[p], self.panels[q]
        for tri in (0, 1):
            def sw_ew(w):
                return (1.0, w) if tri == 0 else (w, 1.0)

            def rho(r, w):
                return self.curve.adjacent_rho(first, second, r, *sw_ew(w))

            def fg(r, w):
                s_w, e_w = sw_ew(w)
                return F(1.0 - r * s_w) * G(r * e_w)

            def h(r):
                return integrate.quad(lambda w: fg(r, w), 0.0, 1.0, **_QUAD)[0]

            # r * log(r) * h(r): weight (r - 0)^1 * log(r - 0)
            total += integrate.quad(h, 0.0, 1.0, weight="alg-loga", wvar=(1, 0), **_QUAD)[0]
            total += integrate.dblquad(
                lambda w, r: r * math.log(rho(r, w)) * fg(r, w),
                0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=_EPSREL)[0]
        return total

    def _separated(self, p, q, F, G):
        def f(eta, xi):
            (x0, x1), (y0, y1) = self._point(p, xi), self._point(q, eta)
            return math.log(math.hypot(x0 - y0, x1 - y1)) * F(xi) * G(eta)

        return integrate.dblquad(f, 0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=_EPSREL)[0]

    def _pair(self, p, a, q, b, kind):
        P = len(self.panels)
        F, G = self._factor(p, a, kind), self._factor(q, b, kind)
        if p == q:
            val = self._identical(p, F, G)
        elif q == (p + 1) % P:
            val = self._adjacent(p, q, F, G)
        elif p == (q + 1) % P:
            val = self._adjacent(q, p, G, F)
        else:
            val = self._separated(p, q, F, G)
        return _KERNEL * val

    # -- entries ----------------------------------------------------------

    def support(self, node):
        """(panel, local index) pairs on which the node's basis function lives."""
        return [tuple(x) for x in np.argwhere(self.conn == node)]

    def moment(self, node):
        """<phi_node, 1> in the exact arc-length product."""
        total = 0.0
        for p, a in self.support(node):
            total += integrate.quad(self._factor(p, a, "A"), 0.0, 1.0, **_QUAD)[0]
        return total

    def entry(self, kind, nu, mu):
        val = sum(self._pair(p, a, q, b, kind)
                  for p, a in self.support(nu) for q, b in self.support(mu))
        if kind == "B":
            val += self.alpha * self.moment(nu) * self.moment(mu)
        return val
