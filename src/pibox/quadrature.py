"""Composite Gauss-Legendre quadrature sized for trigonometric integrands."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_PANEL_NODES = 16


@lru_cache(maxsize=32)
def _rule(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def quadrature_nodes(a: float, b: float, wavenumber: float = 0.0, min_nodes: int = 128):
    """Nodes and weights on [a, b], 64 nodes per pi/wavenumber of phase
    (at least min_nodes total), split into 16-node panels."""
    total = max(min_nodes, int(math.ceil(64.0 * abs(wavenumber) * (b - a) / math.pi)))
    panels = max(1, int(math.ceil(total / _PANEL_NODES)))
    xg, wg = _rule(_PANEL_NODES)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w
