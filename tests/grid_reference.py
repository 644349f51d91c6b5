"""The product-rule grid on S^(n-1), the tests' independent reference for
the polar rules of the package."""

import math
from functools import lru_cache

import numpy as np

from nodal_radius.specfun import gauss_legendre


@lru_cache(maxsize=None)
def reference_sphere_grid(n, order):
    """Product quadrature grid on S^(n-1): points (N, n) and weights (N,),
    built point by point from meshgrids of its angles (cached, read-only).

    Gauss-Legendre in each of the n - 2 polar angles on [0, pi], then
    2 * order uniform azimuths in [0, 2 pi). A point is (cos t0,
    sin t0 cos t1, ..., sin t0 ... sin t_{n-3} cos phi,
    sin t0 ... sin t_{n-3} sin phi), and its weight is the product of the
    polar weights, sin^(n-2-i)(t_i) on polar axis i, and 2 pi / (2 order).
    The weights sum to the surface area of S^(n-1); the grid has
    2 * order**(n-1) points.
    """
    n_phi = 2 * order
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = np.full(n_phi, 2.0 * np.pi / n_phi)
    if n == 2:
        coords, weight = np.stack([np.cos(phi), np.sin(phi)], axis=1), w_phi
    else:
        rule = gauss_legendre(order, 0.0, math.pi)
        mesh = np.meshgrid(*([rule.nodes] * (n - 2) + [phi]), indexing="ij")
        wmesh = np.meshgrid(*([rule.weights] * (n - 2) + [w_phi]), indexing="ij")
        theta = [m.ravel() for m in mesh]
        weight = np.ones(theta[0].size)
        for wm in wmesh:
            weight = weight * wm.ravel()
        for i in range(n - 2):
            weight = weight * np.sin(theta[i]) ** (n - 2 - i)
        coords = np.empty((theta[0].size, n))
        sin_prod = np.ones(theta[0].size)
        for i in range(n - 2):
            coords[:, i] = sin_prod * np.cos(theta[i])
            sin_prod = sin_prod * np.sin(theta[i])
        coords[:, n - 2] = sin_prod * np.cos(theta[n - 2])
        coords[:, n - 1] = sin_prod * np.sin(theta[n - 2])
    coords.setflags(write=False)
    weight.setflags(write=False)
    return coords, weight
