"""Independent references for the tests: routes the package does not ship."""

import numpy as np

from trigzero.rice import _gl_panels, _pair_intensity


def ragged_pair_integral(K, w0, w1, n_nodes):
    """2 * int_{u=0}^{L} int_{s=w0}^{w1-u} F(s, s+u) ds du on ragged half-period tilings.

    The lag u = t - s runs over the half-period panels of [0, w1 - w0]; each
    u node tiles its own s range [w0, w1 - u] with ``_gl_panels``, and every
    point takes four lag-kernel calls through ``_pair_intensity``.  One
    integrand call per u panel covers the s-tilings of all its u nodes.
    """
    u_nodes, u_weights = _gl_panels(0.0, w1 - w0, n_nodes)
    total = 0.0
    for u, wu in zip(u_nodes.reshape(-1, n_nodes), u_weights.reshape(-1, n_nodes)):
        tilings = [_gl_panels(w0, w1 - uk, n_nodes) for uk in u]
        s = np.concatenate([nodes for nodes, _ in tilings])
        t = np.concatenate([nodes + uk for (nodes, _), uk in zip(tilings, u)])
        weights = np.concatenate([ws * wk for (_, ws), wk in zip(tilings, wu)])
        total += float((weights * _pair_intensity(K, s, t)).sum())
    return 2.0 * total
