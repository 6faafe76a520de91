"""Reference for the window DP of `oracle.dp_law`, made step by step.

`oracle.dp_law` adds the returns through each edge of its window a block
of return steps at a time: one matrix product per block from the exits
stored before it, and a short product over the block's own exits at each
step.  This reference adds each return step's returns with one
matrix-vector product over every exit stored so far, in the same window,
with the same first-passage kernels and counter raises.  The two sum the
same terms in a different order, so they agree up to rounding.
"""

import math

import numpy as np

from walklab.oracle import _first_passage, _visit_index


def reference_dp_table(params, n, fns):
    """The pooled table of `dp_law(params, n, fns)`, of shape
    (cap + 1 for each counter)."""
    dims = tuple(f.cap + 1 for f in fns)
    size = math.prod(dims)
    lo = min(0, *(s for f in fns for s in f.sites))
    hi = max(0, *(s for f in fns for s in f.sites))
    width = hi - lo + 1
    p, q = params.p, params.q
    buffers = np.zeros((2, width, size))
    buffers[0, -lo, 0] = 1.0
    grids = buffers.reshape((2, width) + dims)
    visits = ([], [])
    for axis, f in enumerate(fns):
        for s in f.sites:
            visits[s % 2].append(_visit_index(s - lo, axis, f.cap))
    # per edge: window row, edge site, probability of stepping out, the
    # first-passage kernel reversed, exits (step s at row s // 2), survival
    sides = []
    for row, edge, away, back in ((-1, hi, p, q), (0, lo, q, p)):
        f, survival = _first_passage(away, back, n)
        exits = np.zeros((n // 2 + 1, size))
        sides.append((row, edge, away, np.ascontiguousarray(f[::-1]), exits, survival))
    for t in range(1, n + 1):
        state, new, grid = buffers[(t - 1) % 2], buffers[t % 2], grids[t % 2]
        np.multiply(state[1:], q, out=new[:-1])
        new[-1] = 0.0
        new[1:] += p * state[:-1]
        for row, edge, away, kernel, exits, _ in sides:
            if (t - edge) % 2:
                np.multiply(state[row], away, out=exits[t // 2])
            else:
                # with m = (t - 1) // 2, exit row r comes back at lag 2(m - r) + 1
                m = (t - 1) // 2
                new[row] += kernel[-(m + 1) :] @ exits[: m + 1]
        for top, below, shifted, source, zero in visits[t % 2]:
            grid[top] += grid[below]
            grid[shifted] = grid[source]
            grid[zero] = 0.0
    table = buffers[n % 2].sum(axis=0)
    for _, edge, _, _, exits, survival in sides:
        steps = np.arange(1 + edge % 2, n + 1, 2)
        table += survival[n - steps] @ exits[steps // 2]
    return table.reshape(dims)
