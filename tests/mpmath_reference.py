"""30-digit reference for the Mathieu band edges, shared by the edge tests.

It diagonalises the Hill matrices in mpmath and shares no floating-point
code with bandres.
"""

import mpmath


def mathieu_reference_edges(n_edges, m_trunc=8):
    """First edges of Mathieu 2cos(2 pi x) from its tridiagonal Hill matrices
    at theta = 0 and pi, diagonalised in mpmath at 30 digits."""
    size = 2 * m_trunc + 1
    edges = []
    with mpmath.workdps(30):
        for theta in (0, mpmath.pi):
            a = mpmath.matrix(size)
            for i in range(size):
                a[i, i] = (theta + 2 * mpmath.pi * (i - m_trunc)) ** 2
                if i:
                    a[i, i - 1] = a[i - 1, i] = 1
            values = mpmath.eigsy(a, eigvals_only=True)
            edges += [values[i] for i in range(size)]
        return [float(e) for e in sorted(edges)[:n_edges]]
