"""Real-axis quasi-momentum from one direct propagation, shared by the tests.

It reads D and D' from bandres' public integrate_monodromy and never from
the discriminant table, so it checks the table route that the chain uses.
"""

import math
from typing import NamedTuple

from bandres import integrate_monodromy


class ReferenceMomentum(NamedTuple):
    kind: str       # "band" or "gap", as BandStructure.locate
    n: int          # band or gap number
    k: float        # main-branch k on band n, in [pi(n-1), pi*n]; nan on a gap
    gamma: float    # Im k: arccosh(|D|/2) on a gap, 0.0 on a band
    kprime: float   # dk/dE = -D'/(2 sin k) on a band; nan on a gap


def reference_momentum(bands, energy):
    """k, Im k and dk/dE at one real energy, from D and D' of the period map.

    On band n, k = pi(n-1) + arccos(s D/2), where s = +1 on odd bands (D
    falls from 2 to -2) and -1 on even bands (D rises).
    """
    return reference_momenta(bands, [energy])[0]


def reference_momenta(bands, energies):
    """reference_momentum at each of `energies`, from one batched
    integrate_monodromy call."""
    es = [float(e) for e in energies]
    m, dm = integrate_monodromy(bands.potential, es, derivative=True)
    out = []
    for e, d, dp in zip(es, m.trace().tolist(), dm.trace().tolist()):
        kind, n = bands.locate(e)
        if kind == "gap":
            out.append(ReferenceMomentum(kind, n, math.nan,
                                         math.acosh(max(1.0, abs(d) / 2.0)),
                                         math.nan))
            continue
        s = 1.0 if n % 2 else -1.0
        k = math.pi * (n - 1) + math.acos(min(1.0, max(-1.0, s * d / 2.0)))
        out.append(ReferenceMomentum(kind, n, k, 0.0, -dp / (2.0 * math.sin(k))))
    return out
