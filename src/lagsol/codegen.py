"""Straight-line kernels, generated as Python source and compiled once per shape.

The innermost loops call small Python functions on a handful of floats,
where numpy's per-call overhead outweighs the arithmetic: the DOP853 step
(odeint), the reduced system's right-hand side, first integral and log G
(reduced_ode), and the orbit integrand that QUADPACK calls at every node
(quadutil).  Written as loops over the coordinates they spent most of their
time on interpreter work (zips, maps, sum() calls, list building).  Each is
instead generated for its shape (the state size, or n) as one function whose
coordinates are locals, doing the same float operations in the same order.
Every product and sum is spelled left to right from the start that math.prod
and CPython 3.11's sum() use, so each kernel is bit-identical to the loop or
closure form the tests keep as its reference (tests/oracles.py).

Measured with timeit, CPython 3.11 on a 2-core x86-64 VM, at n = 2:

- a step attempt on a reduced orbit: 87 us with the tableau loop, 31 to
  34 us generated, and 14 us once the right-hand side (1.7 -> 0.37 us per
  call) and first integral (0.9 -> 0.22 us) were generated too;
- log G and its derivative: 0.58 and 0.43 us -> 0.25 and 0.13 us;
- an orbit integrand node: 2.07 us with the period and 1.91 us without ->
  0.76 and 0.66 us.

Generating a kernel costs milliseconds, so it happens on first use, never
at import.
"""

from __future__ import annotations

import math
from functools import cache
from types import MappingProxyType

_MATH = {name: value for name, value in vars(math).items() if not name.startswith("_")}


@cache
def compiled(generate, *shape) -> MappingProxyType:
    """The namespace of generate(*shape)'s source, run with math's names in
    scope, read-only: compiled on first use, once per (generate, shape)."""
    ns = dict(_MATH)
    name = f"<{generate.__module__}.{generate.__name__}{shape}>"
    exec(compile(generate(*shape), name, "exec"), ns)
    return MappingProxyType(ns)
