"""codegen.compiled: each straight-line kernel is compiled on first use,
once per shape, and importing the CLI compiles none."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lagsol

# run in a fresh interpreter, so the cache starts empty; compile is shadowed
# in codegen's globals to record the name of each source it compiles
SCRIPT = """
import json
import lagsol.cli
from lagsol import codegen, odeint, periodic
from lagsol.params import SolitonParams

at_import = codegen.compiled.cache_info().currsize
built = []
codegen.compile = lambda source, name, mode: (built.append(name), compile(source, name, mode))[1]
for lambdas, alphas in (((1.0, -1.0), (1.0, 2.0)), ((1.0, -1.0), (3.0, 0.5)),
                        ((1.0, -1.0, -1.0), (1.0, 2.0, 3.0))):
    spec = periodic.PeriodicSpec(SolitonParams(lambdas, 1.0, 0.5), alphas, 0.3)
    orbit = periodic.compute_orbit(spec)
    periodic.holonomies(spec)
    orbit.profile().prefetch([0.5, 1.0])
odeint.integrate(lambda s, y: [-y[1], y[0]], 0.0, [1.0, 0.0], 1.0,
                 conserved=lambda y: 0.0, near_escape=lambda y: False)
print(json.dumps([at_import, built]))
"""


def test_kernels_compile_on_first_use_once_per_shape():
    env = dict(os.environ, PYTHONPATH=str(Path(lagsol.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         env=env, check=True)
    at_import, built = json.loads(res.stdout)
    assert at_import == 0
    assert built == [
        "<lagsol.reduced_ode._generate(2,)>",           # log G, at the critical point
        "<lagsol.quadutil._generate_orbit(2, True)>",   # period and holonomies
        "<lagsol.quadutil._generate_orbit(2, False)>",  # holonomies alone
        "<lagsol.odeint._generate(4,)>",                # the profile's reduced orbit
        "<lagsol.reduced_ode._generate(3,)>",
        "<lagsol.quadutil._generate_orbit(3, True)>",
        "<lagsol.quadutil._generate_orbit(3, False)>",
        "<lagsol.odeint._generate(5,)>",
        "<lagsol.odeint._generate(2,)>",                # a two-component toy system
    ]
