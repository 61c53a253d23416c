"""Layer tracer installed from outside the ``lagsol`` package.

Each traced function is replaced by a wrapper at every binding the package
calls it through: the defining module, each ``from .x import f`` copy in
other ``lagsol`` modules, ``scipy.integrate.quad`` both as bound in
``lagsol.quadutil`` and on ``scipy.integrate`` (where the lazy import inside
``periodic._orbit_quad`` finds it), and methods on their classes.

A wrapper records a span (name, start, end, parent span, job id) in
parallel arrays, so a long run costs about 30 bytes per span.  Some
wrappers also count work: integrand and right-hand-side evaluations,
accepted and rejected ODE steps, mesh points, bytes read and written.
``summary()`` turns spans and counts into per-layer metrics; self time is a
span's duration minus the time of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

_MARK = "__perfbench_wrapper__"

# (module, attribute, span name) for module-level functions
SPAN_FUNCTIONS = (
    ("lagsol.quadutil", "finite_quad", "quadutil.finite_quad"),
    ("lagsol.quadutil", "improper_quad", "quadutil.improper_quad"),
    ("lagsol.expander", "profile_eval", "expander.profile_eval"),
    ("lagsol.expander", "angle_map", "expander.angle_map"),
    ("lagsol.expander", "angle_map_jacobian", "expander.angle_map_jacobian"),
    ("lagsol.expander", "invert_angle_map", "expander.invert_angle_map"),
    ("lagsol.expander", "asymptotic_angles", "expander.asymptotic_angles"),
    ("lagsol.expander", "s_of_y", "expander.s_of_y"),
    ("lagsol.periodic", "compute_orbit", "periodic.compute_orbit"),
    ("lagsol.periodic", "critical_point", "periodic.critical_point"),
    ("lagsol.periodic", "classify_case", "periodic.classify_case"),
    ("lagsol.periodic", "holonomies", "periodic.holonomies"),
    ("lagsol.periodic", "detect_periodicity", "periodic.detect_periodicity"),
    ("lagsol.periodic", "search_periodic_data", "periodic.search_periodic_data"),
    ("lagsol.reduced_ode", "integrate_reduced", "reduced_ode.integrate_reduced"),
    ("lagsol.reduced_ode", "sample_reduced", "reduced_ode.sample_reduced"),
    ("lagsol.odeint", "integrate", "odeint.integrate"),
    ("lagsol.meshing", "centred_mesh", "meshing.centred_mesh"),
    ("lagsol.meshing", "translator_mesh", "meshing.translator_mesh"),
    ("lagsol.meshing", "flow_slice_mesh", "meshing.flow_slice_mesh"),
    ("lagsol.geometry", "centred_frame", "geometry.centred_frame"),
    ("lagsol.geometry", "centred_fd_mean_curvature", "geometry.fd_oracle"),
    ("lagsol.translator", "translator_fd_mean_curvature", "translator.fd_oracle"),
    ("lagsol.verify", "verify_mesh", "verify.verify_mesh"),
) + tuple(("lagsol.fileio", f, "fileio." + f) for f in (
    "write_mesh_csv", "write_mesh_ply", "write_profile_csv", "write_plane_report_csv",
    "write_orbit_report_csv", "write_residual_csv", "write_keyvalues",
    "write_profile_record", "write_trajectory_csv",
    "read_mesh_csv", "read_profile_record", "read_keyvalues"))

# (module, class, method, span name)
SPAN_METHODS = (
    ("lagsol.periodic", "OrbitProfile", "prefetch", "periodic.prefetch"),
    ("lagsol.translator", "TranslatorProfile", "frame_at", "translator.frame_at"),
)

# (module, class, methods, counter): counted, not spanned
COUNTED_METHODS = (
    ("lagsol.expander", "ExpanderProfile", ("w_of", "wdot_of", "theta_of"),
     "expander.curve_evals"),
    ("lagsol.periodic", "OrbitProfile",
     ("w_of", "wdot_of", "theta_of", "u_of", "phis_of", "theta_rate_of"),
     "periodic.curve_evals"),
    ("lagsol.periodic", "HamiltonianStationaryProfile",
     ("w_of", "wdot_of", "theta_of", "u_of", "phis_of", "theta_rate_of"),
     "periodic.curve_evals"),
)

SCIPY_QUAD = "quadutil.quad"

# layers reported as <layer>.self_s; quadutil and fileio self time is
# reported as quadutil.quad_self_s and fileio.write_s + fileio.read_s
SELF_TIME_LAYERS = ("expander", "periodic", "reduced_ode", "odeint", "meshing",
                    "geometry", "translator", "verify", "cli")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.parent = array("q")
        self.job = array("q")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = Counter()
        self.max_drift = 0.0
        self.current_job = -1
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        i = len(self.t0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.name.append(name_id)
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(perf_counter())
        return i

    def close(self, i: int):
        self.t1[i] = perf_counter()
        self._stack.pop()

    def inside(self, prefix: str) -> bool:
        """True when an open span has a name with this prefix."""
        return any(self.names[self.name[i]].startswith(prefix) for i in self._stack)

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    # -- installation --------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counted(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, original, wrapper, extra_owners=()):
        """Replace original by wrapper wherever a lagsol module binds it."""
        for mod in _lagsol_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)
        for owner in extra_owners:
            self._patch(owner, original.__name__, wrapper)

    def install(self):
        for mod_name in {m for m, _, _ in SPAN_FUNCTIONS}:
            importlib.import_module(mod_name)
        import scipy.integrate

        quad = scipy.integrate.quad
        self._rebind(quad, self._wrap(quad, SCIPY_QUAD, before=self._count_integrand),
                     extra_owners=(scipy.integrate,))
        for mod_name, attr, name in SPAN_FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr)
            self._rebind(fn, self._wrap(fn, name, *self._hooks(name)))
        for mod_name, cls_name, meth, name in SPAN_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, meth, self._wrap(cls.__dict__[meth], name))
        for mod_name, cls_name, meths, counter in COUNTED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            for meth in meths:
                self._patch(cls, meth, self._counted(cls.__dict__[meth], counter))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- work counters hooked into the wrappers -----------------------------

    def _hooks(self, name):
        if name == "odeint.integrate":
            return self._count_rhs, self._ode_result
        if name == "reduced_ode.sample_reduced":
            return None, self._sample_points
        if name.startswith("meshing."):
            return None, self._mesh_points
        if name == "verify.verify_mesh":
            return None, self._verify_points
        if name.startswith("fileio.write_"):
            return None, self._bytes_written
        if name.startswith("fileio.read_"):
            return self._bytes_read, None
        return None, None

    def _count_integrand(self, args, kwargs):
        f, counts = args[0], self.counts

        def integrand(*a):
            counts["quadutil.quad_fevals"] += 1
            return f(*a)

        return (integrand,) + args[1:], kwargs

    def _count_rhs(self, args, kwargs):
        rhs, counts = args[0], self.counts

        def counted_rhs(s, y):
            counts["odeint.rhs_evals"] += 1
            return rhs(s, y)

        return (counted_rhs,) + args[1:], kwargs

    def _ode_result(self, args, kwargs, res):
        self.counts["odeint.steps_accepted"] += res.n_accepted
        self.counts["odeint.steps_rejected"] += res.n_rejected_error + res.n_rejected_drift
        self.max_drift = max(self.max_drift, res.max_drift)

    def _sample_points(self, args, kwargs, traj):
        points = args[1] if len(args) > 1 else kwargs["s_points"]
        self.counts["reduced_ode.sample_points"] += len(points)

    def _mesh_points(self, args, kwargs, mesh):
        self.counts["meshing.points"] += len(mesh)

    def _verify_points(self, args, kwargs, report):
        self.counts["verify.points"] += report.count

    # a file written or read through a nested fileio call (a profile record
    # through write_keyvalues) counts once, at the outermost call
    def _bytes_written(self, args, kwargs, result):
        if not self.inside("fileio."):
            self.counts["fileio.bytes_written"] += os.path.getsize(args[0])

    def _bytes_read(self, args, kwargs):
        if not self.inside("fileio."):
            try:
                self.counts["fileio.bytes_read"] += os.path.getsize(args[0])
            except OSError:
                pass   # the read itself reports the missing file
        return args, kwargs

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """One CSV line per span: id, parent, job, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id,parent,job,name,start,end\n")
            for i in range(len(self.t0)):
                fh.write(f"{i},{self.parent[i]},{self.job[i]},"
                         f"{self.names[self.name[i]]},{self.t0[i]!r},{self.t1[i]!r}\n")

    def summary(self, jobs: int) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        n = len(self.t0)
        names = self.names
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.t1[i] - self.t0[i]
        calls, incl, self_by_name = Counter(), Counter(), Counter()
        child_calls = Counter()   # (parent name, child name) -> count
        for i in range(n):
            nm = names[self.name[i]]
            d = self.t1[i] - self.t0[i]
            calls[nm] += 1
            incl[nm] += d
            self_by_name[nm] += d - child[i]
            p = self.parent[i]
            if p >= 0:
                child_calls[(names[self.name[p]], nm)] += 1
        layer_self = Counter()
        for nm, v in self_by_name.items():
            layer_self[nm.split(".", 1)[0]] += v
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        def fsum(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        acc, rej = c["odeint.steps_accepted"], c["odeint.steps_rejected"]
        m = {
            "quadutil.quad_calls": calls[SCIPY_QUAD],
            "quadutil.quad_fevals": c["quadutil.quad_fevals"],
            "quadutil.quad_self_s": layer_self["quadutil"],
            "expander.profile_eval_calls": calls["expander.profile_eval"],
            "expander.profile_eval_s": incl["expander.profile_eval"],
            "expander.quad_per_eval": ratio(
                child_calls[("expander.profile_eval", "quadutil.finite_quad")],
                calls["expander.profile_eval"]),
            "expander.angle_map_calls": calls["expander.angle_map"],
            "expander.jacobian_calls": calls["expander.angle_map_jacobian"],
            "expander.jacobian_s": incl["expander.angle_map_jacobian"],
            "expander.newton_iters": ratio(
                child_calls[("expander.invert_angle_map", "expander.angle_map_jacobian")],
                calls["expander.invert_angle_map"]),
            "expander.curve_evals": c["expander.curve_evals"],
            "periodic.compute_orbit_calls": calls["periodic.compute_orbit"],
            "periodic.compute_orbit_s": incl["periodic.compute_orbit"],
            "periodic.critical_point_per_orbit": ratio(
                calls["periodic.critical_point"], calls["periodic.compute_orbit"]),
            "periodic.holonomies_calls": calls["periodic.holonomies"],
            "periodic.detect_periodicity_s": incl["periodic.detect_periodicity"],
            "periodic.search_s": incl["periodic.search_periodic_data"],
            "periodic.search_residual_evals": child_calls[
                ("periodic.search_periodic_data", "periodic.classify_case")],
            "periodic.prefetch_calls": calls["periodic.prefetch"],
            "periodic.curve_evals": c["periodic.curve_evals"],
            "odeint.integrations": calls["odeint.integrate"],
            "odeint.integrations_per_job": ratio(calls["odeint.integrate"], jobs),
            "odeint.integrate_s": incl["odeint.integrate"],
            "odeint.rhs_evals": c["odeint.rhs_evals"],
            "odeint.steps_accepted": acc,
            "odeint.steps_rejected": rej,
            "odeint.accept_ratio": ratio(acc, acc + rej),
            "odeint.max_drift": self.max_drift,
            "reduced_ode.sample_points": c["reduced_ode.sample_points"],
            "meshing.mesh_s": fsum("meshing.", incl),
            "meshing.points": c["meshing.points"],
            "meshing.points_per_s": ratio(c["meshing.points"], fsum("meshing.", incl)),
            "geometry.frame_calls": calls["geometry.centred_frame"],
            "geometry.frame_s": incl["geometry.centred_frame"],
            "geometry.fd_oracle_calls": calls["geometry.fd_oracle"],
            "geometry.fd_oracle_s": incl["geometry.fd_oracle"],
            "translator.frame_calls": calls["translator.frame_at"],
            "translator.frame_s": incl["translator.frame_at"],
            "translator.fd_oracle_s": incl["translator.fd_oracle"],
            "verify.verify_s": incl["verify.verify_mesh"],
            "verify.self_s": layer_self["verify"],
            "verify.points": c["verify.points"],
            "verify.points_per_s": ratio(c["verify.points"], incl["verify.verify_mesh"]),
            "fileio.write_s": fsum("fileio.write_", self_by_name),
            "fileio.bytes_written": c["fileio.bytes_written"],
            "fileio.read_s": fsum("fileio.read_", self_by_name),
            "fileio.bytes_read": c["fileio.bytes_read"],
            "trace.spans": n,
        }
        for layer in SELF_TIME_LAYERS:
            m.setdefault(f"{layer}.self_s", layer_self[layer])
        return m


class _Span:
    __slots__ = ("tracer", "nid", "i")

    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.i = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.i)
        return False


def _lagsol_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lagsol" or name.startswith("lagsol."))]


def leftover_wrappers():
    """Names of every traced binding still holding a wrapper (should be none)."""
    import scipy.integrate

    owners = _lagsol_modules() + [scipy.integrate]
    for mod_name, cls_name, *_ in SPAN_METHODS + COUNTED_METHODS:
        owners.append(getattr(sys.modules[mod_name], cls_name))
    return [f"{getattr(o, '__name__', o)}.{k}" for o in owners
            for k, v in vars(o).items() if getattr(v, _MARK, False)]
