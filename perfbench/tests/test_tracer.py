"""The layer tracer counts what it claims, changes no output, and leaves
nothing installed.  Run with ``python3 -m pytest perfbench/tests -q``."""

import filecmp
import os
from unittest import mock

import pytest
import scipy.integrate

import child
import tracer as tracing
import workloads
from lagsol import cli, odeint, periodic, quadutil, verify
from lagsol.params import SolitonParams

PERIODIC_JOB = ["periodic", "--lambdas=1.0,-1.0", "--alphas=1.0,2.0", "--A=0.4",
                "--alpha=0.5", "--mesh", "--mesh-samples=3", "--mesh-count=2",
                "--fd-checks=1"]
EXPANDER_JOB = ["expander", "--alpha=0.8", "--a=1.0,2.5", "--samples=5",
                "--mesh-samples=4", "--mesh-count=3", "--fd-checks=2"]
TRANSLATOR_JOB = ["translator", "--alpha=1.2", "--a=1.0", "--mesh-samples=4",
                  "--mesh-count=3", "--fd-checks=2"]


def run_cli(argv, outdir, tr=None):
    rc, _, stdout, error, stderr = child.run_job(cli.main, argv + [f"--outdir={outdir}"], tr)
    assert rc == 0, (error, stderr)
    return stdout


def traced(argv, outdir):
    tr = tracing.Tracer()
    with tr:
        stdout = run_cli(argv, outdir, tr)
    return tr, stdout


def test_orbit_quadrature_counts_match_the_orbit_formula():
    # an oscillating orbit is one period integral plus n holonomy integrals,
    # each a single QUADPACK call through the lazy import in _orbit_quad
    spec = periodic.PeriodicSpec(SolitonParams((1.0, -1.0, -1.0), 1.0, 0.5),
                                 (1.0, 2.0, 3.0), 0.4)
    tr = tracing.Tracer()
    with tr:
        periodic.compute_orbit(spec)
    m = tr.summary(jobs=1)
    assert m["quadutil.quad_calls"] == 1 + 3
    assert m["periodic.compute_orbit_calls"] == 1
    assert m["odeint.integrations"] == 0


def test_counts_on_a_tiny_job_match_independent_counters(tmp_path):
    quad = scipy.integrate.quad
    fevals = []

    def quad_neval(*args, **kwargs):
        res = quad(*args, **kwargs)
        fevals.append(res[2]["neval"])   # lagsol always asks for full_output
        return res

    with mock.patch.object(quadutil, "quad", side_effect=quad_neval) as q1, \
            mock.patch.object(scipy.integrate, "quad", side_effect=quad_neval) as q2, \
            mock.patch.object(odeint, "integrate", wraps=odeint.integrate) as ode:
        run_cli(PERIODIC_JOB, tmp_path / "plain")
    tr, _ = traced(PERIODIC_JOB, tmp_path / "traced")
    m = tr.summary(jobs=1)

    assert m["quadutil.quad_calls"] == q1.call_count + q2.call_count > 0
    assert m["quadutil.quad_fevals"] == sum(fevals)
    assert m["odeint.integrations"] == ode.call_count > 0
    assert m["meshing.points"] == 3 * 2
    assert m["verify.points"] == 3 * 2
    on_disk = sum(os.path.getsize(p) for p in (tmp_path / "traced").iterdir())
    assert m["fileio.bytes_written"] == on_disk
    assert m["fileio.bytes_read"] == 0
    assert m["geometry.fd_oracle_calls"] == 1


def test_read_bytes_count_each_file_once(tmp_path):
    run_cli(PERIODIC_JOB, tmp_path)
    mesh, record = tmp_path / "periodic_mesh.csv", tmp_path / "periodic_record.txt"
    tr = tracing.Tracer()
    with tr:
        rc, *_ = child.run_job(cli.main, ["verify", f"--mesh={mesh}",
                                          f"--record={record}", "--fd-checks=1"], tr)
    assert rc == 0
    m = tr.summary(jobs=1)
    assert m["fileio.bytes_read"] == os.path.getsize(mesh) + os.path.getsize(record)
    assert m["fileio.bytes_written"] == 0


@pytest.mark.parametrize("argv", [PERIODIC_JOB, EXPANDER_JOB, TRANSLATOR_JOB],
                         ids=lambda a: a[0])
def test_traced_and_untraced_outputs_are_identical(tmp_path, argv):
    plain = run_cli(argv, tmp_path / "plain")
    _, with_trace = traced(argv, tmp_path / "traced")
    assert with_trace.replace(str(tmp_path / "traced"), str(tmp_path / "plain")) == plain
    names = sorted(os.listdir(tmp_path / "plain"))
    assert names == sorted(os.listdir(tmp_path / "traced"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "plain", tmp_path / "traced",
                                               names, shallow=False)
    assert mismatch == [] and errors == []


def test_no_wrapper_remains_after_a_traced_run(tmp_path):
    originals = (quadutil.quad, scipy.integrate.quad, verify.centred_frame,
                 periodic.OrbitProfile.__dict__["prefetch"], odeint.integrate)
    tr, _ = traced(PERIODIC_JOB, tmp_path)
    assert tr.summary(jobs=1)["trace.spans"] > 0
    assert tracing.leftover_wrappers() == []
    after = (quadutil.quad, scipy.integrate.quad, verify.centred_frame,
             periodic.OrbitProfile.__dict__["prefetch"], odeint.integrate)
    assert all(a is b for a, b in zip(originals, after))


def test_wrappers_sit_at_every_binding_while_installed():
    from lagsol import geometry

    bindings = lambda: (verify.centred_frame, geometry.centred_frame, quadutil.quad,
                        scipy.integrate.quad, periodic.OrbitProfile.prefetch,
                        cli.compute_orbit, periodic.compute_orbit)
    with tracing.Tracer():
        assert all(getattr(f, tracing._MARK, False) for f in bindings())
        assert verify.centred_frame is geometry.centred_frame
    assert not any(getattr(f, tracing._MARK, False) for f in bindings())


def test_self_time_is_duration_minus_children():
    tr = tracing.Tracer()
    outer, inner = tr.name_id("verify.verify_mesh"), tr.name_id("geometry.centred_frame")
    for name, parent, t0, t1 in ((outer, -1, 0.0, 10.0), (inner, 0, 1.0, 4.0),
                                 (inner, 0, 5.0, 6.0)):
        tr.name.append(name)
        tr.parent.append(parent)
        tr.job.append(0)
        tr.t0.append(t0)
        tr.t1.append(t1)
    m = tr.summary(jobs=1)
    assert m["verify.self_s"] == pytest.approx(6.0)
    assert m["geometry.self_s"] == pytest.approx(4.0)
    assert m["geometry.frame_calls"] == 2


@pytest.mark.parametrize("argv, error", [
    (["expander", "--alpha=1.0", "--a=1,foo"], "ValueError"),
    (["periodic-search", "--lambdas=1,-1", "--alpha=1.0", "--gamma=-2,1.5"],
     "ZeroDivisionError"),
])
def test_uncaught_exceptions_become_failed_jobs(tmp_path, argv, error):
    rc, _, _, err, _ = child.run_job(cli.main, argv + [f"--outdir={tmp_path}"], None)
    assert rc is None
    assert err.startswith(error)


def test_job_lists_repeat_per_seed_and_hold_distinct_jobs():
    for name in workloads.PATTERNS:
        a = workloads.job_units(name, 3)
        assert a == workloads.job_units(name, 3)
        assert a != workloads.job_units(name, 4)
        argvs = [tuple(j["argv"]) for unit in a for j in unit if j["cmd"] != "verify"]
        assert len(argvs) == len(set(argvs))
    held = workloads.job_units("inverse-solve", workloads.HELDOUT_SEED)
    assert all(j["key"].startswith("heldout/") for unit in held for j in unit)


def test_recorded_failures_are_left_out_and_sampled_as_defects():
    failed = workloads._recorded("failed_units")
    assert failed
    for name in workloads.PATTERNS:
        units = workloads.job_units(name, 3)
        assert not [u for u in units if u[0]["key"].rsplit("/", 1)[0] in failed]
        defects = workloads.defect_units(name, 3)
        assert [u[0]["key"] for u in defects] == [u[0]["key"] for u in
                                                  workloads.defect_units(name, 4)]
        for unit in defects:
            key = unit[0]["key"]
            assert key.startswith("defect/") or key.rsplit("/", 1)[0] in failed
