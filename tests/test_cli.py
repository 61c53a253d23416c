"""End-to-end tests of the command line driver.

Each test invokes lagsol.cli.main with an argv list and checks the exit code,
the files written, and the captured output.  Mesh resolutions are kept small
here; the full-size runs live in the acceptance tests.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lagsol import cli, fileio
from lagsol.cli import main


def out_pairs(captured):
    """Parse the 'key = value' lines a subcommand prints to stdout."""
    pairs = {}
    for line in captured.splitlines():
        if " = " in line and not line.startswith(("wrote ", "t = ")):
            k, _, v = line.partition(" = ")
            pairs[k.strip()] = v.strip()
    return pairs


def run_expander(outdir, *extra):
    return main(["expander", "--alpha", "1.0", "--a", "1,2",
                 "--samples", "16", "--mesh-samples", "9", "--mesh-count", "8",
                 "--fd-checks", "2", "--outdir", str(outdir), *extra])


def test_expander_writes_expected_files(tmp_path, capsys):
    assert run_expander(tmp_path) == 0
    out = capsys.readouterr().out
    assert "verification: PASS" in out
    for suffix in ("profile.csv", "planes.csv", "mesh.csv", "record.txt",
                   "summary.txt"):
        assert (tmp_path / f"expander_{suffix}").is_file()
    summary = fileio.read_keyvalues(tmp_path / "expander_summary.txt")
    assert summary["kind"] == "centred"
    assert summary["points"] == str(9 * 8)
    assert summary["passed"] == "true"
    assert float(summary["max_lagrangian"]) < 1e-10
    assert float(summary["max_angle"]) < 1e-9


def test_expander_minimal_reports_constant_angle(tmp_path, capsys):
    rc = main(["expander", "--alpha", "0", "--a", "1,1",
               "--samples", "12", "--mesh-samples", "7", "--mesh-count", "6",
               "--fd-checks", "2", "--outdir", str(tmp_path)])
    assert rc == 0
    summary = fileio.read_keyvalues(tmp_path / "expander_summary.txt")
    assert summary["theta_constant"] == "true"
    assert float(summary["theta_span"]) < 1e-12
    assert float(summary["angle_sum"]) == pytest.approx(math.pi / 2, abs=1e-10)


def test_expander_ply_and_prefix(tmp_path, capsys):
    rc = main(["expander", "--alpha", "1.0", "--a", "1,3",
               "--samples", "8", "--mesh-samples", "5", "--mesh-count", "4",
               "--fd-checks", "2", "--ply", "--project3d",
               "--prefix", "run1", "--outdir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "run1_mesh.ply").is_file()
    assert (tmp_path / "run1_mesh.csv").is_file()
    assert not (tmp_path / "expander_mesh.csv").exists()
    header = (tmp_path / "run1_mesh.ply").read_text().splitlines()
    assert header[0] == "ply"
    assert "property double x" in header


def test_missing_required_option_exits_2(tmp_path, capsys):
    rc = main(["expander", "--alpha", "1.0", "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("lagsol:")
    assert "missing required option --a" in err


def test_bad_count_option_exits_2(tmp_path, capsys):
    rc = run_expander(tmp_path, "--mesh-count", "1")
    assert rc == 2
    assert "--mesh-count must be at least 2" in capsys.readouterr().err


ORBIT = ["--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5"]


@pytest.mark.parametrize("argv", [
    ["expander", "--alpha=1", "--a=1,2", "--seed=-1"],
    ["translator", "--alpha=1", "--a=1,2", "--seed=-1"],
    ["shrinker", "--alphas=1,1.5", "--A=0.5", "--alpha=-1", "--mesh", "--seed=-1"],
    ["periodic", *ORBIT, "--mesh", "--seed=-3"],
    ["flow-family", *ORBIT, "--t=-1,0,1", "--seed=-1"],
    ["periodic-search", "--lambdas=1,-1", "--alpha=1.0", "--gamma=-3.5,3.2", "--max-iter=-5"],
], ids=lambda argv: " ".join(argv))
def test_negative_counts_exit_2(tmp_path, capsys, argv):
    # checked with the other options, before any file is written
    rc = main(argv + [f"--outdir={tmp_path}"])
    key = argv[-1].split("=")[0]
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"lagsol: {key} must be non-negative"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["expander", "--alpha=1", "--a=1,2", "--y-max=1e300"],
    ["expander", "--alpha=1", "--a=1,2", "--y-max=1e160"],
    ["translator", "--alpha=1", "--a=1", "--t-max=1e300"],
    ["translator", "--alpha=1", "--a=1,2", "--radius=1e300"],
    ["periodic", *ORBIT, "--mesh", "--rho-max=1e300"],
    ["expander", "--alpha=1e308", "--a=1e308,1e308"],
    ["translator", "--alpha=1e308", "--a=1e308"],
], ids=lambda argv: " ".join(argv))
def test_overflowing_exports_exit_2_and_write_nothing(tmp_path, capsys, argv):
    # a height whose square overflows, a mesh point that is not finite, or
    # an alpha + sum(a) that overflows (the angle map's integration scale)
    # is rejected before the first file is opened; numpy's RuntimeWarnings
    # on the way come out as "lagsol: warning: ..." lines
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(argv + [f"--outdir={tmp_path}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith("lagsol: ") for line in err), err
    assert not err[-1].startswith("lagsol: warning: ")
    assert not list(tmp_path.iterdir())


def test_an_expander_whose_angle_map_fails_writes_nothing(tmp_path, capsys):
    # the angle map is computed before profile.csv is written; the DE rule
    # fails here at alpha = 0 with one a_j decades below the others
    argv = ["expander", "--alpha=0", "--a=0.3851905761923852,1e-170,5026900986.951941"]
    assert main(argv + [f"--outdir={tmp_path}"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lagsol: quadrature failed for angle map"), err
    assert not list(tmp_path.iterdir())


_TINY = ["--alpha=4796737804.430742",
         "--a=4.2958083433008186e-10,3.9682365330106695e-10,1.634731567051491e-08"]
_SMALL_MESH = ["--mesh-samples=5", "--mesh-count=3", "--fd-checks=2"]


@pytest.mark.parametrize("argv,rc,error", [
    (["expander", *_TINY, "--y-max=1e-300", *_SMALL_MESH], 3,
     "lagsol: quadrature failed for phi increment: panels and their halves differ by 4.94e-324"),
    (["translator", *_TINY, "--t-max=1e-300", *_SMALL_MESH], 3,
     "lagsol: quadrature failed for phi increment: panels and their halves differ by 4.94e-324"),
    (["flow-family", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5",
      "--t=1,1e308", "--rho-max=1.3e154"], 2,
     "lagsol: mesh point 15, at curve parameter 0, is not finite"),
], ids=["expander", "translator", "flow-family"])
def test_an_export_that_fails_before_its_verdict_writes_nothing(tmp_path, capsys, argv,
                                                                rc, error):
    # each fails once its first outputs are built: the expander and the
    # translator in the FD check of verify, the flow family on its second slice
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(argv + [f"--outdir={tmp_path}"]) == rc
    out, err = capsys.readouterr()
    assert out == ""
    assert [ln for ln in err.splitlines() if not ln.startswith("lagsol: warning: ")] == [error]
    assert not list(tmp_path.iterdir())


SPECIAL_SCALES = (1e154, 1e300, 1e-300, 5e-324, 0.0)


def _scale(draw):
    """0, 10^U[-12, 12] or one of SPECIAL_SCALES."""
    kind = draw(st.sampled_from(("zero", "uniform", "special")))
    if kind == "zero":
        return 0.0
    if kind == "uniform":
        return 10.0 ** draw(st.floats(-12.0, 12.0))
    return draw(st.sampled_from(SPECIAL_SCALES))


@st.composite
def expander_exports(draw):
    """expander or expander-base translator argv at a small mesh: n from 1
    to 4, alpha and each a_j drawn by _scale, and optionally --psi and
    --y-max (expander) or --t-max and --radius (translator)."""
    cmd = draw(st.sampled_from(("expander", "translator")))
    n = draw(st.integers(1, 4))
    a = [_scale(draw) for _ in range(n)]
    argv = [cmd, f"--alpha={_scale(draw)!r}", "--a=" + ",".join(map(repr, a)),
            "--mesh-samples=5", "--mesh-count=3", "--fd-checks=2"]
    if cmd == "expander":
        argv.append("--samples=5")
    if draw(st.booleans()):
        argv.append("--psi=" + ",".join(repr(draw(st.floats(-4.0, 4.0))) for _ in range(n)))
    for opt in (("y-max",) if cmd == "expander" else ("t-max", "radius")):
        if draw(st.booleans()):
            argv.append(f"--{opt}={10.0 ** draw(st.floats(-3.0, 3.0))!r}")
    return argv


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=expander_exports())
def test_expander_exports_exit_with_a_code_and_one_message(capsys, argv):
    # every draw exits 0, 2, 3 or 4; a non-zero exit ends in exactly one
    # lagsol: line besides warnings; an exit 2 or 3 writes no file, and an
    # exit 4 every file
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings():
        warnings.simplefilter("always")
        rc = main(argv + [f"--outdir={outdir}"])
        written = os.listdir(outdir)
    err = capsys.readouterr().err.splitlines()
    assert rc in (0, 2, 3, 4), (argv, err)
    assert all(line.startswith("lagsol: ") for line in err), (argv, err)
    if rc:
        errors = [line for line in err if not line.startswith("lagsol: warning: ")]
        assert len(errors) == 1, (argv, err)
    if rc in (2, 3):
        assert not written, (argv, err, written)
    if rc == 4:
        assert {f"{argv[0]}_{f}" for f in ("mesh.csv", "record.txt", "summary.txt")} \
            <= set(written), (argv, err, written)


@pytest.mark.parametrize("radius", ["1e10", "1e50", "1e100", "1e154"])
def test_a_singular_metric_fails_verification(tmp_path, capsys, radius):
    # points far out on the base ball have a metric that np.linalg.inv calls
    # singular; its inverse reads NaN, so verify fails instead of raising
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        rc = main(["translator", "--alpha=1", "--a=1,2", f"--radius={radius}",
                   f"--outdir={tmp_path}"])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith("lagsol: ") for line in err), err
    assert err[-1].startswith("lagsol: verification failed: ")


def test_a_numpy_warning_prints_as_one_lagsol_line(tmp_path, capsys):
    # never as a source path and line
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        rc = main(["translator", "--alpha=1", "--a=1,2", "--radius=1e300", f"--outdir={tmp_path}"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "lagsol: warning: overflow encountered in multiply",
        "lagsol: mesh point 0, at curve parameter -1.2, is not finite"]


# Each subcommand's options as (name, parsed type, default, required, flag),
# spelled out here so that regrouping the shared option groups in cli cannot
# add, drop or change an option unnoticed.
OPTION_TABLE = {
    "expander": {
        ("a", "tuple", None, True, False), ("alpha", "float", None, True, False),
        ("fd-checks", "int", 8, False, False), ("mesh-count", "int", 16, False, False),
        ("mesh-samples", "int", 25, False, False), ("outdir", "str", None, False, False),
        ("ply", "bool", False, False, True), ("prefix", "str", None, False, False),
        ("project3d", "bool", False, False, True), ("psi", "tuple", None, False, False),
        ("samples", "int", 200, False, False), ("seed", "int", 0, False, False),
        ("y-max", "float", 1.5, False, False)},
    "shrinker": {
        ("A", "float", None, True, False), ("alpha", "float", None, True, False),
        ("alphas", "tuple", None, True, False), ("fd-checks", "int", 8, False, False),
        ("mesh", "bool", False, False, True), ("mesh-count", "int", 16, False, False),
        ("mesh-samples", "int", 25, False, False), ("outdir", "str", None, False, False),
        ("ply", "bool", False, False, True), ("prefix", "str", None, False, False),
        ("project3d", "bool", False, False, True), ("psi", "tuple", None, False, False),
        ("qmax", "int", 64, False, False), ("rho-max", "float", 1.2, False, False),
        ("seed", "int", 0, False, False), ("tol", "float", None, False, False)},
    "periodic": {
        ("A", "float", None, True, False), ("alpha", "float", None, True, False),
        ("alphas", "tuple", None, True, False), ("fd-checks", "int", 8, False, False),
        ("lambdas", "tuple", None, True, False), ("mesh", "bool", False, False, True),
        ("mesh-count", "int", 16, False, False), ("mesh-samples", "int", 25, False, False),
        ("outdir", "str", None, False, False), ("ply", "bool", False, False, True),
        ("prefix", "str", None, False, False), ("project3d", "bool", False, False, True),
        ("psi", "tuple", None, False, False), ("qmax", "int", 64, False, False),
        ("rho-max", "float", 1.2, False, False), ("seed", "int", 0, False, False),
        ("tol", "float", None, False, False)},
    "periodic-search": {
        ("alpha", "float", None, True, False), ("gamma", "tuple", None, True, False),
        ("lambdas", "tuple", None, True, False), ("max-iter", "int", 60, False, False),
        ("outdir", "str", None, False, False), ("prefix", "str", None, False, False),
        ("qmax", "int", 64, False, False), ("tol", "float", 1e-08, False, False)},
    "translator": {
        ("A", "float", None, False, False), ("K-im", "float", None, False, False),
        ("K-re", "float", None, False, False), ("a", "tuple", None, False, False),
        ("alpha", "float", None, True, False), ("alphas", "tuple", None, False, False),
        ("fd-checks", "int", 8, False, False), ("lambdas", "tuple", None, False, False),
        ("mesh-count", "int", 16, False, False), ("mesh-samples", "int", 25, False, False),
        ("outdir", "str", None, False, False), ("ply", "bool", False, False, True),
        ("prefix", "str", None, False, False), ("project3d", "bool", False, False, True),
        ("psi", "tuple", None, False, False), ("radius", "float", 1.5, False, False),
        ("seed", "int", 0, False, False), ("t-max", "float", 1.2, False, False),
        ("t-min", "float", None, False, False)},
    "invert-angles": {
        ("alpha", "float", None, True, False), ("outdir", "str", None, False, False),
        ("prefix", "str", None, False, False), ("target", "tuple", None, True, False),
        ("tol", "float", 1e-10, False, False), ("write-report", "bool", False, False, True)},
    "verify": {
        ("fd-checks", "int", 8, False, False), ("mesh", "str", None, True, False),
        ("outdir", "str", None, False, False), ("prefix", "str", None, False, False),
        ("record", "str", None, True, False), ("residuals", "str", None, False, False)},
    "flow-family": {
        ("A", "float", None, True, False), ("alpha", "float", None, True, False),
        ("alphas", "tuple", None, True, False), ("lambdas", "tuple", None, True, False),
        ("mesh-count", "int", 16, False, False), ("mesh-samples", "int", 25, False, False),
        ("outdir", "str", None, False, False), ("prefix", "str", None, False, False),
        ("psi", "tuple", None, False, False), ("rho-max", "float", 1.2, False, False),
        ("seed", "int", 0, False, False), ("t", "tuple", None, True, False)},
}


def test_every_subcommand_keeps_its_options():
    table = {name: {(o.name, type(o.conv("1")).__name__, o.default, o.required, o.flag)
                    for o in opts}
             for name, opts, *_ in cli._SUBCOMMANDS}
    assert table == OPTION_TABLE


@pytest.mark.parametrize("argv", [
    ["expander", "--alpha=nan", "--a=1,2"],
    ["expander", "--alpha=inf", "--a=1,2"],
    ["expander", "--alpha=1", "--a=1,inf"],
    ["translator", "--alpha=nan", "--a=1"],
    ["invert-angles", "--alpha=1", "--target=nan,0.5"],
    ["invert-angles", "--alpha=inf", "--target=0.5,0.5"],
    ["shrinker", "--alphas=1,1.5", "--A=nan", "--alpha=-1"],
    ["shrinker", "--alphas=1,1.5", "--A=0.5", "--alpha=nan"],
    ["periodic", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=inf"],
    ["periodic", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5", "--mesh",
     "--rho-max=nan"],
    ["periodic-search", "--lambdas=1,-1", "--alpha=0.5", "--gamma=nan,1"],
    ["translator", "--alpha=1", "--a=1", "--K-re=nan"],
    ["translator", "--alpha=1", "--a=1", "--radius=inf"],
    ["flow-family", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5",
     "--t=-1,0,1", "--rho-max=nan"],
    ["flow-family", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5",
     "--t=-1,0,1", "--rho-max=inf"],
    ["invert-angles", "--alpha=1", "--target=0.4,0.6", "--tol=inf"],
    ["invert-angles", "--alpha=1", "--target=0.4,0.6", "--tol=nan"],
    ["periodic-search", "--lambdas=1,1,-1", "--alpha=-1.2666666666666666",
     "--gamma=-3.5075391617039733,-2.338359441135982,1.4030156646815894", "--tol=inf"],
    ["periodic-search", "--lambdas=1,1,-1", "--alpha=-1.2666666666666666",
     "--gamma=-3.5075391617039733,-2.338359441135982,1.4030156646815894", "--tol=nan"],
    ["periodic", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5", "--tol=nan"],
    ["flow-family", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5", "--t=nan"],
    ["flow-family", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5", "--t=inf"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_inputs_exit_2(tmp_path, capsys, argv):
    # main returns rather than raising, so no traceback reaches the user
    rc = main(argv + [f"--outdir={tmp_path}"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("lagsol:") and "must be finite" in err


@pytest.mark.parametrize("argv", [
    ["expander", "--alpha=1", "--a=1,2", "--y-max=1e-170"],
    ["translator", "--alpha=1", "--a=1", "--t-max=1e-170"],
], ids=lambda argv: " ".join(argv))
def test_heights_whose_square_underflows_exit_0(tmp_path, capsys, argv):
    # t^2 underflows to 0 below |t| ~ 1e-154; P^(-1/2) takes its t -> 0 limit
    assert main(argv + [f"--outdir={tmp_path}"]) == 0
    assert "verification: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv, cls", [
    (["expander", "--alpha=1", "--a=1,2", "--samples=5"], "ExpanderProfile"),
    (["periodic", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5", "--mesh"],
     "OrbitProfile"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_exports_read_the_curve_once_per_batch(tmp_path, capsys, argv, cls):
    """An export reads its curve once for the profile table (expanders), once
    for the mesh, once for verify's distinct parameters, and once for the
    sorted distinct stencil parameters of all its FD points, in that order."""
    from lagsol import expander, periodic
    owner = getattr(expander if cls == "ExpanderProfile" else periodic, cls)
    real, reads = owner.curve, []

    def spy(self, ts):
        reads.append(np.array(ts, dtype=float))
        return real(self, ts)

    with mock.patch.object(owner, "curve", spy):
        assert main(argv + ["--mesh-samples=4", "--mesh-count=3",
                            f"--outdir={tmp_path}"]) == 0
    mesh = fileio.read_mesh_csv(tmp_path / f"{argv[0]}_mesh.csv")
    params = np.unique(mesh.params)
    batches = [np.linspace(-1.5, 1.5, 5)] if cls == "ExpanderProfile" else []
    batches += [params, params]                         # the mesh and verify
    assert len(reads) == len(batches) + 1
    for got, want in zip(reads, batches):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    # the 8 FD points sit at the 4 mesh parameters: each centre t0 with
    # t0 +- h and t0 +- h/2 for its step h, sorted, each parameter once
    stencil = reads[-1]
    assert np.array_equal(stencil, np.unique(stencil)) and len(stencil) == 4 * 5
    centres = stencil[np.isin(stencil, params)]
    np.testing.assert_array_equal(centres, params)
    for k in np.searchsorted(stencil, centres):
        h = stencil[k + 2] - stencil[k]
        np.testing.assert_allclose(stencil[k - 2:k + 3] - stencil[k],
                                   [-h, -0.5 * h, 0.0, 0.5 * h, h], rtol=0, atol=1e-15)


def test_alpha_0_translator_export_computes_beta_once_per_parameter(tmp_path, capsys):
    """Over an alpha = 0 expander base, beta reads s from the base's arc
    cache, which integrates each distinct height |t| once, in two
    Gauss-Legendre batches: the 30 mesh parameters, then the 40 distinct
    stencil parameters of 8 FD points.  Every other read, verify's
    included, is a cache hit."""
    from lagsol import expander, translator
    gauss_panels, arcs, misses = expander.gauss_panels, [], []

    def counted(rates, lo, hi, what):
        if what == "arc parameter":
            arcs.append(np.asarray(hi))
        return gauss_panels(rates, lo, hi, what=what)

    def s_of_y(base, ys):
        held = base._arcs.ts
        out = expander.s_of_y(base, ys)
        if len(base._arcs.ts) != len(held):
            misses.append((np.unique(ys), held))
        return out

    with mock.patch.object(expander, "gauss_panels", side_effect=counted), \
            mock.patch.object(translator, "s_of_y", side_effect=s_of_y) as spy:
        assert main(["translator", "--alpha=0", "--a=1,2", "--mesh-samples=30",
                     "--mesh-count=20", f"--outdir={tmp_path}"]) == 0
    assert spy.call_count > 2 and len(misses) == len(arcs) == 2
    (mesh, _), (stencil, held) = misses
    assert len(mesh) == 30 and len(stencil) == 40
    for ys, hi, before in ((mesh, arcs[0], [0.0]), (stencil, arcs[1], held)):
        assert np.array_equal(np.sort(hi), np.setdiff1d(np.abs(ys), before))


def test_overflowing_search_step_exits_3(tmp_path, capsys):
    # trial steps overflow exp; the residual rejects them without numpy's
    # RuntimeWarning reaching stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["periodic-search", "--lambdas=1,-1", "--alpha=-0.5", "--gamma=1,-2",
                   f"--outdir={tmp_path}"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("lagsol:")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_near_stationary_job_warns_on_one_line(tmp_path, capsys):
    rc = main(["periodic", "--lambdas=1,-1", "--alphas=1,1", "--alpha=0",
               "--A=0.99999999999", f"--outdir={tmp_path}"])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"lagsol: warning: \(G\(0\) - A\^2\)/G\(0\) = \S+; turning points"
                        r" and period are ill-conditioned this close to the stationary case",
                        err[0])


def test_one_parser_serves_every_call(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("alpha = 1.0\ntarget = 0.4,0.4\n")
    out = f"--outdir={tmp_path}"
    runs = [
        ["expander", "--alpha=1", "--no-such-option"],
        ["invert-angles", "--config", str(cfg)],
        ["invert-angles", "--alpha=0.5", "--target=0.3,0.4"],
        ["periodic", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5", out],
        ["shrinker", "--alphas=1,1.5", "--A=0.5", "--alpha=-1", out],
    ]

    def outcome(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    cli._parser.cache_clear()
    shared = [outcome(argv) for argv in runs]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert [rc for rc, *_ in shared] == [2, 0, 0, 0, 0]
    assert shared == fresh
    # the benchmark's set-up probe builds its own parser
    assert cli.build_parser() is not cli._parser()
    assert cli.build_parser().parse_args(runs[2]).alpha == "0.5"


def test_importing_the_cli_builds_no_parser():
    code = "import lagsol.cli as c; print(c._parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert res.stdout.strip() == "0"


# run in a fresh interpreter: after building the parser, and after each main
# call, it appends [step, exit code, whether a scipy module is loaded] to the
# JSON file sys.argv[1]
SCIPY_PROBE = """\
import json, sys
import lagsol.cli as c
c.build_parser()
steps = []
for argv in [None] + json.loads(sys.argv[2]):
    rc = None if argv is None else c.main(argv)
    steps.append([argv and argv[0], rc,
                  any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)])
with open(sys.argv[1], "w") as fh:
    json.dump(steps, fh)
"""


def test_only_the_orbit_quadrature_loads_scipy(tmp_path):
    # quadutil defers scipy to the first read of quad or brentq: the
    # expander-side subcommands, and verify of an expander export, never load
    # it; a periodic orbit's period and holonomies are QUADPACK integrals
    runs = [["expander", "--alpha=1", "--a=1,2", f"--outdir={tmp_path}"],
            ["invert-angles", "--alpha=1", "--target=0.3,0.4"],
            ["translator", "--alpha=1", "--a=1,2", f"--outdir={tmp_path}"],
            ["verify", f"--mesh={tmp_path / 'expander_mesh.csv'}",
             f"--record={tmp_path / 'expander_record.txt'}"],
            ["periodic", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5",
             f"--outdir={tmp_path}"]]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    report = tmp_path / "steps.json"
    subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(report), json.dumps(runs)],
                   capture_output=True, env=env, check=True)
    assert json.loads(report.read_text()) == [
        [None, None, False], ["expander", 0, False], ["invert-angles", 0, False],
        ["translator", 0, False], ["verify", 0, False], ["periodic", 0, True]]


def test_invert_angles_round_trip(capsys):
    rc = main(["invert-angles", "--alpha", "1.0", "--target", "0.5,0.6"])
    assert rc == 0
    pairs = out_pairs(capsys.readouterr().out)
    achieved = [float(v) for v in pairs["achieved"].split(",")]
    np.testing.assert_allclose(achieved, [0.5, 0.6], atol=1e-9)
    assert float(pairs["residual"]) < 1e-9
    a = [float(v) for v in pairs["a"].split(",")]
    assert all(v > 0 for v in a)


@pytest.mark.parametrize("argv, codes", [
    # a Newton trial underflows exp(log a) to 0; it is damped away, not rejected
    (["invert-angles", "--alpha=0", "--target=1e-12,1.5707963267948954"], (0,)),
    # a Newton trial reaches a scale where the Jacobian overflows; it is damped away
    (["invert-angles", "--alpha=0", "--target=1e-13,1.5707963267948"], (0,)),
    # the seed solves for alpha / c, so it needs no bracket in c at extreme alpha,
    # and the angle map is integrated on its dilation orbit where alpha + sum(a) = 1
    (["invert-angles", "--alpha=1e-40", "--target=0.5,0.6"], (0,)),
    (["invert-angles", "--alpha=1e40", "--target=0.5,0.6"], (0,)),
    (["invert-angles", "--alpha=1e-60", "--target=0.5,0.6"], (0,)),
    (["invert-angles", "--alpha=1e60", "--target=0.5,0.6"], (0,)),
    (["invert-angles", "--alpha=1e-100", "--target=1e-6,0.3,0.9"], (0,)),
    (["invert-angles", "--alpha=1e100", "--target=1e-6,0.3,0.9"], (0,)),
    # angle-sum deficits of 2.2e-9 and 1.0e-9, just above the seed's old
    # extrapolation threshold of 1e-9, where its logit Newton cannot resolve them
    (["invert-angles", "--alpha=1",
      "--target=0.5235987748520584,0.5235987748520584,0.5235987748520584"], (0,)),
    (["invert-angles", "--alpha=1", "--target=0.3926990814487241,0.3926990814487241,"
      "0.3926990814487241,0.3926990814487241"], (0,)),
    # the power-law seed of a tiny target scales a_j below the smallest normal
    # double, so Newton starts at an infeasible point and fails with exit 3
    (["invert-angles", "--alpha=1", "--target=1e-308,0.5"], (3,)),
    (["invert-angles", "--alpha=1e300", "--target=5e-324,0.5"], (3,)),
    (["invert-angles", "--alpha=1", "--target=1e-310,1e-310,0.5"], (3,)),
    (["invert-angles", "--alpha=1e-300", "--target=1e-200,0.5"], (3,)),
    (["invert-angles", "--alpha=5.65846300934958e-169",
      "--target=3.348133429478251e-166,1.1479627917102038"], (3,)),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_admissible_targets_exit_0_or_3(capsys, argv, codes):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc in codes, err
    if rc == 0:
        assert float(out_pairs(out)["residual"]) <= 1e-10
    else:
        assert len(err.splitlines()) == 1 and err.startswith("lagsol:")


@pytest.mark.parametrize("target", [
    (0.6, math.pi / 2 - 0.6 + 5e-9),
    (0.4, 0.5, math.pi / 2 - 0.9 - 5e-9),
], ids=["n2 above", "n3 below"])
def test_minimal_targets_off_pi_over_2_converge_to_the_sum_defect(capsys, target):
    """At alpha = 0 the angles sum to pi/2, so Newton fixes all but the last
    angle and sum(a) = 1: a target sum inside the 1e-8 window converges, and
    the residual is the sum defect, carried by the last angle."""
    rc = main(["invert-angles", "--alpha=0", "--target=" + ",".join(map(repr, target))])
    out, err = capsys.readouterr()
    assert rc == 0, err
    defect = abs(sum(target) - math.pi / 2)
    assert 4e-9 < defect < 6e-9
    assert abs(float(out_pairs(out)["residual"]) - defect) <= 1e-10


LOG10_TINY = math.log10(5e-324)


@st.composite
def admissible_inversions(draw):
    """invert-angles argv: n from 1 to 4, alpha 0 or 10^U[-300, 300], and
    targets whose sum is admissible (pi/2 at alpha = 0, below it otherwise),
    each drawn either as a share of that sum or log-uniform from 5e-324 up to
    its share."""
    n = draw(st.integers(1, 4))
    alpha = 0.0 if draw(st.booleans()) else 10.0 ** draw(st.floats(-300.0, 300.0))
    total = 0.5 * math.pi * (1.0 if alpha == 0.0 else draw(st.floats(0.01, 0.99)))
    shares = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
    target = [total * w / sum(shares) for w in shares]
    for j in range(n - 1 if alpha == 0.0 else n):
        if draw(st.booleans()):
            target[j] = max(5e-324, 10.0 ** draw(st.floats(LOG10_TINY, math.log10(target[j]))))
    if alpha == 0.0:    # the last angle takes up the sum
        target[-1] = 0.5 * math.pi - sum(target[:-1])
    return ["invert-angles", f"--alpha={alpha!r}", "--target=" + ",".join(map(repr, target))]


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=admissible_inversions())
def test_invert_angles_exits_0_2_or_3_with_one_message(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 2, 3), (argv, err)
    if rc:
        assert len(err.splitlines()) == 1 and err.startswith("lagsol:"), (argv, err)


def test_invert_angles_rejects_unattainable_target(capsys):
    # the angle sum is capped by pi/2, so 0.9 + 0.9 is out of range
    rc = main(["invert-angles", "--alpha", "1.0", "--target", "0.9,0.9"])
    assert rc == 2
    assert "lagsol:" in capsys.readouterr().err


def test_outdir_env_variable(tmp_path, monkeypatch, capsys):
    envdir = tmp_path / "from_env"
    monkeypatch.setenv("LAGSOL_OUTDIR", str(envdir))
    rc = main(["invert-angles", "--alpha", "1.0", "--target", "0.3,0.4",
               "--write-report"])
    assert rc == 0
    assert (envdir / "invert_angles_report.txt").is_file()
    # an explicit --outdir must win over the environment
    rc = main(["invert-angles", "--alpha", "1.0", "--target", "0.3,0.4",
               "--write-report", "--outdir", str(tmp_path / "explicit")])
    assert rc == 0
    assert (tmp_path / "explicit" / "invert_angles_report.txt").is_file()


def test_periodic_quasi_periodic_report(tmp_path, capsys):
    rc = main(["periodic", "--lambdas", "1,-1", "--alphas", "1,3",
               "--A", "0.8", "--alpha", "0.6", "--outdir", str(tmp_path)])
    assert rc == 0
    pairs = out_pairs(capsys.readouterr().out)
    assert pairs["periodic"] == "false"
    assert "r" not in pairs
    # theta is strictly increasing along the orbit when alpha > 0
    assert float(pairs["gamma_sum"]) > 0
    assert float(pairs["u1"]) < 0 < float(pairs["u2"])
    assert (tmp_path / "periodic_orbit.csv").is_file()


def test_periodic_stationary_with_mesh(tmp_path, capsys):
    rc = main(["periodic", "--lambdas", "1,-1", "--alphas", "1,1",
               "--A", "1.0", "--alpha", "0", "--mesh",
               "--mesh-samples", "7", "--mesh-count", "6", "--fd-checks", "2",
               "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    pairs = out_pairs(out)
    assert pairs["case"] == "hamiltonian_stationary"
    assert pairs["periodic"] == "true"
    assert pairs["r"] == "1"
    assert pairs["p"] == "-1,1"
    assert float(pairs["T"]) == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert pairs["topology"] == "S1 x S0 x R1"
    assert "verification: PASS" in out
    for suffix in ("orbit.csv", "mesh.csv", "record.txt", "summary.txt"):
        assert (tmp_path / f"periodic_{suffix}").is_file()


def test_shrinker_compact_orbit(tmp_path, capsys):
    rc = main(["shrinker", "--alphas", "1,1", "--A", "0.7", "--alpha", "-1",
               "--outdir", str(tmp_path)])
    assert rc == 0
    pairs = out_pairs(capsys.readouterr().out)
    assert float(pairs["gamma_sum"]) < 0
    assert (tmp_path / "shrinker_orbit.csv").is_file()


def test_periodic_search_hits_engineered_target(tmp_path, capsys):
    target = f"--gamma={-math.pi!r},{math.pi!r}"
    rc = main(["periodic-search", "--lambdas", "1,-1", "--alpha", "0",
               target, "--outdir", str(tmp_path)])
    assert rc == 0
    pairs = out_pairs(capsys.readouterr().out)
    assert float(pairs["residual"]) < 1e-8
    assert pairs["periodic"] == "true"
    assert pairs["r"] == "2"
    assert pairs["p"] == "-1,1"
    assert (tmp_path / "periodic_search_search.txt").is_file()
    assert (tmp_path / "periodic_search_orbit.csv").is_file()


def test_periodic_search_unattainable_exits_3(capsys):
    # alpha > 0 forces a positive holonomy sum; this target sums to -0.3
    rc = main(["periodic-search", "--lambdas", "1,-1", "--alpha", "1.0",
               "--gamma=-3.5,3.2", "--max-iter", "12"])
    assert rc == 3
    assert "lagsol:" in capsys.readouterr().err


def test_translator_expander_base(tmp_path, capsys):
    rc = main(["translator", "--alpha", "1.2", "--a", "1,2",
               "--t-max", "0.8", "--mesh-samples", "7", "--mesh-count", "6",
               "--fd-checks", "2", "--outdir", str(tmp_path)])
    assert rc == 0
    assert "verification: PASS" in capsys.readouterr().out
    for suffix in ("mesh.csv", "record.txt", "summary.txt"):
        assert (tmp_path / f"translator_{suffix}").is_file()
    summary = fileio.read_keyvalues(tmp_path / "translator_summary.txt")
    assert summary["passed"] == "true"
    assert summary["oscillating_base"] == "false"
    assert float(summary["maslov_constant"]) == 0.0
    expected = -math.pi / (2.0 * 1.2)
    assert float(summary["anchor_expected_im"]) == pytest.approx(expected)
    assert float(summary["anchor_im"]) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("base", [
    ["--a", "1,2"],
    ["--lambdas", "1,-1", "--alphas", "1,2", "--A", "0.4"],
], ids=["expander_base", "orbit_base"])
def test_translator_alpha_zero_passes(tmp_path, capsys, base):
    """For alpha = 0 theta is constant: the Maslov reference is its value at
    the base point, not alpha Im K = 0."""
    rc = main(["translator", "--alpha", "0", *base, "--mesh-samples", "5",
               "--mesh-count", "4", "--fd-checks", "2", "--outdir", str(tmp_path)])
    assert rc == 0
    assert "verification: PASS" in capsys.readouterr().out
    summary = fileio.read_keyvalues(tmp_path / "translator_summary.txt")
    assert float(summary["max_maslov"]) < 1e-14
    record = fileio.read_profile_record(tmp_path / "translator_record.txt")
    base_theta = record.base.theta_of(0.0)
    assert float(summary["maslov_constant"]) == base_theta
    if base[0] == "--a":
        assert base_theta == pytest.approx(math.pi / 2, abs=1e-14)
    else:
        assert base_theta == pytest.approx(-0.2699327958334, abs=1e-12)


def test_translator_orbit_base(tmp_path, capsys):
    rc = main(["translator", "--alpha", "0.7", "--lambdas", "1,-1",
               "--alphas", "1,3", "--A", "0.5", "--t-max", "0.6",
               "--mesh-samples", "6", "--mesh-count", "5", "--fd-checks", "2",
               "--outdir", str(tmp_path)])
    assert rc == 0
    summary = fileio.read_keyvalues(tmp_path / "translator_summary.txt")
    assert summary["passed"] == "true"
    assert summary["oscillating_base"] == "true"


def test_translator_stationary_base(tmp_path, capsys):
    """A stationary base is an OrbitProfile that does not oscillate: the
    summary says so, and the record keeps its stationary kind."""
    rc = main(["translator", "--alpha", "0", "--lambdas", "1,-1", "--alphas", "1,1",
               "--A", "1", "--mesh-samples", "5", "--mesh-count", "4", "--fd-checks", "2",
               "--outdir", str(tmp_path)])
    assert rc == 0
    summary = fileio.read_keyvalues(tmp_path / "translator_summary.txt")
    assert summary["passed"] == "true"
    assert summary["oscillating_base"] == "false"
    assert fileio.read_keyvalues(tmp_path / "translator_record.txt")["base_kind"] == "stationary"
    record = fileio.read_profile_record(tmp_path / "translator_record.txt")
    assert type(record.base).__name__ == "HamiltonianStationaryProfile"
    assert not record.oscillates


def test_translator_without_base_exits_2(capsys):
    rc = main(["translator", "--alpha", "1.0"])
    assert rc == 2
    assert "specify the base" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["periodic", "--lambdas=1,-1,1", "--alphas=1,1,1", "--A=0.4", "--alpha=0.5"],
     "each lambda must be +1 or -1, positives first"),
    (["periodic", "--lambdas=1,0", "--alphas=1,1", "--A=0.4", "--alpha=0.5"],
     "each lambda must be +1 or -1, positives first, with C = 1"),
    (["periodic-search", "--lambdas=2,-1", "--alpha=0", "--gamma=-1,1"],
     "each lambda must be +1 or -1, positives first, with C = 1"),
    (["periodic", "--lambdas=1,-1", "--alphas=1,1e12", "--A=0.4", "--alpha=0.5"],
     "re-basing A to the critical point u_* = 1e+12 underflows"),
    # dlog G stays >= 0 up to u = 1e200
    (["shrinker", "--alphas=1,1.5", "--A=0.5", "--alpha=-1e-300"],
     "critical point bracket ran away"),
    # u_* lies within an ulp of the lower band edge, so the walk reaches it
    (["shrinker", "--alphas=1,1.5", "--A=0.5", "--alpha=-1e17"],
     "could not bracket the critical point from below"),
    (["shrinker", "--alphas=1,1.5", "--A=0.5", "--alpha=-1e300"],
     "could not bracket the critical point from below"),
    (["invert-angles", "--alpha=1", "--target=0.4,0.6", "--tol=0"], "--tol must be positive"),
    (["expander", "--alpha=1", "--a=1,2", "--y-max=-1"], "--y-max must be positive"),
    (["translator", "--lambdas=1,-1", "--alphas=1,2", "--alpha=0.5"],
     "an orbit base needs --lambdas, --alphas and --A together"),
    (["expander", "--alpha=1", "--a=,"], "--a: expected a comma-separated list of numbers"),
    (["invert-angles", "--alpha=0", "--target=1.0"],
     "the one-dimensional minimal profile has angle pi/2"),
    (["expander", "--alpha=foo", "--a=1,2"], "--alpha: expected a number, got 'foo'"),
    (["expander", "--alpha=1", "--a=1,2", "--mesh-samples=abc"],
     "--mesh-samples: expected an integer, got 'abc'"),
    (["expander", "--alpha=1", "--a=1,2", "--fd-checks=0.5"],
     "--fd-checks: expected an integer, got '0.5'"),
    (["periodic-search", "--lambdas=1,-1", "--alpha=0", "--gamma=-1,1", "--max-iter=1.5"],
     "--max-iter: expected an integer, got '1.5'"),
    # a subnormal a_j, or a_j / (alpha + sum(a)), is rejected before the angle map
    (["expander", "--alpha=0", "--a=1e-320,1"],
     "every a_j and a_j / (alpha + sum(a)) must be a normal double"),
    (["expander", "--alpha=1", "--a=1e-310,1"],
     "every a_j and a_j / (alpha + sum(a)) must be a normal double"),
], ids=["unsorted lambdas", "zero lambda", "search magnitude", "rebase underflow",
        "critical point runaway", "critical point at an edge ulp", "critical point at 1e300",
        "zero tol", "negative y-max", "orbit base without A", "empty list",
        "minimal profile angle", "float option", "int option", "int option given a float",
        "search int option", "subnormal a", "subnormal a at alpha 1"])
def test_validation_messages_name_the_cause(tmp_path, capsys, argv, message):
    assert main(argv + [f"--outdir={tmp_path}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lagsol: ") and message in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["periodic", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5", "--mesh"],
    ["translator", "--alpha=0.5", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4"],
], ids=lambda argv: argv[0])
def test_verify_reproduces_the_export_summary(tmp_path, capsys, argv):
    """verify rebuilds the exported profile itself, so it recomputes every
    residual maximum of the export's own verification bit for bit."""
    name = argv[0]
    assert main(argv + ["--mesh-samples=4", "--mesh-count=3", f"--outdir={tmp_path}"]) == 0
    capsys.readouterr()
    assert main(["verify", f"--mesh={tmp_path / (name + '_mesh.csv')}",
                 f"--record={tmp_path / (name + '_record.txt')}"]) == 0
    printed = out_pairs(capsys.readouterr().out)
    summary = fileio.read_keyvalues(tmp_path / f"{name}_summary.txt")
    assert printed == {k: summary[k] for k in printed}


def test_verify_round_trip_with_residuals(tmp_path, capsys):
    assert run_expander(tmp_path) == 0
    capsys.readouterr()
    res = tmp_path / "residuals.csv"
    rc = main(["verify", "--mesh", str(tmp_path / "expander_mesh.csv"),
               "--record", str(tmp_path / "expander_record.txt"),
               "--fd-checks", "2", "--residuals", str(res)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verification: PASS" in out
    assert out_pairs(out)["passed"] == "true"
    assert res.is_file()
    assert res.read_text().splitlines()[0].startswith("point_id,")


def test_verify_detects_tampered_angle(tmp_path, capsys):
    assert run_expander(tmp_path) == 0
    capsys.readouterr()
    mesh_path = tmp_path / "expander_mesh.csv"
    lines = mesh_path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-3)
    lines[3] = ",".join(fields)
    mesh_path.write_text("\n".join(lines) + "\n")

    rc = main(["verify", "--mesh", str(mesh_path),
               "--record", str(tmp_path / "expander_record.txt"),
               "--fd-checks", "2"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "verification: FAIL" in captured.out
    assert "stored_angle residual" in captured.out
    assert "verification failed: stored_angle" in captured.err


def test_verify_detects_tampered_point(tmp_path, capsys):
    assert run_expander(tmp_path) == 0
    capsys.readouterr()
    mesh_path = tmp_path / "expander_mesh.csv"
    lines = mesh_path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[0] = repr(float(fields[0]) * 1.001 + 1e-4)
    lines[5] = ",".join(fields)
    mesh_path.write_text("\n".join(lines) + "\n")

    rc = main(["verify", "--mesh", str(mesh_path),
               "--record", str(tmp_path / "expander_record.txt"),
               "--fd-checks", "2"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "verification: FAIL" in captured.out
    assert "exceeds" in captured.err


def test_verify_fails_on_a_nan_point(tmp_path, capsys):
    assert run_expander(tmp_path) == 0
    capsys.readouterr()
    mesh_path = tmp_path / "expander_mesh.csv"
    lines = mesh_path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[0] = "nan"
    lines[5] = ",".join(fields)
    mesh_path.write_text("\n".join(lines) + "\n")

    rc = main(["verify", "--mesh", str(mesh_path),
               "--record", str(tmp_path / "expander_record.txt"),
               "--fd-checks", "2"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "verification: FAIL" in captured.out
    assert "reconstruction residual nan" in captured.out


_PERIODIC_MESH = ["periodic", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5",
                  "--mesh"]
_TRANSLATOR = ["translator", "--alpha=0.5", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4"]


def _replace_field(text, line, value):
    lines = text.splitlines()
    lines[line] = ",".join([value] + lines[line].split(",")[1:])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv, name, corrupt, message", [
    (_PERIODIC_MESH, "mesh.csv", lambda text: "", "empty file"),
    (_PERIODIC_MESH, "mesh.csv", lambda text: text.splitlines(True)[0], "no rows"),
    (_PERIODIC_MESH, "mesh.csv", lambda text: _replace_field(text, 2, "abc"),
     "line 3 has a non-numeric field"),
    (_PERIODIC_MESH, "record.txt",
     lambda text: re.sub(r"^alphas = .*$", "alphas = 1,x", text, flags=re.M),
     "'alphas = 1,x' is not a list of numbers"),
    (_TRANSLATOR, "record.txt",
     lambda text: text.replace("base_kind = orbit", "base_kind = translator"),
     "'base_kind = translator'"),
    (_PERIODIC_MESH, "record.txt",
     lambda text: re.sub(r"^alpha = .*\n", "", text, flags=re.M),
     "profile record is missing 'alpha'"),
    (_PERIODIC_MESH, "record.txt",
     lambda text: re.sub(r"^A = .*$", "A = 0.4,0.5", text, flags=re.M),
     "'A' must hold one number"),
], ids=["empty mesh", "header-only mesh", "non-numeric mesh field",
        "non-numeric record value", "translator base", "record key missing",
        "two numbers in a record key"])
def test_verify_rejects_malformed_files(tmp_path, capsys, argv, name, corrupt, message):
    prefix = argv[0]
    assert main(argv + ["--mesh-samples=4", "--mesh-count=3", f"--outdir={tmp_path}"]) == 0
    capsys.readouterr()
    bad = tmp_path / f"{prefix}_{name}"
    bad.write_text(corrupt(bad.read_text()))
    rc = main(["verify", f"--mesh={tmp_path / (prefix + '_mesh.csv')}",
               f"--record={tmp_path / (prefix + '_record.txt')}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lagsol: {bad}: ") and message in err


def test_verify_rejects_a_mesh_of_another_dimension(tmp_path, capsys):
    assert main(_PERIODIC_MESH + ["--mesh-samples=4", "--mesh-count=3",
                                  f"--outdir={tmp_path}"]) == 0
    capsys.readouterr()
    record = tmp_path / "other_record.txt"
    record.write_text("kind = expander\nalpha = 1.0\na = 1.0,2.0,3.0\npsi = 0.0,0.0,0.0\n")
    rc = main(["verify", f"--mesh={tmp_path / 'periodic_mesh.csv'}", f"--record={record}"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "lagsol: mesh has 2 complex coordinates but the profile needs 3"]


def test_verify_of_a_record_whose_A_exceeds_sqrt_Q0_exits_2(tmp_path, capsys):
    # the orbit's base state admits |A| <= sqrt(Q(0)) only
    assert main(_PERIODIC_MESH + ["--mesh-samples=4", "--mesh-count=3",
                                  f"--outdir={tmp_path}"]) == 0
    capsys.readouterr()
    record = tmp_path / "periodic_record.txt"
    record.write_text(re.sub(r"^A = .*$", "A = 5.0", record.read_text(), flags=re.M))
    rc = main(["verify", f"--mesh={tmp_path / 'periodic_mesh.csv'}", f"--record={record}"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "lagsol: |A| = 5 exceeds sqrt(Q(0)) = 1.41421"]


@pytest.mark.parametrize("argv, old", [
    (["expander", "--alpha=1", "--a=1,2"], lambda text: text + "u_star = 0.0\n"),
    (["translator", "--alpha=1", "--a=1"],
     lambda text: text.replace("K_re = 0.0", "K_re = -0.0") + "base_u_star = 0.0\n"),
], ids=["expander", "translator"])
def test_verify_reads_a_record_that_still_holds_u_star(tmp_path, capsys, argv, old):
    """Records used to carry the turning value u_star, always 0.0, and an
    expander-base translator's default K_re was -0.0; such a record still
    verifies its mesh."""
    name = argv[0]
    assert main(argv + ["--mesh-samples=4", "--mesh-count=3", f"--outdir={tmp_path}"]) == 0
    capsys.readouterr()
    record = tmp_path / f"{name}_record.txt"
    text = record.read_text()
    record.write_text(old(text))
    assert record.read_text() != text
    assert main(["verify", f"--mesh={tmp_path / (name + '_mesh.csv')}",
                 f"--record={record}"]) == 0
    assert "verification: PASS" in capsys.readouterr().out


def test_periodic_tol_reaches_the_verdict(tmp_path, capsys):
    argv = ["periodic", *ORBIT, f"--outdir={tmp_path}"]
    assert main(argv) == 0
    assert out_pairs(capsys.readouterr().out)["periodic"] == "false"
    assert main(argv + ["--tol=1e-2"]) == 0
    pairs = out_pairs(capsys.readouterr().out)
    assert (pairs["periodic"], pairs["r"], pairs["p"]) == ("true", "56", "-25,30")


def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("# inversion job\nalpha = 1.0\ntarget = 0.4,0.4\n")
    rc = main(["invert-angles", "--config", str(cfg)])
    assert rc == 0
    pairs = out_pairs(capsys.readouterr().out)
    assert pairs["target"] == "0.4,0.4"


def test_explicit_flag_wins_over_config(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("alpha = 1.0\ntarget = 0.4,0.4\n")
    rc = main(["invert-angles", "--config", str(cfg), "--target", "0.3,0.3"])
    assert rc == 0
    pairs = out_pairs(capsys.readouterr().out)
    assert pairs["target"] == "0.3,0.3"
    achieved = [float(v) for v in pairs["achieved"].split(",")]
    np.testing.assert_allclose(achieved, [0.3, 0.3], atol=1e-9)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("alpha = 1.0\ntarget = 0.4,0.4\nbogus = 7\n")
    rc = main(["invert-angles", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config key 'bogus'" in capsys.readouterr().err


def test_a_config_boolean_that_is_neither_exits_2(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("alpha = 1.0\ntarget = 0.4,0.4\nwrite_report = maybe\n")
    assert main(["invert-angles", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"lagsol: {cfg}: write-report: expected a boolean, got 'maybe'"]


@pytest.mark.parametrize("argv, entry, message", [
    (["expander", "--alpha=1", "--a=1,2"], "mesh-samples = 1", "mesh-samples must be at least 2"),
    (["expander", "--alpha=1", "--a=1,2"], "seed = -1", "seed must be non-negative"),
    (["invert-angles", "--alpha=1", "--target=0.4,0.6"], "tol = inf",
     "tol must be finite, got inf"),
    (["invert-angles", "--alpha=1", "--target=0.4,0.6"], "tol = 0", "tol must be positive"),
], ids=["count", "seed", "non-finite", "non-positive"])
def test_a_config_value_out_of_bounds_names_the_file(tmp_path, capsys, argv, entry, message):
    # as a conversion error from the file does; no flag was passed to blame
    cfg = tmp_path / "job.cfg"
    cfg.write_text(entry + "\n")
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), f"--outdir={out}"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"lagsol: {cfg}: {message}"]
    assert not out.exists()


def test_flow_family_slices(tmp_path, capsys):
    rc = main(["flow-family", "--lambdas", "1,-1", "--alphas", "1,3",
               "--A", "0.8", "--alpha", "0.6", "--t=-1,0,1",
               "--mesh-samples", "6", "--mesh-count", "5",
               "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    for i in range(3):
        assert (tmp_path / f"flow_family_slice{i}.csv").is_file()
    family = fileio.read_keyvalues(tmp_path / "flow_family_family.txt")
    assert family["singular_0"] == "false"
    assert family["singular_1"] == "true"
    assert family["singular_2"] == "false"
    assert family["topology_2"] == "S1 x S0 x R1"
    assert "cone" in family["topology_1"]
    assert "singular at the origin" in out


def test_flow_family_checks_every_time_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["flow-family", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5",
               "--t=1,inf", "--mesh-samples=4", "--mesh-count=3", f"--outdir={out}"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == ["lagsol: t must be finite, got inf"]
    assert list(out.iterdir()) == []


def test_flow_family_rejects_compact_case(tmp_path, capsys):
    compact = ["flow-family", "--lambdas", "1,1", "--alphas", "1,1", "--A", "0.7",
               "--alpha", "-1", f"--outdir={tmp_path}"]
    assert main(compact + ["--t", "0,1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "lagsol: the eternal flow family needs mixed signs (1 <= m < n)"]
    assert list(tmp_path.iterdir()) == []
    # a non-finite time is reported first, wherever it stands in --t
    assert main(compact + ["--t", "0,inf"]) == 2
    assert capsys.readouterr().err.splitlines() == ["lagsol: t must be finite, got inf"]


def test_reruns_are_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert run_expander(d1) == 0
    assert run_expander(d2) == 0
    for suffix in ("profile.csv", "planes.csv", "mesh.csv", "record.txt",
                   "summary.txt"):
        b1 = (d1 / f"expander_{suffix}").read_bytes()
        b2 = (d2 / f"expander_{suffix}").read_bytes()
        assert b1 == b2, suffix


ORBIT_EXPORTS = {
    "periodic": ["periodic", "--lambdas", "1,-1", "--alphas", "1,3", "--A", "0.5",
                 "--alpha", "0.6", "--mesh", "--mesh-samples", "7",
                 "--mesh-count", "4", "--fd-checks", "3"],
    "translator": ["translator", "--alpha", "0.7", "--lambdas", "1,-1",
                   "--alphas", "1,3", "--A", "0.5", "--t-max", "0.6",
                   "--mesh-samples", "6", "--mesh-count", "5", "--fd-checks", "2"],
}


@pytest.mark.parametrize("cmd", sorted(ORBIT_EXPORTS))
def test_orbit_reruns_are_byte_identical(tmp_path, capsys, cmd):
    # orbit states depend on the order their cache was filled in
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(ORBIT_EXPORTS[cmd] + ["--outdir", str(d1)]) == 0
    assert main(ORBIT_EXPORTS[cmd] + ["--outdir", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert f"{cmd}_mesh.csv" in names
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def _traceback_case(argv, exc, where):
    return pytest.param(argv, marks=pytest.mark.xfail(
        strict=True, raises=exc, reason=f"{where} (ROADMAP item 6); perfbench pins a job"
        " that raises, so the fix waits for the benchmark change of item 1"))


@pytest.mark.parametrize("argv", [
    _traceback_case(["periodic", *ORBIT[:3], "--alpha=1e300"], ZeroDivisionError,
                    "critical_point's upper walk divides by zero"),
    _traceback_case(["periodic-search", "--lambdas=1,-1", "--alpha=1.0", "--gamma=-2,1.5"],
                    ZeroDivisionError, "critical_point's upper walk divides by zero"),
    _traceback_case(["periodic-search", "--lambdas=1,-1", "--alpha=0.5",
                     "--gamma=-3.9269908169872414,1.8849555921538759"],
                    ZeroDivisionError, "critical_point's upper walk divides by zero"),
    _traceback_case(["expander", "--alpha=1", "--a=1,foo"], ValueError,
                    "option conversion raises on a malformed number"),
], ids=lambda argv: " ".join(argv))
def test_known_tracebacks_exit_with_one_message(tmp_path, capsys, argv):
    rc = main(argv + [f"--outdir={tmp_path}"])
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("lagsol:")]
    assert rc in (2, 3)
    assert len(err) == 1, err


def test_a_minimal_target_angle_below_the_tolerance_is_reached_relatively(capsys):
    target = (1e-12, 1.5707963267948954)
    assert main(["invert-angles", "--alpha=0", "--target=" + ",".join(map(repr, target))]) == 0
    achieved = [float(v) for v in out_pairs(capsys.readouterr().out)["achieved"].split(",")]
    assert all(abs(got - t) <= 0.01 * t for got, t in zip(achieved, target)), achieved


@pytest.mark.parametrize("target", [(1e-12, 0.3), (1e-18, 0.5), (1e-11, 0.2, 0.4)])
def test_an_expanding_target_angle_below_the_tolerance_is_reached_relatively(capsys, target):
    # each angle is solved to tol min(1, |t_j| / 1e-6); the absolute 1e-10
    # stopped (1e-12, 0.3) at 9.66e-11
    assert main(["invert-angles", "--alpha=1", "--target=" + ",".join(map(repr, target))]) == 0
    achieved = [float(v) for v in out_pairs(capsys.readouterr().out)["achieved"].split(",")]
    assert all(abs(got - t) <= 1e-4 * t for got, t in zip(achieved, target)), achieved


@pytest.mark.parametrize("alpha, target", [
    ("1", (1e-30, 0.5)), ("1", (1e-24, 0.3, 0.4)), ("1", (1e-300, 0.5)),
    ("5", (1e-200, 1e-100, 0.5)), ("0", (1e-30, 1.570796326794896)),
    ("0", (1e-24, 0.5, 1.0707963267948966))])
def test_a_target_angle_near_the_zero_face_is_reached(capsys, alpha, target):
    # Newton in log a on phibar_j - t_j shrank phibar_j by about e per step,
    # so these ran out of iterations or of damping
    argv = ["invert-angles", f"--alpha={alpha}", "--target=" + ",".join(map(repr, target))]
    assert main(argv) == 0
    achieved = [float(v) for v in out_pairs(capsys.readouterr().out)["achieved"].split(",")]
    assert all(abs(got - t) <= 1e-4 * t for got, t in zip(achieved, target)), achieved


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 13: the mesh reaches heights where the FD soliton check has no"
    " finite value, so the export writes every file and then exits 4"))
def test_an_expander_of_huge_base_radius_verifies_or_writes_nothing(tmp_path, capsys):
    rc = main(["expander", "--alpha=1", "--a=1e-300,1", f"--outdir={tmp_path}"])
    out = capsys.readouterr().out
    assert ((rc == 0 and "verification: PASS" in out)
            or (rc == 2 and not list(tmp_path.iterdir()))), (rc, out)
