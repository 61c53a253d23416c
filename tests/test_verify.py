"""The mesh verifier fails closed on non-finite residuals, and its single
whole-array pass reports what a loop over single points reports."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from unittest import mock

from lagsol import verify as V
from lagsol.cli import main
from lagsol.expander import ExpanderProfile, s_of_y
from lagsol.geometry import centred_fd_mean_curvature, centred_frame
from lagsol.meshing import centred_mesh, translator_mesh
from lagsol.params import SolitonParams
from lagsol.periodic import PeriodicSpec, compute_orbit
from lagsol.reduced_ode import states
from lagsol.translator import TranslatorProfile, translator_fd_mean_curvature
from lagsol.verify import _fd_subset, _worst, verify_mesh
from oracles import stationary_spec


def _with_nan_point(mesh, i):
    points = mesh.points.copy()
    points[i, 0] = complex(math.nan, points[i, 0].imag)
    return dataclasses.replace(mesh, points=points)


def test_centred_mesh_with_a_nan_point_fails():
    spec = PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.6), (1.0, 3.0), 0.5)
    for prof in (ExpanderProfile(1.0, (1.0, 2.0)), compute_orbit(spec).profile()):
        mesh = centred_mesh(prof, np.linspace(0.0, 1.0, 4), 3)
        assert verify_mesh(prof, mesh).passed
        report = verify_mesh(prof, _with_nan_point(mesh, 5))
        assert not report.passed
        assert math.isnan(report.maxima["reconstruction"])
        assert "reconstruction residual nan exceeds" in report.failures[0]
        assert "at point 5" in report.failures[0]


def test_translator_mesh_with_a_nan_point_fails():
    prof = TranslatorProfile.from_expander_base(1.2, (1.0, 2.0))
    mesh = translator_mesh(prof, np.linspace(-0.5, 0.5, 3), 3)
    assert verify_mesh(prof, mesh).passed
    report = verify_mesh(prof, _with_nan_point(mesh, 4))
    assert not report.passed
    assert any("at point 4" in f for f in report.failures)


def test_a_nan_residual_stays_the_worst():
    # later finite residuals, however large, do not displace the first NaN
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    mesh = centred_mesh(prof, np.linspace(0.0, 1.0, 4), 3)
    bad = _with_nan_point(_with_nan_point(mesh, 2), 7)
    points = bad.points.copy()
    points[9] *= 1.5
    report = verify_mesh(prof, dataclasses.replace(bad, points=points))
    failure = next(f for f in report.failures if f.startswith("reconstruction"))
    assert "nan" in failure and "at point 2" in failure


def test_the_worst_residual_is_the_first_nan_then_the_first_maximum():
    at = np.array([10, 11, 12, 13, 14])
    value, i = _worst(np.array([1.0, math.nan, 5.0, math.nan, 5.0]), at)
    assert math.isnan(value) and i == 11
    assert _worst(np.array([1.0, 5.0, 2.0, 5.0, 0.0]), at) == (5.0, 11)
    value, i = _worst(np.zeros(5), at)
    assert value == 0.0 and type(value) is float
    assert _worst(np.empty(0), np.empty(0, dtype=int)) == (0.0, -1)


def test_an_invariant_that_checks_no_point_reports_zero():
    # no FD point, then no framed point: the unchecked invariants read 0.0 and pass
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    mesh = centred_mesh(prof, np.linspace(0.0, 1.0, 3), 3)
    report = verify_mesh(prof, mesh, fd_checks=0)
    assert report.passed and report.maxima["soliton"] == 0.0
    for i in range(len(mesh)):
        mesh = _with_nan_point(mesh, i)
    report = verify_mesh(prof, mesh, collect_rows=True)
    assert {k: report.maxima[k] for k in ("lagrangian", "angle", "soliton")} == dict.fromkeys(
        ("lagrangian", "angle", "soliton"), 0.0)
    assert [f.split()[0] for f in report.failures] == ["reconstruction", "quadric"]
    assert all("at point 0" in f for f in report.failures)
    assert np.isnan(report.table[:, 1:]).all()
    assert np.array_equal(report.table[:, 0], mesh.params)


# -- stacked verification against a per-point loop -----------------------------

def _per_point_report(profile, mesh, collect_rows=False):
    """The verifier as one loop over points, each frame built on a stack of
    one point, and each invariant's worst value tracked point by point.

    The FD oracle is checked against its per-point form in test_geometry;
    here it gets the FD points in one batch, as verify_mesh hands them, and
    each point is scored on its own."""
    if isinstance(profile, TranslatorProfile):
        curve, lam, T = profile.base, np.asarray(profile.base.lambdas), \
            profile.translation_vector()
        limits = {"reconstruction": V.RECONSTRUCTION_TOL, "last_coordinate": V.RECONSTRUCTION_TOL,
                  "stored_angle": V.STORED_ANGLE_TOL, "maslov": V.STORED_ANGLE_TOL,
                  "lagrangian": V.LAGRANGIAN_TOL, "angle": V.ANGLE_TOL, "soliton": V.SOLITON_TOL}
        gate = ("reconstruction",)

        def own(x, z, c):
            zn = -0.5 * float(np.sum(lam * x * x)) + profile.beta(c)
            return {"last_coordinate": abs(z[-1] - zn) / (1.0 + abs(zn)),
                    "maslov": abs(c.theta + profile.alpha * z[-1].imag
                                  - profile.maslov_constant)}
        frame = profile.frame_at
        oracle = lambda xs, c: translator_fd_mean_curvature(profile, xs, c)
        drive = lambda fp: fp.normal_projection(T)
    else:
        curve, lam = profile, np.asarray(profile.lambdas)
        limits = {"reconstruction": V.RECONSTRUCTION_TOL, "quadric": V.QUADRIC_TOL,
                  "stored_angle": V.STORED_ANGLE_TOL, "lagrangian": V.LAGRANGIAN_TOL,
                  "angle": V.ANGLE_TOL, "soliton": V.SOLITON_TOL}
        gate = ("reconstruction", "quadric")
        own = lambda x, z, c: {"quadric": abs(float(np.sum(lam * x * x)) - 1.0)}
        frame = lambda x, c: centred_frame(profile, x, c)
        oracle = lambda xs, c: centred_fd_mean_curvature(profile, xs, c)
        drive = lambda fp: profile.alpha * fp.normal_projection(fp.z)
    grid = sorted(set(np.asarray(mesh.params, dtype=float).tolist()))
    curve.curve(grid)
    if isinstance(curve, ExpanderProfile) and profile is not curve:
        s_of_y(curve, grid)         # verify_mesh's one batch into a minimal base's arc cache
    worst = {name: (0.0, -1) for name in limits}

    def note(name, value, i):
        # a larger value replaces the worst; a NaN stays, and the first one is kept
        if not math.isnan(worst[name][0]) and not value <= worst[name][0]:
            worst[name] = (value, i)

    fd_at = set(_fd_subset(len(mesh), V.FD_CHECKS).tolist())
    rows, fd_points = [], []
    for i in range(len(mesh)):
        t, z = float(mesh.params[i]), mesh.points[i]
        record = curve.curve([t])
        c = record.row(0)
        w = c.w
        zc = z[:len(w)]
        x = (zc / w).real
        res = {"reconstruction":
               float(np.max(np.abs(zc - x * w))) / (1.0 + float(np.max(np.abs(z)))),
               "stored_angle": abs(math.remainder(float(mesh.thetas[i])
                                                  - float(c.theta), 2.0 * math.pi)),
               **own(x, z, c)}
        for name, value in res.items():
            note(name, value, i)
        if not all(res[name] <= limits[name] for name in gate):
            rows.append([t, math.nan, math.nan, math.nan])
            continue
        fp = frame(x[None], record)
        lag, ang = float(fp.lagrangian_residual[0]), float(fp.angle_residual[0])
        note("lagrangian", lag, i)
        note("angle", ang, i)
        d = drive(fp)[0]
        rows.append([t, lag, ang, float(np.linalg.norm(d - fp.mean_curvature()[0]))])
        if i in fd_at:
            fd_points.append((i, x, d))
    if fd_points:
        index, xs, drives = zip(*fd_points)
        H = oracle(np.array(xs), curve.curve(np.asarray(mesh.params, dtype=float)[list(index)]))
        for i, d, H_fd in zip(index, drives, H):
            H_norm = float(np.linalg.norm(H_fd))
            if profile.alpha == 0.0:
                note("soliton", H_norm, i)
            else:
                note("soliton", float(np.linalg.norm(d - H_fd)) / max(H_norm, 1e-12), i)
    failed = [(name, v, i) for name, (v, i) in worst.items() if not v <= limits[name]]
    return V.VerificationReport(
        "translator" if isinstance(profile, TranslatorProfile) else "centred", len(mesh),
        {name: v for name, (v, _) in worst.items()},
        tuple(f"{name} residual {v:.6e} exceeds {limits[name]:.1e} at point {i}"
              for name, v, i in failed),
        tuple((name, v, limits[name]) for name, v, _ in failed),
        np.array(rows).reshape(-1, 4) if collect_rows else None)


ORBIT_SPEC = PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.6), (1.0, 3.0), 0.5)
STATIONARY_SPEC = stationary_spec(SolitonParams((1.0, -1.0), 1.0, 0.5), (1.0, 2.0))
# name -> (profile factory, mesh builder); each verification gets a fresh
# profile, so both verifiers see the same sequence of curve queries.  Eight
# rows per curve sample put rows 2 and 7 at one t.
CASES = {
    "expander": (lambda: ExpanderProfile(1.0, (1.0, 2.0, 3.0)),
                 lambda p: centred_mesh(p, np.linspace(-1.2, 1.2, 4), 8)),
    "minimal": (lambda: ExpanderProfile(0.0, (0.8, 1.5)),
                lambda p: centred_mesh(p, np.linspace(-1.2, 1.2, 4), 8)),
    "orbit": (lambda: compute_orbit(ORBIT_SPEC).profile(),
              lambda p: centred_mesh(p, np.linspace(0.0, 2.0, 4), 8)),
    "stationary": (lambda: compute_orbit(STATIONARY_SPEC).profile(),
                   lambda p: centred_mesh(p, np.linspace(-1.0, 1.0, 4), 8)),
    "translator_expander": (lambda: TranslatorProfile.from_expander_base(1.2, (1.0, 2.0)),
                            lambda p: translator_mesh(p, np.linspace(-1.0, 1.0, 4), 8)),
    "translator_minimal": (lambda: TranslatorProfile.from_expander_base(0.0, (1.0, 2.0)),
                           lambda p: translator_mesh(p, np.linspace(-1.0, 1.0, 4), 8)),
    "translator_orbit": (lambda: TranslatorProfile.from_orbit_base(ORBIT_SPEC),
                         lambda p: translator_mesh(p, np.linspace(-1.0, 1.0, 4), 8)),
    "translator_stationary": (lambda: TranslatorProfile.from_orbit_base(STATIONARY_SPEC),
                              lambda p: translator_mesh(p, np.linspace(-1.0, 1.0, 4), 8)),
}


def _shuffled(mesh, seed=7):
    order = np.random.default_rng(seed).permutation(len(mesh))
    return dataclasses.replace(mesh, points=mesh.points[order], params=mesh.params[order],
                               thetas=mesh.thetas[order])


def _tampered(mesh, i=5):
    points = mesh.points.copy()
    points[i] = points[i] * 1.001
    return dataclasses.replace(mesh, points=points)


def _same(a, b):
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-13


@pytest.mark.parametrize("edit", ["plain", "shuffled", "nan_rows", "tampered"])
@pytest.mark.parametrize("case", list(CASES))
def test_stacked_verification_matches_a_per_point_loop(case, edit):
    make, build = CASES[case]
    mesh = build(make())
    mesh = {"plain": mesh, "shuffled": _shuffled(mesh),
            "nan_rows": _with_nan_point(_with_nan_point(mesh, 2), 7),
            "tampered": _tampered(mesh)}[edit]
    ref = _per_point_report(make(), mesh, collect_rows=True)
    got = verify_mesh(make(), mesh, collect_rows=True)
    assert (got.kind, got.count) == (ref.kind, ref.count)
    assert list(got.maxima) == list(ref.maxima)
    assert all(_same(got.maxima[k], ref.maxima[k]) for k in ref.maxima), (got.maxima,
                                                                          ref.maxima)
    assert got.failures == ref.failures
    assert [v[0] for v in got.violations] == [v[0] for v in ref.violations]
    assert got.passed == (edit in ("plain", "shuffled"))
    assert got.table.shape == ref.table.shape == (len(mesh), 4)
    for r, s in zip(got.table.tolist(), ref.table.tolist()):
        assert r[0] == s[0]
        assert all(_same(u, v) for u, v in zip(r[1:], s[1:])), (r, s)


@pytest.mark.parametrize("edit", ["plain", "nan_rows"])
@pytest.mark.parametrize("case", list(CASES))
def test_one_frame_call_on_the_gated_points(case, edit):
    """verify_mesh builds every frame in one centred_frame or frame_at call,
    on exactly the points that pass the gate: all of them on a clean mesh,
    all but the two NaN rows otherwise."""
    make, build = CASES[case]
    mesh = build(make())
    if edit == "nan_rows":
        mesh = _with_nan_point(_with_nan_point(mesh, 2), 7)
    profile = make()
    if isinstance(profile, TranslatorProfile):
        spy = mock.patch.object(TranslatorProfile, "frame_at", autospec=True,
                                side_effect=TranslatorProfile.frame_at)
    else:
        spy = mock.patch.object(V, "centred_frame", wraps=V.centred_frame)
    with spy as frame:
        report = verify_mesh(profile, mesh)
    assert frame.call_count == 1
    x = frame.call_args.args[1]          # after the profile, or the bound translator
    assert len(x) == len(mesh) - (2 if edit == "nan_rows" else 0)
    assert report.passed == (edit == "plain")


# -- mutation tests: an export that disagrees with its record in the equation only

@pytest.mark.parametrize("delta", [
    1e-2,
    pytest.param(1e-4, marks=pytest.mark.xfail(strict=True, reason=(
        "the FD soliton check reads 1.0e-4 here, under SOLITON_TOL = 1e-3: ROADMAP"
        " item 9 asks for a failure at delta = 1e-4, after item 12's first-order check"))),
])
def test_an_orbit_integrated_at_a_wrong_rate_fails(delta):
    """The orbit's ODE runs at alpha (1 + delta) while its profile keeps alpha."""
    orbit = compute_orbit(PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.5), (1.0, 2.0), 0.4))
    profile = orbit.profile()
    mutant = dataclasses.replace(
        profile.spec, params=SolitonParams((1.0, -1.0), 1.0, 0.5 * (1.0 + delta)))
    profile._states = states(mutant)
    mesh = centred_mesh(profile, np.linspace(0.0, orbit.S, 30), 20)
    assert not verify_mesh(profile, mesh).passed


# -- verify on hand-edited exports: an exit code and a lagsol line, never a traceback

# small exports, each written once per module: argv (its subcommand is the
# file prefix), mesh columns and the numeric record keys
EXPORTS = {
    "expander": (["expander", "--alpha=1", "--a=1,2", "--samples=5"], 6,
                 ("alpha", "a", "psi")),
    "orbit": (["periodic", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5",
               "--mesh"], 6, ("alpha", "lambdas", "alphas", "A", "psi")),
    "translator": (["translator", "--alpha=0", "--a=1,2"], 8,
                   ("K_re", "K_im", "base_alpha", "base_a", "base_psi")),
}
MESH_ROWS = 12      # --mesh-samples=4 --mesh-count=3
NOT_FINITE = ("nan", "inf", "-inf", "", "x1")
CELL_VALUES = NOT_FINITE + ("1e308", "-1e308", "5e-324")
RECORD_VALUES = CELL_VALUES + ("1e200", "-1e200", "1e300", "-1e300", "0", "-1")


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    """{name: (mesh CSV lines, record lines)} of each export."""
    out = {}
    for name, (argv, _, _) in EXPORTS.items():
        d = tmp_path_factory.mktemp(name)
        assert main(argv + ["--mesh-samples=4", "--mesh-count=3", f"--outdir={d}"]) == 0
        out[name] = tuple((d / f"{argv[0]}_{f}").read_text().splitlines()
                          for f in ("mesh.csv", "record.txt"))
    return out


@st.composite
def export_edits(draw):
    """(export, edit): one mesh cell ("cell", row, column, value) or one
    record value ("record", key, element, value) replaced, where a float
    value is a factor 1 +- 10^U[-8, -2] on the old number, element None
    means the whole value, and "longer" repeats its last element.  An
    orbit's s_or_y cell stays finite and moderate: a row at s = 1e308 runs
    the stepper to its step budget, which takes tens of seconds."""
    name = draw(st.sampled_from(sorted(EXPORTS)))
    _, ncols, keys = EXPORTS[name]
    factor = 1.0 + draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-8.0, -2.0))
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        values = CELL_VALUES
        if name == "orbit" and col == ncols - 2:
            values = NOT_FINITE + ("5e-324",)
        return name, ("cell", draw(st.integers(0, MESH_ROWS - 1)), col,
                      draw(st.sampled_from(values + (factor,))))
    key = draw(st.sampled_from(keys))
    whole = draw(st.sampled_from((None, None, None, "", "longer")))
    if whole is not None:
        return name, ("record", key, None, whole)
    return name, ("record", key, draw(st.integers(0, 3)),
                  draw(st.sampled_from(RECORD_VALUES + (factor,))))


def _edited(cells, at, value):
    """cells (a list of strings) with cells[at] replaced by value, or scaled by it."""
    cells = list(cells)
    cells[at] = repr(float(cells[at]) * value) if isinstance(value, float) else value
    return cells


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=export_edits())
@example(case=("orbit", ("record", "alpha", 0, "1e200")))
@example(case=("orbit", ("record", "alpha", 0, "1e300")))
@example(case=("orbit", ("record", "alpha", 0, "-1e300")))
@example(case=("expander", ("record", "a", None, "")))
@example(case=("translator", ("record", "base_a", None, "")))
def test_verify_of_an_edited_export_exits_with_a_code_and_a_message(
        exports, tmp_path, capsys, case):
    name, (where, at, part, value) = case
    mesh, record = exports[name]
    if where == "cell":
        row = 1 + at
        mesh = mesh[:row] + [",".join(_edited(mesh[row].split(","), part, value))] + mesh[row + 1:]
    else:
        line = next(i for i, ln in enumerate(record) if ln.startswith(at + " = "))
        items = record[line].split(" = ", 1)[1].split(",")
        if part is not None:
            items = _edited(items, part % len(items), value)
        else:
            items = items + items[-1:] if value == "longer" else []
        record = record[:line] + [f"{at} = {','.join(items)}"] + record[line + 1:]
    (tmp_path / "mesh.csv").write_text("\n".join(mesh) + "\n")
    (tmp_path / "record.txt").write_text("\n".join(record) + "\n")
    capsys.readouterr()
    rc = main(["verify", f"--mesh={tmp_path / 'mesh.csv'}",
               f"--record={tmp_path / 'record.txt'}"])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4), (case, err)
    if rc:
        assert err.splitlines()[-1].startswith("lagsol:"), (case, err)
    if where == "cell" and value in NOT_FINITE:
        assert rc != 0, case
