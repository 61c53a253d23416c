"""CSV/PLY writers, key=value records, and byte-stable round trips."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from lagsol.errors import ValidationError
from lagsol.expander import ExpanderProfile, asymptotic_angles
from lagsol.fileio import (BLOCK_ROWS, mesh_csv_header, projection_matrix, read_keyvalues,
                           read_mesh_csv, read_profile_record, write_keyvalues,
                           write_mesh_csv, write_mesh_ply, write_orbit_report_csv,
                           write_plane_report_csv, write_profile_csv,
                           write_profile_record, write_residual_csv,
                           write_trajectory_csv)
from lagsol.meshing import Mesh, centred_mesh, translator_mesh
from lagsol.params import SolitonParams
from lagsol.periodic import (OrbitProfile, PeriodicSpec, compute_orbit, detect_periodicity,
                             search_periodic_data, topology_tag)
from lagsol.reduced_ode import sample_reduced
from lagsol.translator import TranslatorProfile
from oracles import stationary_spec


def small_mesh():
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    return centred_mesh(prof, np.linspace(-1.0, 1.0, 7), 6)


def test_mesh_csv_round_trip_is_exact(tmp_path):
    mesh = small_mesh()
    path = tmp_path / "mesh.csv"
    write_mesh_csv(path, mesh)
    header = path.read_text().splitlines()[0].split(",")
    assert header == mesh_csv_header(mesh.n)
    assert header == ["Re z1", "Im z1", "Re z2", "Im z2", "s_or_y", "theta"]
    back = read_mesh_csv(path)
    assert back.n == mesh.n
    np.testing.assert_array_equal(back.points, mesh.points)
    np.testing.assert_array_equal(back.params, mesh.params)
    np.testing.assert_array_equal(back.thetas, mesh.thetas)


def test_mesh_csv_write_is_byte_stable(tmp_path):
    mesh = small_mesh()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_mesh_csv(p1, mesh)
    write_mesh_csv(p2, mesh)
    assert p1.read_bytes() == p2.read_bytes()


def test_mesh_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(ValidationError):
        read_mesh_csv(bad)
    short = tmp_path / "short.csv"
    short.write_text(",".join(mesh_csv_header(1)) + "\n1.0,2.0\n")
    with pytest.raises(ValidationError):
        read_mesh_csv(short)


def test_projection_matrix_fixed_and_orthonormal():
    P = projection_matrix(6)
    assert P.shape == (3, 6)
    np.testing.assert_allclose(P @ P.T, np.eye(3), atol=1e-12)
    np.testing.assert_array_equal(P, projection_matrix(6))


def test_ply_plain_mode(tmp_path):
    mesh = small_mesh()
    path = tmp_path / "mesh.ply"
    write_mesh_ply(path, mesh)
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    assert f"element vertex {len(mesh)}" in lines
    props = [l.split()[-1] for l in lines if l.startswith("property")]
    # 2n = 4 real coordinates: x y z hold the first three, c4 the leftover
    assert props == ["x", "y", "z", "c4", "s_or_y", "theta"]
    body = lines[lines.index("end_header") + 1:]
    assert len(body) == len(mesh)
    assert all(len(row.split()) == 6 for row in body)


def test_ply_projected_mode(tmp_path):
    mesh = small_mesh()
    p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
    write_mesh_ply(p1, mesh, project3d=True)
    write_mesh_ply(p2, mesh, project3d=True)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    props = [l.split()[-1] for l in lines if l.startswith("property")]
    assert props == ["x", "y", "z", "s_or_y", "theta"]
    i = lines.index("end_header")
    first = np.array([float(v) for v in lines[i + 1].split()[:3]])
    real = np.empty(2 * mesh.n)
    real[0::2] = mesh.points[0].real
    real[1::2] = mesh.points[0].imag
    np.testing.assert_allclose(first, projection_matrix(2 * mesh.n) @ real,
                               rtol=1e-15)


def test_ply_pads_low_dimension(tmp_path):
    prof = ExpanderProfile(1.0, (1.0,))
    mesh = centred_mesh(prof, np.linspace(-1.0, 1.0, 5), 2)
    path = tmp_path / "line.ply"
    write_mesh_ply(path, mesh)
    lines = path.read_text().splitlines()
    props = [l.split()[-1] for l in lines if l.startswith("property")]
    assert props == ["x", "y", "z", "s_or_y", "theta"]
    body = lines[lines.index("end_header") + 1:]
    assert all(row.split()[2] == "0.0" for row in body)


def test_profile_csv_columns(tmp_path):
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    path = tmp_path / "profile.csv"
    ys = [-0.5, 0.0, 1.25]
    write_profile_csv(path, prof, ys)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == ["y", "r_1", "r_2", "phi_1", "phi_2", "theta"]
    assert len(lines) == 1 + len(ys)
    row = lines[2].split(",")
    assert float(row[0]) == 0.0
    assert float(row[1]) == pytest.approx(1.0)          # r_j(0) = 1/sqrt(a_j)
    assert float(row[2]) == pytest.approx(1.0 / math.sqrt(2.0))


def test_plane_report(tmp_path):
    prof = ExpanderProfile(1.0, (1.0, 2.0), (0.2, -0.3))
    angles = asymptotic_angles(prof)
    path = tmp_path / "planes.csv"
    write_plane_report_csv(path, angles)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == ["j", "plane1_angle", "plane2_angle"]
    assert len(lines) == 3
    got = [tuple(float(v) for v in l.split(",")[1:]) for l in lines[1:]]
    for (p, q), pp, qq in zip(got, angles.plane_plus, angles.plane_minus):
        assert p == pp and q == qq


def test_orbit_report_quasi_periodic_leaves_r_empty(tmp_path):
    spec = PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.6), (1.0, 3.0), 0.8)
    orbit = compute_orbit(spec)
    verdict = detect_periodicity(orbit)
    path = tmp_path / "orbit.csv"
    write_orbit_report_csv(path, orbit, verdict, topology_tag(spec))
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == ["u1", "u2", "S", "gamma_1", "gamma_2",
                                   "case_tag", "periodic_r", "topology_tag"]
    row = lines[1].split(",")
    assert float(row[0]) == orbit.u1 and float(row[2]) == orbit.S
    assert row[5] == "oscillating"
    assert row[6] == ""
    assert row[7] == "S1 x S0 x R1"


def test_orbit_report_periodic_records_r(tmp_path):
    spec = search_periodic_data((1.0, -1.0), 0.0, (-math.pi, math.pi))
    orbit = compute_orbit(spec)
    verdict = detect_periodicity(orbit)
    path = tmp_path / "orbit.csv"
    write_orbit_report_csv(path, orbit, verdict, topology_tag(spec))
    row = path.read_text().splitlines()[1].split(",")
    assert row[6] == "2"


def test_residual_report(tmp_path):
    path = tmp_path / "residuals.csv"
    write_residual_csv(path, np.array([[0.5, 1e-12, 2e-11, 3e-10],
                                       [0.7, 0.0, 0.0, 0.0]]))
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == ["point_id", "s_or_y", "lagrangian_residual",
                                   "angle_residual", "soliton_residual"]
    assert lines[1].split(",")[0] == "0"
    assert float(lines[1].split(",")[3]) == 2e-11


def test_keyvalues_comments_and_later_wins(tmp_path):
    path = tmp_path / "conf"
    path.write_text(
        "# a comment line\n"
        "alpha = 1.0   # trailing comment\n"
        "a = 1,2\n"
        "\n"
        "alpha = 2.5\n")
    kv = read_keyvalues(path)
    assert kv == {"alpha": "2.5", "a": "1,2"}


def test_keyvalues_error_names_line(tmp_path):
    path = tmp_path / "conf"
    path.write_text("alpha = 1\nnot a pair\n")
    with pytest.raises(ValidationError, match=":2:"):
        read_keyvalues(path)


def test_keyvalues_round_trip(tmp_path):
    path = tmp_path / "conf"
    write_keyvalues(path, [("x", "1.5"), ("name", "value with spaces")])
    assert read_keyvalues(path) == {"x": "1.5", "name": "value with spaces"}


def test_profile_record_expander(tmp_path):
    prof = ExpanderProfile(1.5, (1.0, 2.0, 0.5), (0.1, 0.2, 0.3))
    path = tmp_path / "prof"
    write_profile_record(path, prof)
    back = read_profile_record(path)
    assert isinstance(back, ExpanderProfile)
    assert back.alpha == prof.alpha
    assert back.a == prof.a
    assert back.psi == prof.psi


def test_profile_record_stationary(tmp_path):
    spec = stationary_spec(SolitonParams((1.0, -1.0), 1.0, 0.0), (1.0, 2.0),
                           (0.4, -0.1))
    prof = compute_orbit(spec).profile()
    path = tmp_path / "prof"
    write_profile_record(path, prof)
    back = read_profile_record(path)
    assert type(back).__name__ == "HamiltonianStationaryProfile"
    assert back.spec.A == prof.spec.A
    assert back.spec.alphas == prof.spec.alphas
    assert back.spec.psi == prof.spec.psi


def test_profile_record_orbit(tmp_path):
    spec = PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.6), (1.0, 3.0), 0.8)
    prof = compute_orbit(spec).profile()
    path = tmp_path / "prof"
    write_profile_record(path, prof)
    back = read_profile_record(path)
    assert isinstance(back, OrbitProfile)
    # records store the gauge-fixed spec the profile integrates
    assert back.spec.alphas == prof.spec.alphas
    assert back.spec.A == prof.spec.A
    np.testing.assert_allclose(back.curve([0.7]).w, prof.curve([0.7]).w, atol=1e-12)


@pytest.mark.parametrize("lambdas, alphas, A, alpha", [
    ((1.0, -1.0), (1.0, 2.0), 0.4, 0.5),
    ((1.0, 1.0), (1.0, 1.5), 0.5, -1.0),
    ((1.0, -1.0), (1.0, 1.0), 1.0, 0.0),
], ids=["orbit", "shrinker", "stationary"])
def test_profile_record_rebuilds_the_exported_profile(tmp_path, lambdas, alphas, A, alpha):
    orbit = compute_orbit(PeriodicSpec(SolitonParams(lambdas, 1.0, alpha), alphas, A))
    prof = orbit.profile()
    write_profile_record(tmp_path / "prof", prof)
    back = read_profile_record(tmp_path / "prof")
    assert type(back) is type(prof)
    assert back.spec == prof.spec
    for s in np.linspace(0.0, orbit.S, 4):
        assert np.array_equal(back.curve([s]).w, prof.curve([s]).w)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lambdas=st.sampled_from([(1.0, 1.0), (1.0, 1.0, 1.0),                 # case (a)
                                (1.0, -1.0), (1.0, 1.0, -1.0), (1.0, -1.0, -1.0)]),
       rate=st.floats(0.2, 2.0), flip=st.booleans(), stationary=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_profile_record_round_trip_is_exact(tmp_path, make_orbit_spec, lambdas, rate,
                                            flip, stationary, seed):
    """A record holds the rebased spec of the exported profile, and reading it
    back rebuilds that profile bit for bit."""
    alpha = -rate if min(lambdas) > 0 or flip else rate   # case (a) needs alpha < 0
    spec = make_orbit_spec(np.random.default_rng(seed), lambdas, alpha)
    if stationary:
        spec = stationary_spec(spec.params, spec.alphas)
    orbit = compute_orbit(spec)
    prof = orbit.profile()
    write_profile_record(tmp_path / "prof", prof)
    back = read_profile_record(tmp_path / "prof")
    assert type(back) is type(prof)
    assert back.spec == prof.spec == orbit.based
    for s in (0.0, 0.3 * orbit.S, orbit.S, -0.7 * orbit.S):
        mine, theirs = back.curve([s]), prof.curve([s])
        assert np.array_equal(mine.w, theirs.w)
        assert mine.theta[0] == theirs.theta[0]


def test_profile_record_translator(tmp_path):
    prof = TranslatorProfile.from_expander_base(1.2, (1.0, 2.0), K=0.5 - 0.25j)
    path = tmp_path / "prof"
    write_profile_record(path, prof)
    back = read_profile_record(path)
    assert isinstance(back, TranslatorProfile)
    assert back.K == prof.K
    assert back.base.a == prof.base.a
    x = np.array([0.3, -0.8])
    mine, theirs = back.base.curve([0.6]).row(0), prof.base.curve([0.6]).row(0)
    np.testing.assert_allclose(back.immersion(x, mine), prof.immersion(x, theirs),
                               atol=1e-12)


def test_profile_record_rejects_unknown_kind(tmp_path):
    path = tmp_path / "prof"
    path.write_text("kind = mystery\n")
    with pytest.raises(ValidationError) as info:
        read_profile_record(path)
    assert str(info.value) == f"{path}: unknown profile kind 'mystery'"


def test_translator_mesh_survives_csv(tmp_path):
    prof = TranslatorProfile.from_expander_base(1.0, (1.0, 1.0))
    mesh = translator_mesh(prof, np.linspace(-0.5, 0.5, 5), 8)
    path = tmp_path / "mesh.csv"
    write_mesh_csv(path, mesh)
    back = read_mesh_csv(path)
    assert back.n == prof.n
    np.testing.assert_array_equal(back.points, mesh.points)


# -- the row writer against the per-value writers it replaced -------------------

# every value repr() spells differently from a plain decimal, and some that
# it does not; the tables cycle through them so each column meets each value
SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e300, 0.1, -2.5, 1.0)


def special_table(rows, cols, shift=0):
    i, j = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    return np.array(SPECIAL)[(i + 3 * j + shift) % len(SPECIAL)]


# bit patterns that a writer keyed on values rather than bits would merge:
# the two zeros, and NaNs of both signs with two payloads
PAYLOAD_NAN = float(np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0])
TWINS = (0.0, -0.0, math.nan, -math.nan, PAYLOAD_NAN, -PAYLOAD_NAN)

# a table long enough that two block edges fall inside it
LONG = 2 * BLOCK_ROWS + 3


def twins_table(rows, cols):
    """Column 0 cycles through TWINS; the others hold a few values, each on
    three rows running and shifted by one place per column, so values repeat
    within and across columns."""
    pool = np.array(TWINS + (0.1, -2.5, 1e300, 1.0))
    i, j = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    table = pool[(i // 3 + j) % len(pool)]
    table[:, 0] = np.array(TWINS)[np.arange(rows) % len(TWINS)]
    return table


def table_mesh(table):
    """The mesh whose CSV columns are the (rows, 2n + 2) table."""
    points = np.empty((len(table), (table.shape[1] - 2) // 2), dtype=complex)
    points.real, points.imag = table[:, 0:-2:2], table[:, 1:-2:2]
    return Mesh(points, table[:, -2].copy(), table[:, -1].copy())


def special_mesh(n, rows=2 * len(SPECIAL)):
    points = np.empty((rows, n), dtype=complex)
    points.real, points.imag = special_table(rows, n), special_table(rows, n, 1)
    return Mesh(points, special_table(rows, 1, 2)[:, 0], special_table(rows, 1, 5)[:, 0])


def same_bytes(tmp_path, package_writer, oracle_writer, *args, **kwargs):
    mine, theirs = tmp_path / "package", tmp_path / "oracle"
    package_writer(mine, *args, **kwargs)
    oracle_writer(theirs, *args, **kwargs)
    assert mine.read_bytes() == theirs.read_bytes()
    return mine.read_bytes()


@pytest.mark.parametrize("rows", [0, 2 * len(SPECIAL), LONG])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mesh_csv_matches_the_per_value_writer(tmp_path, n, rows):
    text = same_bytes(tmp_path, write_mesh_csv, oracles.write_mesh_csv, special_mesh(n, rows))
    assert text.count(b"\r\n") == 1 + rows and b"\n" not in text.replace(b"\r\n", b"")
    if rows:
        assert all(repr(v).encode() in text for v in SPECIAL)


@pytest.mark.parametrize("rows", [0, 5, LONG])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mesh_csv_keeps_zeros_and_nans_of_both_signs_apart(tmp_path, n, rows):
    assert len(set(twins_table(len(TWINS), 1).view(np.int64).ravel().tolist())) == len(TWINS)
    mesh = table_mesh(twins_table(rows, 2 * n + 2))
    text = same_bytes(tmp_path, write_mesh_csv, oracles.write_mesh_csv, mesh)
    assert text.count(b"\r\n") == 1 + rows
    first = [line.split(b",")[0] for line in text.split(b"\r\n")[1:1 + min(rows, 6)]]
    assert first == [b"0.0", b"-0.0", b"nan", b"nan", b"nan", b"nan"][:rows]


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("project3d", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mesh_ply_matches_the_per_value_writer(tmp_path, n, project3d):
    for mesh in (special_mesh(n), small_mesh() if n == 2 else special_mesh(n, 0),
                 table_mesh(twins_table(LONG, 2 * n + 2)), special_mesh(n, LONG)):
        text = same_bytes(tmp_path, write_mesh_ply, oracles.write_mesh_ply, mesh,
                          project3d=project3d)
        assert b"\r" not in text
        assert text.count(b"\n") == text.split(b"\n").index(b"end_header") + 1 + len(mesh)


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("project3d", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_ply_vertex_line_holds_one_value_per_property(tmp_path, n, project3d):
    path = tmp_path / "mesh.ply"
    write_mesh_ply(path, special_mesh(n), project3d=project3d)
    lines = path.read_text().splitlines()
    props = [l.split()[-1] for l in lines if l.startswith("property")]
    assert props[:3] == ["x", "y", "z"] and props[-2:] == ["s_or_y", "theta"]
    assert len(props) == (5 if project3d else max(5, 2 * n + 2))
    body = lines[lines.index("end_header") + 1:]
    assert len(body) == len(special_mesh(n))
    assert all(len(row.split()) == len(props) for row in body)


def test_profile_csv_matches_the_per_value_writer(tmp_path):
    same_bytes(tmp_path, write_profile_csv, oracles.write_profile_csv,
               ExpanderProfile(1.0, (1.0, 2.0, 3.0)), np.linspace(-1.5, 1.5, 7))
    for n in (1, 2, 3):
        m = 2 * len(SPECIAL)
        record = SimpleNamespace(t=special_table(m, 1)[:, 0], r=special_table(m, n, 1),
                                 phis=special_table(m, n, 2), theta=special_table(m, 1, 3)[:, 0])
        profile = SimpleNamespace(n=n, curve=lambda ys, record=record: record)
        same_bytes(tmp_path, write_profile_csv, oracles.write_profile_csv, profile, None)
    for rows in (0, LONG):
        for n in (1, 3):
            table = twins_table(rows, 2 * n + 2)
            record = SimpleNamespace(t=table[:, 0], r=table[:, 1:n + 1],
                                     phis=table[:, n + 1:-1], theta=table[:, -1])
            profile = SimpleNamespace(n=n, curve=lambda ys, record=record: record)
            text = same_bytes(tmp_path, write_profile_csv, oracles.write_profile_csv,
                              profile, None)
            assert text.count(b"\r\n") == 1 + rows


class _Trajectory(SimpleNamespace):
    def __len__(self):
        return len(self.s)


def test_trajectory_csv_matches_the_per_value_writer(tmp_path):
    spec = PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.6), (1.0, 3.0), 0.5)
    same_bytes(tmp_path, write_trajectory_csv, oracles.write_trajectory_csv,
               sample_reduced(spec.trajectory_spec(), np.linspace(-1.0, 1.0, 9)))
    for n in (1, 2, 3):
        m = 2 * len(SPECIAL)
        resid = special_table(m, 1, 4)[:, 0]
        traj = _Trajectory(spec=SimpleNamespace(n=n), s=special_table(m, 1)[:, 0],
                           u=special_table(m, 1, 1)[:, 0], phis=special_table(m, n, 2),
                           theta=special_table(m, 1, 3)[:, 0],
                           first_integral_residuals=lambda resid=resid: resid)
        same_bytes(tmp_path, write_trajectory_csv, oracles.write_trajectory_csv, traj)


def test_residual_csv_matches_the_per_value_writer(tmp_path):
    """The package writes a (count, 4) table and numbers its rows itself; the
    oracle writes (point_id, ...) rows built from the same table."""
    special = special_table(2 * len(SPECIAL), 4)
    unframed = np.array([[0.5, math.nan, math.nan, math.nan]] * 3)   # points the gate stopped
    for table in (special, np.vstack([np.zeros((3, 4)), unframed, special]),
                  np.empty((0, 4))):
        rows = [(np.int64(i), *r) for i, r in enumerate(table)]   # numpy scalars write alike
        mine, theirs = tmp_path / "package", tmp_path / "oracle"
        write_residual_csv(mine, table)
        oracles.write_residual_csv(theirs, rows)
        assert mine.read_bytes() == theirs.read_bytes()
        assert mine.read_bytes().count(b"\r\n") == 1 + len(table)


def test_plane_report_matches_the_per_value_writer(tmp_path):
    same_bytes(tmp_path, write_plane_report_csv, oracles.write_plane_report_csv,
               asymptotic_angles(ExpanderProfile(1.0, (1.0, 2.0), (0.2, -0.3))))
    for n in (1, 3, len(SPECIAL)):
        angles = SimpleNamespace(plane_plus=tuple(special_table(n, 1)[:, 0]),
                                 plane_minus=tuple(special_table(n, 1, 1)[:, 0]))
        text = same_bytes(tmp_path, write_plane_report_csv, oracles.write_plane_report_csv,
                          angles)
        assert text.count(b"\r\n") == 1 + n


def test_orbit_report_matches_the_per_value_writer(tmp_path):
    spec = PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.6), (1.0, 3.0), 0.8)
    orbit = compute_orbit(spec)
    verdict = detect_periodicity(orbit)
    same_bytes(tmp_path, write_orbit_report_csv, oracles.write_orbit_report_csv,
               orbit, verdict, topology_tag(spec))
    same_bytes(tmp_path, write_orbit_report_csv, oracles.write_orbit_report_csv, orbit)
    periodic = SimpleNamespace(periodic=True, r=np.int64(12))   # numpy scalars write alike
    for n in (1, 3, len(SPECIAL) - 3):
        values = special_table(1, n + 3)[0]
        special = SimpleNamespace(u1=values[0], u2=values[1], S=values[2],
                                  gamma=tuple(values[3:]), case="oscillating")
        for verdict, topology in ((None, ""), (periodic, "S1 x S0 x R1"),
                                  (SimpleNamespace(periodic=False, r=None), "S1 x S2")):
            text = same_bytes(tmp_path, write_orbit_report_csv,
                              oracles.write_orbit_report_csv, special, verdict, topology)
            assert text.count(b"\r\n") == 2 and b'"' not in text
