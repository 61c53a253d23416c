"""File formats: CSV reports, PLY vertex clouds, key=value profile records.

All floats are written with repr(), which round-trips doubles exactly and
keeps outputs byte-stable across runs.  Mesh CSV columns are
Re z1, Im z1, ..., Re zn, Im zn, s_or_y, theta in that order.

Every table (mesh CSV and PLY, the profile, trajectory, residual, plane and
orbit reports) goes through one row writer.  It streams the rows in blocks
of BLOCK_ROWS, one write each, so memory does not grow with the table, and
within a block it formats each distinct float once; the CSV bytes are those
of csv.writer.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .expander import ExpanderProfile
from .meshing import Mesh
from .params import SolitonParams
from .periodic import HamiltonianStationaryProfile, OrbitProfile, PeriodicSpec
from .translator import TranslatorProfile

# fixed projection matrix seed for 3D PLY export; changing it would silently
# break byte-stability of archived outputs
_PROJECTION_SEED = 1729

# rows per write: a block's text is built and written in one piece
BLOCK_ROWS = 4096


def _fmt(v) -> str:
    return repr(float(v))


def _reprs(block: np.ndarray) -> list:
    """The repr() of each value of a (k, c) float block, as k lists of c
    strings.  Each distinct bit pattern is formatted once; keying on the bits
    rather than the value keeps 0.0 and -0.0 apart."""
    bits = np.ascontiguousarray(block, dtype=float).view(np.int64).ravel()
    keys, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, keys.view(float).tolist())), dtype=object)
    return text[inverse.reshape(block.shape)].tolist()


def _write_rows(path, header, table, *, sep: str = ",", end: str = "\r\n") -> None:
    """Write the header lines, then one line per row of table: its cells
    joined by sep, ending with end.  table is a (rows, cols) float array,
    whose cells are the repr() of its values, or a list of rows of str cells.
    The rows stream out BLOCK_ROWS at a time, one write each, and each
    distinct float of a block is formatted once (_reprs).  With the defaults
    the bytes are those csv.writer writes, as no header field, number or tag
    needs quoting."""
    with Path(path).open("w", newline="") as fh:
        fh.write(end.join(header) + end)
        for start in range(0, len(table), BLOCK_ROWS):
            block = table[start:start + BLOCK_ROWS]
            if isinstance(block, np.ndarray):
                block = _reprs(block)
            fh.write(end.join(map(sep.join, block)) + end)


def _real_coordinates(mesh: Mesh) -> np.ndarray:
    """The mesh points as (N, 2n) reals Re z1, Im z1, Re z2, ..."""
    real = np.empty((len(mesh), 2 * mesh.n))
    real[:, 0::2] = mesh.points.real
    real[:, 1::2] = mesh.points.imag
    return real


# -- mesh CSV ----------------------------------------------------------------

def mesh_csv_header(n: int):
    cols = []
    for j in range(1, n + 1):
        cols += [f"Re z{j}", f"Im z{j}"]
    return cols + ["s_or_y", "theta"]


def write_mesh_csv(path, mesh: Mesh) -> None:
    table = np.column_stack([_real_coordinates(mesh), mesh.params, mesh.thetas])
    _write_rows(path, [",".join(mesh_csv_header(mesh.n))], table)


def read_mesh_csv(path) -> Mesh:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file, not a mesh CSV")
        if len(header) < 4 or header[-2:] != ["s_or_y", "theta"] or len(header) % 2 != 0:
            raise ValidationError(f"{path}: not a mesh CSV (bad header)")
        n = (len(header) - 2) // 2
        pts, pars, thetas = [], [], []
        for row in reader:
            if len(row) != len(header):
                raise ValidationError(f"{path}: row with {len(row)} fields, expected {len(header)}")
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise ValidationError(
                    f"{path}: line {reader.line_num} has a non-numeric field") from None
            pts.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(n)])
            pars.append(vals[-2])
            thetas.append(vals[-1])
    if not pts:
        raise ValidationError(f"{path}: mesh CSV has no rows")
    return Mesh(np.array(pts, dtype=complex), np.array(pars), np.array(thetas))


# -- PLY vertex clouds -------------------------------------------------------

def projection_matrix(real_dim: int) -> np.ndarray:
    """Fixed orthonormal min(3, real_dim) x real_dim projection for viewing clouds."""
    rng = np.random.default_rng(_PROJECTION_SEED)
    mat = rng.normal(size=(real_dim, real_dim))
    q, _ = np.linalg.qr(mat)
    return q[:3]


def write_mesh_ply(path, mesh: Mesh, *, project3d: bool = False) -> None:
    """ASCII PLY vertex cloud.

    The coordinates are the real ones of the R^{2n} embedding, or with
    project3d their image under a fixed orthonormal projection onto R^3 (R^2
    at n = 1).  The first three, zero-padded, are x/y/z and the rest are
    kept as extra float properties c4..c{2n}, followed by s_or_y and theta.
    """
    coords = _real_coordinates(mesh)
    if project3d:
        coords = coords @ projection_matrix(2 * mesh.n).T
    coords = np.column_stack([coords, np.zeros((len(mesh), max(3 - coords.shape[1], 0)))])
    header = ["ply", "format ascii 1.0", f"element vertex {len(mesh)}"]
    header += [f"property double {name}" for name in ["x", "y", "z"] + [
        f"c{k}" for k in range(4, coords.shape[1] + 1)] + ["s_or_y", "theta"]]
    table = np.column_stack([coords, mesh.params, mesh.thetas])
    _write_rows(path, header + ["end_header"], table, sep=" ", end="\n")


# -- tabular reports ---------------------------------------------------------

def write_trajectory_csv(path, traj) -> None:
    """Reduced trajectory table: s, u, phi_1..phi_n, theta, first_integral_residual."""
    n = traj.spec.n
    header = (["s", "u"] + [f"phi_{j + 1}" for j in range(n)]
              + ["theta", "first_integral_residual"])
    table = np.column_stack([traj.s, traj.u, traj.phis, traj.theta,
                             traj.first_integral_residuals()])
    _write_rows(path, [",".join(header)], table)


def write_profile_csv(path, profile, y_values) -> None:
    """Expander-style profile table: y, r_1..r_n, phi_1..phi_n, theta."""
    n = profile.n
    c = profile.curve(y_values)
    header = (["y"] + [f"r_{j}" for j in range(1, n + 1)]
              + [f"phi_{j}" for j in range(1, n + 1)] + ["theta"])
    table = np.column_stack([c.t, c.r, c.phis, c.theta])
    _write_rows(path, [",".join(header)], table)


def write_plane_report_csv(path, angles) -> None:
    """Asymptotic-plane angles of an expander: psi_j +/- phibar_j per axis."""
    _write_rows(path, ["j,plane1_angle,plane2_angle"],
                [[str(j), _fmt(p), _fmt(q)] for j, (p, q) in
                 enumerate(zip(angles.plane_plus, angles.plane_minus), start=1)])


def write_orbit_report_csv(path, orbit, verdict=None, topology: str = "") -> None:
    """One-row orbit summary: u1, u2, S, gamma_1..gamma_n, case_tag, periodic_r, topology_tag."""
    header = (["u1", "u2", "S"] + [f"gamma_{j}" for j in range(1, len(orbit.gamma) + 1)]
              + ["case_tag", "periodic_r", "topology_tag"])
    r = verdict.r if verdict is not None and verdict.periodic else ""
    _write_rows(path, [",".join(header)], [
        [_fmt(v) for v in (orbit.u1, orbit.u2, orbit.S, *orbit.gamma)]
        + [orbit.case, str(r), topology]])


def write_residual_csv(path, table) -> None:
    """Residual report of a (count, 4) table [s_or_y, lagrangian_residual,
    angle_residual, soliton_residual], each row led by its point_id 0..count-1."""
    rows = np.asarray(table, dtype=float).tolist()
    _write_rows(path, ["point_id,s_or_y,lagrangian_residual,angle_residual,soliton_residual"],
                [[str(i), *map(repr, row)] for i, row in enumerate(rows)])


# -- key=value records -------------------------------------------------------

def write_keyvalues(path, pairs) -> None:
    path = Path(path)
    with path.open("w") as fh:
        for k, v in pairs:
            fh.write(f"{k} = {v}\n")


def read_keyvalues(path) -> dict:
    """Plain key = value lines; '#' starts a comment; later keys win."""
    path = Path(path)
    out = {}
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def fmt_floats(vals) -> str:
    """vals as comma-separated float reprs, the form records and reports use."""
    return ",".join(_fmt(v) for v in vals)


def write_profile_record(path, profile) -> None:
    """Serialize a profile so verify can rebuild it alongside its mesh."""
    write_keyvalues(path, _profile_pairs(profile))


def _profile_pairs(profile):
    if isinstance(profile, TranslatorProfile):
        return [("kind", "translator"),
                ("K_re", _fmt(profile.K.real)), ("K_im", _fmt(profile.K.imag))] + [
            ("base_" + k, v) for k, v in _profile_pairs(profile.base)]
    if isinstance(profile, ExpanderProfile):
        return [("kind", "expander"), ("alpha", _fmt(profile.alpha)),
                ("a", fmt_floats(profile.a)), ("psi", fmt_floats(profile.psi))]
    if isinstance(profile, (HamiltonianStationaryProfile, OrbitProfile)):
        sp = profile.spec
        kind = "orbit" if isinstance(profile, OrbitProfile) else "stationary"
        return [("kind", kind), ("alpha", _fmt(sp.params.alpha)),
                ("lambdas", fmt_floats(sp.params.lambdas)),
                ("alphas", fmt_floats(sp.alphas)), ("A", _fmt(sp.A)),
                ("psi", fmt_floats(sp.psi))]
    raise ValidationError(f"cannot serialize profile of type {type(profile).__name__}")


def read_profile_record(path):
    """Rebuild a profile object from a key=value record."""
    return _profile_from_keyvalues(read_keyvalues(path), path)


def _profile_from_keyvalues(kv: dict, path, prefix: str = ""):
    def get(key):
        v = kv.get(prefix + key)
        if v is None:
            raise ValidationError(f"{path}: profile record is missing '{prefix}{key}'")
        return v

    def nums(key):
        """The comma-separated numbers stored under key."""
        v = get(key)
        try:
            return tuple(float(x) for x in v.split(",")) if v else ()
        except ValueError:
            raise ValidationError(
                f"{path}: '{prefix}{key} = {v}' is not a list of numbers") from None

    def num(key):
        v = nums(key)
        if len(v) != 1:
            raise ValidationError(f"{path}: '{prefix}{key}' must hold one number")
        return v[0]

    kind = get("kind")
    if kind == "translator":
        if prefix:
            raise ValidationError(
                f"{path}: '{prefix}kind = translator', but a translator base must be centred")
        base = _profile_from_keyvalues(kv, path, prefix="base_")
        return TranslatorProfile(base, K=complex(num("K_re"), num("K_im")))
    if kind == "expander":
        return ExpanderProfile(num("alpha"), nums("a"), nums("psi") or None)
    if kind in ("orbit", "stationary"):
        params = SolitonParams(nums("lambdas"), 1.0, num("alpha"))
        # the record holds the exported profile's spec, already rebased; the
        # profiles take it as it is
        spec = PeriodicSpec(params, nums("alphas"), num("A"), nums("psi") or None)
        if kind == "stationary":
            return HamiltonianStationaryProfile(spec)
        return OrbitProfile(spec)
    raise ValidationError(f"{path}: unknown profile kind {kind!r}")
