"""Seeded input meshes for the benchmark, written as native mesh text.

The generators are vectorized so that building the 52k-cell input costs a
small fraction of a run. They share no code with the package under test:
the program only ever sees the text they write.
"""

from __future__ import annotations

import numpy as np

HEX = 12
QUAD = 9

# Criterion-9 cavity; the cavity walls are the "blade" marker.
PLATE = ((0.4, 1.0), (-0.35, 0.35), (-0.05, 0.05))
HALF = 1.8
JITTER = 0.05  # share of the smaller neighbouring grid spacing


def _axis(n: int, lo: float, hi: float, cuts) -> np.ndarray:
    """Uniform grid lines with the cavity planes inserted; lines closer than
    0.3 h to a cut are dropped so no sliver cells appear next to it."""
    base = np.linspace(lo, hi, n + 1)
    h = (hi - lo) / n
    keep = [p for p in base if all(abs(p - c) > 0.3 * h for c in cuts)]
    return np.unique(np.concatenate([keep, list(cuts)]))


def _hex_conn(pid: np.ndarray, i, j, k) -> np.ndarray:
    """Positively ordered hexahedra for cells with lower corner (i, j, k)."""
    return np.stack([pid[i, j, k], pid[i + 1, j, k], pid[i + 1, j + 1, k],
                     pid[i, j + 1, k], pid[i, j, k + 1], pid[i + 1, j, k + 1],
                     pid[i + 1, j + 1, k + 1], pid[i, j + 1, k + 1]], axis=1)


def _lines(code: int, conn: np.ndarray, numbered: bool) -> list[str]:
    rows = [f"{code} " + " ".join(map(str, row)) for row in conn.tolist()]
    if numbered:
        rows = [f"{r} {i}" for i, r in enumerate(rows)]
    return rows


def mesh_text(points: np.ndarray, hexes: np.ndarray,
              markers: dict[str, np.ndarray]) -> str:
    out = ["NDIME= 3", f"NELEM= {len(hexes)}"]
    out += _lines(HEX, hexes, numbered=True)
    out.append(f"NPOIN= {len(points)}")
    out += [f"{x:.17g} {y:.17g} {z:.17g} {i}"
            for i, (x, y, z) in enumerate(points.tolist())]
    out.append(f"NMARK= {len(markers)}")
    for name, faces in markers.items():
        out += [f"MARKER_TAG= {name}", f"MARKER_ELEMS= {len(faces)}"]
        out += _lines(QUAD, faces, numbered=False)
    return "\n".join(out) + "\n"


def box_with_plate(n: int, seed: int) -> tuple[str, dict]:
    """Cube [-1.8, 1.8]^3 of about n^3 hexes with the criterion-9 cavity.

    Interior nodes on no marker are jittered by the seed, each coordinate by
    up to JITTER of the smaller neighbouring spacing on that axis. Returns
    the mesh text and what the checks need: the connectivity and sizes.
    """
    axes = [_axis(n, -HALF, HALF, cuts) for cuts in PLATE]
    nx, ny, nz = (len(a) - 1 for a in axes)
    pid = np.arange((nx + 1) * (ny + 1) * (nz + 1)).reshape(
        nz + 1, ny + 1, nx + 1).transpose(2, 1, 0)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    centers = [0.5 * (a[1:] + a[:-1]) for a in axes]
    inside = [(lo < c) & (c < hi) for c, (lo, hi) in zip(centers, PLATE)]
    cavity = inside[0][:, None, None] & inside[1][None, :, None] \
        & inside[2][None, None, :]
    i, j, k = np.nonzero(~cavity)
    hexes = _hex_conn(pid, i, j, k)

    # Blade faces: sides of cavity cells that touch a kept cell.
    ci, cj, ck = np.nonzero(cavity)
    padded = np.pad(cavity, 1)
    blade = []
    sides = (
        ((-1, 0, 0), lambda i, j, k: (pid[i, j, k], pid[i, j + 1, k],
                                      pid[i, j + 1, k + 1], pid[i, j, k + 1])),
        ((1, 0, 0), lambda i, j, k: (pid[i + 1, j, k], pid[i + 1, j, k + 1],
                                     pid[i + 1, j + 1, k + 1],
                                     pid[i + 1, j + 1, k])),
        ((0, -1, 0), lambda i, j, k: (pid[i, j, k], pid[i + 1, j, k],
                                      pid[i + 1, j, k + 1], pid[i, j, k + 1])),
        ((0, 1, 0), lambda i, j, k: (pid[i, j + 1, k], pid[i, j + 1, k + 1],
                                     pid[i + 1, j + 1, k + 1],
                                     pid[i + 1, j + 1, k])),
        ((0, 0, -1), lambda i, j, k: (pid[i, j, k], pid[i, j + 1, k],
                                      pid[i + 1, j + 1, k],
                                      pid[i + 1, j, k])),
        ((0, 0, 1), lambda i, j, k: (pid[i, j, k + 1], pid[i + 1, j, k + 1],
                                     pid[i + 1, j + 1, k + 1],
                                     pid[i, j + 1, k + 1])),
    )
    for (di, dj, dk), face in sides:
        open_side = ~padded[ci + 1 + di, cj + 1 + dj, ck + 1 + dk]
        s = open_side.nonzero()[0]
        blade.append(np.stack(face(ci[s], cj[s], ck[s]), axis=1))
    blade = np.concatenate(blade)

    far = []
    a, b = np.meshgrid(np.arange(ny), np.arange(nz), indexing="ij")
    a, b = a.ravel(), b.ravel()
    far.append(np.stack([pid[0, a, b], pid[0, a + 1, b], pid[0, a + 1, b + 1],
                         pid[0, a, b + 1]], axis=1))
    far.append(np.stack([pid[nx, a, b], pid[nx, a, b + 1],
                         pid[nx, a + 1, b + 1], pid[nx, a + 1, b]], axis=1))
    a, b = np.meshgrid(np.arange(nx), np.arange(nz), indexing="ij")
    a, b = a.ravel(), b.ravel()
    far.append(np.stack([pid[a, 0, b], pid[a + 1, 0, b], pid[a + 1, 0, b + 1],
                         pid[a, 0, b + 1]], axis=1))
    far.append(np.stack([pid[a, ny, b], pid[a, ny, b + 1],
                         pid[a + 1, ny, b + 1], pid[a + 1, ny, b]], axis=1))
    a, b = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    a, b = a.ravel(), b.ravel()
    far.append(np.stack([pid[a, b, 0], pid[a, b + 1, 0], pid[a + 1, b + 1, 0],
                         pid[a + 1, b, 0]], axis=1))
    far.append(np.stack([pid[a, b, nz], pid[a + 1, b, nz],
                         pid[a + 1, b + 1, nz], pid[a, b + 1, nz]], axis=1))
    far = np.concatenate(far)

    # Jitter nodes that lie on no marker.
    rng = np.random.default_rng(seed)
    points = grid.transpose(2, 1, 0, 3).reshape(-1, 3)  # row index == pid
    on_marker = np.zeros(len(points), dtype=bool)
    on_marker[blade.ravel()] = True
    on_marker[far.ravel()] = True
    for d, ax in enumerate(axes):
        gap = np.diff(ax)
        local = np.minimum(np.append(gap, np.inf), np.insert(gap, 0, np.inf))
        shape = [1, 1, 1]
        shape[d] = len(ax)
        scale = np.broadcast_to(local.reshape(shape), pid.shape)
        step = scale.reshape(-1, order="F") * JITTER
        noise = rng.uniform(-1.0, 1.0, len(points)) * step
        points[:, d] += np.where(on_marker, 0.0, noise)

    used = np.unique(hexes)
    remap = np.full(len(points), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    markers = {"blade": remap[blade], "farfield": remap[far]}
    text = mesh_text(points[used], remap[hexes], markers)
    return text, {"hexes": remap[hexes], "points": int(len(used)),
                  "blade_faces": int(len(blade))}


def _block(n: int, nz: int, width: float, lo_z: float, hi_z: float):
    """Hex block of n x n x nz cells over [0, 1] x [0, width]."""
    xs = np.linspace(0.0, 1.0, n + 1)
    ys = np.linspace(0.0, width, n + 1)
    zs = np.linspace(lo_z, hi_z, nz + 1)
    grid = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1)
    pid = np.arange(grid.shape[0] * grid.shape[1] * grid.shape[2]).reshape(
        grid.shape[:3], order="F")
    i, j, k = (g.ravel() for g in np.meshgrid(
        np.arange(n), np.arange(n), np.arange(nz), indexing="ij"))
    points = grid.transpose(2, 1, 0, 3).reshape(-1, 3)
    return points, pid, _hex_conn(pid, i, j, k)


def stacked_interface(n_a: int, n_b: int, angle: float, width: float = 0.8,
                      nz: int = 2) -> tuple[str, dict]:
    """Two hex blocks over [0, 1] x [0, width] meeting non-conformally in
    z = 0.

    The lower block's top is n_a x n_a quads (marker iface_a), the upper
    block's bottom n_b x n_b quads (marker iface_b). The upper block is
    rotated by `angle` radians about the vertical axis through the centre.
    The sides are not square: for a square interface the package's plane
    fit has no preferred in-plane axis, so the frame its bin grid is laid
    in turns by an arbitrary angle from one input to the next.
    Returns the mesh text and, in the interface plane, the A faces in
    marker order and both sides' CCW outlines.
    """
    pts_a, pid_a, hex_a = _block(n_a, nz, width, -0.5, 0.0)
    pts_b, pid_b, hex_b = _block(n_b, nz, width, 0.0, 0.5)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    centre = np.array([0.5, 0.5 * width])
    pts_b[:, :2] = (pts_b[:, :2] - centre) @ rot.T + centre
    off = len(pts_a)

    i, j = (g.ravel() for g in np.meshgrid(np.arange(n_a), np.arange(n_a),
                                           indexing="ij"))
    face_a = np.stack([pid_a[i, j, nz], pid_a[i + 1, j, nz],
                       pid_a[i + 1, j + 1, nz], pid_a[i, j + 1, nz]], axis=1)
    i, j = (g.ravel() for g in np.meshgrid(np.arange(n_b), np.arange(n_b),
                                           indexing="ij"))
    face_b = np.stack([pid_b[i, j, 0], pid_b[i, j + 1, 0],
                       pid_b[i + 1, j + 1, 0], pid_b[i + 1, j, 0]],
                      axis=1) + off
    text = mesh_text(np.vstack([pts_a, pts_b]),
                     np.vstack([hex_a, hex_b + off]),
                     {"iface_a": face_a, "iface_b": face_b})
    outline = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, width], [0.0, width]])
    return text, {"faces_a": pts_a[face_a][:, :, :2], "outline_a": outline,
                  "outline_b": (outline - centre) @ rot.T + centre}
