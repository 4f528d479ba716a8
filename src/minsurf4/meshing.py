"""Triangle meshes of immersed surface patches, with a deterministic
ASCII format: Wavefront-style v/f lines carrying the first three coordinates,
the fourth coordinate riding in a trailing comment and again in a `va`
attribute line per vertex.

`export_mesh` immerses a grid through `weierstrass.immerse`'s closed-form
primitives, evaluated on Python complex scalars, so the `mesh` command never
loads numpy; only the nonorientable pipeline evaluates numpy arrays.
"""

from __future__ import annotations

import math
import warnings

from .errors import DomainError, IrregularData
from .report import Record
from .scalars import to_complex
from .weierstrass import _form_poles, _immerse, check_regularity, real_periods

FLOAT_FMT = "%.17g"


class Mesh(Record):
    __slots__ = ("vertices", "faces", "metadata")

    def __init__(self, vertices, faces, metadata=None):
        vertices = [tuple(float(c) for c in v) for v in vertices]
        for v in vertices:
            if len(v) != 4:
                raise DomainError("vertices carry four coordinates")
            if any(math.isnan(c) or math.isinf(c) for c in v):
                raise DomainError("non-finite vertex coordinate")
        faces = [tuple(int(i) for i in f) for f in faces]
        n = len(vertices)
        for f in faces:
            if len(f) != 3:
                raise DomainError("faces are triangles")
            if any(not 0 <= i < n for i in f):
                raise DomainError("face index out of range")
        super().__init__(vertices, faces, dict(metadata or {}))


def mesh_text(mesh):
    lines = ["# minimal-surface mesh, 4 coordinates per vertex"]
    for key in sorted(mesh.metadata):
        lines.append(f"# {key}: {mesh.metadata[key]}")
    lines.append(f"# vertices: {len(mesh.vertices)}")
    lines.append(f"# faces: {len(mesh.faces)}")
    for v in mesh.vertices:
        x, y, z, w = (FLOAT_FMT % c for c in v)
        lines.append(f"v {x} {y} {z} # w {w}")
    for v in mesh.vertices:
        lines.append("va " + (FLOAT_FMT % v[3]))
    for f in mesh.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    return "\n".join(lines) + "\n"


# -- structured grids ---------------------------------------------------------------


def plane_grid(x_range, y_range, nx, ny):
    """Row-major rectangular grid, two triangles per cell."""
    if nx < 2 or ny < 2:
        raise DomainError("grid needs at least 2 points per side")
    x0, x1 = x_range
    y0, y1 = y_range
    points = []
    for j in range(ny):
        y = y0 + (y1 - y0) * j / (ny - 1)
        for i in range(nx):
            x = x0 + (x1 - x0) * i / (nx - 1)
            points.append(complex(x, y))
    faces = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i
            b = a + 1
            c = a + nx
            d = c + 1
            faces.append((a, b, d))
            faces.append((a, d, c))
    return points, faces


def annulus_grid(r_lo, r_hi, n_r, n_theta):
    """Polar grid about 0 over the full turn, its angular seam closed."""
    if not (0 < r_lo < r_hi):
        raise DomainError("need 0 < r_lo < r_hi")
    if n_r < 2 or n_theta < 3:
        raise DomainError("polar grid needs n_r >= 2, n_theta >= 3")
    points = []
    for j in range(n_r):
        r = r_lo + (r_hi - r_lo) * j / (n_r - 1)
        for i in range(n_theta):
            th = 2.0 * math.pi * i / n_theta
            points.append(r * complex(math.cos(th), math.sin(th)))
    faces = []
    for j in range(n_r - 1):
        for i in range(n_theta):
            i2 = (i + 1) % n_theta
            a = j * n_theta + i
            b = j * n_theta + i2
            cc = (j + 1) * n_theta + i
            d = (j + 1) * n_theta + i2
            faces.append((a, b, d))
            faces.append((a, d, cc))
    return points, faces


def export_mesh(p, domain, grid, base):
    """Immerse a structured grid and triangulate it: (mesh, regularity,
    periods), the mesh with the RegularityReport and the PeriodReport (None
    off punctured planes) it was built on, so a report reads each exact
    decision from the one run made here.

    grid is (points, faces) from one of the builders. Forms with a common
    zero or a pole inside the domain raise IrregularData naming the points,
    and nonreal residues at the punctures raise MultivaluedImmersion
    (`real_periods`). Grid points hitting a pole are skipped with a warning
    and their faces dropped.
    """
    reg = check_regularity(p, domain)
    if reg.branch_points:
        raise IrregularData(f"forms share zeros inside the domain at: {_points(reg.branch_points)}")
    if reg.poles:
        raise IrregularData(f"forms have poles inside the domain at: {_points(reg.poles)}")
    periods = real_periods(p, domain)
    points, faces = grid
    poles = _form_poles(p)
    singular = [to_complex(q) for q in domain.punctures]
    singular += [z for form_poles in poles for z, _ in form_poles]
    alive = []
    index_map = {}
    skipped = 0
    for i, z in enumerate(points):
        if any(abs(z - s) <= 1e-8 * (1.0 + abs(s)) for s in singular):
            skipped += 1
            continue
        index_map[i] = len(alive)
        alive.append(z)
    if skipped:
        warnings.warn(f"skipped {skipped} grid points at poles", stacklevel=2)
    xs = _immerse(p, base, alive, poles)
    new_faces = []
    for f in faces:
        if all(i in index_map for i in f):
            new_faces.append(tuple(index_map[i] for i in f))
    return Mesh(xs, new_faces, {"skipped-points": skipped}), reg, periods


def _points(zs):
    return ", ".join(f"{z:.6g}" for z in zs)
