"""Structured grids, deterministic mesh text, and surface export."""

import cmath

import pytest

from minsurf4.domains import Annulus, PuncturedPlane
from minsurf4.errors import DomainError, IrregularData
from minsurf4.meshing import (
    Mesh,
    annulus_grid,
    export_mesh,
    mesh_text,
    plane_grid,
)
from minsurf4.rational import RationalFunction
from minsurf4.scalars import GaussianRational
from minsurf4.weierstrass import PhiForms, WeierstrassData, phis_from_data


def _z():
    return RationalFunction.z()


def _catenoid_phis():
    z = _z()
    return phis_from_data(WeierstrassData(z, -z, 1 / (z * z)))


def test_plane_grid_counts():
    points, faces = plane_grid((-1, 1), (-1, 1), 10, 10)
    assert len(points) == 100
    assert len(faces) == 162
    assert all(len(f) == 3 for f in faces)
    assert all(0 <= i < 100 for f in faces for i in f)


def test_plane_grid_validation():
    with pytest.raises(DomainError):
        plane_grid((-1, 1), (-1, 1), 1, 5)


def test_annulus_grid_counts():
    points, faces = annulus_grid(0.5, 2.0, 4, 12)
    assert len(points) == 48
    assert len(faces) == 2 * 3 * 12
    for z in points:
        assert 0.5 - 1e-12 <= abs(z) <= 2.0 + 1e-12


def test_annulus_grid_validation():
    with pytest.raises(DomainError):
        annulus_grid(2.0, 0.5, 4, 12)
    with pytest.raises(DomainError):
        annulus_grid(0.5, 2.0, 1, 12)


def test_mesh_text_deterministic():
    mesh = Mesh([(0.0, 0.0, 0.0, 0.0), (1.0, 0.5, -0.25, 2.0)], [(0, 1, 1)], {"tag": "x"})
    t1 = mesh_text(mesh)
    t2 = mesh_text(mesh)
    assert t1 == t2
    assert "%.17g" % 0.5 in t1 or "0.5" in t1
    assert "tag" in t1


def test_export_mesh_deterministic():
    phis = _catenoid_phis()
    domain = PuncturedPlane([GaussianRational(0)])
    grid = annulus_grid(0.5, 2.0, 4, 12)
    m1, _, _ = export_mesh(phis, domain, grid, 1.0)
    m2, _, _ = export_mesh(phis, domain, grid, 1.0)
    assert mesh_text(m1) == mesh_text(m2)
    assert len(m1.vertices) == 48
    assert len(m1.faces) == 72


def test_export_mesh_catenoid_closed_form():
    # X = Re(-z/2 - 1/(2z), i(z/2 - 1/(2z)), log z, 0) - X(1)
    phis = _catenoid_phis()
    points, faces = annulus_grid(0.5, 2.0, 4, 12)
    mesh, _, _ = export_mesh(phis, PuncturedPlane([GaussianRational(0)]), (points, faces), 1.0)
    for z, v in zip(points, mesh.vertices):
        want = ((-z / 2 - 1 / (2 * z)).real + 1.0, (0.5j * (z - 1 / z)).real, cmath.log(z).real, 0.0)
        assert max(abs(a - b) for a, b in zip(v, want)) < 1e-12


def test_export_mesh_skips_poles():
    phis = _catenoid_phis()
    domain = PuncturedPlane([GaussianRational(0)])
    grid = plane_grid((-1, 1), (-1, 1), 5, 5)  # includes the pole at 0
    with pytest.warns(UserWarning):
        mesh, _, _ = export_mesh(phis, domain, grid, 1.0)
    assert len(mesh.vertices) == 24
    assert mesh.metadata["skipped-points"] == 1
    assert all(0 <= i < 24 for f in mesh.faces for i in f)


def test_export_mesh_refuses_irregular():
    z = _z()
    base = phis_from_data(WeierstrassData(z, 2 * z, RationalFunction.constant(1)))
    scaled = PhiForms(tuple(phi * (z - 1) for phi in base.phi))
    domain = PuncturedPlane([])
    grid = plane_grid((2, 3), (2, 3), 3, 3)
    with pytest.raises(IrregularData):
        export_mesh(scaled, domain, grid, 2.5)


def test_export_mesh_returns_the_decisions_it_made():
    phis = _catenoid_phis()
    grid = annulus_grid(0.5, 2.0, 4, 12)
    _, reg, periods = export_mesh(phis, PuncturedPlane([GaussianRational(0)]), grid, 1.0)
    assert (reg.regular, reg.branch_points, reg.poles) == (True, (), ())
    assert periods.well_defined
    assert [res for _, res in periods.residues] == [(0, 0, 1, 0)]
    # off punctured planes there are no period residues to decide
    _, reg, periods = export_mesh(phis, Annulus(2.5), grid, 1.0)
    assert reg.regular and periods is None


def test_export_mesh_refuses_a_pole_inside_the_domain():
    with pytest.raises(IrregularData, match=r"forms have poles inside the domain at: 0\+0j$"):
        export_mesh(_catenoid_phis(), PuncturedPlane([]), annulus_grid(0.5, 2.0, 4, 12), 1.0)
