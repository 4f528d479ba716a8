"""Each output check passes the program's real output and rejects a
corrupted copy of it."""

import json
import os

import pytest

import checks
from workloads import CatenoidMesh, Falsify, Moebius, WeierstrassExact

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

HEADER = ",".join(checks.FALSIFY_FIELDS)


def _output(cls, tmp_path, index=0):
    w = cls(seed=7, seconds=1, root=ROOT, workdir=str(tmp_path))
    item = w.items[index]
    return w, item, w.capture(item, w.run(item))


# -- falsify -----------------------------------------------------------------------


def test_falsify_real_rows_pass(tmp_path):
    w = Falsify(seed=7, seconds=1, root=ROOT, workdir=str(tmp_path))
    for item in w.items[:4]:
        assert w.check(item, w.capture(item, w.run(item))) == []


@pytest.mark.parametrize(
    "row",
    [
        "0,1;2,1,3,true,1,true,true,false",  # applicable, lhs = 1/(3-2)
        "0,1;2,2;0,4,true,1,true,true,false",  # a constant factor: q lists one entry
        "0,1;2,2,1,true,,false,,false",  # q <= 2: no left side
        "0,1;2,1,3,false,1,false,,false",  # incomplete: not applicable
    ],
)
def test_falsify_consistent_rows_pass(row):
    assert checks.check_falsify_csv(f"{HEADER}\n{row}\n", 1) == []


@pytest.mark.parametrize(
    "row",
    [
        "0,1;2,1,4,true,1/2,true,true,false",  # lhs < 1 marked as holding
        "0,1;2,1,3,true,2,true,true,false",  # lhs is not m/(q-2)
        "0,1;2,1,3,false,1,true,true,false",  # incomplete instance marked applicable
        "0,1;2,1,3,true,1,true,,false",  # applicable without a verdict
        "0,1;2,1,3,true,1,true,true,true",  # counterexample flag
        "0,1;2,2,1,true,1,true,true,false",  # lhs where q <= 2
    ],
)
def test_falsify_corrupted_rows_fail(row):
    assert checks.check_falsify_csv(f"{HEADER}\n{row}\n", 1)


def test_falsify_missing_row_fails():
    row = "0,1;2,1,3,true,1,true,true,false"
    assert checks.check_falsify_csv(f"{HEADER}\n{row}\n", 2)


# -- weierstrass-exact -------------------------------------------------------------


def test_weierstrass_real_output_passes_and_corruptions_fail(tmp_path):
    w, item, out = _output(WeierstrassExact, tmp_path)
    assert w.check(item, out) == []
    z, phi, back = out["samples"][0]
    moved = dict(out, samples=[(z, (phi[0] * (1 + 1e-6),) + phi[1:], back)] + out["samples"][1:])
    assert w.check(item, moved)
    moved = dict(out, samples=[(z, phi, (back[0] + 1e-6,) + back[1:])] + out["samples"][1:])
    assert w.check(item, moved)
    assert w.check(item, dict(out, conformal=False))
    assert w.check(item, dict(out, round_trip_equal=False))


def test_weierstrass_negative_control_holds(tmp_path):
    w = WeierstrassExact(seed=7, seconds=1, root=ROOT, workdir=str(tmp_path))
    assert w.negative_control() == []


def test_phi_values_are_conformal():
    triple = (
        ([(1, 0), (0, 1), (2, -1)], [(1, 1), (0, 0), (1, 0)]),
        ([(0, 2), (1, 0), (-1, 1)], [(2, 0), (1, 0), (0, 1)]),
        ([(1, 0), (1, 1), (0, 1)], [(0, 1), (2, 0), (1, 1)]),
    )
    vals = checks.phi_values(triple, 0.7 + 0.3j)
    assert abs(sum(v * v for v in vals)) < 1e-12


# -- catenoid-mesh -----------------------------------------------------------------


def _move_vertex(text, index, delta):
    lines = text.splitlines()
    seen = -1
    for i, line in enumerate(lines):
        if line.startswith("v "):
            seen += 1
            if seen == index:
                body, _, w = line[2:].partition(" # w ")
                x, y, z = (float(v) for v in body.split())
                lines[i] = f"v {x + delta!r} {y} {z} # w {w}"
                break
    return "\n".join(lines) + "\n"


def test_catenoid_real_mesh_passes_and_moved_vertex_fails(tmp_path):
    w, item, (code, text) = _output(CatenoidMesh, tmp_path)
    assert code == 0
    assert w.check(item, (code, text)) == []
    assert w.check(item, (code, _move_vertex(text, 37, 1e-6)))
    # a dropped face
    last_face = text.rstrip("\n").rsplit("\n", 1)[0] + "\n"
    assert w.check(item, (code, last_face))


def test_catenoid_closed_form_at_base_is_zero():
    assert checks.catenoid_point(1 + 0j) == (0.0, 0.0, 0.0, 0.0)


# -- moebius -----------------------------------------------------------------------


def test_moebius_real_output_passes_and_corruptions_fail(tmp_path):
    w, item, (code, text, mesh) = _output(Moebius, tmp_path)
    assert w.check(item, (code, text, mesh)) == []
    assert w.check(item, (code, text, _move_vertex(mesh, 100, 0.05)))
    report = json.loads(text)
    stages = report["results"]["pipeline"]["stages"]
    stages[0]["details"]["circle_min"] = 2 ** 0.5
    assert w.check(item, (code, json.dumps(report), mesh))
    report = json.loads(text)
    report["results"]["pipeline"]["stages"][-1]["status"] = "failed"
    assert w.check(item, (code, json.dumps(report), mesh))
    report = json.loads(text)
    report["results"]["pipeline"]["passed"] = False
    assert w.check(item, (code, json.dumps(report), mesh))


def test_moebius_psi_has_no_residue_and_matches_the_stage_text():
    block = json.load(open(os.path.join(ROOT, "configs", "moebius-strip.json")))["nonorientable"]
    phi = [checks.parse_laurent_terms(t) for t in block["phi"]]
    b = [checks.parse_gauss(t) for t in block["b"]]
    # the psi-assembly stage of the shipped config prints
    # (-3i)*z^2 + (-3i)*z + (3i)*z^-1 + (-3i)*z^-2 for the fourth component
    h4 = checks.psi_from_config(phi, b, 3)[3]
    assert h4 == {2: (0, -3), 1: (0, -3), -1: (0, 3), -2: (0, -3)}
    for k in (3, 5):
        assert all(0 not in h for h in checks.psi_from_config(phi, b, k))


@pytest.mark.parametrize(
    "text, value",
    [("1", (1, 0)), ("-1/2i", (0, -0.5)), ("i", (0, 1)), ("3-1/2i", (3, -0.5)), ("0", (0, 0))],
)
def test_parse_gauss(text, value):
    assert checks.parse_gauss(text) == checks.gauss(*value)
