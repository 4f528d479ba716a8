"""Run-configuration parsing and validation."""

import json
import pathlib

import pytest

from minsurf4.config import RunConfig, load_config
from minsurf4.domains import Annulus, PuncturedPlane
from minsurf4.errors import ConfigError
from minsurf4.scalars import GaussianRational

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _cfg(doc):
    return RunConfig(json.dumps(doc))


def test_shipped_configs_parse():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) >= 4
    for path in paths:
        cfg = load_config(path)
        assert cfg.seed == 0


def test_family_config_sections():
    cfg = load_config(CONFIG_DIR / "prop-family-p4.json")
    assert isinstance(cfg.domain, PuncturedPlane)
    assert cfg.domain.punctures == (
        GaussianRational(1),
        GaussianRational(2),
        GaussianRational(3),
    )
    spec = cfg.need("metric")
    assert [m for _, m in spec.factors] == [1, 1]
    assert cfg.weierstrass is None


def test_catenoid_config_sections():
    cfg = load_config(CONFIG_DIR / "catenoid-mesh.json")
    w = cfg.need("weierstrass")
    assert w.g2.eval_at(GaussianRational(1)) == GaussianRational(-1)
    mesh = cfg.need("mesh")
    assert mesh["filename"] == "catenoid.mesh"
    assert mesh["base"] == "1"


def test_moebius_config_sections():
    cfg = load_config(CONFIG_DIR / "moebius-strip.json")
    block = cfg.need("nonorientable")
    assert block["k"] == 3
    assert block["R"] == 4.0
    assert len(block["declared_omitted"]) == 2


def test_need_raises_for_missing_section():
    cfg = _cfg({"seed": 1})
    assert cfg.seed == 1
    with pytest.raises(ConfigError):
        cfg.need("lagrangian")


def test_root_validation():
    with pytest.raises(ConfigError):
        RunConfig("not json at all {")
    with pytest.raises(ConfigError):
        RunConfig(json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        _cfg({"seed": "zero"})


def test_domain_validation():
    cfg = _cfg({"domain": {"kind": "punctured-plane", "punctures": ["1/2", "3i"]}})
    assert isinstance(cfg.domain, PuncturedPlane)
    cfg = _cfg({"domain": {"kind": "annulus", "R": 2.5}})
    assert isinstance(cfg.domain, Annulus)
    with pytest.raises(ConfigError):
        _cfg({"domain": {"kind": "disk"}})
    with pytest.raises(ConfigError):
        _cfg({"domain": {"kind": "punctured-plane", "punctures": ["1.5"]}})
    with pytest.raises(ConfigError):
        _cfg({"domain": {"kind": "punctured-plane", "punctures": "0"}})
    with pytest.raises(ConfigError):
        _cfg({"domain": {"kind": "annulus"}})
    with pytest.raises(ConfigError):
        _cfg({"domain": {"kind": "annulus", "R": -2.0}})
    with pytest.raises(ConfigError):
        _cfg({"domain": []})


def test_metric_validation():
    doc = {
        "metric": {
            "factors": [{"g": "(1)*z", "m": 2}],
            "omega_hat": "(1) over (1)*z",
        }
    }
    cfg = _cfg(doc)
    assert cfg.metric is not None
    with pytest.raises(ConfigError):
        _cfg({"metric": {"factors": [], "omega_hat": "(1)"}})
    with pytest.raises(ConfigError):
        _cfg({"metric": {"omega_hat": "(1)"}})
    with pytest.raises(ConfigError):
        _cfg(
            {
                "metric": {
                    "factors": [{"g": "(1)*z", "m": -1}],
                    "omega_hat": "(1)",
                }
            }
        )
    with pytest.raises(ConfigError):
        _cfg(
            {
                "metric": {
                    "factors": [{"g": "(1)*z", "m": 1.5}],
                    "omega_hat": "(1)",
                }
            }
        )
    with pytest.raises(ConfigError):
        _cfg(
            {
                "metric": {
                    "factors": [{"g": "z^^2", "m": 1}],
                    "omega_hat": "(1)",
                }
            }
        )


def test_weierstrass_validation():
    with pytest.raises(ConfigError):
        _cfg({"weierstrass": {"g1": "(1)*z", "g2": "(1)*z"}})
    with pytest.raises(ConfigError):
        _cfg({"weierstrass": {"g1": "(1)*z", "g2": "??", "omega_hat": "(1)"}})


def test_lagrangian_validation():
    cfg = _cfg({"lagrangian": {"F1": "(1)*z", "F2": "(2)*z"}})
    assert cfg.lagrangian["spec"].beta == 0.0
    with pytest.raises(ConfigError):
        _cfg({"lagrangian": {"F1": "(1)*z", "F2": "(2)*z", "beta": "fast"}})
    with pytest.raises(ConfigError):
        _cfg({"lagrangian": {"F1": "(1)*z"}})


def _nonorientable_doc(**overrides):
    block = {
        "phi": [
            "(1/2)*z + (1/2)*z^-1",
            "(-1/2i)*z + (1/2i)*z^-1",
            "0",
            "(-1i)",
        ],
        "b": ["1", "1"],
        "k": 3,
        "R": 4.0,
    }
    block.update(overrides)
    return {"nonorientable": block}


def test_nonorientable_defaults():
    cfg = _cfg(_nonorientable_doc())
    block = cfg.need("nonorientable")
    assert block["samples"] == 1000
    assert block["slack"] == 1e-12
    assert block["mesh"] is None
    assert block["declared_omitted"] is None
    assert block["b"] == [GaussianRational(1), GaussianRational(1)]
    mesh = _cfg(_nonorientable_doc(mesh={"n_theta": 16})).need("nonorientable")["mesh"]
    assert mesh == {"n_r": 8, "n_theta": 16, "metadata": None}


def test_nonorientable_validation():
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(phi=["(1i)"]))
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(phi=["(1)", "0", "0", "0"]))  # asymmetric
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(b=[]))
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(b=["1.25"]))
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(k="three"))
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(R=0.5))
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(declared_omitted=[["0"]]))
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(samples=0))
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(slack=0.0))


def test_mesh_validation():
    plane = {
        "mesh": {
            "grid": {"kind": "plane", "x": [-1, 1], "y": [-1, 1], "nx": 4, "ny": 4}
        }
    }
    cfg = _cfg(plane)
    assert cfg.mesh["filename"] == "surface.mesh"
    assert cfg.mesh["base"] == "0"
    with pytest.raises(ConfigError):
        _cfg({"mesh": {"grid": {"kind": "plane", "x": [-1], "y": [-1, 1], "nx": 4, "ny": 4}}})
    with pytest.raises(ConfigError):
        _cfg({"mesh": {"grid": {"kind": "plane", "x": [-1, 1], "y": [-1, 1], "nx": 1, "ny": 4}}})
    with pytest.raises(ConfigError):
        _cfg({"mesh": {"grid": {"kind": "annulus", "r": [2.0, 0.5], "n_r": 4, "n_theta": 8}}})
    with pytest.raises(ConfigError):
        _cfg({"mesh": {"grid": {"kind": "annulus", "r": [0.5, 2.0], "n_r": 4.5, "n_theta": 8}}})
    with pytest.raises(ConfigError):
        _cfg({"mesh": {"grid": {"kind": "torus"}}})
    with pytest.raises(ConfigError):
        _cfg(
            {
                "mesh": {
                    "grid": {"kind": "plane", "x": [-1, 1], "y": [-1, 1], "nx": 4, "ny": 4},
                    "base": "0.5",
                }
            }
        )


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="'nonorientible'"):
        _cfg({"seed": 1, "tolerance": -1, "nonorientible": {}})
    with pytest.raises(ConfigError, match="'tolerance'"):
        _cfg({"seed": 1, "tolerance": -1})
    with pytest.raises(ConfigError, match="'puncture'"):
        _cfg({"domain": {"kind": "punctured-plane", "puncture": ["0"]}})
    with pytest.raises(ConfigError, match="'omega'"):
        _cfg({"weierstrass": {"g1": "(1)*z", "g2": "(1)*z", "omega_hat": "(1)", "omega": "(1)"}})
    with pytest.raises(ConfigError, match="'weight'"):
        _cfg({"metric": {"factors": [{"g": "(1)*z", "m": 1, "weight": 2}], "omega_hat": "(1)"}})
    with pytest.raises(ConfigError, match="'F3'"):
        _cfg({"lagrangian": {"F1": "(1)*z", "F2": "(2)*z", "F3": "(1)"}})
    with pytest.raises(ConfigError, match="'n_theta'"):
        _cfg({"mesh": {"grid": {"kind": "plane", "x": [-1, 1], "y": [-1, 1], "nx": 4, "ny": 4, "n_theta": 8}}})
    with pytest.raises(ConfigError, match="'name'"):
        _cfg({"mesh": {"grid": {"kind": "plane", "x": [-1, 1], "y": [-1, 1], "nx": 4, "ny": 4}, "name": "m"}})
    with pytest.raises(ConfigError, match="'n_rho'"):
        _cfg(_nonorientable_doc(mesh={"n_r": 4, "n_rho": 8}))


def test_retired_loop_tol_is_refused():
    with pytest.raises(ConfigError, match="'loop_tol'"):
        _cfg(_nonorientable_doc(loop_tol=1e-8))


def test_booleans_are_not_integers():
    with pytest.raises(ConfigError):
        _cfg({"seed": True})
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(k=True))
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(samples=True))
    with pytest.raises(ConfigError):
        _cfg(_nonorientable_doc(mesh={"n_r": True, "n_theta": 8}))
    with pytest.raises(ConfigError):
        _cfg({"lagrangian": {"F1": "(1)*z", "F2": "(2)*z", "samples": True}})
    with pytest.raises(ConfigError):
        _cfg({"metric": {"factors": [{"g": "(1)*z", "m": True}], "omega_hat": "(1)"}})
    for key in ("nx", "ny"):
        grid = {"kind": "plane", "x": [-1, 1], "y": [-1, 1], "nx": 4, "ny": 4, key: True}
        with pytest.raises(ConfigError):
            _cfg({"mesh": {"grid": grid}})
    for key in ("n_r", "n_theta"):
        grid = {"kind": "annulus", "r": [0.5, 2.0], "n_r": 4, "n_theta": 8, key: True}
        with pytest.raises(ConfigError):
            _cfg({"mesh": {"grid": grid}})


def _annulus_mesh(r):
    return {"mesh": {"grid": {"kind": "annulus", "r": r, "n_r": 4, "n_theta": 8}}}


def _lagrangian(**entries):
    return {"lagrangian": {"F1": "(1)*z", "F2": "(2)*z", **entries}}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_lagrangian(box=True), "lagrangian box must be a number"),
        (_lagrangian(beta=True), "lagrangian beta must be a number"),
        (_lagrangian(beta="0.5"), "lagrangian beta must be a number"),
        (_lagrangian(beta=float("nan")), "lagrangian beta must be a finite number"),
        (_lagrangian(box=10**400), "lagrangian box must be a finite positive number"),
        ({"domain": {"kind": "annulus", "R": True}}, "domain R must be a number"),
        (_nonorientable_doc(R=True), "nonorientable R must be a number"),
        (_nonorientable_doc(slack=float("inf")), "nonorientable slack must be a finite positive number"),
        (_annulus_mesh(["a", 2]), "mesh grid r must be a number"),
        (_annulus_mesh([True, 2]), "mesh grid r must be a number"),
        (_annulus_mesh([0.5, float("inf")]), "mesh grid r must be a finite number"),
        (
            {"mesh": {"grid": {"kind": "plane", "x": [-1, False], "y": [-1, 1], "nx": 4, "ny": 4}}},
            "mesh grid x must be a number",
        ),
    ],
)
def test_reals_are_finite_numbers_and_not_booleans(doc, message):
    with pytest.raises(ConfigError) as e:
        _cfg(doc)
    assert str(e.value) == message


def test_mesh_grid_ranges_are_read_as_floats():
    grid = _cfg(_annulus_mesh([1, 2])).need("mesh")["grid"]
    assert grid["r"] == [1.0, 2.0]
    assert all(type(v) is float for v in grid["r"])


def test_generated_mesh_config_loads():
    # the shipped catenoid config with its grid and file name replaced, as
    # a benchmark or a script writes it
    base = json.loads((CONFIG_DIR / "catenoid-mesh.json").read_text())
    grid = {"kind": "annulus", "r": [0.45, 2.1], "n_r": 8, "n_theta": 24}
    cfg = _cfg(dict(base, mesh=dict(base["mesh"], grid=grid, filename="catenoid.mesh")))
    assert cfg.need("mesh")["grid"] == grid
