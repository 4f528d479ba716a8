"""Run configuration: a single JSON document per run, exact numbers as text.

Scalars, polynomials, rational functions, and Laurent polynomials appear as
strings in the grammars of `parse_scalar`, `parse_poly`, `parse_rational`,
and `parse_laurent`, so rational data stays exact through the file format.
Numbers are accepted only where a quantity is genuinely real-valued (R, beta,
box, slack, mesh grid ranges), and must be finite there. Every section lists
the keys it reads and refuses any other, so a misspelt or retired key is an
error rather than silently ignored; integer and real fields refuse booleans.
"""

from __future__ import annotations

import json
import math

from .domains import Annulus, PuncturedPlane
from .errors import ConfigError
from .laurent import parse_laurent
from .lagrangian import HolomorphicPair, LagrangianSpec
from .metric import MetricSpec
from .nonorientable import SymmetricLaurentData
from .rational import parse_rational
from .report import Record
from .scalars import parse_scalar
from .sphere import SpherePoint
from .weierstrass import WeierstrassData


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def _as_mapping(value, where, keys=None):
    """value as an object; with keys given, one holding no other key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(value) - set(keys)) if keys is not None else []
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: " + ", ".join(map(repr, unknown)))
    return value


def _integer(value, where, least):
    """value as an int >= least; JSON booleans are not integers here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{where} must be an integer >= {least}")
    return value


def _real(value, where, positive):
    """value as a finite float, > 0 if positive; JSON booleans and strings
    are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out) or (positive and not out > 0.0):
        raise ConfigError(f"{where} must be a finite {'positive ' if positive else ''}number")
    return out


def parse_domain(block):
    block = _as_mapping(block, "domain", ("kind", "punctures", "R"))
    kind = _require(block, "kind", "domain")
    punctures = block.get("punctures", [])
    if not isinstance(punctures, list):
        raise ConfigError("domain punctures must be a list")
    try:
        pts = [parse_scalar(str(p)) for p in punctures]
    except ValueError as e:
        raise ConfigError(f"bad puncture: {e}") from None
    if kind == "punctured-plane":
        return PuncturedPlane(pts)
    if kind == "annulus":
        return Annulus(_real(_require(block, "R", "domain"), "domain R", positive=True), pts)
    raise ConfigError(f"unknown domain kind {kind!r}")


def parse_metric(block):
    block = _as_mapping(block, "metric", ("factors", "omega_hat"))
    factors_raw = _require(block, "factors", "metric")
    if not isinstance(factors_raw, list) or not factors_raw:
        raise ConfigError("metric factors must be a nonempty list")
    factors = []
    for i, item in enumerate(factors_raw):
        item = _as_mapping(item, f"metric factor {i}", ("g", "m"))
        g_text = _require(item, "g", f"metric factor {i}")
        m = _integer(_require(item, "m", f"metric factor {i}"), f"metric factor {i} m", 0)
        try:
            factors.append((parse_rational(str(g_text)), m))
        except ValueError as e:
            raise ConfigError(f"metric factor {i}: {e}") from None
    try:
        omega = parse_rational(str(_require(block, "omega_hat", "metric")))
    except ValueError as e:
        raise ConfigError(f"metric omega_hat: {e}") from None
    return MetricSpec(factors, omega)


def parse_weierstrass(block):
    block = _as_mapping(block, "weierstrass", ("g1", "g2", "omega_hat"))
    try:
        g1 = parse_rational(str(_require(block, "g1", "weierstrass")))
        g2 = parse_rational(str(_require(block, "g2", "weierstrass")))
        omega = parse_rational(str(_require(block, "omega_hat", "weierstrass")))
    except ValueError as e:
        raise ConfigError(f"weierstrass data: {e}") from None
    return WeierstrassData(g1, g2, omega)


def parse_lagrangian(block):
    """{"spec": LagrangianSpec, "probes": {text: exact point}, "samples": int,
    "box": float}; the defaults are probe "0", 40 samples and box 2."""
    block = _as_mapping(block, "lagrangian", ("F1", "F2", "beta", "probes", "samples", "box"))
    try:
        f1 = parse_rational(str(_require(block, "F1", "lagrangian")))
        f2 = parse_rational(str(_require(block, "F2", "lagrangian")))
    except ValueError as e:
        raise ConfigError(f"lagrangian pair: {e}") from None
    beta = _real(block.get("beta", 0.0), "lagrangian beta", positive=False)
    probes_raw = block.get("probes", ["0"])
    if not isinstance(probes_raw, list):
        raise ConfigError("lagrangian probes must be a list")
    try:
        probes = {str(t): parse_scalar(str(t)) for t in probes_raw}
    except ValueError as e:
        raise ConfigError(f"lagrangian probe: {e}") from None
    return {
        "spec": LagrangianSpec.from_pair(HolomorphicPair(f1, f2), beta=beta),
        "probes": probes,
        "samples": _integer(block.get("samples", 40), "lagrangian samples", 1),
        "box": _real(block.get("box", 2.0), "lagrangian box", positive=True),
    }


def parse_nonorientable(block):
    block = _as_mapping(
        block,
        "nonorientable",
        ("phi", "b", "k", "R", "declared_omitted", "samples", "slack", "mesh"),
    )
    phi_raw = _require(block, "phi", "nonorientable")
    if not isinstance(phi_raw, list) or len(phi_raw) != 4:
        raise ConfigError("nonorientable phi must list four Laurent polynomials")
    try:
        phis = [parse_laurent(str(t)) for t in phi_raw]
    except ValueError as e:
        raise ConfigError(f"nonorientable phi: {e}") from None
    try:
        data = SymmetricLaurentData(phis)
    except Exception as e:
        raise ConfigError(f"nonorientable phi: {e}") from None
    b_raw = _require(block, "b", "nonorientable")
    if not isinstance(b_raw, list) or not b_raw:
        raise ConfigError("nonorientable b must be a nonempty coefficient list")
    try:
        b = [parse_scalar(str(x)) for x in b_raw]
    except ValueError as e:
        raise ConfigError(f"nonorientable b: {e}") from None
    k = _integer(_require(block, "k", "nonorientable"), "nonorientable k", 1)
    R = _real(_require(block, "R", "nonorientable"), "nonorientable R", positive=True)
    if not R > 1.0:
        raise ConfigError("nonorientable R must exceed 1")
    declared = block.get("declared_omitted")
    if declared is not None:
        if not isinstance(declared, list) or len(declared) != 2:
            raise ConfigError("declared_omitted must list two point sets")
        declared = [
            [SpherePoint.of(str(p)) for p in points] for points in declared
        ]
    out = {
        "data": data,
        "b": b,
        "k": k,
        "R": R,
        "declared_omitted": declared,
        "samples": _integer(block.get("samples", 1000), "nonorientable samples", 1),
        "slack": _real(block.get("slack", 1e-12), "nonorientable slack", positive=True),
        "mesh": block.get("mesh"),
    }
    if out["mesh"] is not None:
        mesh = _as_mapping(out["mesh"], "nonorientable mesh", ("n_r", "n_theta", "metadata"))
        out["mesh"] = {
            "n_r": _integer(mesh.get("n_r", 8), "nonorientable mesh n_r", 2),
            "n_theta": _integer(mesh.get("n_theta", 64), "nonorientable mesh n_theta", 2),
            "metadata": mesh.get("metadata"),
        }
    return out


_GRID_KEYS = {"plane": ("x", "y", "nx", "ny"), "annulus": ("r", "n_r", "n_theta")}


def parse_mesh(block):
    block = _as_mapping(block, "mesh", ("grid", "base", "filename"))
    grid = _as_mapping(_require(block, "grid", "mesh"), "mesh grid")
    kind = _require(grid, "kind", "mesh grid")
    if kind not in _GRID_KEYS:
        raise ConfigError(f"unknown mesh grid kind {kind!r}")
    _as_mapping(grid, f"{kind} mesh grid", ("kind",) + _GRID_KEYS[kind])
    grid = dict(grid)
    for key in _GRID_KEYS[kind]:
        value = _require(grid, key, "mesh grid")
        if key in ("x", "y", "r"):
            if not (isinstance(value, list) and len(value) == 2):
                raise ConfigError(f"mesh grid {key} must be [lo, hi]")
            grid[key] = [_real(v, f"mesh grid {key}", positive=False) for v in value]
        else:
            _integer(value, f"mesh grid {key}", 2)
    if kind == "annulus" and not 0 < grid["r"][0] < grid["r"][1]:
        raise ConfigError("mesh grid r must be [lo, hi] with 0 < lo < hi")
    base = str(block.get("base", "0"))
    try:
        parse_scalar(base)
    except ValueError as e:
        raise ConfigError(f"mesh base: {e}") from None
    return {"grid": grid, "base": base, "filename": block.get("filename", "surface.mesh")}


class RunConfig(Record):
    """Validated run parameters; raw text retained for hashing."""

    __slots__ = (
        "raw_text",
        "raw",
        "seed",
        "domain",
        "metric",
        "weierstrass",
        "lagrangian",
        "nonorientable",
        "mesh",
    )

    def __init__(self, raw_text):
        try:
            raw = json.loads(raw_text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        sections = (
            ("domain", parse_domain),
            ("metric", parse_metric),
            ("weierstrass", parse_weierstrass),
            ("lagrangian", parse_lagrangian),
            ("nonorientable", parse_nonorientable),
            ("mesh", parse_mesh),
        )
        _as_mapping(raw, "config root", ["seed"] + [name for name, _ in sections])
        seed = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError("seed must be an integer")
        parsed = [None if raw.get(name) is None else parser(raw[name]) for name, parser in sections]
        super().__init__(raw_text, raw, seed, *parsed)

    def need(self, name):
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"config lacks the {name!r} section")
        return value


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from None
    return RunConfig(text)
