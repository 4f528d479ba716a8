"""Command-line front end.

Each command returns its report, its extra files and whether its verdict
is negative; `main` alone writes them and maps the outcome to an exit code:

  0  a verdict was reached (verified, equality, hypothesis-failed,
     not-applicable, a Lagrangian surface within the bound, a passed
     nonorientable pipeline), and `--help`;
  1  a usage error (argparse's included), a config error, any other
     MinSurfError or an artifact that cannot be written; nothing is
     written to stdout;
  2  a negative verdict: a COUNTEREXAMPLE flag (which no correct build can
     produce), a Lagrangian surface over the bound of 3 omitted values, or a
     failed stage of the nonorientable pipeline.

stdout carries the report as JSON, or falsify's rows with `--format csv`;
`--out DIR` writes the report and the extra files into DIR. All artifacts
are deterministic for fixed config + seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys

from .config import ConfigError, load_config
from .domains import PuncturedPlane, derive_rng
from .errors import MinSurfError
from .gaussmap import FalsifyBounds, falsify, verify_main_inequality
from .lagrangian import (
    STENCIL_H,
    corollary_bound_check,
    gauss_components,
    immersion_xyzw,
    metric_curvature,
    nondegenerate,
    stencil_residuals,
)
from .meshing import annulus_grid, export_mesh, mesh_text, plane_grid
from .metric import MetricSpec
from .nonorientable import assemble_report
from .poly import Polynomial
from .rational import RationalFunction, format_rational
from .report import (
    build_report,
    canonical_json,
    config_hash,
    jsonable,
    rows_to_csv,
    write_text_atomic,
)
from .scalars import parse_scalar
from .weierstrass import check_conformality, phis_from_data

FALSIFY_FIELDS = [
    "index",
    "punctures",
    "m",
    "q",
    "complete",
    "lhs",
    "applicable",
    "holds",
    "counterexample",
]


def _emit(args, report, extra_files):
    """With --out, write every file; then `<command>.<format>` to stdout, so
    a failed write leaves stdout empty."""
    command = report["command"]
    files = {f"{command}.json": canonical_json(jsonable(report)), **dict(extra_files)}
    if args.out:
        for name, content in files.items():
            write_text_atomic(os.path.join(args.out, name), content)
    sys.stdout.write(files[f"{command}.{getattr(args, 'format', 'json')}"])


def _verdict(rep):
    if rep.counterexample:
        return "COUNTEREXAMPLE"
    if not rep.completeness.overall:
        return "hypothesis-failed"
    if not rep.applicable:
        return "not-applicable"
    if rep.lhs == 1:
        return "equality"
    return "verified" if rep.holds else "COUNTEREXAMPLE"


def cmd_verify_main(args):
    cfg = load_config(args.config)
    spec = cfg.need("metric")
    domain = cfg.need("domain")
    rep = verify_main_inequality(spec, domain)
    verdict = _verdict(rep)
    report = build_report(
        "verify-main",
        cfg.raw,
        {
            "verdict": verdict,
            "inequality": rep.to_dict(),
        },
        cfg_hash=config_hash(cfg.raw_text),
        tolerances={},
    )
    return report, [], verdict == "COUNTEREXAMPLE"


def _gen_example_config(p, m):
    punctures = list(range(1, p))
    z = RationalFunction(Polynomial([0, 1]))
    omega = RationalFunction(Polynomial([1]))
    for a in punctures:
        omega = omega / (z - a)
    factors = [(z, mi) for mi in m]
    spec = MetricSpec(factors, omega)
    domain = PuncturedPlane(punctures)
    raw = {
        "domain": {"kind": "punctured-plane", "punctures": [str(a) for a in punctures]},
        "metric": {
            "factors": [{"g": format_rational(g), "m": mi} for g, mi in factors],
            "omega_hat": format_rational(omega),
        },
    }
    return spec, domain, raw


def cmd_gen_example(args):
    try:
        m = [int(x) for x in args.m.split(",")] if args.m else []
    except ValueError:
        raise ConfigError("--m takes comma-separated nonnegative integers") from None
    if args.p < 2:
        raise ConfigError("--p must be at least 2")
    if any(x < 0 for x in m):
        raise ConfigError("--m entries must be nonnegative")
    spec, domain, raw = _gen_example_config(args.p, m)
    rep = verify_main_inequality(spec, domain)
    results = {
        "complete": rep.completeness.overall,
        "q": [f.q for f in rep.factors],
        "verdict": _verdict(rep),
        "inequality": rep.to_dict(),
    }
    report = build_report(
        "gen-example",
        {"p": args.p, "m": m, "generated_config": raw},
        results,
        cfg_hash=config_hash(canonical_json(raw)),
        tolerances={},
    )
    return report, [], results["verdict"] == "COUNTEREXAMPLE"


def cmd_falsify(args):
    bounds = FalsifyBounds(require_complete=not args.allow_incomplete)
    summary, rows = falsify(args.seed, args.n, bounds=bounds)
    csv_text = rows_to_csv([r.to_dict() for r in rows], FALSIFY_FIELDS)
    report = build_report(
        "falsify",
        {"n": args.n, "seed": args.seed, "require_complete": not args.allow_incomplete},
        {"summary": summary},
        cfg_hash=config_hash(f"falsify:{args.seed}:{args.n}:{not args.allow_incomplete}"),
        tolerances={},
    )
    return report, [("falsify.csv", csv_text)], summary["counterexamples"] > 0


def cmd_lagrangian(args):
    cfg = load_config(args.config)
    block = cfg.need("lagrangian")
    spec, samples, box = block["spec"], block["samples"], block["box"]
    domain = cfg.domain if cfg.domain is not None else PuncturedPlane([])
    seed = args.seed if args.seed is not None else cfg.seed
    nd_ok, nd_offenders = nondegenerate(spec, domain)
    probes = {}
    for text, point in block["probes"].items():
        try:
            lam2, K = metric_curvature(spec, point)
            probes[text] = {"lambda2": lam2, "K": K}
        except MinSurfError as e:
            probes[text] = {"error": str(e)}
    rng = derive_rng(seed, "lagrangian-cli")
    immersion = functools.partial(immersion_xyzw, spec)
    worst_symp = worst_harm = 0.0
    used = 0
    while used < samples:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        try:
            symp, harm = stencil_residuals(immersion, z)
        except MinSurfError:
            continue
        worst_symp = max(worst_symp, symp)
        worst_harm = max(worst_harm, harm)
        used += 1
    g, phase = gauss_components(spec)
    corollary = None
    if isinstance(domain, PuncturedPlane):
        corollary = corollary_bound_check(spec, domain).to_dict()
    results = {
        "nondegenerate": nd_ok,
        "degenerate_points": None
        if nd_offenders is None
        else [str(z) for z in nd_offenders],
        "probes": probes,
        "worst_symplectic_residual": worst_symp,
        "worst_harmonic_residual": worst_harm,
        "gauss_component": None if g is None else format_rational(g),
        "gauss_phase": str(phase),
        "corollary_bound": corollary,
    }
    report = build_report(
        "lagrangian",
        cfg.raw,
        results,
        cfg_hash=config_hash(cfg.raw_text),
        tolerances={"stencil": STENCIL_H},
    )
    return report, [], corollary is not None and corollary["bound_holds"] is False


def cmd_nonorientable(args):
    cfg = load_config(args.config)
    block = cfg.need("nonorientable")
    seed = args.seed if args.seed is not None else cfg.seed
    rep = assemble_report(
        block["data"],
        block["b"],
        block["k"],
        block["R"],
        declared_omitted=block["declared_omitted"],
        samples=block["samples"],
        seed=seed,
        slack=block["slack"],
        mesh_params=block["mesh"],
    )
    report = build_report(
        "nonorientable",
        cfg.raw,
        {"pipeline": rep.to_dict()},
        cfg_hash=config_hash(cfg.raw_text),
        tolerances={"slack": block["slack"]},
    )
    extra = [] if rep.mesh is None else [("moebius.mesh", mesh_text(rep.mesh))]
    return report, extra, not rep.passed


def cmd_mesh(args):
    """Mesh the configured data. `export_mesh` decides regularity and the
    periods once, refusing irregular data and nonreal residues; the report
    states the decisions it returns, and `periods_well_defined` is null off
    punctured planes."""
    cfg = load_config(args.config)
    w = cfg.need("weierstrass")
    domain = cfg.need("domain")
    mesh_cfg = cfg.need("mesh")
    phis = phis_from_data(w)
    if not check_conformality(phis):
        raise ConfigError("weierstrass data is not conformal")
    grid_cfg = mesh_cfg["grid"]
    if grid_cfg["kind"] == "plane":
        grid = plane_grid(grid_cfg["x"], grid_cfg["y"], grid_cfg["nx"], grid_cfg["ny"])
    else:
        grid = annulus_grid(*grid_cfg["r"], grid_cfg["n_r"], grid_cfg["n_theta"])
    base = parse_scalar(mesh_cfg["base"])
    mesh, regularity, periods = export_mesh(phis, domain, grid, base)
    text = mesh_text(mesh)
    results = {
        "vertices": len(mesh.vertices),
        "faces": len(mesh.faces),
        "mesh_sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
        "regular": regularity.regular,
        "periods_well_defined": None if periods is None else periods.well_defined,
    }
    report = build_report(
        "mesh",
        cfg.raw,
        results,
        cfg_hash=config_hash(cfg.raw_text),
        tolerances={},
    )
    return report, [(mesh_cfg["filename"], text)], False


_CONFIG = ("--config", dict(required=True, help="path to the JSON run config"))
_SEED = ("--seed", dict(type=int, default=None, help="override the config seed"))
_OUT = ("--out", dict(default=None, help="directory for report artifacts"))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minsurf4",
        description="Verify and synthesize minimal surfaces in Euclidean 4-space "
        "from rational Weierstrass-type data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *options):
        sub = subs.add_parser(name, help=help)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(fn=fn)

    command("verify-main", cmd_verify_main, "check the exceptional-value inequality", _CONFIG, _OUT)
    command(
        "gen-example",
        cmd_gen_example,
        "emit a sharpness-family example",
        ("--p", dict(type=int, required=True, help="sphere boundary point count")),
        ("--m", dict(default="", help="comma-separated factor weights")),
        _OUT,
    )
    command(
        "falsify",
        cmd_falsify,
        "random search for inequality violations",
        ("--n", dict(type=int, default=1000, help="instance count")),
        (
            "--allow-incomplete",
            dict(
                action="store_true",
                help="keep instances whose metric is incomplete instead of redrawing",
            ),
        ),
        ("--seed", dict(type=int, default=0, help="seed of the instance draws")),
        _OUT,
        ("--format", dict(choices=("json", "csv"), default="json", help="stdout format")),
    )
    command("lagrangian", cmd_lagrangian, "minimal-Lagrangian pipeline checks", _CONFIG, _SEED, _OUT)
    command("nonorientable", cmd_nonorientable, "Moebius-strip pipeline", _CONFIG, _SEED, _OUT)
    command("mesh", cmd_mesh, "export an immersed surface mesh", _CONFIG, _OUT)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 after --help and 2 on a usage error
        return 0 if e.code == 0 else 1
    try:
        report, extra_files, negative = args.fn(args)
        _emit(args, report, extra_files)
    except (MinSurfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 2 if negative else 0


if __name__ == "__main__":
    sys.exit(main())
