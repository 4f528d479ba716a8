"""Command-line front end.

Exit codes: 0 verified or hypothesis-not-applicable, 1 usage/config error,
2 negative verdict: a COUNTEREXAMPLE flag (which no correct build can
produce), a Lagrangian surface over the bound of 3 omitted values, or a
failed stage of the nonorientable pipeline. All artifacts are
deterministic for fixed config + seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .domains import PuncturedPlane, derive_rng
from .errors import MinSurfError
from .gaussmap import FalsifyBounds, exceptional_values, falsify, verify_main_inequality
from .lagrangian import (
    corollary_bound_check,
    gauss_components,
    lagrangian_minimality_check,
    metric_curvature,
    nondegenerate,
)
from .meshing import annulus_grid, export_mesh, mesh_hash, mesh_text, plane_grid
from .metric import MetricSpec, is_complete
from .nonorientable import assemble_report, build_f
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
from .weierstrass import (
    check_conformality,
    check_regularity,
    period_residues,
    phis_from_data,
)

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


def _emit(args, report, extra_files=()):
    text = canonical_json(jsonable(report))
    if getattr(args, "format", "json") == "json":
        sys.stdout.write(text)
    if args.out:
        path = os.path.join(args.out, f"{report['command']}.json")
        write_text_atomic(path, text)
        for name, content in extra_files:
            write_text_atomic(os.path.join(args.out, name), content)


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
        tolerances={"exact": True},
    )
    _emit(args, report)
    return 2 if verdict == "COUNTEREXAMPLE" else 0


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
    completeness = is_complete(spec, domain)
    rep = verify_main_inequality(spec, domain)
    qs = []
    for g, _ in spec.factors:
        qs.append(None if g.is_constant() else len(exceptional_values(g, domain)))
    results = {
        "complete": completeness.overall,
        "q": qs,
        "verdict": _verdict(rep),
        "inequality": rep.to_dict(),
    }
    report = build_report(
        "gen-example",
        {"p": args.p, "m": m, "generated_config": raw},
        results,
        cfg_hash=config_hash(canonical_json(raw)),
        tolerances={"exact": True},
    )
    _emit(args, report)
    return 2 if results["verdict"] == "COUNTEREXAMPLE" else 0


def cmd_falsify(args):
    bounds = FalsifyBounds(require_complete=not args.allow_incomplete)
    summary, rows = falsify(args.seed, args.n, bounds=bounds)
    row_dicts = [r.to_dict() for r in rows]
    csv_text = rows_to_csv(row_dicts, FALSIFY_FIELDS)
    report = build_report(
        "falsify",
        {"n": args.n, "seed": args.seed, "require_complete": not args.allow_incomplete},
        {"summary": summary},
        cfg_hash=config_hash(f"falsify:{args.seed}:{args.n}:{not args.allow_incomplete}"),
        tolerances={"exact": True},
    )
    if args.format == "csv":
        sys.stdout.write(csv_text)
        if args.out:
            text = canonical_json(jsonable(report))
            write_text_atomic(os.path.join(args.out, "falsify.json"), text)
            write_text_atomic(os.path.join(args.out, "falsify.csv"), csv_text)
    else:
        _emit(args, report, extra_files=[("falsify.csv", csv_text)])
    return 2 if summary["counterexamples"] else 0


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
    worst_symp = worst_harm = 0.0
    used = 0
    while used < samples:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        try:
            symp, harm = lagrangian_minimality_check(spec, z)
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
        tolerances={"stencil": 1e-3},
    )
    _emit(args, report)
    return 2 if corollary is not None and corollary["bound_holds"] is False else 0


def cmd_nonorientable(args):
    cfg = load_config(args.config)
    block = cfg.need("nonorientable")
    seed = args.seed if args.seed is not None else cfg.seed
    f = build_f(block["b"])
    rep = assemble_report(
        block["data"],
        f,
        block["k"],
        block["R"],
        check_conformality=not args.no_conformality,
        declared_omitted=block["declared_omitted"],
        samples=block["samples"],
        seed=seed,
        slack=block["slack"],
        mesh_params=block["mesh"],
    )
    extra = []
    if rep.mesh is not None and args.out:
        extra.append(("moebius.mesh", mesh_text(rep.mesh)))
    report = build_report(
        "nonorientable",
        cfg.raw,
        {"pipeline": rep.to_dict()},
        cfg_hash=config_hash(cfg.raw_text),
        tolerances={"slack": block["slack"]},
    )
    _emit(args, report, extra_files=extra)
    return 0 if rep.passed else 2


def cmd_mesh(args):
    cfg = load_config(args.config)
    w = cfg.need("weierstrass")
    domain = cfg.need("domain")
    mesh_cfg = cfg.need("mesh")
    phis = phis_from_data(w)
    if not check_conformality(phis):
        raise ConfigError("weierstrass data is not conformal")
    grid_cfg = mesh_cfg["grid"]
    if grid_cfg["kind"] == "plane":
        grid = plane_grid(
            tuple(float(v) for v in grid_cfg["x"]),
            tuple(float(v) for v in grid_cfg["y"]),
            grid_cfg["nx"],
            grid_cfg["ny"],
        )
    else:
        grid = annulus_grid(
            float(grid_cfg["r"][0]),
            float(grid_cfg["r"][1]),
            grid_cfg["n_r"],
            grid_cfg["n_theta"],
        )
    base = parse_scalar(mesh_cfg["base"])
    mesh = export_mesh(phis, domain, grid, base)
    results = {
        "vertices": len(mesh.vertices),
        "faces": len(mesh.faces),
        "mesh_sha256": mesh_hash(mesh),
        "regular": check_regularity(phis, domain).regular,
        "periods_well_defined": period_residues(domain=domain, p=phis).well_defined
        if isinstance(domain, PuncturedPlane)
        else None,
    }
    report = build_report(
        "mesh",
        cfg.raw,
        results,
        cfg_hash=config_hash(cfg.raw_text),
        tolerances={},
    )
    extra = []
    if args.out:
        extra.append((mesh_cfg["filename"], mesh_text(mesh)))
    _emit(args, report, extra_files=extra)
    return 0


def _add_common(sub, config_required=True):
    if config_required:
        sub.add_argument("--config", required=True, help="path to the JSON run config")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", default=None, help="directory for report artifacts")
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", help="stdout format"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minsurf4",
        description="Verify and synthesize minimal surfaces in Euclidean 4-space "
        "from rational Weierstrass-type data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify-main", help="check the exceptional-value inequality")
    _add_common(sub)
    sub.set_defaults(fn=cmd_verify_main)

    sub = subs.add_parser("gen-example", help="emit a sharpness-family example")
    sub.add_argument("--p", type=int, required=True, help="sphere boundary point count")
    sub.add_argument("--m", default="", help="comma-separated factor weights")
    _add_common(sub, config_required=False)
    sub.set_defaults(fn=cmd_gen_example)

    sub = subs.add_parser("falsify", help="random search for inequality violations")
    sub.add_argument("--n", type=int, default=1000, help="instance count")
    sub.add_argument(
        "--allow-incomplete",
        action="store_true",
        help="keep instances whose metric is incomplete instead of redrawing",
    )
    _add_common(sub, config_required=False)
    sub.set_defaults(fn=cmd_falsify)
    sub.set_defaults(seed=0)

    sub = subs.add_parser("lagrangian", help="minimal-Lagrangian pipeline checks")
    _add_common(sub)
    sub.set_defaults(fn=cmd_lagrangian)

    sub = subs.add_parser("nonorientable", help="Moebius-strip pipeline")
    sub.add_argument(
        "--no-conformality",
        action="store_true",
        help="accept datasets whose truncations are not exactly conformal",
    )
    _add_common(sub)
    sub.set_defaults(fn=cmd_nonorientable)

    sub = subs.add_parser("mesh", help="export an immersed surface mesh")
    _add_common(sub)
    sub.set_defaults(fn=cmd_mesh)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MinSurfError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
