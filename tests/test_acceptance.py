"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with the tolerance it was checked at.

Criterion 8b (the unit-circle minimum of the multiplier f for b = (1, 1))
expects the closed form sqrt(7)/2, derived in the test itself; sqrt(2) is
|f| at sin^2 t = 1/2, not the minimum.
"""

import cmath
import itertools
import math
import pathlib
import time
from fractions import Fraction
from functools import partial

from minsurf4.cli import FALSIFY_FIELDS
from minsurf4.config import load_config
from minsurf4.domains import PuncturedPlane, derive_rng
from minsurf4.errors import BadStencil, DegeneratePoint
from minsurf4.gaussmap import (
    FalsifyBounds,
    falsify,
    nonorientable_check,
    verify_main_inequality,
)
from minsurf4.lagrangian import (
    HolomorphicPair,
    LagrangianSpec,
    immersion_xyzw,
    metric_curvature,
    metric_spec,
    stencil_residuals,
)
from minsurf4.meshing import annulus_grid, export_mesh, mesh_text
from minsurf4.metric import MetricSpec, is_complete
from minsurf4.nonorientable import (
    CoverSpec,
    SymmetricLaurentData,
    assemble_report,
    build_f,
    f_bounds,
    f_from_coefficients,
    pullback_psi,
    residue_condition,
    sandwich_check,
    unit_circle_min,
)
from minsurf4.laurent import LaurentPoly
from minsurf4.poly import Polynomial
from minsurf4.rational import RationalFunction
from minsurf4.report import canonical_json, jsonable, rows_to_csv
from minsurf4.scalars import GaussianRational, parse_scalar
from minsurf4.weierstrass import (
    WeierstrassData,
    check_conformality,
    data_from_phis,
    period_residues,
    phis_from_data,
)
from oracles import (
    gauss_curvature_numeric,
    immersion_xyzw_phase_dropped,
    induced_metric_identity,
    lift_equivalence,
    loop_period,
)

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num}: {name}: {tag}{suffix}")


def _z():
    return RationalFunction.z()


def _family(p, ms):
    punctures = list(range(1, p))
    z = _z()
    omega = RationalFunction(Polynomial([1]))
    for a in punctures:
        omega = omega / (z - a)
    return MetricSpec([(z, m) for m in ms], omega), PuncturedPlane(punctures)


def test_criterion_01_completeness_and_equality_sweep():
    vectors = [[m] for m in range(4)] + [list(v) for v in itertools.product(range(4), repeat=2)]
    cases = 0
    for p in range(3, 9):
        for ms in vectors:
            spec, domain = _family(p, ms)
            total = sum(ms)
            complete = is_complete(spec, domain).overall
            assert complete is (p <= 2 + total), (p, ms)
            rep = verify_main_inequality(spec, domain)
            assert rep.lhs == Fraction(total, p - 2), (p, ms, rep.lhs)
            assert (rep.lhs == 1) is (p == 2 + total), (p, ms)
            cases += 1
    assert cases == 120
    _report(1, "completeness iff p <= 2 + sum(m), equality at the bound (exact)", True, f"{cases} cases")


def test_criterion_02_single_factor_maximal_counts():
    max_q = {}
    for m in (1, 2):
        qs = []
        for p in range(3, 9):
            spec, domain = _family(p, [m])
            if is_complete(spec, domain).overall:
                rep = verify_main_inequality(spec, domain)
                qs.append(rep.factors[0].q)
        max_q[m] = max(qs)
    ok = max_q == {1: 3, 2: 4}
    _report(2, "maximal omitted-value counts 3 (m=1) and 4 (m=2) over the sweep", ok, str(max_q))
    assert ok, max_q


def test_criterion_03_falsification_harness():
    t0 = time.monotonic()
    summary, rows = falsify(0, 1000, bounds=FalsifyBounds(require_complete=True))
    dt = time.monotonic() - t0
    ok = (
        summary["instances"] == 1000
        and summary["counterexamples"] == 0
        and len(rows) == 1000
        and dt < 60.0
    )
    _report(3, "1000 complete random instances, zero counterexamples, < 60 s", ok, f"{dt:.1f} s")
    assert ok, summary


def _random_poly(rng, max_deg, bound=2):
    coeffs = [
        GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
        for _ in range(rng.randint(0, max_deg) + 1)
    ]
    p = Polynomial(coeffs)
    return p if not p.is_zero() else Polynomial([1])


def _random_data(rng, max_deg=4):
    return WeierstrassData(
        RationalFunction(_random_poly(rng, max_deg), _random_poly(rng, max_deg)),
        RationalFunction(_random_poly(rng, max_deg), _random_poly(rng, max_deg)),
        RationalFunction(_random_poly(rng, max_deg), _random_poly(rng, max_deg)),
    )


def test_criterion_04_weierstrass_identities():
    rng = derive_rng(4, "acceptance-weierstrass")
    worst = 0.0
    for _ in range(200):
        w = _random_data(rng)
        phis = phis_from_data(w)
        assert check_conformality(phis)
        assert data_from_phis(phis) == w
        samples = [
            complex(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)) for _ in range(100)
        ]
        worst = max(worst, induced_metric_identity(phis, samples))
    ok = worst < 1e-12
    _report(4, "200 exact triples: conformality, round trip, metric identity < 1e-12", ok, f"worst {worst:.3g}")
    assert ok, worst


def _parabola(beta=0.0):
    z = _z()
    half = RationalFunction.constant(GaussianRational("1/2"))
    return LagrangianSpec.from_pair(HolomorphicPair(z, half * z * z), beta=beta)


def _random_lagrangian(rng):
    while True:
        f1 = Polynomial(
            [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(2, 4))]
        )
        f2 = Polynomial(
            [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(2, 4))]
        )
        if f2.derivative().is_zero():
            continue
        beta = rng.uniform(0.0, 2.0 * math.pi)
        return LagrangianSpec.from_pair(
            HolomorphicPair(RationalFunction(f1), RationalFunction(f2)), beta=beta
        )


def test_criterion_05_curvature_oracle():
    rng = derive_rng(5, "acceptance-curvature")
    compared = 0
    worst = 0.0
    while compared < 50:
        spec = _random_lagrangian(rng)
        mspec = metric_spec(spec)
        for _ in range(60):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            try:
                lam2, k_formula = metric_curvature(spec, z)
                # keep the stencil's O(h^2) truncation error well under tolerance
                if lam2 < 0.5 or abs(k_formula) > 10.0:
                    continue
                k_numeric = gauss_curvature_numeric(mspec, z, h=1e-3)
            except (DegeneratePoint, BadStencil, ZeroDivisionError):
                continue
            worst = max(worst, abs(k_formula - k_numeric))
            compared += 1
            break
    assert metric_curvature(_parabola(), 0j)[1] == -2.0
    # the parabola metric is (1 + |z|^2)|dz|^2; the (g, m) = (z, 1) form is
    # pole-free at 0, where the -S2/S1 factorization has a removable one
    parabola_direct = MetricSpec([(_z(), 1)], RationalFunction(Polynomial([1])))
    parabola_err = abs(gauss_curvature_numeric(parabola_direct, 0j, h=1e-3) + 2.0)
    z0 = 0.5 + 0.3j
    spec_path_err = abs(
        gauss_curvature_numeric(metric_spec(_parabola()), z0, h=1e-3)
        - metric_curvature(_parabola(), z0)[1]
    )
    plane = LagrangianSpec.from_pair(HolomorphicPair(_z(), _z() * 2), beta=0.0)
    plane_err = abs(gauss_curvature_numeric(metric_spec(plane), 0.3 + 0.2j, h=1e-3))
    assert metric_curvature(plane, 0.3 + 0.2j)[1] == 0.0
    worst = max(worst, parabola_err, spec_path_err, plane_err)
    ok = worst < 1e-4
    _report(5, "analytic curvature vs stencil oracle within 1e-4 (h = 1e-3)", ok, f"worst {worst:.3g} over {compared}+2 cases")
    assert ok, worst


def test_criterion_06_minimality_witnesses():
    points = (0.4 + 0.3j, -1.1 + 0.7j, 0.9 - 0.6j)
    worst_clean = 0.0
    for beta in (0.0, math.pi / 3.0):
        spec = _parabola(beta)
        for z in points:
            symp, harm = stencil_residuals(partial(immersion_xyzw, spec), z, h=1e-3)
            worst_clean = max(worst_clean, symp, harm)
    corrupted = 0.0
    spec = _parabola(math.pi / 3.0)
    for z in points:
        symp, harm = stencil_residuals(partial(immersion_xyzw_phase_dropped, spec, coord=0), z, h=1e-3)
        corrupted = max(corrupted, symp, harm)
    ok = worst_clean < 1e-5 and corrupted > 1e-2
    _report(6, "minimality residuals < 1e-5; corrupted control > 1e-2", ok, f"clean {worst_clean:.3g}, corrupted {corrupted:.3g}")
    assert ok, (worst_clean, corrupted)


def test_criterion_07_catenoid_periods():
    z = _z()
    phis = phis_from_data(WeierstrassData(z, -z, 1 / (z * z)))
    loop = loop_period(phis, 0, 1.0)
    worst_re = max(abs(v.real) for v in loop)
    rep = period_residues(phis, PuncturedPlane([0]))
    expected = tuple(GaussianRational(v) for v in (0, 0, 1, 0))
    residues_ok = rep.residues[0][1] == expected and rep.well_defined
    ok = worst_re < 1e-8 and residues_ok
    _report(7, "catenoid: Re of loop periods < 1e-8, residues (0, 0, 1, 0) exact", ok, f"worst Re {worst_re:.3g}")
    assert ok, (loop, rep.residues)


def _symmetric_phi(rng, span=3, bound=3):
    terms = {0: GaussianRational(0, rng.randint(-bound, bound))}
    for n in range(1, span + 1):
        if rng.random() < 0.6:
            c = GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
            terms[n] = c
            terms[-n] = c.conjugate() if n % 2 else -c.conjugate()
    return LaurentPoly.from_dict(terms)


def test_criterion_08a_nonorientable_pipeline():
    cfg = load_config(CONFIG_DIR / "moebius-strip.json")
    block = cfg.need("nonorientable")
    rep = assemble_report(
        block["data"],
        block["b"],
        block["k"],
        block["R"],
        declared_omitted=block["declared_omitted"],
        samples=block["samples"],
        seed=cfg.seed,
        slack=block["slack"],
        mesh_params=block["mesh"],
    )
    pipeline_ok = rep.passed and all(
        s.status in ("passed", "skipped") for s in rep.stages
    )

    rng = derive_rng(8, "acceptance-residues")
    property_ok = True
    checked = 0
    while checked < 500:
        phi = _symmetric_phi(rng)
        if phi.is_zero():
            continue
        m = rng.randint(1, 3)
        b = [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(m)]
        if not b[-1]:
            b[-1] = GaussianRational(1)
        k = m + 1 if (m + 1) % 2 else m + 2
        k += 2 * rng.randint(0, 2)
        vanishes, value = residue_condition(phi, f_from_coefficients(b), k)
        property_ok = property_ok and vanishes and value == GaussianRational(0)
        checked += 1

    f = build_f(block["b"])
    violation_ok = residue_condition(block["data"].phi[1], f, 1) == (
        False,
        GaussianRational(0, 1),
    )

    bounds = f_bounds(f, block["R"], block["k"])
    psis, _ = pullback_psi(block["data"], f, CoverSpec(bounds.k, f.m))
    rho = math.exp(math.log(block["R"]) / bounds.k)
    sandwich_ok, worst = sandwich_check(
        block["data"], psis, bounds, rho, samples=1000, seed=0, slack=1e-12
    )

    ok = pipeline_ok and property_ok and violation_ok and sandwich_ok
    _report(
        "8a",
        "shipped dataset passes; 500 residue instances; k = 1 violation; sandwich at 1e-12 slack",
        ok,
        f"sandwich worst margin {worst:.3g}",
    )
    assert ok, (pipeline_ok, property_ok, violation_ok, sandwich_ok)


def test_criterion_08b_unit_circle_minimum_value():
    # f = sum b_n z^n + (-1)^n conj(b_n) z^{-n}; for b = (1, 1) this is
    # z - 1/z + z^2 + 1/z^2. On z = e^{it}: f = 2i sin t + 2 cos 2t, and with
    # s = sin^2 t (cos 2t = 1 - 2s), |f|^2 = 4s + 4(1 - 2s)^2 = 16s^2 - 12s + 4.
    # This parabola in s in [0, 1] is least at s = 3/8, where |f|^2 = 7/4,
    # so min |f| = sqrt(7)/2.
    f = build_f([GaussianRational(1), GaussianRational(1)])
    expected = math.sqrt(7.0) / 2.0
    t_min = math.asin(math.sqrt(3.0 / 8.0))
    closed_form_ok = abs(abs(f.f.eval(cmath.exp(1j * t_min))) - expected) < 1e-12
    measured = unit_circle_min(f.f)
    ok = closed_form_ok and abs(measured - expected) < 1e-9
    _report(
        "8b",
        "min |f| on |z| = 1 for b = (1, 1) equals sqrt(7)/2 (at sin^2 t = 3/8) within 1e-9",
        ok,
        f"measured {measured:.12f}, expected {expected:.12f}",
    )
    assert closed_form_ok, f"|f| at sin^2 t = 3/8 is not sqrt(7)/2 = {expected!r}"
    assert ok, f"min |f| measured {measured!r}; sqrt(7)/2 = {expected!r}"


def test_criterion_09_lift_equivalence():
    ok = True
    for q1 in range(2, 21):
        for q2 in range(2, 21):
            left, right = lift_equivalence(q1, q2)
            ok = ok and (left == right)
    rep = nonorientable_check(2, 2)
    ok = ok and rep.holds and rep.equality
    _report(9, "double-cover count equivalence on [2, 20]^2; (2, 2) is the equality case", ok)
    assert ok


def test_criterion_10_deterministic_artifacts():
    csvs = []
    for _ in range(2):
        _, rows = falsify(0, 60, bounds=FalsifyBounds(require_complete=True))
        csvs.append(rows_to_csv([r.to_dict() for r in rows], FALSIFY_FIELDS))
    z = _z()
    phis = phis_from_data(WeierstrassData(z, -z, 1 / (z * z)))
    domain = PuncturedPlane([0])
    grid = annulus_grid(0.5, 2.0, 6, 16)
    meshes = [
        mesh_text(export_mesh(phis, domain, grid, GaussianRational(1))[0])
        for _ in range(2)
    ]
    data = SymmetricLaurentData(
        (
            LaurentPoly.from_dict({1: GaussianRational("1/2"), -1: GaussianRational("1/2")}),
            LaurentPoly.from_dict({1: parse_scalar("-1/2i"), -1: parse_scalar("1/2i")}),
            LaurentPoly(),
            LaurentPoly.from_dict({0: GaussianRational(0, -1)}),
        )
    )
    reports = []
    for _ in range(2):
        rep = assemble_report(
            data,
            [GaussianRational(1), GaussianRational(1)],
            3,
            4.0,
            declared_omitted=None,
            samples=200,
            seed=0,
            slack=1e-12,
            mesh_params={"n_r": 4, "n_theta": 16},
        )
        reports.append(
            (canonical_json(jsonable(rep.to_dict())), mesh_text(rep.mesh))
        )
    ok = csvs[0] == csvs[1] and meshes[0] == meshes[1] and reports[0] == reports[1]
    _report(10, "byte-identical CSV, mesh, and report across two runs", ok)
    assert ok
