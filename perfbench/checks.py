"""Output checks made apart from the program.

Every check compares a workload's output with a closed form, with the
benchmark's own arithmetic on the inputs it generated, or with a property
the method must have; none compares with a stored copy of earlier output,
and none calls `minsurf4`. Each returns a list of problems, empty when the
output is correct.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import math
import re
from fractions import Fraction

FALSIFY_FIELDS = ["index", "punctures", "m", "q", "complete", "lhs", "applicable", "holds", "counterexample"]

# catenoid vertices agree with the closed form to ~1e-14 today; the
# quadrature tolerance is 1e-9
CATENOID_TOL = 1e-8
# moebius vertices carry the trapezoid rule's error (3.6e-3 against a
# vertex scale of 6.2); the bound is relative to that scale and admits any
# integrator at least as accurate
MOEBIUS_REL_TOL = 2e-3
CIRCLE_MIN_TOL = 1e-9
PHI_REL_TOL = 1e-9


# -- Gaussian rationals and Laurent polynomials as plain dicts ----------------------


def gauss(re, im=0):
    return (Fraction(re), Fraction(im))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gconj(a):
    return (a[0], -a[1])


def gcomplex(a):
    return complex(float(a[0]), float(a[1]))


def parse_gauss(text):
    """'a', 'a/b', 'bi', '-a/bi', 'a+bi' with rational a, b."""
    s = text.replace(" ", "")
    if not s.endswith("i"):
        return gauss(Fraction(s))
    body = s[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re_txt, im_txt = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if im_txt in ("", "+", "-"):
        im_txt += "1"
    return gauss(Fraction(re_txt), Fraction(im_txt))


_TERM_RE = re.compile(r"\(([^()]*)\)(?:\*z(?:\^(-?\d+))?)?")


def parse_laurent_terms(text):
    """'(c)*z^n + (c)*z + (c)' to {n: gaussian}; '0' is the zero polynomial."""
    s = text.strip()
    if s == "0":
        return {}
    out = {}
    for term in s.split(" + "):
        m = _TERM_RE.fullmatch(term.strip())
        if not m:
            raise ValueError(f"cannot parse Laurent term {term!r} in {text!r}")
        coeff = parse_gauss(m.group(1))
        n = int(m.group(2)) if m.group(2) is not None else int("*z" in term)
        prev = out.get(n, gauss(0))
        out[n] = (prev[0] + coeff[0], prev[1] + coeff[1])
    return {n: c for n, c in out.items() if c != gauss(0)}


def laurent_mul(a, b):
    out = {}
    for (n, x), (m, y) in itertools.product(a.items(), b.items()):
        p = gmul(x, y)
        prev = out.get(n + m, gauss(0))
        out[n + m] = (prev[0] + p[0], prev[1] + p[1])
    return {n: c for n, c in out.items() if c != gauss(0)}


def f_from_b(b):
    """f(z) = sum_{n=1}^m b_n z^n + (-1)^n conj(b_n) z^-n."""
    f = {}
    for n, bn in enumerate(b, start=1):
        f[n] = bn
        c = gconj(bn)
        f[-n] = c if n % 2 == 0 else (-c[0], -c[1])
    return f


def psi_from_config(phi_terms, b, k):
    """H_j = k f(z) phi_j(z^k), the coefficients of psi_j = H_j dz/z."""
    f = f_from_b(b)
    out = []
    for phi in phi_terms:
        pulled = {n * k: c for n, c in phi.items()}
        h = laurent_mul(pulled, f)
        out.append({n: (c[0] * k, c[1] * k) for n, c in h.items()})
    return out


def integral_from_one(h, z):
    """int_1^z H(w) dw / w, term by term. H's constant term must vanish
    (the residue condition), else the primitive has a logarithm."""
    acc = 0j
    for n, c in h.items():
        if n == 0:
            raise ValueError("psi has a residue at 0")
        acc += gcomplex(c) * (z**n - 1.0) / n
    return acc


# -- mesh text ---------------------------------------------------------------------


def parse_mesh(text):
    """Vertices (4 coordinates, the fourth from the trailing comment) and
    faces (0-based) from the program's mesh format."""
    vertices, faces = [], []
    for line in text.splitlines():
        if line.startswith("v "):
            body, _, w = line[2:].partition("# w")
            x, y, zc = (float(v) for v in body.split())
            vertices.append((x, y, zc, float(w)))
        elif line.startswith("f "):
            faces.append(tuple(int(v) - 1 for v in line[2:].split()))
    return vertices, faces


def _grid_faces_ok(vertices, faces, n_r, n_theta):
    problems = []
    if len(vertices) != n_r * n_theta:
        problems.append(f"{len(vertices)} vertices, the grid has {n_r * n_theta}")
    if len(faces) != 2 * (n_r - 1) * n_theta:
        problems.append(f"{len(faces)} faces, the grid gives {2 * (n_r - 1) * n_theta}")
    return problems


# -- falsify -----------------------------------------------------------------------


def _ints(cell):
    return [int(v) for v in cell.split(";")] if cell else []


def falsify_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_falsify_csv(text, n_rows):
    """Rows of `minsurf4 falsify --format csv`. lhs is recomputed as
    sum m_i/(q_i - 2) with Fractions; the paper's bound requires lhs >= 1
    wherever the row is applicable, that is complete with lhs defined."""
    rows = falsify_rows(text)
    problems = []
    if [row.get("index") for row in rows] != [str(i) for i in range(n_rows)]:
        return [f"expected rows 0..{n_rows - 1}, got {[row.get('index') for row in rows]}"]
    if list(rows[0].keys()) != FALSIFY_FIELDS:
        problems.append(f"header {list(rows[0].keys())}")
    for row in rows:
        tag = f"row {row['index']}"
        ms, qs = _ints(row["m"]), _ints(row["q"])
        if row["complete"] not in ("true", "false"):
            problems.append(f"{tag}: complete is {row['complete']!r}")
        if len(qs) > len(ms):
            problems.append(f"{tag}: more q entries than factors")
            continue
        # q lists only the nonconstant factors, m every factor; any
        # order-preserving choice of which factors q belongs to is admitted
        candidates = set()
        if qs and all(q > 2 for q in qs):
            for pick in itertools.combinations(ms, len(qs)):
                candidates.add(sum((Fraction(m, q - 2) for m, q in zip(pick, qs)), Fraction(0)))
        lhs = Fraction(row["lhs"]) if row["lhs"] else None
        if candidates and lhs not in candidates:
            problems.append(f"{tag}: lhs {row['lhs']} is not sum m/(q-2) = {sorted(map(str, candidates))}")
        if not candidates and lhs is not None:
            problems.append(f"{tag}: lhs {row['lhs']} where some q <= 2")
        applicable = row["complete"] == "true" and lhs is not None
        if row["applicable"] != ("true" if applicable else "false"):
            problems.append(f"{tag}: applicable is {row['applicable']}")
        if applicable:
            if lhs < 1:
                problems.append(f"{tag}: applicable with lhs {lhs} < 1")
            if row["holds"] != "true":
                problems.append(f"{tag}: applicable but holds is {row['holds']!r}")
        elif row["holds"] != "":
            problems.append(f"{tag}: holds {row['holds']!r} on an inapplicable row")
        if row["counterexample"] != "false":
            problems.append(f"{tag}: counterexample flag {row['counterexample']}")
    return problems


# -- weierstrass-exact -------------------------------------------------------------


def poly_eval(coeffs, z):
    """Horner on ((re, im), ...) integer pairs, lowest degree first."""
    acc = 0j
    for re_, im_ in reversed(coeffs):
        acc = acc * z + complex(re_, im_)
    return acc


def triple_values(triple, z):
    """(g1, g2, omega_hat) at z from the generated coefficient pairs."""
    return tuple(poly_eval(num, z) / poly_eval(den, z) for num, den in triple)


def phi_values(triple, z):
    """The four forms of the Weierstrass representation at z."""
    g1, g2, om = triple_values(triple, z)
    return (
        0.5 * (1 + g1 * g2) * om,
        0.5j * (1 - g1 * g2) * om,
        0.5 * (g1 - g2) * om,
        -0.5j * (g1 + g2) * om,
    )


def _close(a, b, rel):
    return abs(a - b) <= rel * (1.0 + abs(b))


def check_weierstrass(triple, out):
    """out: conformal, round_trip_equal, and the program's values at sample
    points: phi (four forms) and back (g1, g2, omega_hat after the round
    trip)."""
    problems = []
    if out["conformal"] is not True:
        problems.append("check_conformality is not true")
    if out["round_trip_equal"] is not True:
        problems.append("data_from_phis(phis_from_data(w)) != w")
    for z, phi, back in out["samples"]:
        want_phi = phi_values(triple, z)
        want_back = triple_values(triple, z)
        if not all(_close(a, b, PHI_REL_TOL) for a, b in zip(phi, want_phi)):
            problems.append(f"phi({z}) = {phi}, expected {want_phi}")
        if not all(_close(a, b, PHI_REL_TOL) for a, b in zip(back, want_back)):
            problems.append(f"round trip at {z} gives {back}, expected {want_back}")
    return problems


# -- catenoid-mesh -----------------------------------------------------------------


def catenoid_point(z):
    """Closed-form catenoid immersion, based at z = 1."""
    def prim(w):
        return (0.5 * (-1 / w - w), 0.5j * (w - 1 / w), cmath.log(w), 0j)

    base = prim(1 + 0j)
    return tuple((a - b).real for a, b in zip(prim(z), base))


def annulus_points(r_lo, r_hi, n_r, n_theta):
    return [
        (r_lo + (r_hi - r_lo) * j / (n_r - 1)) * cmath.exp(2j * math.pi * i / n_theta)
        for j in range(n_r)
        for i in range(n_theta)
    ]


def check_catenoid_mesh(grid, text):
    vertices, faces = parse_mesh(text)
    problems = _grid_faces_ok(vertices, faces, grid["n_r"], grid["n_theta"])
    if problems:
        return problems
    points = annulus_points(grid["r"][0], grid["r"][1], grid["n_r"], grid["n_theta"])
    for idx, (v, z) in enumerate(zip(vertices, points)):
        want = catenoid_point(z)
        err = max(abs(a - b) for a, b in zip(v, want))
        if err > CATENOID_TOL:
            problems.append(f"vertex {idx} at z = {z:.6g} is {err:.3g} from the closed form")
            break
    return problems


# -- moebius -----------------------------------------------------------------------


def moebius_vertices(block, k):
    """The half-annulus vertices as the benchmark's own integral of psi."""
    phi_terms = [parse_laurent_terms(t) for t in block["phi"]]
    b = [parse_gauss(t) for t in block["b"]]
    psis = psi_from_config(phi_terms, b, k)
    n_r, n_theta = int(block["mesh"]["n_r"]), int(block["mesh"]["n_theta"])
    r_hi = math.sqrt(math.exp(math.log(float(block["R"])) / k))
    out = []
    for jr in range(n_r):
        r = 1.0 + (r_hi - 1.0) * jr / (n_r - 1)
        for it in range(n_theta):
            z = r * cmath.exp(2j * math.pi * it / n_theta)
            out.append(tuple(integral_from_one(h, z).real for h in psis))
    return out


def check_moebius(block, report, mesh_text_):
    """block: the config's nonorientable section; report: the pipeline
    object of the JSON report; mesh_text_: the written mesh."""
    problems = []
    if report.get("passed") is not True:
        problems.append(f"pipeline did not pass: failed_stage {report.get('failed_stage')}")
    for stage in report.get("stages", []):
        if stage["status"] not in ("passed", "skipped"):
            problems.append(f"stage {stage['stage']} is {stage['status']}")
    if [s.replace(" ", "") for s in block["b"]] == ["1", "1"]:
        # f = 2i sin t + 2 cos 2t on z = e^{it}; |f|^2 = 16s^2 - 12s + 4 with
        # s = sin^2 t is least at s = 3/8, so min |f| = sqrt(7)/2
        fstage = [s for s in report.get("stages", []) if s["stage"] == "f-condition-c"]
        cmin = fstage[0]["details"].get("circle_min") if fstage else None
        if cmin is None or abs(cmin - math.sqrt(7) / 2) > CIRCLE_MIN_TOL:
            problems.append(f"circle_min {cmin}, expected sqrt(7)/2")
    else:
        problems.append("the circle-minimum closed form is known only for b = (1, 1)")
    k = report.get("k_used")
    if not isinstance(k, int):
        problems.append(f"k_used {k!r}")
        return problems
    vertices, faces = parse_mesh(mesh_text_)
    n_r, n_theta = int(block["mesh"]["n_r"]), int(block["mesh"]["n_theta"])
    bad = _grid_faces_ok(vertices, faces, n_r, n_theta)
    if bad:
        return problems + bad
    want = moebius_vertices(block, k)
    scale = max(max(abs(c) for c in v) for v in want)
    for idx, (v, w) in enumerate(zip(vertices, want)):
        err = max(abs(a - c) for a, c in zip(v, w))
        if err > MOEBIUS_REL_TOL * scale:
            problems.append(f"vertex {idx} is {err:.3g} from the psi integral (scale {scale:.3g})")
            break
    return problems
