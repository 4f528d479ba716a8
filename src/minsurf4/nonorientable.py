"""Moebius-strip minimal surfaces from involution-symmetric annulus data.

The fixed-point-free involution I(z) = -1/conj(z) acts on an annulus
A(rho) = {1/rho < |z| < rho}; data invariant in the right way descends to the
quotient Moebius strip. The pipeline checks, on user-supplied finite Laurent
data phi_j (with forms phi_j(z) dz/z):

  * the symmetric coefficient pattern c_{-n} = (-1)^{n+1} conj(c_n), c_0
    purely imaginary, equivalent to conj(phi(-1/conj(z))) = -phi(z);
  * a rational f(z) = sum b_n z^n + (-1)^n conj(b_n) z^{-n} with no zeros on
    the unit circle;
  * vanishing residues of phi_j(z^k) f(z) dz/z for the odd covering degree k;
  * the pulled-back forms psi_j = k f(z) phi_j(z^k) dz/z, their symmetry,
    conformality, |f| sandwich bounds, and a half-domain mesh with the
    identification z ~ -1/conj(z) recorded.

psi_j = H_j(z) dz/z with H_j a Laurent polynomial, and the loop period
int_{|z|=1} psi_j = 2 pi i c_0(H_j) is the residue that the exact residue
condition already proves zero; so no loop period is integrated, and the
mesh evaluates the Laurent-polynomial primitive of psi_j in closed form.

`assemble_report` runs the stages f-condition-c, cover, laurent-symmetry,
residue-conditions, psi-assembly, conformality, f-bounds, sandwich, rp2-count
(skipped without declared omitted sets) and mesh (absent without mesh
parameters), each one block of `_stages`, and stops at the first failure;
|f| is bounded before the pullback, which needs its covering degree, but
recorded after conformality. The defaults of the sample count, the slack and
the mesh grid live in `config.parse_nonorientable` alone.
"""

from __future__ import annotations

import cmath
import math

from .domains import derive_rng
from .errors import ConditionViolation, DomainError, KSearchExhausted, PeriodObstruction
from .laurent import LaurentPoly, format_laurent
from .meshing import Mesh, annulus_grid
from .poly import Polynomial, roots
from .rational import RationalFunction
from .report import Record, jsonable
from .scalars import as_scalar, format_scalar
from .sphere import SpherePoint, dedupe_points, format_point, missing_antipode, rp2_count


def check_weierstrass_symmetry(w):
    """Exact involution-compatibility of rational Weierstrass data.

    Tests g_i^sigma * g_i = -1 (with g^sigma(z) = conj(g(-1/conj(z)))) and
    omega_hat^sigma(z) = z^2 g1 g2 omega_hat(z). Returns per-condition flags.
    """

    def g_ok(g):
        if g.is_zero():
            return False
        return (g.conj_reflect() * g + 1).is_zero()

    z2 = RationalFunction(Polynomial([0, 0, 1]))
    omega_ok = (w.omega_hat.conj_reflect() - z2 * w.g1 * w.g2 * w.omega_hat).is_zero()
    return {
        "g1": g_ok(w.g1),
        "g2": g_ok(w.g2),
        "omega": omega_ok,
    }


def involution_omitted_closure(points):
    """True iff the set is closed under the antipodal map."""
    return missing_antipode(dedupe_points(points)) is None


def validate_symmetric_laurent(phi):
    """coeff(-n) = (-1)^{n+1} conj(coeff(n)) and purely imaginary constant."""
    if not isinstance(phi, LaurentPoly):
        raise DomainError("expected a Laurent polynomial")
    return phi.i0_pullback() == -phi


class SymmetricLaurentData(Record):
    """Four symmetric Laurent truncations phi_j, the forms being phi_j dz/z."""

    __slots__ = ("phi",)

    def __init__(self, phi):
        phi = tuple(phi)
        if len(phi) != 4:
            raise DomainError("need exactly four Laurent components")
        for p in phi:
            if not isinstance(p, LaurentPoly):
                raise DomainError("components must be Laurent polynomials")
        bad = [j for j, p in enumerate(phi) if not validate_symmetric_laurent(p)]
        if bad:
            raise DomainError(f"components {bad} violate the symmetric coefficient pattern")
        super().__init__(phi)

    def a0(self):
        return tuple(p.coeff(0) for p in self.phi)


class FCandidate(Record):
    """f(z) = sum_{n=1}^m (b_n z^n + (-1)^n conj(b_n) z^{-n}), zero-free on
    the unit circle; root moduli of z^m f are kept for the annulus checks."""

    __slots__ = ("b", "m", "f", "root_moduli", "circle_min")


def f_from_coefficients(b):
    terms = {}
    for n, bn in enumerate(b, start=1):
        bn = as_scalar(bn)
        terms[n] = bn
        terms[-n] = -bn.conjugate() if n % 2 else bn.conjugate()
    return LaurentPoly.from_dict(terms)


def _circle(samples, r=1.0):
    """The points r e^{2 pi i j / samples}, j = 0, ..., samples - 1."""
    import numpy as np

    return r * np.exp(2j * math.pi * np.arange(samples) / samples)


def unit_circle_min(f):
    """min |f| on |z| = 1: a 4096-point sweep plus 60 ternary refinements."""
    import numpy as np

    def val(theta):
        return abs(f.eval(cmath.exp(1j * theta)))

    step = 2.0 * math.pi / 4096
    best_i = int(np.argmin(np.abs(f.eval(_circle(4096)))))
    lo = (best_i - 1) * step
    hi = (best_i + 1) * step
    for _ in range(60):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if val(m1) <= val(m2):
            hi = m2
        else:
            lo = m1
    return val(0.5 * (lo + hi))


ROOT_CIRCLE_TOL = 1e-6


def build_f(b):
    """Construct the candidate f and verify the zero-free-circle condition.

    Poles sit only at 0 and infinity by shape; the coefficient symmetry holds
    by construction and is re-checked; roots of z^m f must keep their modulus
    away from 1, corroborated by a minimum-modulus sweep of the circle.
    """
    b = [as_scalar(x) for x in b]
    if not b:
        raise DomainError("need at least one coefficient")
    m = len(b)
    if not b[-1]:
        raise DomainError("leading coefficient b_m must be nonzero")
    f = f_from_coefficients(b)
    if not validate_symmetric_f(f):
        raise DomainError("construction lost the f-symmetry (internal)")
    p = f.poly_part()
    moduli = []
    offenders = []
    for root, mult in roots(p):
        moduli.extend([abs(root)] * mult)
        if abs(abs(root) - 1.0) <= ROOT_CIRCLE_TOL:
            offenders.append(root)
    cmin = unit_circle_min(f)
    if offenders:
        locs = ", ".join(f"{z:.8g}" for z in offenders)
        raise ConditionViolation(
            f"f has zeros on the unit circle (within {ROOT_CIRCLE_TOL}): {locs}; "
            f"circle sweep min |f| = {cmin:.3g}"
        )
    if cmin <= 1e-9:
        raise ConditionViolation(
            f"circle sweep found |f| as small as {cmin:.3g} despite root check"
        )
    return FCandidate(tuple(b), m, f, tuple(sorted(moduli)), cmin)


def validate_symmetric_f(f):
    """f(-1/conj(z)) = conj(f(z)) as a coefficient identity."""
    return f.i0_pullback() == f


class CoverSpec(Record):
    """Odd covering degree k with k > m of the paired f-candidate."""

    __slots__ = ("k", "m")

    def __init__(self, k, m):
        if not isinstance(k, int) or k < 1:
            raise DomainError("k must be a positive integer")
        if k % 2 == 0:
            raise DomainError("k must be odd")
        if not isinstance(m, int) or m < 1:
            raise DomainError("m must be a positive integer")
        if k <= m:
            raise DomainError(f"need k > m, got k = {k}, m = {m}")
        super().__init__(k, m)


def residue_condition(phi, f, k):
    """Residue at 0 of phi(z^k) f(z) dz/z: the constant Laurent coefficient
    of the product. Returns (vanishes, value). k may be any positive integer
    here so the k = 1 failure mode stays observable; k odd and k > m makes
    the condition automatic."""
    if not isinstance(k, int) or k < 1:
        raise DomainError("k must be a positive integer")
    fc = f.f if isinstance(f, FCandidate) else f
    value = (phi.compose_power(k) * fc).coeff(0)
    return not value, value


def pullback_psi(data, f, cover):
    """psi_j = k f(z) phi_j(z^k) dz/z; returns the coefficient functions
    H_j = k f phi_j(z^k) and verifies they keep the symmetric pattern."""
    if not isinstance(cover, CoverSpec):
        raise DomainError("pullback needs a CoverSpec")
    k = cover.k
    psis = []
    for j, phi in enumerate(data.phi):
        product = phi.compose_power(k) * f.f
        value = product.coeff(0)
        if value:
            raise PeriodObstruction(
                f"residue condition fails for component {j}: {format_scalar(value)}"
            )
        psis.append(product * k)
    symmetric = all(validate_symmetric_laurent(h) for h in psis)
    return tuple(psis), symmetric


class FBounds(Record):
    __slots__ = ("c", "min_mod", "max_mod", "k")

    def __init__(self, c, min_mod, max_mod, k):
        if min_mod <= 0:
            raise DomainError("min modulus must be positive")
        super().__init__(c, min_mod, max_mod, k)


K_SEARCH_CAP = 99


def _circle_extrema(f, r):
    import numpy as np

    v = np.abs(f.eval(_circle(2048, r)))
    return float(v.min()), float(v.max())


def f_bounds(f, R, k, cap=K_SEARCH_CAP):
    """Bounds 1/c < |f| < c on the closed annulus [R^{-1/k}, R^{1/k}].

    The roots of z^m f must avoid the closed annulus; if they intrude, the
    smallest admissible odd k' > k is used instead (the band shrinks as k
    grows) and reported in the result. |f| is bounded by dense sampling of
    the two boundary circles: the maximum principle for f and, since f is
    zero-free on the closed annulus, for 1/f, push both extrema to the
    boundary. A 1% safety margin pads c.
    """
    if not isinstance(f, FCandidate):
        raise DomainError("f_bounds needs a built FCandidate")
    if not R > 1.0:
        raise DomainError("need R > 1")
    if not isinstance(k, int) or k < 1:
        raise DomainError("k must be a positive integer")
    logR = math.log(R)
    k_used = None
    kk = k
    while kk <= cap:
        hi = math.exp(logR / kk)
        lo = 1.0 / hi
        if all(mod < lo - 1e-12 or mod > hi + 1e-12 for mod in f.root_moduli):
            k_used = kk
            break
        kk += 2
    if k_used is None:
        raise KSearchExhausted(
            f"no odd k in [{k}, {cap}] keeps the annulus free of zeros of f"
        )
    hi_r = math.exp(logR / k_used)
    lo_r = 1.0 / hi_r
    mins = []
    maxs = []
    for r in (lo_r, hi_r):
        mn, mx = _circle_extrema(f.f, r)
        mins.append(mn)
        maxs.append(mx)
    min_mod = min(mins)
    max_mod = max(maxs)
    c = max(max_mod, 1.0 / min_mod) * 1.01
    return FBounds(c, min_mod, max_mod, k_used)


# -- assembly ---------------------------------------------------------------------


class StageResult(Record):
    __slots__ = ("stage", "status", "details")


class MoebiusReport(Record):
    __slots__ = ("stages", "passed", "failed_stage", "k_declared", "k_used", "mesh")

    def to_dict(self):
        """The mesh goes to its own file; the report keeps its metadata."""
        out = {name: jsonable(getattr(self, name)) for name in self.__slots__ if name != "mesh"}
        out["mesh"] = None if self.mesh is None else self.mesh.metadata
        return out


def _sandwich_samples(rho, n, seed):
    rng = derive_rng(seed, n, "sandwich")
    out = []
    lo, hi = math.log(1.0 / rho), math.log(rho)
    for _ in range(n):
        r = math.exp(rng.uniform(lo, hi))
        out.append(r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return out


def sandwich_check(data, psis, bounds, rho, samples, seed, slack):
    """(1/c^2) T_k^*(ds^2) <= ds_0^2 <= c^2 T_k^*(ds^2) at random points of
    the open annulus A(rho); densities against |dz|^2:

        lambda_0^2     = sum_j |H_j(z)/z|^2          (the psi metric)
        lambda_pull^2  = sum_j |k phi_j(z^k)/z|^2    (the pulled-back metric)

    Pointwise lambda_0^2 = |f|^2 lambda_pull^2, so the bounds on |f| give the
    sandwich; this re-checks it numerically. Returns (ok, worst_margin).
    """
    import numpy as np

    k = bounds.k
    c2 = bounds.c * bounds.c
    z = np.array(_sandwich_samples(rho, samples, seed), dtype=complex)
    pull = sum(np.abs(k * phi.eval(z**k) / z) ** 2 for phi in data.phi)
    lam0 = sum(np.abs(h.eval(z) / z) ** 2 for h in psis)
    flat = pull == 0.0
    ok = bool(np.all(lam0[flat] == 0.0))
    pull, lam0 = pull[~flat], lam0[~flat]
    lo_margin = lam0 - pull / c2 * (1.0 - slack)
    hi_margin = c2 * pull * (1.0 + slack) - lam0
    ok = ok and not (np.any(lo_margin < 0.0) or np.any(hi_margin < 0.0))
    worst = float(np.max(-np.minimum(lo_margin, hi_margin) / pull, initial=0.0))
    return ok, worst


def half_domain_mesh(psis, rho, n_r, n_theta, metadata=None):
    """Mesh of the fundamental half-annulus {1 <= |z| <= sqrt(rho)} for the
    identification z ~ -1/conj(z), which acts on the unit circle as the
    antipode e^{i t} -> -e^{i t}.

    X(z) = Re int_1^z psi_j = Re sum_{n != 0} c_n (z^n - 1)/n for
    H_j = sum c_n z^n: the residue condition makes c_0 = 0, so the primitive
    is a Laurent polynomial, evaluated on the whole `meshing.annulus_grid`
    at once. n_theta must be even so identified circle vertices pair up
    exactly; pairs are recorded in the metadata as vertex index pairs.
    """
    import numpy as np

    if n_theta % 2:
        raise DomainError("n_theta must be even for the identification pairs")
    bad = [j for j, h in enumerate(psis) if h.coeff(0)]
    if bad:
        raise PeriodObstruction(f"components {bad} have a z^0 term: psi has a loop period")
    points, faces = annulus_grid(1.0, math.sqrt(rho), n_r, n_theta)
    z = np.array(points)
    coords = []
    for h in psis:
        primitive = LaurentPoly.from_dict({n: c / n for n, c in h.terms().items() if n})
        coords.append((primitive.eval(z) - primitive.eval(1.0 + 0j)).real)
    vertices = np.array(coords).T.tolist()
    pairs = [(i, (i + n_theta // 2) % n_theta) for i in range(n_theta // 2)]
    meta = dict(metadata or {})
    meta["identification"] = "z ~ -1/conj(z) on |z| = 1"
    meta["identified-pairs"] = ";".join(f"{a}<->{b}" for a, b in pairs)
    return Mesh(vertices, faces, meta)


class _StageFailed(Exception):
    """The first failed stage of the pipeline, with the details it records."""

    def __init__(self, stage, details):
        super().__init__(stage)
        self.stage = stage
        self.details = details


def _stages(data, b, k, R, declared_omitted, samples, seed, slack, mesh_params):
    """Run the pipeline's stages in order: yield (stage, status, details)
    for each stage that passes or is skipped, raise _StageFailed at the first
    that fails, and return the mesh (None without mesh_params)."""
    try:
        f = build_f(b)
    except (ConditionViolation, DomainError) as e:
        raise _StageFailed("f-condition-c", {"error": str(e)}) from None
    yield "f-condition-c", "passed", {"m": f.m, "circle_min": f.circle_min}

    try:
        cover = CoverSpec(k, f.m)
        if not R > 1.0:
            raise DomainError("need R > 1")
    except DomainError as e:
        raise _StageFailed("cover", {"error": str(e)}) from None
    yield "cover", "passed", {"k": k, "m": f.m, "R": R}

    # SymmetricLaurentData holds the symmetric pattern by construction
    yield "laurent-symmetry", "passed", {"a0": [format_scalar(a) for a in data.a0()]}

    # |f| bounds first: they fix the admissible covering degree, so the forms
    # are pulled back once, at that degree; the stage is recorded after
    # conformality, and a failure is raised there
    try:
        bounds = f_bounds(f, R, k)
        cover = CoverSpec(bounds.k, f.m)
    except (KSearchExhausted, DomainError) as e:
        bounds = _StageFailed("f-bounds", {"error": str(e)})

    try:
        psis, symmetric = pullback_psi(data, f, cover)
    except PeriodObstruction as e:
        raise _StageFailed("residue-conditions", {"error": str(e)}) from None
    if not symmetric:
        raise _StageFailed("psi-assembly", {"error": "pullback lost the symmetric pattern"})
    yield "residue-conditions", "passed", {"k": cover.k}
    yield "psi-assembly", "passed", {"components": [format_laurent(h) for h in psis]}

    total = sum((p * p for p in data.phi), LaurentPoly())
    if not total.is_zero():
        raise _StageFailed("conformality", {"residual_terms": format_laurent(total)})
    yield "conformality", "passed", {"identity": "sum phi_j^2 == 0"}

    if isinstance(bounds, _StageFailed):
        raise bounds
    detail = bounds.to_dict()
    if bounds.k != k:
        detail["escalated_from"] = k
    yield "f-bounds", "passed", detail

    rho = math.exp(math.log(R) / cover.k)
    sandwich_ok, worst = sandwich_check(data, psis, bounds, rho, samples, seed, slack)
    if not sandwich_ok:
        raise _StageFailed("sandwich", {"worst_margin": worst})
    yield "sandwich", "passed", {"samples": samples, "worst_margin": worst}

    if declared_omitted is None:
        yield "rp2-count", "skipped", {"reason": "no declared omitted sets"}
    else:
        detail = {}
        for idx, pts in enumerate(declared_omitted, start=1):
            pts = [SpherePoint.of(p) for p in pts]
            closed = involution_omitted_closure(pts)
            detail[f"g{idx}"] = {
                "points": [format_point(p) for p in pts],
                "antipodally_closed": closed,
                "rp2_count": rp2_count(pts) if closed else None,
            }
        if not all(d["antipodally_closed"] for d in detail.values()):
            raise _StageFailed("rp2-count", detail)
        yield "rp2-count", "passed", detail

    if mesh_params is None:
        return None
    try:
        mesh = half_domain_mesh(psis, rho, **mesh_params)
    except DomainError as e:
        raise _StageFailed("mesh", {"error": str(e)}) from None
    yield "mesh", "passed", {"vertices": len(mesh.vertices), "faces": len(mesh.faces)}
    return mesh


def assemble_report(data, b, k, R, *, declared_omitted, samples, seed, slack, mesh_params):
    """Run the full Moebius-strip pipeline; stops at the first failing stage.

    data: SymmetricLaurentData; b: the coefficients of f; k: odd covering
    degree (k > len(b)); R > 1 the base annulus. declared_omitted: None or a
    pair of sphere-point lists, the omitted sets of the two Gauss map
    components on the base data, counted in RP^2. mesh_params: None or the
    n_r, n_theta and metadata of `half_domain_mesh`.
    """
    stages = []
    failed = mesh = None
    run = _stages(data, b, k, R, declared_omitted, samples, seed, slack, mesh_params)
    try:
        while True:
            stages.append(StageResult(*next(run)))
    except StopIteration as done:
        mesh = done.value
    except _StageFailed as e:
        stages.append(StageResult(e.stage, "failed", e.details))
        failed = e.stage
    k_used = next((s.details.get("k") for s in stages if s.stage == "f-bounds"), None)
    return MoebiusReport(tuple(stages), not failed, failed, k, k_used, mesh)
