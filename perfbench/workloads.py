"""The four workloads: inputs made from the seed, one timed call per item,
and the untimed checks of every output.

A workload holds a fixed list of items made from `--seed` and the run
length; the same seed and length give the same list. `run(item)` is the
timed call into the program. `capture(item, result)` turns its result
into plain data outside the timed region, and `check(item, output)`
compares that data with `checks`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import checks

# Items per second of run length, so that one pass over the list takes
# about the run length on the machine the README describes.
FALSIFY_PER_S = 6.0
TRIPLES_PER_S = 2.0
MESHES_PER_S = 0.6
PIPELINES_PER_S = 0.37


def _count(seconds, per_s):
    return max(1, round(seconds * per_s))


def _cli(argv):
    """`minsurf4.cli.main(argv)` with its stdout captured."""
    from minsurf4.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class Falsify:
    """`minsurf4 falsify --n 10 --allow-incomplete` over a list of seeds;
    an item is one drawn instance, complete or not. With complete instances
    required, one instance costs 5.4 draws on average with a geometric tail,
    and 350 of them per run gave rates 14% apart across seeds; a batch of 10
    draws varies by 14%, so 170 batches hold the rate to ~1%."""

    name = "falsify"
    batch = 10

    def __init__(self, seed, seconds, root, workdir):
        rng = random.Random(f"falsify:{seed}")
        self.items = rng.sample(range(1, 2**31), _count(seconds, FALSIFY_PER_S))

    def setup_code(self):
        return (
            "from minsurf4.cli import build_parser\n"
            f"build_parser().parse_args({self._argv(self.items[0])!r})\n"
        )

    def _argv(self, s):
        return ["falsify", "--seed", str(s), "--n", str(self.batch), "--allow-incomplete", "--format", "csv"]

    def units(self, item):
        return self.batch

    def run(self, item):
        return _cli(self._argv(item))

    def capture(self, item, result):
        return result

    def complete_rows(self, output):
        return sum(row["complete"] == "true" for row in checks.falsify_rows(output[1]))

    def check(self, item, output):
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        return checks.check_falsify_csv(text, self.batch)


def _random_poly(rng, degree, bound=2):
    """Integer (re, im) pairs, lowest degree first, with a nonzero leading
    coefficient so the degree is exact."""
    while True:
        coeffs = [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(degree + 1)]
        if coeffs[-1] != (0, 0):
            return coeffs


def build_triple(triple):
    """WeierstrassData from ((num, den) x 3) integer coefficient pairs."""
    from minsurf4.poly import Polynomial
    from minsurf4.rational import RationalFunction
    from minsurf4.scalars import GaussianRational
    from minsurf4.weierstrass import WeierstrassData

    def poly(coeffs):
        return Polynomial([GaussianRational(a, b) for a, b in coeffs])

    return WeierstrassData(*(RationalFunction(poly(n), poly(d)) for n, d in triple))


class WeierstrassExact:
    """Exact triples of the criterion-4 shape through `phis_from_data`,
    `check_conformality` and the `data_from_phis` round trip; an item is
    one triple. Every numerator and denominator has degree 2, because the
    cost grows about fourfold per degree and a fixed degree keeps the
    per-item cost within ~15%."""

    name = "weierstrass-exact"
    degree = 2
    samples = 3

    def __init__(self, seed, seconds, root, workdir):
        rng = random.Random(f"weierstrass-exact:{seed}")
        self.items = []
        for _ in range(_count(seconds, TRIPLES_PER_S)):
            triple = tuple(
                (_random_poly(rng, self.degree), _random_poly(rng, self.degree)) for _ in range(3)
            )
            points = []
            while len(points) < self.samples:
                z = complex(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
                dens = [checks.poly_eval(d, z) for _, d in triple]
                nums = [checks.poly_eval(n, z) for n, _ in triple]
                if min(abs(v) for v in dens + nums[2:]) > 1e-2:
                    points.append(z)
            self.items.append((triple, points))

    def setup_code(self):
        return (
            "import sys\n"
            "sys.path.insert(0, 'perfbench')\n"
            "from workloads import build_triple\n"
            f"build_triple({self.items[0][0]!r})\n"
        )

    def units(self, item):
        return 1

    def run(self, item):
        from minsurf4.weierstrass import check_conformality, data_from_phis, phis_from_data

        w = build_triple(item[0])
        phis = phis_from_data(w)
        conformal = check_conformality(phis)
        back = data_from_phis(phis)
        return w, phis, conformal, back

    def capture(self, item, result):
        w, phis, conformal, back = result
        return {
            "conformal": conformal,
            "round_trip_equal": back == w,
            "samples": [
                (z, phis.eval(z), tuple(r.eval_at(z) for r in (back.g1, back.g2, back.omega_hat)))
                for z in item[1]
            ],
        }

    def check(self, item, output):
        return checks.check_weierstrass(item[0], output)

    def negative_control(self):
        """Perturb phi1 of the first triple by a constant: the benchmark's
        own arithmetic shows sum phi_j^2 != 0 at a sample point, so
        `check_conformality` must say false."""
        from minsurf4.rational import RationalFunction
        from minsurf4.weierstrass import PhiForms, check_conformality, phis_from_data

        triple, points = self.items[0]
        phi = list(phis_from_data(build_triple(triple)).phi)
        phi[0] = phi[0] + RationalFunction.constant(1)
        z = points[0]
        vals = checks.phi_values(triple, z)
        residual = (vals[0] + 1) ** 2 + sum(v * v for v in vals[1:])
        if abs(residual) < 1e-6:
            return ["negative control: perturbed forms are conformal at the sample point"]
        if check_conformality(PhiForms(phi)) is not False:
            return ["check_conformality accepts perturbed, non-conformal forms"]
        return []


class CatenoidMesh:
    """`minsurf4 mesh` on the catenoid data over an annulus grid that the
    benchmark writes; an item is one vertex. The grid is always 8 x 24 = 192
    vertices (the per-vertex cost grows with the grid); the radii come from
    the seed."""

    name = "catenoid-mesh"
    n_r = 8
    n_theta = 24

    def __init__(self, seed, seconds, root, workdir):
        rng = random.Random(f"catenoid-mesh:{seed}")
        with open(os.path.join(root, "configs", "catenoid-mesh.json"), encoding="utf-8") as fh:
            base = json.load(fh)
        self.items = []
        for i in range(_count(seconds, MESHES_PER_S)):
            grid = {
                "kind": "annulus",
                "r": [round(rng.uniform(0.4, 0.6), 6), round(rng.uniform(1.8, 2.2), 6)],
                "n_r": self.n_r,
                "n_theta": self.n_theta,
            }
            cfg = dict(base, mesh=dict(base["mesh"], grid=grid, filename="catenoid.mesh"))
            out = os.path.join(workdir, f"mesh-{i}")
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            self.items.append((path, out, grid))

    def setup_code(self):
        path, out, _ = self.items[0]
        return (
            "from minsurf4.cli import build_parser\n"
            "from minsurf4.config import load_config\n"
            f"load_config(build_parser().parse_args(['mesh', '--config', {path!r}, '--out', {out!r}]).config)\n"
        )

    def units(self, item):
        return item[2]["n_r"] * item[2]["n_theta"]

    def run(self, item):
        path, out, _ = item
        return _cli(["mesh", "--config", path, "--out", out])

    def capture(self, item, result):
        code, _ = result
        with open(os.path.join(item[1], "catenoid.mesh"), encoding="ascii") as fh:
            return code, fh.read()

    def check(self, item, output):
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        return checks.check_catenoid_mesh(item[2], text)


class Moebius:
    """`minsurf4 nonorientable --config configs/moebius-strip.json`; an item
    is one pipeline run, with its `--seed` (the sandwich sample points) from
    the benchmark's seed."""

    name = "moebius"

    def __init__(self, seed, seconds, root, workdir):
        rng = random.Random(f"moebius:{seed}")
        self.config = os.path.join(root, "configs", "moebius-strip.json")
        with open(self.config, encoding="utf-8") as fh:
            self.block = json.load(fh)["nonorientable"]
        self.out = os.path.join(workdir, "moebius")
        os.makedirs(self.out, exist_ok=True)
        self.items = [rng.randrange(2**31) for _ in range(_count(seconds, PIPELINES_PER_S))]

    def _argv(self, s):
        return ["nonorientable", "--config", self.config, "--seed", str(s), "--out", self.out]

    def setup_code(self):
        return (
            "from minsurf4.cli import build_parser\n"
            "from minsurf4.config import load_config\n"
            f"load_config(build_parser().parse_args({self._argv(self.items[0])!r}).config)\n"
        )

    def units(self, item):
        return 1

    def run(self, item):
        return _cli(self._argv(item))

    def capture(self, item, result):
        code, text = result
        with open(os.path.join(self.out, "moebius.mesh"), encoding="ascii") as fh:
            return code, text, fh.read()

    def check(self, item, output):
        code, text, mesh = output
        if code != 0:
            return [f"exit code {code}"]
        pipeline = json.loads(text)["results"]["pipeline"]
        return checks.check_moebius(self.block, pipeline, mesh)


WORKLOADS = {w.name: w for w in (Falsify, WeierstrassExact, CatenoidMesh, Moebius)}
