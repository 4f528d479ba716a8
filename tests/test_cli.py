"""Command-line behavior: verdicts, exit codes, deterministic artifacts."""

import cmath
import hashlib
import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from minsurf4.cli import main
from minsurf4.meshing import annulus_grid

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"
SRC_DIR = REPO_ROOT / "src"


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_main_equality(capsys):
    code, out, _ = _run(
        ["verify-main", "--config", str(CONFIG_DIR / "prop-family-p4.json")], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "verify-main"
    assert rep["results"]["verdict"] == "equality"
    assert rep["results"]["inequality"]["lhs"] == "1"
    assert rep["tolerances"] == {}


def test_gen_example_equality(capsys):
    code, out, _ = _run(["gen-example", "--p", "4", "--m", "1,1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["verdict"] == "equality"
    assert rep["results"]["complete"] is True
    assert rep["results"]["q"] == [4, 4]


def test_gen_example_incomplete(capsys):
    code, out, _ = _run(["gen-example", "--p", "5", "--m", "1,1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["verdict"] == "hypothesis-failed"
    assert rep["results"]["complete"] is False


def test_gen_example_bad_p(capsys):
    code, out, err = _run(["gen-example", "--p", "1"], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_missing_config(capsys):
    code, _, err = _run(["verify-main", "--config", "no-such-file.json"], capsys)
    assert code == 1
    assert "error:" in err


def test_falsify_csv_stdout(capsys):
    code, out, _ = _run(["falsify", "--n", "20", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,punctures,m,q,complete,lhs,applicable,holds,counterexample"
    assert len(lines) == 21
    assert all(line.endswith(",false") for line in lines[1:])


def test_falsify_json_summary(capsys):
    code, out, _ = _run(["falsify", "--n", "20"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["summary"]["counterexamples"] == 0
    assert rep["results"]["summary"]["instances"] == 20


def test_lagrangian_report(capsys):
    code, out, _ = _run(
        ["lagrangian", "--config", str(CONFIG_DIR / "lagrangian-parabola.json")],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    res = rep["results"]
    assert res["nondegenerate"] is True
    assert res["probes"]["0"]["K"] == pytest.approx(-2.0, abs=1e-9)
    assert res["probes"]["0"]["lambda2"] == pytest.approx(1.0, abs=1e-9)
    assert res["worst_symplectic_residual"] < 1e-8
    assert res["worst_harmonic_residual"] < 1e-4
    # g = -S2/S1 = 1/z omits exactly the value 0
    assert res["corollary_bound"]["reason"] == "complete"
    assert res["corollary_bound"]["q"] == 1
    assert res["corollary_bound"]["bound_holds"] is True


def _config_copy(name, section, **entries):
    """argv entry: a copy of a shipped config with section entries replaced,
    written under the test's tmp_path."""

    def write(tmp_path):
        cfg = json.loads((CONFIG_DIR / name).read_text())
        cfg[section].update(entries)
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return write


def _lagrangian_copy(tmp_path, **block):
    """A copy of the shipped Lagrangian config with block entries replaced."""
    return _config_copy("lagrangian-parabola.json", "lagrangian", **block)(tmp_path)


def test_lagrangian_bad_box_is_a_config_error(tmp_path, capsys):
    code, out, err = _run(["lagrangian", "--config", _lagrangian_copy(tmp_path, box="wide")], capsys)
    assert (code, out) == (1, "")
    assert err == "error: lagrangian box must be a number\n"


def test_lagrangian_bad_probe_is_a_config_error(tmp_path, capsys):
    code, out, err = _run(["lagrangian", "--config", _lagrangian_copy(tmp_path, probes=["zz"])], capsys)
    assert (code, out) == (1, "")
    assert err == "error: lagrangian probe: cannot parse scalar 'zz'\n"


def _annulus_grid(r):
    return {"kind": "annulus", "r": r, "n_r": 4, "n_theta": 8}


@pytest.mark.parametrize(
    "command, config",
    [
        ("lagrangian", _config_copy("lagrangian-parabola.json", "lagrangian", beta=float("nan"))),
        ("mesh", _config_copy("catenoid-mesh.json", "mesh", grid=_annulus_grid(["a", 2]))),
        ("mesh", _config_copy("catenoid-mesh.json", "mesh", grid=_annulus_grid([True, 2]))),
    ],
    ids=["beta-nan", "r-string", "r-true"],
)
def test_bad_real_is_a_config_error(command, config, tmp_path, capsys):
    code, out, err = _run([command, "--config", config(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "must be a" in err


def test_lagrangian_overflowing_probe_is_an_error_entry(tmp_path, capsys):
    # lambda^2 = |z|^2 + 1 at z = 10^200 is past the float range, and 10^400
    # is past it already as a point; the other probe is still reported
    big, huge = "1" + "0" * 200, "1" + "0" * 400
    code, out, _ = _run(["lagrangian", "--config", _lagrangian_copy(tmp_path, probes=[big, huge, "0"])], capsys)
    assert code == 0
    probes = json.loads(out)["results"]["probes"]
    assert probes[big] == {"error": "lambda^2 overflows a float at z = (1e+200+0j)"}
    assert probes[huge] == {"error": f"z overflows a float at z = {huge}"}
    assert probes["0"] == {"K": -2.0, "lambda2": 1.0}


def test_lagrangian_probe_at_a_pole_is_an_error_entry(tmp_path, capsys):
    # F2 = z^2/(z - 1) gives the spinor S1 = F2' a double pole at z = 1;
    # the other probe is still reported
    path = _lagrangian_copy(tmp_path, F2="(1)*z^2 over (1)*z + (-1)", probes=["1", "0"])
    code, out, _ = _run(["lagrangian", "--config", path], capsys)
    assert code == 0
    probes = json.loads(out)["results"]["probes"]
    assert probes["1"] == {"error": "pole of the spinors at z = (1+0j)"}
    assert probes["0"] == {"K": -8.0, "lambda2": 1.0}


def test_lagrangian_pole_in_the_domain_is_not_applicable(tmp_path, capsys):
    # the shipped domain is the whole plane, where S1 = F2' has a pole at 1
    path = _lagrangian_copy(tmp_path, F2="(1)*z^2 over (1)*z + (-1)")
    code, out, _ = _run(["lagrangian", "--config", path], capsys)
    assert code == 0
    bound = json.loads(out)["results"]["corollary_bound"]
    assert bound["applicable"] is False
    assert bound["reason"] == "not-applicable: pole of the spinors at z = 1+0j in the domain"
    assert bound["omitted"] is None


def test_lagrangian_zeros_at_the_punctures_are_not_degenerate(tmp_path, capsys):
    # the spinors S1 = F2', S2 = -F1' share the zeros 1/3 and 2/7+1/5i, and
    # the domain punctures the plane at exactly those two points
    cfg = json.loads((CONFIG_DIR / "lagrangian-parabola.json").read_text())
    cfg["domain"]["punctures"] = ["1/3", "2/7+1/5i"]
    cfg["lagrangian"]["F1"] = "(1/3)*z^3 + (-13/42-1/10i)*z^2 + (2/21+1/15i)*z"
    cfg["lagrangian"]["F2"] = "(1/4)*z^4 + (8/63-1/15i)*z^3 + (-11/42-1/15i)*z^2 + (2/21+1/15i)*z"
    path = tmp_path / "punctured.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = _run(["lagrangian", "--config", str(path)], capsys)
    assert code == 0
    res = json.loads(out)["results"]
    assert (res["nondegenerate"], res["degenerate_points"]) == (True, [])


def test_lagrangian_bound_violation_exits_2(monkeypatch, capsys):
    import minsurf4.cli as cli
    from minsurf4.lagrangian import CorollaryBoundReport

    monkeypatch.setattr(
        cli, "corollary_bound_check", lambda spec, domain: CorollaryBoundReport(True, "complete", None, 4, None, False)
    )
    code, out, _ = _run(["lagrangian", "--config", str(CONFIG_DIR / "lagrangian-parabola.json")], capsys)
    assert code == 2
    assert json.loads(out)["results"]["corollary_bound"]["bound_holds"] is False


def test_unconverged_roots_exit_1(monkeypatch, capsys):
    # the catenoid's forms have the pole 0: one sweep lands on the root of the
    # degree-1 factor, but only a sweep whose steps all fall below the
    # tolerance counts as converged
    import minsurf4.poly as poly

    monkeypatch.setattr(poly, "ABERTH_MAXITER", 1)
    code, out, err = _run(["mesh", "--config", str(CONFIG_DIR / "catenoid-mesh.json")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: roots of a degree-1 factor not converged after 1 Aberth iterations: last step ")


def _write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# The three regularity probes of ROADMAP direction 3. `mesh` refuses a pole of
# the forms inside the domain; no command yet checks that the metric is finite
# and nonzero there. Each probe asserts that the wrong outcome is absent; the
# two metric probes fail today and turn into unexpected passes, which
# strict=True reports, once the gate lands.
_NO_REGULARITY_GATE = pytest.mark.xfail(strict=True, reason="no regularity gate inside the domain (ROADMAP direction 3)")


@_NO_REGULARITY_GATE
def test_a_zero_of_the_metric_is_no_counterexample(tmp_path, capsys):
    # omega_hat = (z - 5)/(z (z - 1)(z - i)) vanishes at z = 5, inside the
    # domain; today the verdict is COUNTEREXAMPLE with lhs 1/2 and exit 2
    doc = {
        "domain": {"kind": "punctured-plane", "punctures": ["0", "1", "1i"]},
        "metric": {
            "factors": [{"g": "(1)*z", "m": 1}],
            "omega_hat": "(1)*z + (-5) over (1)*z^3 + (-1-1i)*z^2 + (1i)*z",
        },
    }
    code, out, _ = _run(["verify-main", "--config", _write_config(tmp_path, "probe-a.json", doc)], capsys)
    assert code != 2
    assert json.loads(out)["results"]["verdict"] != "COUNTEREXAMPLE"


@_NO_REGULARITY_GATE
def test_a_pole_of_omega_hat_inside_the_domain_is_not_verified(tmp_path, capsys):
    # without the puncture 3, omega_hat's pole at z = 3 lies inside the
    # domain; today the verdict is verified
    doc = json.loads((CONFIG_DIR / "prop-family-p4.json").read_text())
    doc["domain"]["punctures"] = ["1", "2"]
    code, out, _ = _run(["verify-main", "--config", _write_config(tmp_path, "probe-b.json", doc)], capsys)
    assert code == 0
    assert json.loads(out)["results"]["verdict"] != "verified"


def test_a_pole_of_the_forms_inside_the_domain_is_not_regular(tmp_path, capsys):
    # without the puncture 0, the catenoid's forms have a pole inside the
    # domain; mesh refuses the data (before the gate it exited 0 and
    # reported regular: true)
    doc = json.loads((CONFIG_DIR / "catenoid-mesh.json").read_text())
    doc["domain"]["punctures"] = []
    code, out, err = _run(["mesh", "--config", _write_config(tmp_path, "probe-c.json", doc)], capsys)
    assert (code, out, err) == (1, "", "error: forms have poles inside the domain at: 0+0j\n")


def test_falsify_draw_cap_exits_1(monkeypatch, capsys):
    # every draw has an incomplete metric: omega_hat = 1/(z (z - 1) (z - 2))
    # has sigma(inf) = 3 - 1 - 2 = 0 > -1 with the factor (z, 1)
    import minsurf4.gaussmap as gaussmap
    from minsurf4.domains import PuncturedPlane
    from minsurf4.metric import MetricSpec
    from minsurf4.rational import RationalFunction

    z = RationalFunction.z()
    spec = MetricSpec([(z, 1)], 1 / (z * (z - 1) * (z - 2)))
    monkeypatch.setattr(gaussmap, "_draw_instance", lambda rng, bounds: (spec, PuncturedPlane([0, 1, 2])))
    code, out, err = _run(["falsify", "--n", "2"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: falsify instance 0: no complete metric in 200 draws\n"


def test_nonorientable_report_and_mesh(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out, _ = _run(
        [
            "nonorientable",
            "--config",
            str(CONFIG_DIR / "moebius-strip.json"),
            "--out",
            str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    pipeline = rep["results"]["pipeline"]
    assert pipeline["passed"] is True
    assert pipeline["k_declared"] == 3
    assert pipeline["k_used"] == 5
    assert (out_dir / "nonorientable.json").read_text() == out
    mesh_file = out_dir / "moebius.mesh"
    assert mesh_file.exists()
    assert "identified-pairs" in mesh_file.read_text()


def test_nonorientable_pulls_back_once_at_the_admitted_k(monkeypatch, capsys):
    # the shipped config declares k = 3 and f_bounds admits k = 5: the forms
    # are built once, at k = 5, and the report records that degree
    import minsurf4.nonorientable as nonorientable

    pulled_back_at = []
    pullback_psi = nonorientable.pullback_psi

    def counting(data, f, cover):
        pulled_back_at.append(cover.k)
        return pullback_psi(data, f, cover)

    monkeypatch.setattr(nonorientable, "pullback_psi", counting)
    code, out, _ = _run(["nonorientable", "--config", str(CONFIG_DIR / "moebius-strip.json")], capsys)
    assert code == 0
    assert pulled_back_at == [5]
    rep = json.loads(out)
    assert rep["tolerances"] == {"slack": 1e-12}
    pipeline = rep["results"]["pipeline"]
    assert (pipeline["k_declared"], pipeline["k_used"]) == (3, 5)
    stages = {s["stage"]: s for s in pipeline["stages"]}
    assert stages["residue-conditions"]["details"] == {"k": 5}
    assert stages["psi-assembly"]["details"]["components"][3] == (
        "(-5i)*z^2 + (-5i)*z + (5i)*z^-1 + (-5i)*z^-2"
    )
    assert stages["f-bounds"]["details"]["escalated_from"] == 3


def test_removed_options_are_rejected(capsys):
    assert main(["falsify", "--n", "1", "--workers", "2"]) == 1
    assert main(["verify-main", "--config", str(CONFIG_DIR / "prop-family-p4.json"), "--tol", "1e-6"]) == 1


def test_nonorientable_failed_stage_exits_2(tmp_path, capsys):
    # a declared omitted set without its antipode fails the rp2-count stage
    cfg = json.loads((CONFIG_DIR / "moebius-strip.json").read_text())
    cfg["nonorientable"]["declared_omitted"] = [["1+1i"], ["0", "inf"]]
    path = tmp_path / "moebius-unclosed.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = _run(["nonorientable", "--config", str(path)], capsys)
    assert code == 2
    pipeline = json.loads(out)["results"]["pipeline"]
    assert pipeline["passed"] is False
    assert pipeline["failed_stage"] == "rp2-count"


_MOEBIUS_STAGES = (
    "f-condition-c",
    "cover",
    "laurent-symmetry",
    "residue-conditions",
    "psi-assembly",
    "conformality",
    "f-bounds",
    "sandwich",
    "rp2-count",
    "mesh",
)


def _moebius_record(passed, last=None, end="mesh"):
    """(stage, status) pairs: the stages in order up to `end`, the first
    `passed` of them passed and the next one given the status `last`."""
    stages = _MOEBIUS_STAGES[: _MOEBIUS_STAGES.index(end) + 1]
    record = [(name, "passed") for name in stages[:passed]]
    if last is not None:
        record.append((stages[passed], last))
        record += [(name, "passed") for name in stages[passed + 1 :]]
    return record


# variant of the shipped Moebius-strip config -> (stage records, exit code);
# the pipeline stops at the first failed stage, and a skipped one goes on
MOEBIUS_VARIANTS = {
    "shipped": ({}, _moebius_record(10), 0),
    "b-one-term": ({"b": ["1"]}, _moebius_record(0, "failed", "f-condition-c"), 2),
    "k-even": ({"k": 4}, _moebius_record(1, "failed", "cover"), 2),
    "omitted-unclosed": (
        {"declared_omitted": [["1+1i"], ["0", "inf"]]},
        _moebius_record(8, "failed", "rp2-count"),
        2,
    ),
    "phi-not-conformal": (
        {"phi": ["(1)*z + (1)*z^-1"] * 4},
        _moebius_record(5, "failed", "conformality"),
        2,
    ),
    "n-theta-odd": ({"mesh": {"n_r": 8, "n_theta": 15}}, _moebius_record(9, "failed"), 2),
    "omitted-undeclared": ({"declared_omitted": None}, _moebius_record(8, "skipped"), 0),
    "no-mesh": ({"mesh": None}, _moebius_record(9, end="rp2-count"), 0),
    # the roots of z^2 f have moduli 0.978 and 1.022, inside
    # [100^(-1/k), 100^(1/k)] for every odd k <= 99 (100^(1/99) > 1.04); |f|
    # is bounded before the residues but recorded after conformality
    "k-search-exhausted": (
        {"b": ["1/8", "2"], "R": 100},
        _moebius_record(6, "failed", "f-bounds"),
        2,
    ),
}


@pytest.mark.parametrize("variant", MOEBIUS_VARIANTS)
def test_nonorientable_stage_records(variant, tmp_path, capsys):
    entries, record, expected = MOEBIUS_VARIANTS[variant]
    path = _config_copy("moebius-strip.json", "nonorientable", **entries)(tmp_path)
    code, out, err = _run(["nonorientable", "--config", path, "--out", str(tmp_path / "out")], capsys)
    assert (code, err) == (expected, "")
    pipeline = json.loads(out)["results"]["pipeline"]
    assert [(s["stage"], s["status"]) for s in pipeline["stages"]] == record
    failed = [name for name, status in record if status == "failed"]
    assert pipeline["passed"] is (not failed)
    assert pipeline["failed_stage"] == (failed[0] if failed else None)
    assert (tmp_path / "out" / "moebius.mesh").exists() is (record[-1] == ("mesh", "passed"))


def _negative_verdicts(monkeypatch):
    """Every verdict the library could report as negative, reported so."""
    import minsurf4.cli as cli
    from minsurf4.lagrangian import CorollaryBoundReport

    monkeypatch.setattr(cli, "_verdict", lambda rep: "COUNTEREXAMPLE")
    monkeypatch.setattr(cli, "falsify", lambda seed, n, bounds: ({"counterexamples": 1}, []))
    over_bound = CorollaryBoundReport(True, "complete", None, 4, None, False)
    monkeypatch.setattr(cli, "corollary_bound_check", lambda spec, domain: over_bound)


def _existing_file(tmp_path):
    path = tmp_path / "not-a-directory"
    path.write_text("")
    return str(path)


def _shipped(name):
    return str(CONFIG_DIR / name)


# (argv, whether negative verdicts are patched in, exit code, failed stage of
# the nonorientable pipeline); a callable argv entry is given tmp_path
EXIT_CODES = {
    "help": (["--help"], False, 0, None),
    "subcommand-help": (["nonorientable", "--help"], False, 0, None),
    "no-subcommand": ([], False, 1, None),
    "verify-main-0": (["verify-main", "--config", _shipped("prop-family-p4.json")], False, 0, None),
    "verify-main-missing-config": (["verify-main"], False, 1, None),
    "verify-main-seed": (["verify-main", "--config", _shipped("prop-family-p4.json"), "--seed", "1"], False, 1, None),
    "verify-main-bad-config": (["verify-main", "--config", _shipped("lagrangian-parabola.json")], False, 1, None),
    "verify-main-2": (["verify-main", "--config", _shipped("prop-family-p4.json")], True, 2, None),
    "gen-example-0": (["gen-example", "--p", "4", "--m", "1,1"], False, 0, None),
    "gen-example-bad-p": (["gen-example", "--p", "1"], False, 1, None),
    "gen-example-seed": (["gen-example", "--p", "4", "--seed", "1"], False, 1, None),
    "gen-example-out-is-a-file": (["gen-example", "--p", "4", "--out", _existing_file], False, 1, None),
    "gen-example-2": (["gen-example", "--p", "4", "--m", "1,1"], True, 2, None),
    "falsify-0": (["falsify", "--n", "3"], False, 0, None),
    "falsify-unknown-option": (["falsify", "--n", "3", "--workers", "2"], False, 1, None),
    "falsify-bad-format": (["falsify", "--n", "3", "--format", "xml"], False, 1, None),
    "falsify-2": (["falsify", "--n", "3"], True, 2, None),
    "lagrangian-0": (["lagrangian", "--config", _shipped("lagrangian-parabola.json")], False, 0, None),
    "lagrangian-format": (
        ["lagrangian", "--config", _shipped("lagrangian-parabola.json"), "--format", "csv"], False, 1, None
    ),
    "lagrangian-bad-config": (
        ["lagrangian", "--config", _config_copy("lagrangian-parabola.json", "lagrangian", box=True)], False, 1, None
    ),
    "lagrangian-bound": (["lagrangian", "--config", _shipped("lagrangian-parabola.json")], True, 2, None),
    "nonorientable-0": (["nonorientable", "--config", _shipped("moebius-strip.json")], False, 0, None),
    "nonorientable-no-conformality": (
        ["nonorientable", "--config", _shipped("moebius-strip.json"), "--no-conformality"], False, 1, None
    ),
    "nonorientable-bad-config": (
        ["nonorientable", "--config", _config_copy("moebius-strip.json", "nonorientable", R=True)], False, 1, None
    ),
    "nonorientable-failed-stage": (
        [
            "nonorientable",
            "--config",
            _config_copy("moebius-strip.json", "nonorientable", declared_omitted=[["1+1i"], ["0", "inf"]]),
        ],
        False,
        2,
        "rp2-count",
    ),
    "nonorientable-bad-b": (
        ["nonorientable", "--config", _config_copy("moebius-strip.json", "nonorientable", b=["1"])],
        False,
        2,
        "f-condition-c",
    ),
    "mesh-0": (["mesh", "--config", _shipped("catenoid-mesh.json")], False, 0, None),
    "mesh-format": (["mesh", "--config", _shipped("catenoid-mesh.json"), "--format", "csv"], False, 1, None),
    "mesh-seed": (["mesh", "--config", _shipped("catenoid-mesh.json"), "--seed", "1"], False, 1, None),
    "mesh-bad-config": (["mesh", "--config", _shipped("moebius-strip.json")], False, 1, None),
}


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_exit_code_table(case, tmp_path, monkeypatch, capsys):
    argv, negative, expected, failed_stage = EXIT_CODES[case]
    if negative:
        _negative_verdicts(monkeypatch)
    code, out, err = _run([a(tmp_path) if callable(a) else a for a in argv], capsys)
    assert code == expected, err
    if expected == 1:
        assert out == ""
        assert "error:" in err
    elif argv[-1] == "--help":
        assert out.startswith("usage: minsurf4")
    else:
        assert err == ""
        rep = json.loads(out)
        assert rep["command"] == argv[0]
        if argv[0] == "nonorientable":
            assert rep["results"]["pipeline"]["failed_stage"] == failed_stage


def test_exit_code_table_covers_every_subcommand():
    from minsurf4.cli import build_parser

    (subs,) = [a for a in build_parser()._actions if a.dest == "command"]
    reached = {}
    for argv, _, code, _ in EXIT_CODES.values():
        if argv and argv[0] in subs.choices:
            reached.setdefault(argv[0], set()).add(code)
    # mesh reaches no negative verdict
    assert reached == {name: {0, 1} if name == "mesh" else {0, 1, 2} for name in subs.choices}


def test_mesh_export_hash_consistency(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out, _ = _run(
        [
            "mesh",
            "--config",
            str(CONFIG_DIR / "catenoid-mesh.json"),
            "--out",
            str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["regular"] is True
    assert rep["results"]["periods_well_defined"] is True
    mesh_bytes = (out_dir / "catenoid.mesh").read_bytes()
    assert hashlib.sha256(mesh_bytes).hexdigest() == rep["results"]["mesh_sha256"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["catenoid.mesh", "mesh.json"]


def test_one_mesh_command_decides_each_residue_once(monkeypatch, capsys):
    """One catenoid `mesh` command runs check_regularity and period_residues
    once each, so it makes one residue_at call per form at the one puncture,
    and no residue decision calls multiplicity_at: the pole order is read off
    the Taylor coefficients the residue is built from. The form denominators
    z^2, z^2, z and 1 are solved once each: three roots calls."""
    import minsurf4.cli as cli
    import minsurf4.domains as domains
    import minsurf4.meshing as meshing
    import minsurf4.poly as poly
    import minsurf4.rational as rational
    import minsurf4.weierstrass as weierstrass

    calls = {
        "check_regularity": 0,
        "period_residues": 0,
        "residue_at": 0,
        "multiplicity_at in residue_at": 0,
        "roots": 0,
    }
    in_residue = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, home in (("check_regularity", weierstrass), ("period_residues", weierstrass), ("roots", poly)):
        fn = getattr(home, name)
        for module in (cli, domains, meshing, poly, weierstrass):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    residue_at = rational.RationalFunction.residue_at

    def residue(self, point):
        calls["residue_at"] += 1
        in_residue.append(point)
        try:
            return residue_at(self, point)
        finally:
            in_residue.pop()

    multiplicity_at = poly.multiplicity_at

    def multiplicity(p, point):
        if in_residue:
            calls["multiplicity_at in residue_at"] += 1
        return multiplicity_at(p, point)

    monkeypatch.setattr(rational.RationalFunction, "residue_at", residue)
    for module in (poly, rational, domains):
        monkeypatch.setattr(module, "multiplicity_at", multiplicity)
    code, out, _ = _run(["mesh", "--config", str(CONFIG_DIR / "catenoid-mesh.json")], capsys)
    assert code == 0 and json.loads(out)["results"]["periods_well_defined"] is True
    assert calls == {
        "check_regularity": 1,
        "period_residues": 1,
        "residue_at": 4,
        "multiplicity_at in residue_at": 0,
        "roots": 3,
    }


def test_falsify_reads_one_side_of_each_local_order(monkeypatch, capsys):
    """A pole order is the denominator's multiplicity alone, and an order of
    vanishing reads the numerator only off the poles: 200 falsify draws
    (seeds 0..19, ten each) make at most 1,341 multiplicity_at calls, half of
    the 2,682 that reading both sides at every puncture made."""
    import minsurf4.domains as domains
    import minsurf4.poly as poly
    import minsurf4.rational as rational

    calls = []
    multiplicity_at = poly.multiplicity_at

    def counting(p, point):
        calls.append(point)
        return multiplicity_at(p, point)

    for module in (poly, rational, domains):
        monkeypatch.setattr(module, "multiplicity_at", counting)
    for seed in range(20):
        code, _, _ = _run(["falsify", "--seed", str(seed), "--n", "10", "--allow-incomplete"], capsys)
        assert code == 0
    assert 0 < len(calls) <= 1341


def test_seed_changes_falsify_draws(capsys):
    _, out_a, _ = _run(["falsify", "--n", "10", "--format", "csv"], capsys)
    _, out_b, _ = _run(
        ["falsify", "--n", "10", "--seed", "1", "--format", "csv"], capsys
    )
    assert out_a != out_b


def _child_env():
    """Environment for a child interpreter whose cwd is not the repo root.

    A relative PYTHONPATH entry (``src`` in the tier-1 command) would resolve
    against the child's cwd, so the absolute source directory goes first and
    every inherited entry is made absolute.
    """
    inherited = [
        os.path.abspath(entry)
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), *inherited])
    return env


def _python_subprocess(args, cwd, timeout=120):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _cli_subprocess(argv, cwd):
    return _python_subprocess(["-m", "minsurf4.cli", *argv], cwd)


def test_falsify_artifacts_identical_across_processes(tmp_path):
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        proc = _cli_subprocess(
            ["falsify", "--n", "25", "--out", str(d), "--format", "csv"], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(
            (
                (d / "falsify.json").read_bytes(),
                (d / "falsify.csv").read_bytes(),
            )
        )
    assert outs[0] == outs[1]
    assert outs[0][1].decode().startswith("index,")


def test_nonorientable_artifacts_identical_across_processes(tmp_path):
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        proc = _cli_subprocess(
            [
                "nonorientable",
                "--config",
                str(CONFIG_DIR / "moebius-strip.json"),
                "--out",
                str(d),
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(
            (
                (d / "nonorientable.json").read_bytes(),
                (d / "moebius.mesh").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


def test_console_entry_point(tmp_path):
    """The declared console script resolves and runs as its wrapper would."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["minsurf4"]
    assert target == "minsurf4.cli:main"
    module_name, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))
    # The body of the wrapper script that installers generate for the entry.
    wrapper = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
    proc = _python_subprocess(
        ["-c", wrapper, "gen-example", "--p", "3", "--m", "1"], tmp_path, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["results"]["verdict"] == "equality"


@pytest.mark.skipif(
    shutil.which("minsurf4") is None, reason="minsurf4 console script not on PATH"
)
def test_installed_console_script():
    proc = subprocess.run(
        ["minsurf4", "gen-example", "--p", "3", "--m", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["results"]["verdict"] == "equality"


# Every exact command, `mesh` (which evaluates its closed-form primitives on
# complex scalars), and the exact round trip of Weierstrass data run in a
# child interpreter that must never import numpy, nor dataclasses or inspect,
# whose import cost would land on every command's start; `nonorientable`
# builds float arrays and must import numpy, so the check cannot pass
# vacuously.
_EXACT_WORK = f"""
import sys
import minsurf4
from minsurf4.cli import main
from minsurf4.poly import Polynomial
from minsurf4.rational import RationalFunction
from minsurf4.weierstrass import WeierstrassData, check_conformality, data_from_phis, phis_from_data

configs = {str(CONFIG_DIR)!r}
for argv in (
    ["falsify", "--seed", "3", "--n", "20", "--allow-incomplete", "--format", "csv"],
    ["verify-main", "--config", configs + "/prop-family-p4.json"],
    ["lagrangian", "--config", configs + "/lagrangian-parabola.json"],
    ["gen-example", "--p", "4", "--m", "1,1"],
    ["mesh", "--config", configs + "/catenoid-mesh.json"],
):
    assert main(argv) == 0, argv
z = RationalFunction(Polynomial([0, 1]))
w = WeierstrassData(z, -z, 1 / (z * z - 2))
p = phis_from_data(w)
assert check_conformality(p)
assert data_from_phis(p) == w
assert len(p.eval(0.5 + 0.25j)) == 4
print(sorted({{"numpy", "dataclasses", "inspect"}} & set(sys.modules)), file=sys.stderr)
"""


def test_exact_commands_do_not_import_numpy(tmp_path):
    proc = _python_subprocess(["-c", _EXACT_WORK], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


def test_nonorientable_imports_numpy(tmp_path):
    nonorientable = f"""
import sys
from minsurf4.cli import main
assert main(["nonorientable", "--config", {str(CONFIG_DIR / "moebius-strip.json")!r}]) == 0
print("numpy" in sys.modules, file=sys.stderr)
"""
    proc = _python_subprocess(["-c", nonorientable], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "True"


GOLDEN_ARTIFACTS = {
    ("verify-main", "--config", "prop-family-p4.json"): {
        "verify-main.json": "a69f2fe65e603f3a0f9028c6236f70c8185bb4ad672e5d3bc610839dd8e80b60",
    },
    ("lagrangian", "--config", "lagrangian-parabola.json"): {
        "lagrangian.json": "63985c248d5f78ee685a29ba6fcf06a4e8f1ab479d61ab0fba4cdcbc154de3b8",
    },
    ("nonorientable", "--config", "moebius-strip.json"): {
        "nonorientable.json": "a615b4bc39f4bbc125b80febd85afa988d18fab6119ae5d7ae0c068e76db94ca",
        "moebius.mesh": "a83d888ac082bc919a56b46cd415e23e1f04adc12049ce9cfc3025ebbfd98e23",
    },
    ("mesh", "--config", "catenoid-mesh.json"): {
        "mesh.json": "f8c5cb6117f0a9a863cd4a804061216476a9f076a1163b5f6ffceccc799b37e9",
        "catenoid.mesh": "11d4aff552dadf29e19c871a27d56e0278f8bbc710a079460e30a788752584d3",
    },
    ("falsify", "--seed", "7", "--n", "50"): {
        "falsify.json": "0463a1c9de55ada5d6fc9886a322bdad2d8d75a8bcfc8f722f1fbb3febc3d8ef",
        "falsify.csv": "659f6767a33ab14549e5b6f368edc0c00752b087fc262313e244c7651be7dc2a",
    },
    ("gen-example", "--p", "4", "--m", "1,1"): {
        "gen-example.json": "53372a6aa54825cb6c33572dd07aa356547ba4c4f33504b28363ce7351538268",
    },
}


@pytest.mark.parametrize("command", GOLDEN_ARTIFACTS, ids=lambda c: c[0])
def test_golden_artifacts(command, tmp_path, capsys):
    """The sha256 of each file a command writes with --out (criterion 10).

    Any change must leave every artifact byte-identical, except a change
    that moves a float on purpose: it updates the hash here and says so in
    CHANGES.md.
    """
    argv = [str(CONFIG_DIR / a) if a.endswith(".json") else a for a in command]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert written == GOLDEN_ARTIFACTS[command]


def test_catenoid_mesh_matches_its_closed_form(tmp_path, capsys):
    """Every vertex of the shipped catenoid mesh is
    Re((1/2)(-1/z - z), (i/2)(z - 1/z), log z, 0) minus its value at the base
    point, to within 1e-15, a few units in the last place of coordinates
    below 2.5 in size."""
    path = CONFIG_DIR / "catenoid-mesh.json"
    assert main(["mesh", "--config", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    cfg = json.loads(path.read_text(encoding="utf-8"))["mesh"]
    grid = cfg["grid"]
    points, _ = annulus_grid(*grid["r"], grid["n_r"], grid["n_theta"])

    def closed_form(z):
        return ((0.5 * (-1 / z - z)).real, (0.5j * (z - 1 / z)).real, cmath.log(z).real, 0.0)

    base = closed_form(complex(cfg["base"]))
    text = (tmp_path / cfg["filename"]).read_text(encoding="ascii")
    rows = [line.split() for line in text.splitlines() if line.startswith("v ")]
    assert len(rows) == len(points) == 192
    for z, row in zip(points, rows):
        got = [float(row[k]) for k in (1, 2, 3, 6)]
        want = [c - c0 for c, c0 in zip(closed_form(z), base)]
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-15, z
