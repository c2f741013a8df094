import csv
import math
import os
import re

import numpy as np
import pytest

from fraclat import cli
from fraclat.cli import CONFIG_KEYS, ConfigError, RunConfig, main

SQRT3 = math.sqrt(3.0)


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE = """
material.alpha = 1.0
material.beta = 1.0
lattice.phi = 0.3
lattice.l = 2.0
load.a = 2.0
solve.eps_list = 1/16,1/32
"""


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


# ----------------------------------------------------------------------
# configuration parsing
# ----------------------------------------------------------------------

def test_unknown_key_reports_line(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", "material.alpha = 1\nmaterial.betta = 2\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:2.*material\.betta"):
        RunConfig.parse(cfg)


def test_missing_required_key_named(tmp_path):
    cfg = RunConfig.parse(write_config(tmp_path / "c.cfg", "material.beta = 1\n"))
    with pytest.raises(ConfigError, match="material.alpha"):
        cfg.get("material.alpha")


def test_defaults_and_comments(tmp_path):
    cfg = RunConfig.parse(write_config(
        tmp_path / "c.cfg", "# comment\nmaterial.alpha = 2.0  # inline\n\n"))
    assert cfg.get("material.alpha") == 2.0
    assert cfg.get("lattice.eta") == CONFIG_KEYS["lattice.eta"][1]


def test_eps_list_fractions(tmp_path):
    cfg = RunConfig.parse(write_config(
        tmp_path / "c.cfg", "solve.eps_list = 1/8, 0.0625,1/32\n"))
    assert cfg.eps_list() == [0.125, 0.0625, 0.03125]


def test_bad_value_reports_key(tmp_path):
    with pytest.raises(ConfigError, match="bad value for 'lattice.eta'"):
        RunConfig.parse(write_config(tmp_path / "c.cfg", "lattice.eta = fast\n"))


@pytest.mark.parametrize("key", ["lattice.eps", "lattice.margin"])
def test_removed_lattice_keys_are_unknown(tmp_path, key):
    cfg = write_config(tmp_path / "c.cfg", f"material.alpha = 1\n{key} = 0.03125\n")
    with pytest.raises(ConfigError, match=rf"c\.cfg:2: unknown key '{re.escape(key)}'"):
        RunConfig.parse(cfg)


def test_repeated_key_names_both_lines(tmp_path):
    # the last assignment once won silently
    cfg = write_config(tmp_path / "c.cfg", "load.a = 3\nmaterial.alpha = 1\nload.a = 0.5\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:3: key 'load\.a' repeats line 1$"):
        RunConfig.parse(cfg)


def test_solve_domain_is_an_unknown_key(tmp_path, capsys):
    # the energy always lives on the specimen
    cfg = write_config(tmp_path / "c.cfg", BASE + "solve.domain = omega\n"
                       f"out.dir = {tmp_path}/out\n")
    assert main(["cleavage", "--config", cfg, "--no-minimize"]) == 1
    assert "c.cfg:8: unknown key 'solve.domain'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_n_cleaved_is_an_unknown_key(tmp_path, capsys):
    # one cleaved start, across the minimum cut, replaced the sampled stations
    cfg = write_config(tmp_path / "c.cfg", BASE + "solve.n_cleaved = 9\n"
                       f"out.dir = {tmp_path}/out\n")
    assert main(["minimize", "--config", cfg]) == 1
    assert "c.cfg:8: unknown key 'solve.n_cleaved'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["1/16,,1/32", "1/0", "1/2/3", "0", "-1/16", "1/", "nan"])
def test_eps_list_rejects_bad_entries(tmp_path, text):
    cfg = RunConfig.parse(write_config(tmp_path / "c.cfg", f"solve.eps_list = {text}\n"))
    with pytest.raises(ConfigError, match="solve.eps_list"):
        cfg.eps_list()


# ----------------------------------------------------------------------
# gamma scan
# ----------------------------------------------------------------------

def test_gamma_scan_endpoints_and_columns(tmp_path):
    out = tmp_path / "gamma.csv"
    assert main(["gamma-scan", "--phi-steps", "2", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["phi", "gamma", "vgamma_x", "vgamma_y", "unique", "a_crit"]
    assert len(rows) == 2
    assert float(rows[0][0]) == 0.0
    assert float(rows[1][0]) == pytest.approx(math.pi / 3.0, rel=1e-6)
    assert rows[0][4] == "false" and rows[1][4] == "true"
    # unit parameters: the critical load at phi = 0 is exactly 2
    assert float(rows[0][5]) == pytest.approx(2.0, abs=1e-12)


def test_gamma_scan_range(tmp_path):
    out = tmp_path / "gamma.csv"
    assert main(["gamma-scan", "--phi-steps", "40", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    gammas = [float(r[1]) for r in rows]
    assert all(SQRT3 / 2.0 - 1e-12 <= g <= 1.0 + 1e-12 for g in gammas)


def test_gamma_scan_rejects_single_step(tmp_path, capsys):
    assert main(["gamma-scan", "--phi-steps", "1", "--out", str(tmp_path / "g.csv")]) == 1
    assert "phi-steps" in capsys.readouterr().err


# ----------------------------------------------------------------------
# experiment commands
# ----------------------------------------------------------------------

def test_cleavage_command_and_manifest(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", BASE + f"out.dir = {tmp_path}/out\n")
    assert main(["cleavage", "--config", cfg, "--no-minimize"]) == 0
    header, rows = read_rows(tmp_path / "out" / "convergence.csv")
    assert header == ["eps", "mode", "energy", "target", "gap",
                      "n_broken", "crack_energy_est", "crack_angle_deg"]
    assert len(rows) == 4
    manifest = (tmp_path / "out" / "cleavage_manifest.txt").read_text()
    assert "derived.a_crit" in manifest
    assert "solve.seed = 0" in manifest


def test_manifest_records_critical_load_unit_parameters(tmp_path):
    text = """
material.alpha = 1.0
material.beta = 1.0
lattice.phi = 0.0
lattice.l = 1.0
load.a = 0.5
solve.eps_list = 1/16
"""
    cfg = write_config(tmp_path / "c.cfg", text + f"out.dir = {tmp_path}/out\n")
    assert main(["cleavage", "--config", cfg, "--no-minimize"]) == 0
    manifest = (tmp_path / "out" / "cleavage_manifest.txt").read_text()
    line = [ln for ln in manifest.splitlines() if ln.startswith("derived.a_crit")][0]
    assert float(line.split("=")[1]) == pytest.approx(2.0, abs=1e-12)


def test_recovery_roundtrip_and_crack_extract(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", BASE + f"out.dir = {tmp_path}/out\n")
    assert main(["recovery", "--config", cfg]) == 0
    disp = tmp_path / "out" / "recovery_displacement.csv"
    assert disp.exists()

    assert main(["crack-extract", "--in", str(disp), "--config", cfg]) == 0
    header, rows = read_rows(tmp_path / "out" / "crack.csv")
    assert header == ["seg_id", "x0", "y0", "x1", "y1", "nu_x", "nu_y", "jump1", "jump2"]
    assert len(rows) > 0
    # normals cluster at the cleavage normal
    from fraclat.lattice import cleavage_direction
    ref = cleavage_direction(0.3).v_gamma_perp
    for r in rows:
        nu = np.array([float(r[5]), float(r[6])])
        ang = math.degrees(math.acos(min(abs(float(nu @ ref)), 1.0)))
        assert ang < 5.0


def test_recovery_elastic_kind_targets_the_elastic_branch(tmp_path):
    from fraclat.continuum import CleavageProblem, elastic_branch_energy
    problem = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=2.0)
    outs = []
    for name in ("run1", "run2"):
        cfg = write_config(tmp_path / f"{name}.cfg", BASE + "recovery.kind = elastic\n"
                           f"out.dir = {tmp_path}/{name}\n")
        assert main(["recovery", "--config", cfg]) == 0
        _, rows = read_rows(tmp_path / name / "recovery.csv")
        assert [float(r[3]) for r in rows] == [elastic_branch_energy(problem)] * 2
        outs.append([(tmp_path / name / f).read_bytes()
                     for f in ("recovery.csv", "recovery_displacement.csv")])
    assert outs[0] == outs[1]


def test_recovery_p_defaults_to_the_first_cleaved_station(tmp_path):
    # the default station is cleaved_stations(problem, 1)[0], not l/2
    from fraclat.continuum import CleavageProblem
    from fraclat.solver import cleaved_stations
    problem = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=2.0)
    station = float(cleaved_stations(problem, 1)[0])
    assert station != problem.l / 2.0
    outs = {}
    for name, extra in (("default", ""), ("station", f"recovery.p = {station!r}\n"),
                        ("nan", "recovery.p = nan\n"), ("middle", "recovery.p = 1.0\n")):
        cfg = write_config(tmp_path / f"{name}.cfg",
                           BASE + extra + f"out.dir = {tmp_path}/{name}\n")
        assert main(["recovery", "--config", cfg]) == 0
        outs[name] = (tmp_path / name / "recovery_displacement.csv").read_bytes()
    assert outs["default"] == outs["station"] == outs["nan"]
    assert outs["default"] != outs["middle"]


def test_shifted_lj_runs_with_its_own_alpha(tmp_path):
    # alpha = 72 beta is the curvature of shifted-lj at r = 1; well below
    # a_crit the elastic recovery sits near the elastic branch of that alpha
    from fraclat.continuum import CleavageProblem, a_crit, elastic_branch_energy
    text = BASE.replace("material.alpha = 1.0", "material.alpha = 72.0").replace(
        "load.a = 2.0", "load.a = 0.02").replace("1/16,1/32", "1/16")
    cfg = write_config(tmp_path / "c.cfg", text + "material.family = shifted-lj\n"
                       f"out.dir = {tmp_path}/out\n")
    assert main(["cleavage", "--config", cfg, "--no-minimize"]) == 0
    problem = CleavageProblem(alpha=72.0, beta=1.0, l=2.0, phi=0.3, a=0.02)
    _, rows = read_rows(tmp_path / "out" / "convergence.csv")
    elastic = [r for r in rows if r[1] == "chi/recovery-elastic"][0]
    assert float(elastic[3]) == elastic_branch_energy(problem)
    assert abs(float(elastic[4])) <= 0.1 * float(elastic[3])
    manifest = (tmp_path / "out" / "cleavage_manifest.txt").read_text()
    assert f"derived.a_crit = {cli._fmt(a_crit(problem))}" in manifest


@pytest.mark.parametrize("family, message", [
    ("shifted-lj", "shifted-lj forces alpha = 72 beta"),  # BASE has alpha = beta = 1
    ("tabulated", "unknown potential family 'tabulated'")], ids=["shifted-lj", "tabulated"])
def test_potential_family_and_alpha_are_checked(tmp_path, capsys, family, message):
    cfg = write_config(tmp_path / "c.cfg", BASE + f"material.family = {family}\n"
                       f"out.dir = {tmp_path}/out\n")
    assert main(["cleavage", "--config", cfg, "--no-minimize"]) == 1
    err = capsys.readouterr().err
    # the message names the config values, not a Python constructor
    assert message in err and "PairPotential.shifted_lj" not in err
    assert list((tmp_path / "out").glob("*")) == []


@pytest.mark.parametrize("key", ["material.alpha", "material.beta", "lattice.l",
                                 "lattice.eta", "load.a", "chi.width", "material.T"])
def test_non_finite_parameter_exits_before_any_output(tmp_path, capsys, key):
    # a nan alpha once ran to a convergence.csv of nan energies: every
    # comparison with nan is false, so no range check stopped it
    base = re.sub(rf"^{re.escape(key)} = .*\n", "", BASE, flags=re.M)  # a key is set once
    cfg = write_config(tmp_path / "c.cfg", base + f"{key} = nan\nout.dir = {tmp_path}/out\n")
    assert main(["cleavage", "--config", cfg, "--no-minimize"]) == 1
    assert f"{key.split('.')[1]} must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "out" / "convergence.csv").exists()


def test_rejected_config_leaves_no_output_directory(tmp_path, capsys):
    text = BASE.replace("material.alpha = 1.0", "material.alpha = nan")
    cfg = write_config(tmp_path / "c.cfg", text + f"out.dir = {tmp_path}/out\n")
    assert main(["cleavage", "--config", cfg, "--no-minimize"]) == 1
    assert "alpha must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_max_iters_exits_before_any_output(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", BASE + "solve.max_iters = -3\n"
                       f"out.dir = {tmp_path}/out\n")
    assert main(["cleavage", "--config", cfg]) == 1
    assert "max_iters must be finite and >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_dir_under_a_file_fails_before_the_study(tmp_path, capsys, monkeypatch):
    # it once failed only on the first write, after the whole ladder had run;
    # a directory that is not writable is refused the same way, which a
    # test run as root cannot show
    studies = []
    monkeypatch.setattr(cli, "convergence_study", lambda *args, **kw: studies.append(args))
    (tmp_path / "afile").write_text("")
    cfg = write_config(tmp_path / "c.cfg", BASE + f"out.dir = {tmp_path}/afile/sub\n")
    assert main(["cleavage", "--config", cfg, "--no-minimize"]) == 1
    assert f"{tmp_path}/afile is not a writable directory" in capsys.readouterr().err
    assert studies == []
    assert sorted(os.listdir(tmp_path)) == ["afile", "c.cfg"]
    assert (tmp_path / "afile").read_text() == ""


@pytest.mark.parametrize("mode", ["total-magnetic", "bogus"])
@pytest.mark.parametrize("argv", [["cleavage", "--no-minimize"], ["minimize"], ["recovery"]],
                         ids=lambda argv: argv[0])
def test_unknown_mode_fails_before_any_mesh(tmp_path, capsys, monkeypatch, mode, argv):
    # total-magnetic was a mode without a gradient: minimize built the mesh
    # and the multigrid before it failed, and recovery exited 0
    from fraclat import solver
    meshes = []
    for module in (cli, solver):
        monkeypatch.setattr(module, "build_mesh", meshes.append)
    cfg = write_config(tmp_path / "c.cfg", BASE + f"solve.mode = {mode}\n"
                       f"out.dir = {tmp_path}/out\n")
    assert main(argv[:1] + ["--config", cfg] + argv[1:]) == 1
    assert f"unknown mode '{mode}'" in capsys.readouterr().err
    assert meshes == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("eta", ["-1", "0"])
@pytest.mark.parametrize("argv", [["cleavage", "--no-minimize"], ["minimize"], ["recovery"],
                                  ["crack-extract", "--in", "missing.csv"], ["magnet-demo"],
                                  ["noneq-demo"]], ids=lambda argv: argv[0])
def test_a_non_positive_eta_is_refused_before_any_mesh(tmp_path, capsys, monkeypatch,
                                                        eta, argv):
    # lattice.eta shapes no mesh, and every command still refuses what it refused
    from fraclat import solver
    meshes = []
    for module in (cli, solver):
        monkeypatch.setattr(module, "build_mesh", meshes.append)
    cfg = write_config(tmp_path / "c.cfg", BASE + f"lattice.eta = {eta}\n"
                       f"out.dir = {tmp_path}/out\n")
    assert main(argv[:1] + ["--config", cfg] + argv[1:]) == 1
    assert "margin width eta must be positive" in capsys.readouterr().err
    assert meshes == []
    assert not (tmp_path / "out").exists()


def test_minimize_rejects_a_bad_potential_before_any_mesh(tmp_path, capsys, monkeypatch):
    # minimize once built its mesh before the potential was checked
    from fraclat import solver
    meshes = []
    for module in (cli, solver):
        monkeypatch.setattr(module, "build_mesh", meshes.append)
    cfg = write_config(tmp_path / "c.cfg", BASE + "material.family = tabulated\n"
                       f"out.dir = {tmp_path}/out\n")
    assert main(["minimize", "--config", cfg]) == 1
    assert "unknown potential family 'tabulated'" in capsys.readouterr().err
    assert meshes == []
    assert not (tmp_path / "out").exists()


def test_unknown_recovery_kind_is_rejected(tmp_path, capsys):
    # any kind but 'elastic' once sampled the crack and exited 0
    cfg = write_config(tmp_path / "c.cfg", BASE + "recovery.kind = elastc\n"
                       f"out.dir = {tmp_path}/out\n")
    assert main(["recovery", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "recovery.kind must be 'crack' or 'elastic', got 'elastc'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_random", [0, -2])
def test_magnet_n_random_below_one_is_rejected(tmp_path, capsys, n_random):
    # the manifest's largest identity gap needs at least one random field
    cfg = write_config(tmp_path / "c.cfg", "material.alpha = 1.0\nmaterial.beta = 1.0\n"
                       f"solve.eps_list = 1/8\nmagnet.n_random = {n_random}\n"
                       f"out.dir = {tmp_path}/out\n")
    assert main(["magnet-demo", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"magnet.n_random must be at least 1, got {n_random}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["cleavage", "--no-minimize"], ["minimize"], ["recovery"]],
                         ids=lambda argv: argv[0])
def test_failure_removes_partial_outputs(tmp_path, monkeypatch, argv):
    # the manifest is written last: when it fails, the tables already on
    # disk must go too
    def fail(path, *args):
        open(path, "w").close()
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_manifest", fail)
    cfg = write_config(tmp_path / "c.cfg", BASE.replace("1/16,1/32", "1/8")
                       + f"solve.max_iters = 5\nout.dir = {tmp_path}/out\n")
    assert main(argv[:1] + ["--config", cfg] + argv[1:]) == 1
    assert list((tmp_path / "out").glob("*")) == []


def test_mode_f_uses_the_field_model(tmp_path):
    # with a cutoff this high the cut triangles feel the field
    text = BASE + "solve.mode = f\nmaterial.kappa = 0.5\nmaterial.T = 1000\n"
    cfg = write_config(tmp_path / "c.cfg", text + f"out.dir = {tmp_path}/out\n")
    assert main(["cleavage", "--config", cfg, "--no-minimize"]) == 0
    assert main(["recovery", "--config", cfg]) == 0
    _, rows = read_rows(tmp_path / "out" / "recovery.csv")
    assert [r[1] for r in rows] == ["f/recovery", "f/recovery"]

    from fraclat.continuum import CleavageProblem, build_u_cr
    from fraclat.discrete_energy import energy_rescaled
    from fraclat.lattice import LatticeSpec, build_mesh
    from fraclat.material import MagnetizationModel, PairPotential, PenaltyChi
    from fraclat.solver import cleaved_stations, recovery_sequence
    problem = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=2.0)
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 32.0, l=2.0))
    p = float(cleaved_stations(problem, 1)[0])
    u = recovery_sequence(build_u_cr(problem, p), mesh)

    def f_energy(model):
        return energy_rescaled(u, PairPotential(), mode="f", chi=PenaltyChi(),
                               model=model).total

    assert float(rows[-1][2]) == f_energy(MagnetizationModel(kappa=0.5, T=1000.0))
    assert float(rows[-1][2]) != f_energy(MagnetizationModel())


def test_displacement_csv_byte_roundtrip(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", BASE + f"out.dir = {tmp_path}/out\n")
    assert main(["recovery", "--config", cfg]) == 0
    disp = tmp_path / "out" / "recovery_displacement.csv"

    from fraclat.discrete_energy import displacement_from_csv, displacement_to_csv
    from fraclat.lattice import LatticeSpec, build_mesh
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 32.0, l=2.0))
    u = displacement_from_csv(str(disp), mesh)
    again = tmp_path / "again.csv"
    displacement_to_csv(u, str(again))
    assert disp.read_bytes() == again.read_bytes()


def test_noneq_command(tmp_path):
    text = "material.alpha = 1.0\nmaterial.beta = 1.0\nsolve.eps_list = 1/16,1/32\n"
    cfg = write_config(tmp_path / "c.cfg", text + f"out.dir = {tmp_path}/out\n")
    assert main(["noneq-demo", "--config", cfg]) == 0
    header, rows = read_rows(tmp_path / "out" / "noneq.csv")
    assert header == ["eps", "energy", "grad_l1_total", "grad_l1_band"]
    assert len(rows) == 2


@pytest.mark.parametrize("ladder", ["1/8", "1/8,1/8"])
def test_noneq_command_needs_two_distinct_rungs(tmp_path, capsys, ladder):
    # one rung once exited 0 with the slope of a rank-deficient fit
    text = f"material.alpha = 1.0\nmaterial.beta = 1.0\nsolve.eps_list = {ladder}\n"
    cfg = write_config(tmp_path / "c.cfg", text + f"out.dir = {tmp_path}/out\n")
    assert main(["noneq-demo", "--config", cfg]) == 1
    assert "two distinct eps values" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_magnet_command(tmp_path):
    text = ("material.alpha = 1.0\nmaterial.beta = 1.0\nlattice.phi = 0.3\n"
            "load.a = 0.4\nmagnet.n_random = 3\nsolve.eps_list = 1/16\n")
    cfg = write_config(tmp_path / "c.cfg", text + f"out.dir = {tmp_path}/out\n")
    assert main(["magnet-demo", "--config", cfg]) == 0
    manifest = (tmp_path / "out" / "magnet_manifest.txt").read_text()
    line = [ln for ln in manifest.splitlines()
            if ln.startswith("derived.max_identity_gap")][0]
    assert float(line.split("=")[1]) < 1e-12


def test_minimize_command_is_byte_deterministic(tmp_path):
    text = ("material.alpha = 1.0\nmaterial.beta = 1.0\nlattice.phi = 0.3\n"
            "lattice.l = 1.0\nload.a = 1.8\nsolve.eps_list = 1/8\n"
            "solve.max_iters = 25\nsolve.seed = 4\n")
    outs = []
    for name in ("run1", "run2"):
        cfg = write_config(tmp_path / f"{name}.cfg",
                           text + f"out.dir = {tmp_path}/{name}\n")
        assert main(["minimize", "--config", cfg]) == 0
        outs.append((tmp_path / name / "displacement.csv").read_bytes())
    assert outs[0] == outs[1]


def test_critical_command_is_byte_deterministic(tmp_path):
    # the load and the starts are the command's own: load.a and the multistart are not read
    text = BASE + "solve.multistart = zero\n"
    outs = []
    for name in ("run1", "run2"):
        cfg = write_config(tmp_path / f"{name}.cfg", text + f"out.dir = {tmp_path}/{name}\n")
        assert main(["critical", "--config", cfg]) == 0
        outs.append((tmp_path / name / "critical.csv").read_bytes())
    assert outs[0] == outs[1]
    header, rows = read_rows(tmp_path / "run1" / "critical.csv")
    assert header == ["eps", "a_crit_eps", "a_crit_ratio", "elastic_gap", "crack_gap",
                      "minimizations", "converged"]
    assert [row[0] for row in rows] == ["0.0625", "0.03125"]
    assert [round(float(row[2]), 4) for row in rows] == [0.9438, 0.9653]
    assert [row[5:] for row in rows] == [["13", "True"]] * 2
    manifest = (tmp_path / "run1" / "critical_manifest.txt").read_text()
    for key in ("derived.a_crit", "derived.slope_a_crit", "derived.slope_elastic_gap",
                "derived.slope_crack_gap"):
        assert f"\n{key} = " in manifest


def test_critical_command_needs_two_rungs(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", BASE.replace("1/16,1/32", "1/16")
                       + f"out.dir = {tmp_path}/out\n")
    assert main(["critical", "--config", cfg]) == 1
    assert "two or more strictly decreasing" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def subcritical_config(tmp_path, extra="", eps_list="1/16"):
    from fraclat.continuum import CleavageProblem, a_crit
    a = 0.5 * a_crit(CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=0.0))
    text = BASE.replace("load.a = 2.0", f"load.a = {a!r}").replace("1/16,1/32", eps_list)
    return write_config(tmp_path / "c.cfg", text + extra + f"out.dir = {tmp_path}/out\n")


@pytest.mark.parametrize("argv", [["minimize"], ["cleavage"]], ids=lambda argv: argv[0])
def test_unconverged_best_start_is_reported(tmp_path, capsys, argv):
    # below a_crit the elastic ramp is the best start; one step leaves it unconverged
    table = {"minimize": "energy.csv", "cleavage": "convergence.csv"}[argv[0]]
    for max_iters, warned in ((1, True), (300, False)):
        cfg = subcritical_config(tmp_path, "solve.multistart = elastic\n"
                                 f"solve.max_iters = {max_iters}\n")
        assert main(argv + ["--config", cfg]) == 0
        assert (tmp_path / "out" / table).exists()
        captured = capsys.readouterr()
        assert captured.out.startswith("wrote ")
        if warned:
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("fraclat: warning: the best start")
            assert "did not converge" in captured.err
        else:
            assert captured.err == ""


def test_minimize_names_every_unconverged_start(tmp_path, capsys):
    # below a_crit at 1/16, two steps leave each of the three starts unconverged
    cfg = subcritical_config(tmp_path, "solve.max_iters = 2\n")
    assert main(["minimize", "--config", cfg]) == 0
    captured = capsys.readouterr()
    manifest = (tmp_path / "out" / "minimize_manifest.txt").read_text()
    best = [ln.split(" = ")[1] for ln in manifest.splitlines()
            if ln.startswith("derived.best_start = ")]
    assert best == ["elastic"]
    lines = captured.err.splitlines()
    assert [ln.split(" did not converge")[0] for ln in lines] == [
        "fraclat: warning: start zero", "fraclat: warning: the best start elastic",
        "fraclat: warning: start cleaved(cut=31)"]
    assert all(" after 2 iterations" in ln for ln in lines)


def test_cleavage_names_every_unconverged_start_of_each_rung(tmp_path, capsys):
    # at 0.5 a_crit the elastic start wins on both rungs; at 1/16 the zero
    # and the cut starts stop at 400 iterations, at 1/32 every start converges
    cfg = subcritical_config(tmp_path, eps_list="1/16,1/32")
    assert main(["cleavage", "--config", cfg]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [ln.split(": |g| = ")[0] for ln in lines] == [
        "fraclat: warning: start zero did not converge at eps = 0.0625",
        "fraclat: warning: start cleaved(cut=31) did not converge at eps = 0.0625"]
    assert all(ln.endswith(" after 400 iterations") for ln in lines)
    _, rows = read_rows(tmp_path / "out" / "convergence.csv")
    assert [row[1] for row in rows] == ["chi/recovery-crack", "chi/recovery-elastic",
                                        "chi/minimize"] * 2


def test_critical_names_every_unconverged_start(tmp_path, capsys):
    # with |g| <= 1e-9 asked for, each elastic descent stalls first, while the
    # cut start is an exact critical point; the converged column says so
    cfg = write_config(tmp_path / "c.cfg",
                       BASE + f"solve.grad_tol = 1e-9\nout.dir = {tmp_path}/out\n")
    assert main(["critical", "--config", cfg]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 24
    for eps, half in (("0.0625", lines[:12]), ("0.03125", lines[12:])):
        assert all(ln.startswith("fraclat: warning: start elastic did not converge at "
                                 f"eps = {eps}: |g| = ") for ln in half)
    _, rows = read_rows(tmp_path / "out" / "critical.csv")
    assert [row[5:] for row in rows] == [["13", "False"]] * 2


def test_output_set_discard_removes_written_files(tmp_path):
    from fraclat.cli import OutputSet
    out = OutputSet(str(tmp_path / "out"))
    p1 = out.path("a.csv")
    with open(p1, "w") as fh:
        fh.write("data\n")
    p2 = out.path("never_written.csv")
    out.discard()
    assert not os.path.exists(p1) and not os.path.exists(p2)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs a /proc file system")
def test_unwritable_output_exits_nonzero(tmp_path, capsys, monkeypatch):
    # os.access reports /proc writable to root, so this once failed only
    # after the whole ladder had run
    from fraclat import solver
    meshes = []
    for module in (cli, solver):
        monkeypatch.setattr(module, "build_mesh", meshes.append)
    cfg = write_config(tmp_path / "c.cfg", BASE + "out.dir = /proc/nowhere\n")
    assert main(["cleavage", "--config", cfg, "--no-minimize"]) == 1
    assert capsys.readouterr().err == ("fraclat: error: out.dir '/proc/nowhere' is unusable: "
                                       "/proc is not a writable directory\n")
    assert meshes == []
    assert not os.path.exists("/proc/nowhere")


def test_the_writability_probe_leaves_nothing_behind(tmp_path):
    from fraclat.cli import OutputSet
    (tmp_path / "existing").mkdir()
    for out_dir in (tmp_path / "existing", tmp_path / "new" / "deeper"):
        OutputSet(str(out_dir))
    assert sorted(os.listdir(tmp_path)) == ["existing"]
    assert os.listdir(tmp_path / "existing") == []
