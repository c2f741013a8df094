"""Command-line front end.

Experiments are configured by a flat plain-text file with one
``key = value`` assignment per line and ``#`` comments.  Unknown and
repeated keys are rejected with their line numbers; an omitted key takes
its ``CONFIG_KEYS`` default, which for a key that sets a library field is
that field's own (``material.alpha`` and ``material.beta`` must be given).
Every command writes its CSV tables plus a manifest echoing the fully
resolved configuration with 17 significant digits, so a table can be
reproduced from its manifest alone.  Partial outputs are deleted when a
command fails, and any failure exits nonzero.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .continuum import (CleavageProblem, a_crit, build_u_cr, build_u_el,
                        crack_branch_energy, elastic_branch_energy, min_energy)
from .crack_extraction import (CRACK_HEADER, build_modified, classify_broken,
                               crack_energy_estimate)
from .discrete_energy import (ENERGY_HEADER, bc_cleavage,
                              displacement_from_csv, displacement_to_csv,
                              energy_rescaled, format_float)
from .lattice import PHI_MAX, LatticeSpec, cleavage_direction
from .material import MagnetizationModel, PairPotential, PenaltyChi
from .solver import (CONVERGENCE_HEADER, CRITICAL_HEADER, NONEQ_HEADER, ConvergenceRow,
                     SolveConfig, _mesh_for, cleaved_stations, convergence_study,
                     critical_load_study, magnet_demo, minimize, nonequicoercivity_demo,
                     recovery_sequence)

GAMMA_HEADER = ["phi", "gamma", "vgamma_x", "vgamma_y", "unique", "a_crit"]

_REQUIRED = object()

# key -> (parser, default); _REQUIRED defaults must be supplied by the user
CONFIG_KEYS = {
    "lattice.phi": (float, CleavageProblem.phi),
    "lattice.l": (float, LatticeSpec.l),
    "lattice.eta": (float, LatticeSpec.eta),  # read by nothing; the benchmark still sets it
    "material.family": (str, PairPotential.family),
    "material.alpha": (float, _REQUIRED),
    "material.beta": (float, _REQUIRED),
    "material.kappa": (float, MagnetizationModel.kappa),
    "material.T": (float, MagnetizationModel.T),
    "chi.c": (float, PenaltyChi.c_chi),
    "chi.delta_det": (float, PenaltyChi.delta_det),
    "chi.cutoff": (float, PenaltyChi.cutoff_norm),
    "chi.width": (float, PenaltyChi.width),
    "load.a": (float, CleavageProblem.a),
    "solve.eps_list": (str, "1/16,1/32,1/64"),
    "solve.max_iters": (int, SolveConfig.max_iters),
    "solve.grad_tol": (float, SolveConfig.grad_tol),
    "solve.seed": (int, 0),
    "solve.mode": (str, SolveConfig.mode),
    "solve.multistart": (str, ",".join(SolveConfig.multistart)),
    "recovery.p": (float, float("nan")),  # nan means cleaved_stations(problem, 1)[0]
    "recovery.kind": (str, "crack"),
    "noneq.theta": (float, 1.2),
    "noneq.p": (float, 0.125),
    "noneq.q": (float, 0.875),
    "magnet.band_angle": (float, 0.4),
    "magnet.n_random": (int, 20),
    "out.dir": (str, "."),
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    values: dict
    path: str = "<defaults>"

    @classmethod
    def parse(cls, path: str) -> "RunConfig":
        values, first_line = {}, {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
                if key in first_line:
                    raise ConfigError(f"{path}:{lineno}: key '{key}' repeats "
                                      f"line {first_line[key]}")
                first_line[key] = lineno
                parser = CONFIG_KEYS[key][0]
                try:
                    values[key] = parser(val)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {exc}")
        return cls(values=values, path=path)

    def get(self, key: str):
        if key not in CONFIG_KEYS:
            raise ConfigError(f"internal: unregistered key '{key}'")
        if key in self.values:
            return self.values[key]
        default = CONFIG_KEYS[key][1]
        if default is _REQUIRED:
            raise ConfigError(f"{self.path}: missing required key '{key}'")
        return default

    def resolved(self) -> dict:
        out = {}
        for key, (_, default) in CONFIG_KEYS.items():
            if key in self.values:
                out[key] = self.values[key]
            elif default is not _REQUIRED:
                out[key] = default
        return out

    def eps_list(self) -> list:
        """The ``solve.eps_list`` ladder: positive numbers or fractions like 1/32."""
        out = []
        for token in str(self.get("solve.eps_list")).split(","):
            token = token.strip()
            num, slash, den = token.partition("/")
            try:
                value = float(num) / float(den) if slash else float(token)
            except (ValueError, ZeroDivisionError):
                value = math.nan
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{self.path}: bad entry {token!r} in solve.eps_list; "
                                  "expected a positive number or a fraction like 1/32")
            out.append(value)
        return out


class OutputSet:
    """Tracks files written by a command, removed on failure; makes the directory on demand."""

    def __init__(self, out_dir: str):
        # fail before the command runs, leaving nothing behind, when no
        # directory can be made in the nearest existing ancestor of out_dir:
        # a probe directory is made there and removed at once (os.access
        # reads mode bits, which root passes even where no file can be made)
        base = os.path.abspath(out_dir)
        while not os.path.exists(base):
            base = os.path.dirname(base)
        try:
            os.rmdir(tempfile.mkdtemp(dir=base))
        except OSError:
            raise ConfigError(f"out.dir {out_dir!r} is unusable: "
                              f"{base} is not a writable directory") from None
        self.out_dir = out_dir
        self.paths = []

    def path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        p = os.path.join(self.out_dir, name)
        self.paths.append(p)
        return p

    def discard(self):
        for p in self.paths:
            if os.path.exists(p):
                os.unlink(p)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_manifest(path: str, config: RunConfig, extra: dict):
    items = dict(config.resolved())
    items.update(extra)
    items["fraclat.version"] = __version__
    with open(path, "w") as fh:
        for key in sorted(items):
            fh.write(f"{key} = {_fmt(items[key])}\n")


# ----------------------------------------------------------------------
# shared builders
# ----------------------------------------------------------------------

def _potential(cfg: RunConfig) -> PairPotential:
    return PairPotential(family=cfg.get("material.family"),
                         alpha=cfg.get("material.alpha"), beta=cfg.get("material.beta"))


def _chi(cfg: RunConfig) -> PenaltyChi:
    return PenaltyChi(c_chi=cfg.get("chi.c"), delta_det=cfg.get("chi.delta_det"),
                      cutoff_norm=cfg.get("chi.cutoff"), width=cfg.get("chi.width"))


def _model(cfg: RunConfig) -> MagnetizationModel:
    return MagnetizationModel(kappa=cfg.get("material.kappa"), T=cfg.get("material.T"))


def _problem(cfg: RunConfig) -> CleavageProblem:
    return CleavageProblem(alpha=cfg.get("material.alpha"),
                           beta=cfg.get("material.beta"),
                           l=cfg.get("lattice.l"), phi=cfg.get("lattice.phi"),
                           a=cfg.get("load.a"))


def _solve_config(cfg: RunConfig) -> SolveConfig:
    return SolveConfig(max_iters=cfg.get("solve.max_iters"),
                       grad_tol=cfg.get("solve.grad_tol"),
                       multistart=tuple(s.strip() for s in
                                        cfg.get("solve.multistart").split(",")),
                       mode=cfg.get("solve.mode"))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_gamma_scan(args) -> int:
    if args.phi_steps < 2:
        raise ConfigError("--phi-steps must be at least 2")
    phis = np.linspace(0.0, PHI_MAX * (1.0 - 1e-9), args.phi_steps)
    rows = []
    for phi in phis:
        data = cleavage_direction(float(phi))
        prob = CleavageProblem(alpha=args.alpha, beta=args.beta, l=args.l,
                               phi=float(phi), a=0.0)
        rows.append([float(phi), data.gamma, data.v_gamma[0], data.v_gamma[1],
                     "true" if data.unique else "false", a_crit(prob)])
    write_csv(args.out, GAMMA_HEADER, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _run_config_command(body, args) -> int:
    """Run one config-driven command body and print the message it returns.

    ``body(cfg, out, args)`` gets the parsed ``--config`` file and the
    ``OutputSet`` of its ``out.dir``; every file it named through ``out``
    is deleted when it raises.
    """
    cfg = RunConfig.parse(args.config)
    # lattice.eta shapes no mesh, yet a value that LatticeSpec refuses is refused
    LatticeSpec(phi=0.0, eps=1.0, eta=cfg.get("lattice.eta"))
    out = OutputSet(cfg.get("out.dir"))
    try:
        message = body(cfg, out, args)
    except Exception:
        out.discard()
        raise
    print(message)
    return 0


def _warn_unconverged(eps: float, starts, best=None):
    """One warning line on stderr for each of ``starts`` that did not converge."""
    for rec in starts:
        if not rec.converged:
            which = "the best start" if rec is best else "start"
            print(f"fraclat: warning: {which} {rec.tag} did not converge at eps = "
                  f"{_fmt(eps)}, a = {_fmt(rec.load)}: |g| = {rec.grad_norm:.3g} "
                  f"after {rec.iters} iterations",
                  file=sys.stderr)


def cmd_cleavage(cfg: RunConfig, out: OutputSet, args) -> str:
    problem = _problem(cfg)
    rows = convergence_study(problem, cfg.eps_list(), config=_solve_config(cfg),
                             family=cfg.get("material.family"), chi=_chi(cfg), model=_model(cfg),
                             with_minimize=not args.no_minimize)
    for r in rows:
        _warn_unconverged(r.eps, r.starts, r.best)
    write_csv(out.path("convergence.csv"), CONVERGENCE_HEADER, [r.row() for r in rows])
    write_manifest(out.path("cleavage_manifest.txt"), cfg, {
        "derived.gamma": problem.gamma,
        "derived.a_crit": a_crit(problem),
        "derived.target": min_energy(problem),
    })
    return f"wrote {out.paths[0]}"


def cmd_critical(cfg: RunConfig, out: OutputSet, args) -> str:
    problem = _problem(cfg)
    result = critical_load_study(problem, cfg.eps_list(), config=_solve_config(cfg),
                                 family=cfg.get("material.family"), chi=_chi(cfg),
                                 model=_model(cfg))
    rows = result["rows"]
    for r in rows:
        _warn_unconverged(r.eps, r.starts)
    write_csv(out.path("critical.csv"), CRITICAL_HEADER, [r.row() for r in rows])
    write_manifest(out.path("critical_manifest.txt"), cfg, {
        "derived.a_crit": a_crit(problem),
        "derived.slope_a_crit": result["slope_a_crit"],
        "derived.slope_elastic_gap": result["slope_elastic_gap"],
        "derived.slope_crack_gap": result["slope_crack_gap"],
    })
    last = rows[-1]
    return (f"wrote {out.paths[0]} (a_crit^eps / a_crit = "
            f"{last.a_crit_eps / last.a_crit:.4f} at eps = {_fmt(last.eps)})")


def cmd_minimize(cfg: RunConfig, out: OutputSet, args) -> str:
    problem, config = _problem(cfg), _solve_config(cfg)
    pot, chi, model = _potential(cfg), _chi(cfg), _model(cfg)
    eps = cfg.eps_list()[-1]
    mesh = _mesh_for(problem.phi, problem.l, eps)
    bc = bc_cleavage(problem.a, problem.l)
    res = minimize(mesh, bc, pot, config, chi=chi, model=model, problem=problem)
    _warn_unconverged(eps, res.starts, res.best)
    displacement_to_csv(res.u, out.path("displacement.csv"))
    write_csv(out.path("energy.csv"), ENERGY_HEADER, [res.breakdown.row()])
    write_manifest(out.path("minimize_manifest.txt"), cfg, {
        "derived.eps": eps,
        "derived.best_start": res.best.tag,
        "derived.energy": res.breakdown.total,
        "derived.a_crit": a_crit(problem),
    })
    return f"wrote {out.paths[0]} (best start: {res.best.tag})"


def cmd_recovery(cfg: RunConfig, out: OutputSet, args) -> str:
    problem = _problem(cfg)
    pot, chi, model = _potential(cfg), _chi(cfg), _model(cfg)
    mode = _solve_config(cfg).mode
    kind = cfg.get("recovery.kind")
    if kind not in ("crack", "elastic"):
        raise ConfigError(f"{cfg.path}: recovery.kind must be 'crack' or 'elastic', got {kind!r}")
    p = cfg.get("recovery.p")
    if math.isnan(p):
        p = float(cleaved_stations(problem, 1)[0])
    rows = []
    last_u = None
    for eps in cfg.eps_list():
        mesh = _mesh_for(problem.phi, problem.l, eps)
        if kind == "elastic":
            u_cont, target = build_u_el(problem), elastic_branch_energy(problem)
        else:
            u_cont, target = build_u_cr(problem, p), crack_branch_energy(problem)
        u = recovery_sequence(u_cont, mesh)
        bd = energy_rescaled(u, pot, mode=mode, chi=chi, model=model)
        rows.append(ConvergenceRow(eps, mode + "/recovery", bd.total, target).row())
        last_u = u
    write_csv(out.path("recovery.csv"), CONVERGENCE_HEADER, rows)
    displacement_to_csv(last_u, out.path("recovery_displacement.csv"))
    write_manifest(out.path("recovery_manifest.txt"), cfg, {
        "derived.p": p, "derived.a_crit": a_crit(problem)})
    return f"wrote {out.paths[0]}"


def cmd_crack_extract(cfg: RunConfig, out: OutputSet, args) -> str:
    eps = cfg.eps_list()[-1]
    mesh = _mesh_for(cfg.get("lattice.phi"), cfg.get("lattice.l"), eps)
    u = displacement_from_csv(args.infile, mesh)
    classes = classify_broken(u)
    crack = build_modified(u, classes, variant=args.variant)
    write_csv(out.path("crack.csv"), CRACK_HEADER, crack.rows())
    write_manifest(out.path("crack_manifest.txt"), cfg, {
        "derived.n_broken": classes.count,
        "derived.crack_energy_est": crack_energy_estimate(
            crack, cfg.get("material.beta"), mesh.vecs),
        "derived.total_length": crack.total_length(),
    })
    return f"wrote {out.paths[0]} ({classes.count} broken triangles)"


def cmd_magnet_demo(cfg: RunConfig, out: OutputSet, args) -> str:
    n_random = cfg.get("magnet.n_random")
    if n_random < 1:  # the manifest reports the largest gap over the random fields
        raise ConfigError(f"{cfg.path}: magnet.n_random must be at least 1, got {n_random}")
    result = magnet_demo(_problem(cfg), _model(cfg), cfg.eps_list(),
                         family=cfg.get("material.family"), chi=_chi(cfg), n_random=n_random,
                         seed=cfg.get("solve.seed"),
                         band_angle=cfg.get("magnet.band_angle"))
    rows = [r.row() for r in result["elastic_rows"] + result["band_rows"]]
    write_csv(out.path("magnet.csv"), CONVERGENCE_HEADER, rows)
    gap = max(result["identity_gaps"])
    write_manifest(out.path("magnet_manifest.txt"), cfg, {"derived.max_identity_gap": gap})
    return f"wrote {out.paths[0]} (max renormalization gap {gap:.3e})"


def cmd_noneq_demo(cfg: RunConfig, out: OutputSet, args) -> str:
    result = nonequicoercivity_demo(cfg.eps_list(), cfg.get("noneq.theta"),
                                    cfg.get("noneq.p"), cfg.get("noneq.q"),
                                    l=cfg.get("lattice.l"), pot=_potential(cfg))
    write_csv(out.path("noneq.csv"), NONEQ_HEADER, result["rows"])
    write_manifest(out.path("noneq_manifest.txt"), cfg, {
        "derived.slope_total": result["slope_total"],
        "derived.slope_band": result["slope_band"],
        "derived.energy_ratio": result["energy_ratio"],
    })
    return f"wrote {out.paths[0]} (slope {result['slope_total']:.4f})"


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclat",
        description="lattice fracture laboratory: discrete spring energies, "
                    "their Griffith limit and the cleavage predictions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma-scan", help="sweep the cleavage data over phi")
    p.add_argument("--phi-steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=CleavageProblem.alpha)
    p.add_argument("--beta", type=float, default=CleavageProblem.beta)
    p.add_argument("--l", type=float, default=LatticeSpec.l)
    p.set_defaults(func=cmd_gamma_scan)

    def config_command(name: str, help_text: str, body):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.set_defaults(func=functools.partial(_run_config_command, body))
        return p

    p = config_command("cleavage", "convergence study of the bar problem", cmd_cleavage)
    p.add_argument("--no-minimize", action="store_true",
                   help="only evaluate sampled configurations")
    config_command("minimize", "best-of-multistart minimization", cmd_minimize)
    config_command("critical", "discrete critical load along the eps ladder "
                   "(bisects the load, so load.a and solve.multistart are not read)",
                   cmd_critical)
    config_command("recovery", "sample a limit configuration on the lattice",
                   cmd_recovery)
    p = config_command("crack-extract", "extract the crack polyline of a displacement",
                       cmd_crack_extract)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--variant", type=int, choices=(1, 2, 3), default=1)
    config_command("magnet-demo", "field term checks and renormalization identity",
                   cmd_magnet_demo)
    config_command("noneq-demo", "rotated-band growth of the gradient mass",
                   cmd_noneq_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # uniform nonzero exit with a clean message
        print(f"fraclat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
