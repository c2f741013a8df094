"""The benchmark's two workloads: set-up, one timed pass, and its check.

Each workload object is built by its constructor (the set-up), runs one
pass per ``run()`` call and checks that pass with ``check()``, which
returns the list of failed criteria (empty when the pass is correct).
The workload seed is the only input that changes from run to run.

fraclat is imported from the ``src/`` directory of the checkout this file
sits in, never from an installed copy, so the benchmark always measures
the code next to it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if not (_SRC / "fraclat" / "__init__.py").is_file():
    raise ImportError(f"no fraclat sources under {_SRC}")
sys.path.insert(0, str(_SRC))

import fraclat  # noqa: E402
from fraclat import (cli, continuum, crack_extraction, discrete_energy,  # noqa: E402
                     lattice, material, solver)

if Path(fraclat.__file__).resolve().parent != (_SRC / "fraclat").resolve():
    raise ImportError(f"fraclat was imported from {fraclat.__file__}, not from {_SRC}")

# the acceptance test 07 bar: l = 2, phi = 0.3, alpha = beta = 1
ALPHA = BETA = 1.0
L, PHI, ETA = 2.0, 0.3, 0.25
SUB, SUP = 0.5, 1.5  # loads, as multiples of a_crit
REL_GAP_TOL = 0.10
ANGLE_TOL_DEG = 5.0
N_STATIONS = 9
LADDER = "1/16,1/32,1/64,1/128,1/256"


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def cleavage_problem(mult: float) -> continuum.CleavageProblem:
    base = continuum.CleavageProblem(alpha=ALPHA, beta=BETA, l=L, phi=PHI, a=0.0)
    return continuum.CleavageProblem(alpha=ALPHA, beta=BETA, l=L, phi=PHI,
                                     a=mult * continuum.a_crit(base))


def parse_eps_list(text: str) -> list:
    return [float(num) / float(den) for num, den in
            (token.split("/") for token in text.split(","))]


def write_config(path: Path, problem: continuum.CleavageProblem, eps_list: str,
                 out_dir: Path, extra: dict):
    values = {"material.alpha": ALPHA, "material.beta": BETA,
              "lattice.phi": problem.phi, "lattice.l": problem.l,
              "lattice.eta": problem.eta, "load.a": problem.a,
              "solve.eps_list": eps_list, "out.dir": out_dir, **extra}
    path.write_text("".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                            for k, v in values.items()))


def run_cli(argv: list) -> int:
    """Run one fraclat command in this process, discarding its stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """What the workloads and their parts share: outputs that repeat pass after pass."""

    first = None

    def same_as_first(self, value, what: str) -> list:
        if self.first is None:
            self.first = value
        elif value != self.first:
            return [f"{what} differs from the first pass"]
        return []

    def close(self):
        pass


class CleaveSolve(Workload):
    """Acceptance test 07: best-of-multistart ``minimize`` below and above a_crit."""

    name = "cleave-solve"

    def __init__(self, seed: int, workdir: Path, eps: float = 1.0 / 64.0,
                 max_iters: int = 300):
        self.seeds = {"workload": seed, "SolveConfig.rng_seed": seed}
        self.pot = material.PairPotential(alpha=ALPHA, beta=BETA)
        self.chi = material.PenaltyChi()
        self.config = solver.SolveConfig(max_iters=max_iters, rng_seed=seed, mode="chi")
        mesh = lattice.build_mesh(lattice.LatticeSpec(phi=PHI, eps=eps, l=L, eta=ETA))
        self.loads = []
        for label, mult in (("sub", SUB), ("sup", SUP)):
            problem = cleavage_problem(mult)
            self.loads.append((label, problem, mesh,
                               discrete_energy.bc_cleavage(problem.a, problem.l)))

    def run(self) -> dict:
        out = {}
        for label, problem, mesh, bc in self.loads:
            res = solver.minimize(mesh, bc, self.pot, self.config, chi=self.chi,
                                  problem=problem)
            classes = crack_extraction.classify_broken(res.u)
            angle = float("nan")
            if classes.count:
                crack = crack_extraction.build_modified(res.u, classes)
                angle = crack_extraction.angle_between_lines_deg(
                    crack_extraction.principal_normal(crack),
                    problem.cleavage.v_gamma_perp)
            out[label] = {"energy": res.breakdown.total,
                          "target": continuum.min_energy(problem),
                          "best_start": res.best_tag, "n_broken": classes.count,
                          "angle_deg": angle}
        return out

    def check(self, out: dict) -> list:
        failed = []
        for label in ("sub", "sup"):
            rec = out[label]
            rel = abs(rec["energy"] - rec["target"]) / rec["target"]
            if not rel <= REL_GAP_TOL:
                failed.append(f"{label}: relative gap {rel:.4f} > {REL_GAP_TOL}")
        if out["sub"]["n_broken"] != 0:
            failed.append(f"sub: {out['sub']['n_broken']} broken triangles below a_crit")
        if out["sup"]["n_broken"] == 0:
            failed.append("sup: no broken triangle above a_crit")
        elif not out["sup"]["angle_deg"] <= ANGLE_TOL_DEG:
            failed.append(f"sup: crack normal {out['sup']['angle_deg']:.2f} deg "
                          "from v_gamma_perp")
        energies = (out["sub"]["energy"], out["sup"]["energy"])
        return failed + self.same_as_first(energies, f"best energies {energies}")

    def answers(self, out: dict) -> dict:
        return {"best_energy.sub": out["sub"]["energy"],
                "best_energy.sup": out["sup"]["energy"],
                "best_start.sub": out["sub"]["best_start"],
                "best_start.sup": out["sup"]["best_start"]}


class LadderSample(Workload):
    """CLI ``cleavage --no-minimize`` over the eps ladder, above a_crit."""

    def __init__(self, seed: int, workdir: Path, eps_list: str = LADDER):
        # sampling draws no random numbers: the seed only reaches solve.seed
        self.seeds = {"workload": seed, "solve.seed": seed}
        self.eps = parse_eps_list(eps_list)
        self.out_dir = workdir / "out"
        config = workdir / "ladder.cfg"
        write_config(config, cleavage_problem(SUP), eps_list, self.out_dir,
                     {"solve.seed": seed})
        self.argv = ["cleavage", "--config", str(config), "--no-minimize"]

    def run(self) -> dict:
        return {"rc": run_cli(self.argv)}

    def check(self, out: dict) -> list:
        if out["rc"] != 0:
            return [f"fraclat cleavage exited with {out['rc']}"]
        path = self.out_dir / "convergence.csv"
        failed = self.same_as_first(path.read_bytes(), "convergence.csv")
        rows = read_rows(path)
        crack = [r for r in rows if r["mode"] == "chi/recovery-crack"]
        if [float(r["eps"]) for r in crack] != self.eps:
            return failed + ["convergence.csv lacks a recovery-crack row per rung"]
        try:
            solver.check_gap_ladder([abs(float(r["gap"])) for r in crack], self.eps, BETA)
        except solver.SolverError as exc:
            failed.append(str(exc))
        return failed

    def answers(self, out: dict) -> dict:
        rows = read_rows(self.out_dir / "convergence.csv")
        finest = min(self.eps)
        return {"best_energy.sup": min(float(r["energy"]) for r in rows
                                       if float(r["eps"]) == finest)}


class CrackIO(Workload):
    """CLI ``recovery`` writing a displacement CSV, then ``crack-extract`` on it."""

    def __init__(self, seed: int, workdir: Path, eps: str = "1/128"):
        problem = cleavage_problem(SUP)
        stations = solver.cleaved_stations(problem, N_STATIONS)
        station = seed % N_STATIONS
        self.seeds = {"workload": seed, "station": station}
        self.p = float(stations[station])
        self.out_dir = workdir / "out"
        config = workdir / "crack.cfg"
        write_config(config, problem, eps, self.out_dir,
                     {"recovery.p": self.p, "recovery.kind": "crack"})
        displacement = self.out_dir / "recovery_displacement.csv"
        self.recovery_argv = ["recovery", "--config", str(config)]
        self.extract_argv = ["crack-extract", "--in", str(displacement),
                             "--config", str(config)]
        # keep what the commands hand to and get from these functions, so
        # the check sees the program's own objects; one extra call each
        self.seen: dict = {}
        self._patches = Patches()
        self._keep(discrete_energy.displacement_to_csv, "written", lambda a, r: a[0])
        self._keep(discrete_energy.displacement_from_csv, "read", lambda a, r: r)
        self._keep(crack_extraction.classify_broken, "classes", lambda a, r: r)
        self._keep(crack_extraction.build_modified, "crack", lambda a, r: r)

    def _keep(self, fn, key: str, pick):
        seen = self.seen

        def keep(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen[key] = pick(args, result)
            return result

        keep.__wrapped__ = fn
        self._patches.replace(cli, fn.__name__, keep)

    def run(self) -> dict:
        self.seen.clear()
        return {"rc": (run_cli(self.recovery_argv), run_cli(self.extract_argv))}

    def check(self, out: dict) -> list:
        if out["rc"] != (0, 0):
            return [f"fraclat recovery / crack-extract exited with {out['rc']}"]
        seen = self.seen
        failed = []
        if seen["written"].values.tobytes() != seen["read"].values.tobytes():
            failed.append("displacement read back from CSV differs from the one written")
        classes, crack = seen["classes"], seen["crack"]
        if classes.count == 0:
            failed.append("no broken triangle in the extracted crack")
        try:
            jumps = crack_extraction.jump_vectors(seen["read"], classes, crack)
        except crack_extraction.CrackError as exc:
            failed.append(str(exc))
        else:
            if len(jumps) != len(crack.segments):
                failed.append("jump_vectors does not cover every segment")
        return failed + self.same_as_first((self.out_dir / "crack.csv").read_bytes(),
                                           "crack.csv")

    def answers(self, out: dict) -> dict:
        rows = read_rows(self.out_dir / "recovery.csv")
        return {"best_energy.sup": float(rows[-1]["energy"]),
                "n_broken": self.seen["classes"].count,
                "station_p": self.p}

    def close(self):
        self._patches.restore()


class LadderIO(Workload):
    """A ``LadderSample`` pass, then a ``CrackIO`` pass, each in its own directory.

    The two command sequences share one workload so that a run can be long
    enough to average over the drift in speed of a shared host; the trace
    still tells their layers apart.  The ladder goes first because
    ``CrackIO`` keeps what its own commands hand to the CSV and crack
    functions.
    """

    name = "ladder-io"

    def __init__(self, seed: int, workdir: Path, eps_list: str = LADDER,
                 crack_eps: str = "1/128"):
        (workdir / "ladder").mkdir(exist_ok=True)
        (workdir / "crack").mkdir(exist_ok=True)
        self.ladder = LadderSample(seed, workdir / "ladder", eps_list)
        self.crack = CrackIO(seed, workdir / "crack", crack_eps)
        self.seeds = {**self.ladder.seeds, **self.crack.seeds}

    def run(self) -> dict:
        return {"ladder": self.ladder.run(), "crack": self.crack.run()}

    def check(self, out: dict) -> list:
        return ([f"ladder: {p}" for p in self.ladder.check(out["ladder"])]
                + [f"crack: {p}" for p in self.crack.check(out["crack"])])

    def answers(self, out: dict) -> dict:
        ladder = self.ladder.answers(out["ladder"])
        crack = self.crack.answers(out["crack"])
        return {"best_energy.sup": min(ladder["best_energy.sup"], crack["best_energy.sup"]),
                "ladder.best_energy.sup": ladder["best_energy.sup"],
                "crack.best_energy.sup": crack["best_energy.sup"],
                "n_broken": crack["n_broken"], "station_p": crack["station_p"]}

    def close(self):
        self.crack.close()


WORKLOADS = {w.name: w for w in (LadderIO, CleaveSolve)}


def create(name: str, seed: int, workdir: Path, **params):
    """Set up workload ``name``; ``params`` shrink it for the smoke test."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir, **params)
