"""The three benchmark workloads: set-up, timed passes and output checks.

Each workload is driven by one closed-loop caller: the next operation
starts when the previous one has returned. A pass is the unit whose wall
time is reported; an operation is the unit whose latency is reported and
whose checks decide failure. On the sweeps a pass is one operation (one
whole ``privlp sweep``); on private-solve a pass is one request per
document. Checks run after a pass, outside the timed region.
"""
from __future__ import annotations

import csv
import dataclasses
import importlib
import io
import json
import math
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import inputs
from spans import NullTracer

MODULES = ("problem", "mechanism", "seeds", "simplex", "accuracy", "cmdp", "experiment", "cli")

CSV_HEADER = ["epsilon", "mean_cop_percent", "std_cop", "mean_abs_gap", "bound", "trials",
              "infeasible"]
DRAW_COLUMNS = ("mean_cop_percent", "std_cop", "mean_abs_gap")
BOUND_RTOL = 1e-6
VIOLATION_TOL = 1e-9
OBJECTIVE_RTOL = 1e-7

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class ProgramMissing(RuntimeError):
    """The checkout holds no ``privlp`` sources to benchmark."""


def import_privlp(src: Path) -> SimpleNamespace:
    """Import every ``privlp`` module afresh from ``src``.

    Earlier imports are dropped first, so repeating this measures the
    package's own import work each time.
    """
    package_dir = src / "privlp"
    if not (package_dir / "__init__.py").is_file():
        raise ProgramMissing(f"no privlp package under {src}")
    for name in [n for n in sys.modules if n == "privlp" or n.startswith("privlp.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"privlp.{name}") for name in MODULES}
    if Path(modules["cli"].__file__).resolve().parent != package_dir.resolve():
        raise ProgramMissing(f"privlp was imported from {modules['cli'].__file__}, not {src}")
    return SimpleNamespace(**modules)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclasses.dataclass(frozen=True)
class Op:
    """One timed operation and what it returned (or raised)."""

    latency_s: float
    outcome: object
    index: int = 0
    seed: int = 0


@dataclasses.dataclass
class CheckResult:
    failed: int = 0
    outputs_changed: int = 0
    outputs_unchecked: int = 0
    errors: list = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def add(self, other: "CheckResult") -> None:
        self.failed += other.failed
        self.outputs_changed += other.outputs_changed
        self.outputs_unchecked += other.outputs_unchecked
        self.errors.extend(other.errors[: 5 - len(self.errors)])


class Sweep:
    """A ``privlp sweep`` run in-process through ``privlp.cli.main``."""

    trials: int
    k: float

    def __init__(self, pl, seed: int, work: Path, root: Path):
        self.pl = pl
        self.seed = seed
        self.out = work / self.name
        self.tracer = NullTracer()

    def argv(self, trials: int, eps_arg: str) -> list[str]:
        return ["sweep", *self.source_args(), "--eps-grid", eps_arg, "--k", repr(self.k),
                "--delta", repr(inputs.DELTA), "--seed", str(self.seed),
                "--trials", str(trials), "--out", str(self.out)]

    def warmup(self) -> None:
        self.pl.cli.main(self.argv(1, "5"))

    def run_pass(self, pass_index: int) -> list[Op]:
        argv = self.argv(self.trials, inputs.EPS_ARG)
        span = self.tracer.begin_op()
        start = perf_counter()
        try:
            outcome = self.pl.cli.main(argv)
        except Exception as exc:  # counted as a failed operation
            outcome = exc
        latency = perf_counter() - start
        self.tracer.end(span)
        return [Op(latency, outcome)]

    def csv_text(self) -> str:
        return Path(str(self.out) + ".csv").read_text()

    def check(self, ops: list[Op], reference: dict) -> CheckResult:
        result = CheckResult()
        for op in ops:
            if op.outcome != 0:
                result.fail(f"sweep returned {op.outcome!r}")
                continue
            check_sweep_csv(self.csv_text(), reference[self.name], self.instance, self.seed,
                            self.trials, result)
        return result


class GridSweep(Sweep):
    """The README's gridworld command: the paper's CMDP experiment."""

    name = "grid-sweep"
    trials = 25
    k = 0.25
    instance = 0

    def __init__(self, pl, seed: int, work: Path, root: Path):
        super().__init__(pl, seed, work, root)
        self.config = root / "demos" / "grid5.json"
        if not self.config.is_file():
            raise ProgramMissing(f"missing {self.config}")

    def source_args(self) -> list[str]:
        return ["--grid-config", str(self.config)]


class LpSweep(Sweep):
    """A sweep over one seeded 12x6 LP; six cost_bound calls per sweep."""

    name = "lp-sweep"
    trials = 20
    k = inputs.LP_K

    def __init__(self, pl, seed: int, work: Path, root: Path):
        super().__init__(pl, seed, work, root)
        self.instance = inputs.lp_instance(seed)
        self.problem_path = work / "lp-sweep-problem.json"
        self.problem_path.write_text(inputs.problem_document(inputs.sweep_lp(seed)))

    def source_args(self) -> list[str]:
        return [str(self.problem_path)]


def check_sweep_csv(text: str, reference: dict, instance: int, seed: int, trials: int,
                    result: CheckResult) -> None:
    """Check one sweep's CSV against the draw-independent facts and the stored reference.

    A wrong header, epsilon column, trial count, infeasible count or bound is
    a failure. Draw-dependent aggregates that differ from the stored values
    for this seed count as ``outputs_changed``; seeds without stored values
    count as ``outputs_unchecked``.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER or len(rows) != len(inputs.EPS_GRID) + 1:
        result.fail(f"unexpected CSV layout: {rows[:1]}, {len(rows)} lines")
        return
    records = [dict(zip(CSV_HEADER, row)) for row in rows[1:]]
    bounds = reference["bound"][str(instance)]
    for record, eps, bound in zip(records, inputs.EPS_GRID, bounds):
        if float(record["epsilon"]) != eps:
            result.fail(f"epsilon column reads {record['epsilon']}, expected {eps}")
            return
        if record["infeasible"] != "0" or record["trials"] != str(trials):
            result.fail(f"eps {eps}: trials={record['trials']} infeasible={record['infeasible']}")
            return
        got, want = float(record["bound"]), float(bound)
        if not (got == want or math.isclose(got, want, rel_tol=BOUND_RTOL)):
            result.fail(f"eps {eps}: bound {got!r} differs from reference {want!r}")
            return
    stored = reference["rows"].get(str(seed))
    if stored is None:
        result.outputs_unchecked += 1
    elif [[r[c] for c in DRAW_COLUMNS] for r in records] != stored:
        result.outputs_changed += 1


class PrivateSolve:
    """``privlp solve --private`` as library calls, one request per document per pass."""

    name = "private-solve"

    def __init__(self, pl, seed: int, work: Path, root: Path):
        self.pl = pl
        self.seed = seed
        self.documents = inputs.solve_documents(seed)
        self.tracer = NullTracer()

    def request(self, text: str, seed: int):
        problem, mechanism, simplex = self.pl.problem, self.pl.mechanism, self.pl.simplex
        lp = problem.load_problem(text)
        problem.validate(lp)
        priv = mechanism.privatize_matrix(lp.system, lp.privacy, seed)
        tightened = dataclasses.replace(lp.system, A=priv.A_tilde)
        return priv.A_tilde, simplex.solve_lp(lp.c, tightened)

    def warmup(self) -> None:
        self.run_pass(0)

    def run_pass(self, pass_index: int) -> list[Op]:
        seeds = [inputs.request_seed(self.seed, pass_index, j) for j in range(len(self.documents))]
        ops = []
        for j, (_, text) in enumerate(self.documents):
            span = self.tracer.begin_op()
            start = perf_counter()
            try:
                outcome = self.request(text, seeds[j])
            except Exception as exc:  # counted as a failed operation
                outcome = exc
            latency = perf_counter() - start
            self.tracer.end(span)
            ops.append(Op(latency, outcome, j, seeds[j]))
        return ops

    def check(self, ops: list[Op], reference: dict) -> CheckResult:
        from scipy.optimize import linprog

        result = CheckResult()
        for op in ops:
            where = f"document {op.index}, seed {op.seed}"
            if isinstance(op.outcome, Exception):
                result.fail(f"{where}: raised {op.outcome!r}")
                continue
            A_tilde, sol = op.outcome
            arrays = self.documents[op.index][0]
            A, b, c, mask, sup = (arrays[k] for k in ("A", "b", "c", "zero_mask", "sup_A"))
            if not sol.is_optimal:
                result.fail(f"{where}: status {sol.status}")
                continue
            if not (np.all(A_tilde >= A) and np.all(A_tilde <= sup)
                    and np.array_equal(A_tilde[mask], A[mask])):
                result.fail(f"{where}: privatized matrix leaves [A, sup_A] or moves masked entries")
                continue
            violation = max(float(np.max(A @ sol.x - b)), float(-sol.x.min()))
            if violation > VIOLATION_TOL:
                result.fail(f"{where}: violates the original constraints by {violation:.3e}")
                continue
            ref = linprog(-c, A_ub=A_tilde, b_ub=b, bounds=(0, None), method="highs")
            if ref.status != 0 or not math.isclose(sol.objective, -ref.fun,
                                                   rel_tol=OBJECTIVE_RTOL, abs_tol=1e-9):
                result.fail(f"{where}: objective {sol.objective!r}, HiGHS {-ref.fun!r} "
                            f"(status {ref.status})")
        return result


WORKLOADS = {cls.name: cls for cls in (GridSweep, LpSweep, PrivateSolve)}


def count_nonoptimal(counters, args, sol) -> None:
    counters["simplex.solve_lp.nonoptimal"] += not sol.is_optimal


def count_xi_clipped(counters, args, report) -> None:
    counters["accuracy.xi_clipped"] += report.xi_case == "clipped"


def count_clipped_entries(counters, args, priv) -> None:
    system = args[0]
    free = ~system.zero_mask
    counters["mechanism.clipped"] += int(np.count_nonzero(priv.A_tilde[free] == system.sup_A[free]))
    counters["mechanism.privatized"] += int(np.count_nonzero(free))


# Counters read from arguments and return values in traced runs.
OBSERVERS = {
    "simplex.solve_lp": count_nonoptimal,
    "accuracy.cost_bound": count_xi_clipped,
    "mechanism.privatize_matrix": count_clipped_entries,
}
