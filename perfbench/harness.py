"""Workloads, closed-loop runner and correctness gate of the stclear benchmark.

Each workload runs in one process as a closed loop with one client: the next
CLI command starts when the previous one has returned.  Every operation and
every set-up step is one `stclear` command, called in-process through
`stclear.cli_io.main(argv)`.  Instances come from the workload seed: instance
`i` of a run with seed `s` is generated with seed `s + 1000 * i`.

Correctness is checked after each operation, outside its timed region,
against references computed once after set-up (see `oracle`).  A command
that exits non-zero, raises, or writes a wrong result counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import re
import resource
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter

from stclear import cli_io

import oracle
import spans

REL_TOL = 1e-7  # surplus against the HiGHS reference
GRAND_TOTAL_TOL = 1e-9  # |Grand Total| relative to the summed stream magnitudes
SEED_STRIDE = 1000

# The audit's checks, in order.  Dropping or renaming one fails the gate, so
# a faster audit cannot be a weaker one.
AUDIT_CHECKS = (
    "instance_valid",
    "bounded_clearing",
    "profit_nonnegativity",
    "surplus_dominance",
    "competitive_equilibrium",
    "revenue_adequacy",
    "cleared_price_bounds",
    "capacity_price_bounds",
    "profit_capacity_rule",
    "at_least_one_saturated",
    "volatility_corridor",
    "aggregation_identities",
    "kkt",
)
VARIANTS = ("base", "nostorage", "unlimited", "triple")


class SetupFailed(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class Size:
    farms: int
    processors: int
    hours: int
    seeds: int  # distinct instance seeds per variant


@dataclasses.dataclass(frozen=True)
class Case:
    size: Size
    seed: int
    variant: str = "base"

    @property
    def stem(self) -> str:
        s = self.size
        return f"{self.variant}-{s.farms}x{s.processors}x{s.hours}-s{self.seed}"


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one `stclear` command in-process; return its exit code and output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli_io.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def _surplus_problem(label: str, value: float, ref: float) -> list[str]:
    if abs(value - ref) <= REL_TOL * (1.0 + abs(ref)):
        return []
    return [f"{label}: surplus {value!r} != HiGHS {ref!r}"]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_solution_dir(outdir: Path, doc: dict, ref: float) -> list[str]:
    """Allocation surplus against the reference and a zero Grand Total."""
    problems = []
    rows = _read_csv(outdir / "allocations.csv")
    alloc = {r["stakeholder"]: float(r["allocation"]) for r in rows}
    ids = {s["id"] for k in ("suppliers", "consumers", "transporters", "technologies") for s in doc[k]}
    if len(rows) != len(ids) or set(alloc) != ids:
        return [f"{outdir}: allocations.csv does not list every stakeholder once"]
    problems += _surplus_problem(f"{outdir}/allocations.csv", oracle.allocation_surplus(doc, alloc), ref)
    streams = {r["stream"]: float(r["total"]) for r in _read_csv(outdir / "streams.csv")}
    grand = streams.pop("Grand Total", None)
    magnitude = sum(abs(v) for v in streams.values())
    if grand is None or abs(grand) > GRAND_TOTAL_TOL * (1.0 + magnitude):
        problems.append(f"{outdir}/streams.csv: Grand Total {grand!r} is not zero")
    return problems


class Workload:
    """Set-up commands, operation commands and the gate of one workload."""

    name: str
    size: Size
    jobs = 1  # process-pool width of the operation

    def __init__(self, seed: int, workdir: Path, size: Size | None = None):
        self.workdir = workdir
        self.size = size or self.size
        self.cases = self.make_cases(seed)
        self.docs: dict[str, dict] = {}
        self.refs: dict[tuple[str, bool], float] = {}

    def make_cases(self, seed: int) -> list[Case]:
        return [Case(self.size, seed + SEED_STRIDE * i) for i in range(self.size.seeds)]

    def instance(self, case: Case) -> Path:
        return self.workdir / "instances" / f"{case.stem}.json"

    def generate_argv(self, case: Case) -> list[str]:
        s = case.size
        return [
            "generate", "--farms", str(s.farms), "--processors", str(s.processors),
            "--hours", str(s.hours), "--seed", str(case.seed), "--variant", case.variant,
            "--out", str(self.instance(case)),
        ]

    def setup_argvs(self) -> list[list[str]]:
        for d in ("instances", "out"):
            (self.workdir / d).mkdir(parents=True, exist_ok=True)
        return [self.generate_argv(c) for c in self.cases]

    def prepare(self) -> list[str]:
        """Compute the references after set-up; return problems with set-up outputs."""
        for case in self.cases:
            doc = json.loads(self.instance(case).read_text())
            self.docs[case.stem] = doc
            for qss in (False, True):
                self.refs[case.stem, qss] = oracle.reference_surplus(doc, qss)
        return []

    @property
    def n_ops(self) -> int:
        return len(self.cases)

    def out(self, i: int) -> Path:
        return self.workdir / "out" / self.cases[i].stem

    def op_argv(self, i: int, jobs: int) -> list[str]:
        raise NotImplementedError

    def check(self, i: int, code: int, text: str) -> list[str]:
        raise NotImplementedError

    def remove_output(self, i: int) -> None:
        """Delete what an earlier operation wrote, so the gate never reads stale files."""
        out = self.out(i)
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink(missing_ok=True)

    def bytes_written(self, i: int) -> int:
        out = self.out(i)
        files = [out] if out.is_file() else out.rglob("*")
        return sum(f.stat().st_size for f in files if f.is_file())


class ClearWorkload(Workload):
    name = "clear-3day"
    size = Size(8, 4, 72, seeds=3)

    def op_argv(self, i, jobs):
        return ["clear", "--instance", str(self.instance(self.cases[i])), "--out-dir", str(self.out(i))]

    def check(self, i, code, text):
        if code != 0:
            return [f"clear exited {code}: {text.strip()[-300:]}"]
        stem = self.cases[i].stem
        printed = re.search(r"cleared: surplus (\S+);", text)
        if printed is None:
            return [f"clear printed no surplus: {text.strip()[-300:]}"]
        ref = self.refs[stem, False]
        return _surplus_problem(f"{stem} printed", float(printed.group(1)), ref) + check_solution_dir(
            self.out(i), self.docs[stem], ref
        )


class AuditWorkload(Workload):
    name = "audit-desk"
    size = Size(4, 2, 12, seeds=3)

    def solution(self, case: Case) -> Path:
        return self.workdir / "solutions" / case.stem

    def setup_argvs(self):
        argvs = super().setup_argvs()
        for case in self.cases:
            argvs.append(["clear", "--instance", str(self.instance(case)), "--out-dir", str(self.solution(case))])
        return argvs

    def prepare(self):
        problems = super().prepare()
        for case in self.cases:
            problems += check_solution_dir(self.solution(case), self.docs[case.stem], self.refs[case.stem, False])
        return problems

    def out(self, i):
        return self.workdir / "out" / f"{self.cases[i].stem}.audit.json"

    def op_argv(self, i, jobs):
        case = self.cases[i]
        return [
            "audit", "--instance", str(self.instance(case)),
            "--solution-dir", str(self.solution(case)), "--out", str(self.out(i)),
        ]

    def check(self, i, code, text):
        problems = []
        if code != 0 or not text.rstrip().endswith("audit: pass"):
            problems.append(f"audit exited {code}: {text.strip()[-300:]}")
        printed = re.findall(r"^(PASS|FAIL) (\w+): ", text, re.M)
        if tuple(name for _, name in printed) != AUDIT_CHECKS:
            problems.append(f"audit printed checks {[n for _, n in printed]}, expected {list(AUDIT_CHECKS)}")
        try:
            report = json.loads(self.out(i).read_text())
        except (OSError, ValueError) as e:
            return problems + [f"audit.json unreadable: {e}"]
        checks = {c["name"]: c for c in report.get("checks", [])}
        if report.get("status") != "pass" or tuple(checks) != AUDIT_CHECKS:
            problems.append(f"audit.json status {report.get('status')!r} with checks {list(checks)}")
        detail = checks.get("surplus_dominance", {}).get("detail", "")
        both = re.fullmatch(r"st=(\S+) qss=(\S+)", detail)
        stem = self.cases[i].stem
        if both is None:
            problems.append(f"surplus_dominance detail {detail!r} has no surpluses")
        else:
            problems += _surplus_problem(f"{stem} audit ST", float(both.group(1)), self.refs[stem, False])
            problems += _surplus_problem(f"{stem} audit QSS", float(both.group(2)), self.refs[stem, True])
        return problems


class CompareWorkload(Workload):
    name = "compare-fleet"
    size = Size(4, 2, 12, seeds=4)
    jobs = 2

    def make_cases(self, seed):
        base = super().make_cases(seed)
        return [dataclasses.replace(c, variant=v) for v in VARIANTS for c in base]

    @property
    def n_ops(self):
        return 1  # one command compares every instance

    def out(self, i):
        return self.workdir / "out" / "compare"

    def op_argv(self, i, jobs):
        argv = ["compare", "--out", str(self.out(i)), "--jobs", str(jobs)]
        for case in self.cases:
            argv += ["--instance", str(self.instance(case))]
        return argv

    def check(self, i, code, text):
        if code != 0:
            return [f"compare exited {code}: {text.strip()[-300:]}"]
        problems = []
        for case in self.cases:
            stem = case.stem
            try:
                rows = {r["case"]: r for r in _read_csv(self.out(i) / stem / "surplus.csv")}
                st, qss = (float(rows[k]["surplus"]) for k in ("ST", "QSS"))
                _read_csv(self.out(i) / stem / "price_delta.csv")
            except (OSError, KeyError, ValueError) as e:
                problems.append(f"{stem}: unreadable compare output ({e!r})")
                continue
            problems += _surplus_problem(f"{stem} ST", st, self.refs[stem, False])
            problems += _surplus_problem(f"{stem} QSS", qss, self.refs[stem, True])
            if qss - st > REL_TOL * (1.0 + abs(qss)):
                problems.append(f"{stem}: QSS surplus {qss!r} exceeds ST surplus {st!r}")
        return problems


WORKLOADS = {w.name: w for w in (ClearWorkload, AuditWorkload, CompareWorkload)}


class Runner:
    """Times set-up and operations of one workload and gates every result."""

    def __init__(self, workload: Workload, tracer: spans.Tracer | None = None):
        self.w = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_times: list[float] = []

    def _call(self, argv, op_id: str | None) -> tuple[float, int, str]:
        """Time one command, traced when `op_id` is given."""
        t0 = perf_counter()
        try:
            if op_id is None:
                code, text = call_cli(argv)
            else:
                with self.tracer.installed(), self.tracer.span(spans.ROOT, op=op_id):
                    code, text = call_cli(argv)
        except Exception:  # a crash of the program is a failed command, not a failed run
            code, text = 1, traceback.format_exc(limit=3)
        return perf_counter() - t0, code, text

    def setup(self) -> None:
        """One timed set-up; the first is followed by the references and their checks."""
        elapsed = 0.0
        for argv in self.w.setup_argvs():
            seconds, code, text = self._call(argv, "setup" if self.tracer else None)
            if code != 0:
                raise SetupFailed(f"{' '.join(argv)} exited {code}: {text.strip()[-300:]}")
            elapsed += seconds
        self.setup_times.append(elapsed)
        if len(self.setup_times) == 1:
            problems = self.w.prepare()
            if problems:
                raise SetupFailed("; ".join(problems))

    def op(self, i: int, jobs: int, traced: bool = False) -> float:
        """One timed operation (span id `op-<attempt>` when traced), then its gate."""
        self.attempted += 1
        self.w.remove_output(i)
        seconds, code, text = self._call(self.w.op_argv(i, jobs), f"op-{self.attempted}" if traced else None)
        try:
            problems = self.w.check(i, code, text)
        except Exception:  # unreadable output fails the operation, not the run
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failures.append(f"op {self.attempted}: " + "; ".join(problems))
        return seconds

    def loop(self, seconds: float, group, min_groups: int) -> list:
        """Run `group(i)` for i = 0, 1, ... until the next one would overrun."""
        results, times = [], []
        start = perf_counter()
        i = 0
        while True:
            t0 = perf_counter()
            results.append(group(i % self.w.n_ops))
            times.append(perf_counter() - t0)
            i += 1
            if i >= min_groups and perf_counter() - start + statistics.median(times) > seconds:
                return results

    def end_to_end(self, seconds: float) -> dict:
        self.setup()

        def group(i):
            op_s = self.op(i, self.w.jobs)
            # set-up is repeated between operations, so that its samples,
            # like those of the operations, spread over the whole run
            self.setup()
            return op_s

        times = self.loop(seconds, group, min_groups=self.w.n_ops)
        ok = self.attempted - len(self.failures)
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "op_s_p50": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "success_frac": (ok / self.attempted, "ratio"),
        }, {"op_s": times, "setup_s": self.setup_times}

    def per_layer(self, seconds: float) -> dict:
        """Untraced and traced runs of the same operation, alternating.

        A pooled operation is traced serially (`--jobs 1`), because spans of
        forked workers never reach this process; its untraced pooled and
        serial times give the pool's efficiency.
        """
        self.setup()
        jobs = self.w.jobs

        def group(i):
            pooled = self.op(i, jobs)
            serial = self.op(i, 1) if jobs > 1 else pooled
            traced = self.op(i, 1, traced=True)
            layers = spans.op_metrics(self.tracer.spans, f"op-{self.attempted}")
            layers["cli_io.bytes_written"] = self.w.bytes_written(i)
            return pooled, serial, traced, layers

        groups = self.loop(seconds, group, min_groups=1)
        pooled, serial, traced = (statistics.median(g[k] for g in groups) for k in range(3))
        metrics = {k: statistics.median(g[3][k] for g in groups) for k in groups[0][3]}
        metrics["scenario_gen.generate_s"] = spans.op_metrics(self.tracer.spans, "setup")["scenario_gen.generate_s"]
        metrics["cli_io.pool_efficiency"] = serial / (jobs * pooled)
        metrics["trace.overhead_frac"] = traced / serial - 1.0
        return {k: (v, LAYER_UNITS[k]) for k, v in metrics.items()}, {
            "untraced_op_s": [g[1] for g in groups],
            "traced_op_s": [g[2] for g in groups],
        }


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its waited-for children."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_efficiency"):
        return "ratio"
    if name.endswith("_us_per_iter"):
        return "us"
    if "bytes" in name:
        return "bytes"
    return "count"


# op_metrics of no spans still names every per-operation metric
LAYER_UNITS = {
    k: _unit(k)
    for k in [
        *spans.op_metrics([], ""),
        "cli_io.bytes_written",
        "cli_io.pool_efficiency",
        "trace.overhead_frac",
    ]
}
