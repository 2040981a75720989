"""Spans around stclear's layer boundaries, recorded from outside the program.

`Tracer.installed` rebinds each layer function in the module that calls it
(`stclear.cli_io`, `stclear.settlement`, `stclear.property_auditor`, and
`stclear.clearing_lp` for its own internal calls), so every call through that
binding opens a span.  Spans nest, carry the id of the operation they belong
to, and stay in memory until `write` dumps them.  A binding that no longer
exists is listed in `Tracer.absent` instead of failing, so a refactor of the
program cannot break the benchmark.

`stgraph` is not traced: it runs inside `generate_waste_case`, so its time
counts under `scenario_gen`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from time import perf_counter

SOLVE = "simplex_solver.solve"
ASSEMBLE_PRIMAL = "clearing_lp.assemble_primal"
ASSEMBLE_DUAL = "clearing_lp.assemble_dual"
VALIDATE = "market_model.validate"
CLEAR = "settlement.clear"
SETTLE = "settlement.settle"
STAKEHOLDER_PRICES = "settlement.stakeholder_prices"
RESTRICT_TO_QSS = "scenario_gen.restrict_to_qss"
GENERATE = "scenario_gen.generate_waste_case"
RUN_FULL_AUDIT = "property_auditor.run_full_audit"
ROOT = "cli_io.main"

AUDIT_CHECK_FUNCTIONS = (
    "audit_profit_nonnegativity",
    "audit_surplus_dominance",
    "audit_competitive_equilibrium",
    "audit_revenue_adequacy",
    "audit_cleared_price_bounds",
    "audit_capacity_price_bounds",
    "audit_profit_capacity_rule",
    "audit_at_least_one_saturated",
    "audit_volatility_corridor",
)


def _lp_size(lp) -> dict:
    return {"rows": lp.n_rows, "cols": lp.n_cols, "nnz": int(lp.A.nnz)}


def _solve_counts(args, kwargs, result) -> dict:
    lp = args[0] if args else kwargs["lp"]
    return {"sense": lp.sense, "m": lp.n_rows, "iterations": int(result.iterations)}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _solution_bytes(args, kwargs, result) -> dict:
    d = args[0]
    return {"bytes": sum(os.path.getsize(os.path.join(d, f)) for f in ("allocations.csv", "prices.csv"))}


# (calling module, bound name, span name, counts taken from the call)
LAYERS = [
    ("stclear.cli_io", "load_instance", "cli_io.load_instance", _file_bytes),
    ("stclear.cli_io", "save_instance", "cli_io.save_instance", None),
    ("stclear.cli_io", "write_solution", "cli_io.write_solution", None),
    ("stclear.cli_io", "load_solution", "cli_io.load_solution", _solution_bytes),
    ("stclear.cli_io", "validate", VALIDATE, None),
    ("stclear.cli_io", "assemble_primal", ASSEMBLE_PRIMAL, lambda a, k, r: _lp_size(r[0])),
    ("stclear.cli_io", "capacity_duals", "simplex_solver.capacity_duals", None),
    ("stclear.cli_io", "generate_waste_case", GENERATE, None),
    ("stclear.cli_io", "restrict_to_qss", RESTRICT_TO_QSS, None),
    ("stclear.cli_io", "clear", CLEAR, None),
    ("stclear.cli_io", "settle", SETTLE, None),
    ("stclear.cli_io", "run_full_audit", RUN_FULL_AUDIT, None),
    ("stclear.settlement", "assemble_primal", ASSEMBLE_PRIMAL, lambda a, k, r: _lp_size(r[0])),
    ("stclear.settlement", "solve", SOLVE, _solve_counts),
    ("stclear.settlement", "capacity_duals", "simplex_solver.capacity_duals", None),
    ("stclear.settlement", "stakeholder_prices", STAKEHOLDER_PRICES, None),
    ("stclear.settlement", "stakeholder_profits", "settlement.stakeholder_profits", None),
    ("stclear.settlement", "classify", "settlement.classify", None),
    ("stclear.settlement", "revenue_streams", "settlement.revenue_streams", None),
    ("stclear.property_auditor", "validate", VALIDATE, None),
    ("stclear.property_auditor", "clear", CLEAR, None),
    ("stclear.property_auditor", "settle", SETTLE, None),
    ("stclear.property_auditor", "stakeholder_prices", STAKEHOLDER_PRICES, None),
    ("stclear.property_auditor", "aggregation_identity_check",
     "settlement.aggregation_identity_check", None),
    ("stclear.property_auditor", "restrict_to_qss", RESTRICT_TO_QSS, None),
    ("stclear.property_auditor", "solve", SOLVE, _solve_counts),
    ("stclear.property_auditor", "verify_kkt", "simplex_solver.verify_kkt", None),
    ("stclear.property_auditor", "assemble_dual", ASSEMBLE_DUAL, lambda a, k, r: _lp_size(r)),
    *[
        ("stclear.property_auditor", f, "property_auditor." + f.removeprefix("audit_"), None)
        for f in AUDIT_CHECK_FUNCTIONS
    ],
    ("stclear.clearing_lp", "validate", VALIDATE, None),
    ("stclear.clearing_lp", "assemble_primal", ASSEMBLE_PRIMAL, lambda a, k, r: _lp_size(r[0])),
]


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.count_errors: list[str] = []
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._stack[-1] if self._stack else None
        s = Span(
            len(self.spans), name, op if op is not None else parent.op,
            parent.id if parent else None, perf_counter(),
        )
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if counts is not None:
                    try:
                        s.attrs.update(counts(args, kwargs, result))
                    except Exception as e:  # a changed signature must not fail the operation
                        self.count_errors.append(f"{name}: {e!r}")
                return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every layer in `LAYERS` for the duration of the block."""
        self.absent = []
        for module_name, attr, name, counts in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counts))
        try:
            yield self
        finally:
            while self._undo:
                module, attr, fn = self._undo.pop()
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def op_metrics(spans: list[Span], op: str) -> dict[str, float]:
    """Per-layer time, self time and counts of one operation's spans."""
    own = [s for s in spans if s.op == op]
    child_time: dict[int, float] = defaultdict(float)
    for s in own:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def named(name, **attrs):
        return [s for s in own if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def total(name, **attrs):
        return sum(s.duration for s in named(name, **attrs))

    def self_time(name):
        return sum(s.duration - child_time[s.id] for s in named(name))

    def attr_sum(names, key, **attrs):
        return sum(s.attrs.get(key, 0) for n in names for s in named(n, **attrs))

    root = [s for s in own if s.name == ROOT]
    root_s = sum(s.duration for s in root)
    primal_s = total(SOLVE, sense="max")
    primal_it = attr_sum([SOLVE], "iterations", sense="max")
    lps = [ASSEMBLE_PRIMAL, ASSEMBLE_DUAL]
    return {
        "simplex_solver.primal_solve_s": primal_s,
        "simplex_solver.primal_iterations": primal_it,
        "simplex_solver.primal_us_per_iter": 1e6 * primal_s / primal_it if primal_it else 0.0,
        "simplex_solver.dual_solve_s": total(SOLVE, sense="min"),
        "simplex_solver.dual_iterations": attr_sum([SOLVE], "iterations", sense="min"),
        "simplex_solver.solves": len(named(SOLVE)),
        "simplex_solver.verify_kkt_s": total("simplex_solver.verify_kkt"),
        "simplex_solver.capacity_duals_s": total("simplex_solver.capacity_duals"),
        "simplex_solver.basis_dense_bytes": 8 * max((s.attrs.get("m", 0) for s in named(SOLVE)), default=0) ** 2,
        "property_auditor.run_full_audit_s": total(RUN_FULL_AUDIT),
        "property_auditor.surplus_dominance_s": total("property_auditor.surplus_dominance"),
        "property_auditor.competitive_equilibrium_s": total("property_auditor.competitive_equilibrium"),
        "property_auditor.self_s": self_time(RUN_FULL_AUDIT),
        "settlement.clear_self_s": self_time(CLEAR),
        "settlement.settle_s": total(SETTLE),
        "settlement.stakeholder_prices_s": total(STAKEHOLDER_PRICES),
        "settlement.aggregation_identity_check_s": total("settlement.aggregation_identity_check"),
        "settlement.clears": len(named(CLEAR)),
        "clearing_lp.assemble_primal_s": total(ASSEMBLE_PRIMAL),
        "clearing_lp.assemble_dual_s": total(ASSEMBLE_DUAL),
        "clearing_lp.rows": attr_sum(lps, "rows"),
        "clearing_lp.cols": attr_sum(lps, "cols"),
        "clearing_lp.nnz": attr_sum(lps, "nnz"),
        "cli_io.load_instance_s": total("cli_io.load_instance"),
        "cli_io.write_solution_s": total("cli_io.write_solution"),
        "cli_io.load_solution_s": total("cli_io.load_solution"),
        "cli_io.bytes_read": attr_sum(["cli_io.load_instance", "cli_io.load_solution"], "bytes"),
        "scenario_gen.generate_s": total(GENERATE),
        "scenario_gen.restrict_to_qss_s": total(RESTRICT_TO_QSS),
        "market_model.validate_s": total(VALIDATE),
        # share of the operation that the layer spans directly under it cover
        "trace.coverage_frac": sum(child_time[s.id] for s in root) / root_s if root_s else 0.0,
        "trace.spans": len(own),
    }
