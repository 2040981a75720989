"""Instance/solution serialization and the command-line surface.

Instances travel as versioned JSON (human-editable, schema-checked on load);
numeric outputs land as fixed-format CSV so runs diff cleanly and plot
directly.  Subcommands: `generate` builds a waste-case variant, `clear`
solves and settles an instance, `audit` runs the property checks, and
`compare` solves an instance against its quasi-steady-state restriction.

Exit codes: 0 success (audit: all checks pass), 2 usage error, 3 infeasible
or unbounded clearing, 4 iteration limit; other failures exit 1.  `compare`
exits with the first instance's non-zero code (see `_STATUS_EXIT`).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import io
import itertools
import json
import logging
import math
import operator
import os
import sys
from dataclasses import astuple
from pathlib import Path
from typing import Callable

import numpy as np

from .clearing_lp import assemble_primal, total
from .market_model import (
    COLUMNS,
    TABLES,
    YIELDS,
    InvalidInstance,
    MarketInstance,
    Table,
    _number as _json_number,
    validate,
)
from .property_auditor import AuditReport, run_full_audit
from .scenario_gen import CaseParams, InvalidParams, Variant, generate_waste_case
from .scenario_gen import restrict_to_qss  # not called here; perfbench/spans.py traces it
from .settlement import (
    _STREAMS,
    ClearingSolution,
    SettlementReport,
    capacity_duals,  # not called here; perfbench/spans.py traces this binding
    clear,
    clear_qss,
    settle,
)
from .simplex_solver import SolverResult, SolverStatus, basis_from_point
from .stgraph import ARC, Arc, GraphError, SpaceTimeNode, TimeGrid, graph_of

log = logging.getLogger("stclear.cli")

SCHEMA_VERSION = 1


def _fmt(value: float) -> str:
    """Fixed 9-decimal text; a value that rounds to zero prints unsigned, so
    noise of either sign below 5e-10 gives the same bytes."""
    text = f"{value:.9f}"
    return "0.000000000" if text == "-0.000000000" else text


class SchemaError(ValueError):
    """Structurally bad instance document; `path` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):
        # a `compare --jobs` worker's error is pickled; `args` holds only the
        # joined message, so rebuild from both fields
        return type(self), (self.path, self.message)


# ---------------------------------------------------------------------------
# instance JSON
#
# Every list of objects in a document is a table: the graph's arcs and one per
# stakeholder class, each checked against its field table (JSON key -> type)
# and read into columns.  One type rule (`_fits`) judges every value, column
# by column once per distinct type; where a table has a fault, the per-entry
# walk runs only to name the first bad field.  A stakeholder table's field
# table is its `market_model.COLUMNS`, and the writer fills it in from the
# columns.

# JSON key -> field table of the document's tables
_TABLES = {"arcs": ARC, **{key: COLUMNS[row] for key, row in TABLES.items()}}
# the key order of a stakeholder entry in `instance_to_dict`
_PLACED_KEYS = ("id", "node", "product", "capacity", "bid", "time")
_ENTRY_KEYS = {
    "suppliers": _PLACED_KEYS,
    "consumers": _PLACED_KEYS,
    "transporters": ("id", "product", "capacity", "bid", *ARC),
    "technologies": ("id", "node", "inputs", "outputs", "reference", "capacity", "bid", "time"),
}
_TOP_LEVEL = {"version", "products", "times", "time_step", "nodes", "metadata", *_TABLES}


def _at(path: str, key) -> str:
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def _fits(t: type, kind) -> bool:
    """Whether a value of type `t` fits a field of table type `kind`: an
    instance of it, where a number (`float`) is an int or a float and a bool
    is never any of them.  A yields map fits as a dict, each of whose values
    must fit `float`."""
    accepted = (int, float) if kind is float else dict if kind is YIELDS else kind
    return issubclass(t, accepted) and not issubclass(t, bool)


def _typed(value, kind, path: str, key):
    """`value`, found under `key` at `path`, checked against a table type;
    JSON numbers come back as floats (an integer beyond the float range as
    ±inf)."""
    if kind is YIELDS:
        at = _at(path, key)
        return {p: _typed(g, float, at, p) for p, g in _typed(value, dict, path, key).items()}
    if _fits(type(value), kind):
        return _json_number(value) if kind is float else value
    expected = "number" if kind is float else kind.__name__
    raise SchemaError(_at(path, key), f"expected {expected}, got {type(value).__name__}")


def _get(obj: dict, key: str, kind, path: str):
    if key not in obj:
        raise SchemaError(_at(path, key), "missing required field")
    return _typed(obj[key], kind, path, key)


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown field")


def _fields(obj, table: dict, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    _check_keys(obj, table, path)
    return {key: _get(obj, key, kind, path) for key, kind in table.items()}


def _array(doc: dict, key: str, kind) -> list:
    return [_typed(v, kind, f"$.{key}", i) for i, v in enumerate(_get(doc, key, list, "$"))]


def _names(doc: dict, key: str, what: str) -> list:
    """The strings of `doc[key]`; a repeated one is an error at its path."""
    names = _array(doc, key, str)
    seen = set()
    for i, name in enumerate(names):
        if name in seen:
            raise SchemaError(f"$.{key}[{i}]", f"duplicate {what} {name!r}")
        seen.add(name)
    return names


def _transpose(entries: list, names) -> dict:
    """The values of `entries`' keys `names` as columns, name -> tuple."""
    columns = tuple(zip(*map(operator.itemgetter(*names), entries))) or ((),) * len(names)
    return dict(zip(names, columns))


def _exact_columns(entries: list, table: dict) -> dict | None:
    """The columns of `entries` if each is a dict with exactly the keys of
    `table` whose every value fits its table type (`_fits`, judged once per
    distinct type), else None: exactly where the walk finds a fault.  A
    missing key reads as None, which fits no type, not as the value of a
    dict subclass's `__missing__`."""
    fit = lambda values, kind: all(_fits(t, kind) for t in set(map(type, values)))
    if not fit(entries, dict) or set(map(len, entries)) - {len(table)}:
        return None
    columns = {key: tuple(map(dict.get, entries, itertools.repeat(key))) for key in table}
    if not all(fit(columns[key], kind) for key, kind in table.items()):
        return None
    maps = (m for key, kind in table.items() if kind is YIELDS for m in columns[key])
    return columns if fit(itertools.chain.from_iterable(map(dict.values, maps)), float) else None


def _arc_fault(columns: dict) -> bool:
    """Whether some arc in the columns moves backward in time or loops."""
    base, recv = (zip(columns[end + "node"], columns[end + "time"]) for end in ("base_", "recv_"))
    return any(map(operator.lt, columns["recv_time"], columns["base_time"])) or any(
        map(operator.eq, base, recv)
    )


def _entry(item, table: dict, path: str) -> None:
    """One entry checked against `table`; an arc that `Arc` refuses (a
    self-loop, or one backward in time) is an error at the entry's path."""
    item = _fields(item, table, path)
    if "base_node" in table:
        try:
            Arc.check(
                SpaceTimeNode(item["base_node"], item["base_time"]),
                SpaceTimeNode(item["recv_node"], item["recv_time"]),
            )
        except GraphError as e:
            raise SchemaError(path, str(e)) from None


def _columns(doc: dict, key: str) -> dict:
    """The table `doc[key]` as columns, JSON key -> tuple of values, checked
    column by column against its field table; where that finds a fault, the
    walk names it at its entry."""
    table = _TABLES[key]
    entries = _get(doc, key, list, "$")
    columns = _exact_columns(entries, table)
    if columns is None or ("base_node" in table and _arc_fault(columns)):
        for i, item in enumerate(entries):
            _entry(item, table, f"$.{key}[{i}]")
    return columns


def _head(instance: MarketInstance) -> dict:
    """The document of `instance` without its stakeholder tables."""
    arcs = sorted(instance.graph.arcs, key=operator.itemgetter(1, 0, 3, 2))  # by time, then node
    return {
        "version": SCHEMA_VERSION,
        "products": sorted(instance.products),
        "times": list(instance.grid.times),
        "time_step": instance.grid.step,
        "nodes": list(instance.graph.nodes),
        "arcs": [dict(zip(ARC, arc)) for arc in arcs],
        "metadata": instance.metadata,
    }


def _entry_columns(table: Table) -> dict:
    """The entries of a stakeholder table as columns of JSON values, JSON
    key -> list, in id order; a yields map is a copy that lists its products
    in order."""
    t, kinds = table.by_id, COLUMNS[table.row]
    return {
        name: [dict(sorted(m.items())) for m in column] if kinds[name] is YIELDS
        else list(column) if isinstance(column, tuple) else column.tolist()
        for name, column in t.columns.items()
    }


def instance_to_dict(instance: MarketInstance) -> dict:
    doc = _head(instance)
    for key in TABLES:
        columns, keys = _entry_columns(getattr(instance, key)), _ENTRY_KEYS[key]
        doc[key] = [dict(zip(keys, values)) for values in zip(*map(columns.get, keys))]
    return doc


def instance_from_dict(doc: dict) -> MarketInstance:
    if not isinstance(doc, dict):
        raise SchemaError("$", f"expected object, got {type(doc).__name__}")
    _check_keys(doc, _TOP_LEVEL, "$")
    version = _get(doc, "version", int, "$")
    if version != SCHEMA_VERSION:
        raise SchemaError("$.version", f"unsupported version {version}")
    products = _names(doc, "products", "product")
    nodes = _names(doc, "nodes", "node")
    times = tuple(_array(doc, "times", float))
    step = _get(doc, "time_step", float, "$") if "time_step" in doc else 1.0
    if not step > 0:  # NaN too
        raise SchemaError("$.time_step", "time step must be positive")
    if step == math.inf:
        raise SchemaError("$.time_step", "time step must be finite")
    try:
        grid = TimeGrid(times, step)
    except GraphError as e:
        raise SchemaError("$.times", str(e)) from None
    ends = _columns(doc, "arcs")
    try:
        graph = graph_of(nodes, grid, zip(*map(ends.get, ARC)))
    except GraphError as e:
        raise SchemaError("$.arcs", str(e)) from None
    tables = {key: Table.from_columns(row, _columns(doc, key)) for key, row in TABLES.items()}
    metadata = _get(doc, "metadata", dict, "$") if "metadata" in doc else {}
    return MarketInstance(
        products=tuple(sorted(products)),
        grid=grid,
        graph=graph,
        metadata=metadata,
        **tables,
    )


# The text of a document is that of `json.dumps(doc, indent=2, sort_keys=True)`,
# written by column: `indent` would select json's pure-Python encoder, so each
# table goes through the C encoder one column at a time and its entries are
# filled into a template of the table's sorted keys.


def _tokens(values: list) -> list[str]:
    """The JSON text of each scalar in `values`, from one C-encoder call.
    With `ensure_ascii` no encoded scalar holds a newline, so the text splits
    at the separator into exactly one token per value."""
    if not values:
        return []
    tokens = json.dumps(values, separators=("\n", ": "))[1:-1].split("\n")
    if len(tokens) != len(values):
        raise TypeError("a table field holds a non-empty list or object")
    return tokens


def _maps_json(maps: list) -> list[str]:
    """The text of each yields map of a table column."""
    items = [list(m.items()) for m in maps]
    keys = iter(_tokens([k for pairs in items for k, _ in pairs]))
    values = iter(_tokens([v for pairs in items for _, v in pairs]))
    return [
        "{\n        " + ",\n        ".join(f"{next(keys)}: {next(values)}" for _ in pairs)
        + "\n      }" if pairs else "{}"
        for pairs in items
    ]


def _table_json(columns: dict, table: dict) -> str:
    """The text of a top-level table given as columns with the keys of `table`."""
    fields = sorted(table)
    if not columns[fields[0]]:
        return "[]"
    texts = [
        _maps_json(columns[key]) if table[key] is YIELDS else _tokens(list(columns[key]))
        for key in fields
    ]
    entry = "    {\n" + ",\n".join(f"      {json.dumps(key)}: %s" for key in fields) + "\n    }"
    return "[\n" + ",\n".join(map(entry.__mod__, zip(*texts))) + "\n  ]"


def _instance_json(instance: MarketInstance) -> str:
    """`json.dumps(instance_to_dict(instance), indent=2, sort_keys=True)`,
    with the tables written from their columns; `metadata` and the small
    arrays go through that call itself."""
    doc = _head(instance)
    doc["arcs"] = _transpose(doc["arcs"], tuple(ARC))
    doc.update((key, _entry_columns(getattr(instance, key))) for key in TABLES)
    parts = []
    for key in sorted(doc):
        if key in _TABLES:
            text = _table_json(doc[key], _TABLES[key])
        else:
            text = json.dumps(doc[key], indent=2, sort_keys=True).replace("\n", "\n  ")
        parts.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}"


def save_instance(instance: MarketInstance, path: str | Path) -> None:
    Path(path).write_text(_instance_json(instance) + "\n")


def load_instance(path: str | Path) -> MarketInstance:
    """Parse, schema-check, build, and validate; raises OSError, SchemaError,
    or InvalidInstance."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise SchemaError("$", f"not UTF-8 text ({e.reason} at byte {e.start})") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"$ (line {e.lineno}, col {e.colno})", e.msg) from e
    except RecursionError:
        raise SchemaError("$", "nested too deeply to parse") from None
    instance = instance_from_dict(doc)
    report = validate(instance)
    if not report.ok:
        raise InvalidInstance(report)
    return instance


# ---------------------------------------------------------------------------
# solution files


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmts(values: np.ndarray) -> list[str]:
    """`_fmt` of each value of a column, formatting each distinct value once."""
    distinct, which = np.unique(values, return_inverse=True)
    texts = list(map(_fmt, distinct.tolist()))
    return list(map(texts.__getitem__, which.tolist()))


# the streams.csv label of each revenue stream, in `RevenueStreams` field order
_STREAM_LABELS = (
    "Consumer total",
    "Supplier total",
    "Transport (temporal) total",
    "Transport (spatial) total",
    "Transport (spatiotemporal) total",
    "Technologies total",
)


def write_solution(
    outdir: str | Path,
    instance: MarketInstance,
    solution: ClearingSolution,
    settlement: SettlementReport,
) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    index = settlement.index
    saturation = np.where(
        settlement.dry, "dry", np.where(settlement.at_capacity, "at_capacity", "partial")
    )
    _write_csv(
        out / "allocations.csv",
        ["stakeholder", "class", "allocation", "capacity", "saturation"],
        zip(
            index.cols, index.kinds, _fmts(settlement.allocation), _fmts(settlement.capacity),
            saturation.tolist(),
        ),
    )
    times = _fmts(np.asarray(instance.grid.times))
    _write_csv(
        out / "prices.csv",
        ["node", "time", "product", "price"],
        (
            (node, times[t], p, price)
            for (node, t, p), price in zip(index.rows, _fmts(solution.result.y))
        ),
    )
    _write_csv(
        out / "settlement.csv",
        ["stakeholder", "price", "profit"],
        zip(index.cols, _fmts(settlement.price), _fmts(settlement.profit)),
    )
    streams = settlement.streams
    # a market without spatio-temporal transporters writes no row for them
    rows = [
        [label, _fmt(value)]
        for label, name, value in zip(_STREAM_LABELS, _STREAMS, astuple(streams))
        if name != "transport_spatiotemporal" or name in index.streams
    ]
    rows.append(["Grand Total", _fmt(streams.grand_total)])
    _write_csv(out / "streams.csv", ["stream", "total"], rows)


def audit_report_json(report: AuditReport) -> str:
    doc = {
        "status": report.status,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "residual": None if not np.isfinite(c.residual) else c.residual,
                "offender": c.offender,
                "detail": c.detail,
            }
            for c in report.checks
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_csv(path: Path, keys: tuple, number: str) -> tuple[list, np.ndarray, Callable]:
    """The columns `keys` (tuples of text) and the finite column `number` (an
    array) of a UTF-8 solution CSV, read by header position, and a function
    naming the file and line of a data row.  Blank lines are skipped, and a
    short row's missing values read as None; a row that csv cannot read, one
    with a field beyond its size limit, is an error at its line.  The text is
    parsed once; only `line` parses it again, up to the row it names."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(path.name, f"not UTF-8 text ({e.reason} at byte {e.start})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        position = {name: i for i, name in enumerate(next(reader, []))}  # a repeated name: its last
        for column in (*keys, number):
            if column not in position:
                raise SchemaError(path.name, f"missing column {column!r}")
        at = [position[column] for column in (*keys, number)]
        # every row extended in place by Nones up to the last column read, so
        # a short row reads as None where it ends, with no pass of its own
        rows = map(operator.iadd, filter(None, reader), itertools.repeat([None] * (max(at) + 1)))
        picked = list(map(operator.itemgetter(*at), rows))
    except csv.Error as e:
        raise SchemaError(f"{path.name} line {reader.line_num}", str(e)) from None
    *columns, raw = tuple(zip(*picked)) or ((),) * len(at)

    def line(i: int) -> str:
        reader = csv.reader(io.StringIO(text, newline=""))
        lines = (reader.line_num for row in reader if row)  # the header's, then the rows'
        return f"{path.name} line {next(itertools.islice(lines, i + 1, None))}"

    values = np.fromiter(map(_number, raw), float, len(raw))
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise SchemaError(line(i), f"{number} {raw[i]!r} is not a number")
    return columns, values, line


def _number(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):  # TypeError: a short row lacks the column
        return math.nan


def _slots(name: str, keys: list, slot: dict, line: Callable, label: Callable, unknown: Callable):
    """The slot of each CSV row's key, each slot filled once.  The first row
    whose key has no slot is an error `unknown(key)`, and the first that
    repeats an earlier row's key is one at its line; then the first slot no
    row fills is an error.  `label(key)` names a key in the messages."""
    at = np.fromiter(map(slot.get, keys, itertools.repeat(-1)), int, len(keys))
    first = np.zeros(len(keys), dtype=bool)
    first[np.unique(at, return_index=True)[1]] = True
    bad = (at < 0) | ~first
    if bad.any():
        i = int(np.argmax(bad))
        if at[i] < 0:
            raise SchemaError(name, unknown(keys[i]))
        raise SchemaError(line(i), f"duplicate {label(keys[i])}")
    filled = np.zeros(len(slot), dtype=bool)
    filled[at] = True
    if not filled.all():
        raise SchemaError(name, f"missing {label(list(slot)[int(np.argmin(filled))])}")
    return at


def load_solution(outdir: str | Path, instance: MarketInstance) -> ClearingSolution:
    """Rebuild a clearing solution from allocations.csv and prices.csv; used
    by `audit --solution-dir` to check externally supplied results.  Both
    files must cover every stakeholder and every clearing row, once each.
    The result carries a basis rebuilt from x and y (`basis_from_point`),
    from which the audit's QSS solve starts warm; a wrong solution gives a
    start that `solve` rejects or repairs, never a different QSS optimum."""
    out = Path(outdir)
    lp, index = assemble_primal(instance)
    path = out / "allocations.csv"
    (who,), values, line = _read_csv(path, ("stakeholder",), "allocation")
    label = lambda who: f"stakeholder {who!r}"
    unknown = lambda who: f"unknown {label(who)}"
    x = np.zeros(lp.n_cols)
    x[_slots(path.name, who, index.col_of, line, label, unknown)] = values
    times = _fmts(np.asarray(instance.grid.times))
    row_at = {(node, times[t], p): i for i, (node, t, p) in enumerate(index.rows)}
    path = out / "prices.csv"
    columns, values, line = _read_csv(path, ("node", "time", "product"), "price")
    known = set(times)
    unknown = lambda where: (
        f"no clearing row at {where}" if where[1] in known else f"unknown time {where[1]!r}"
    )
    label = lambda where: f"price at {where}"
    y = np.zeros(lp.n_rows)
    y[_slots(path.name, list(zip(*columns)), row_at, line, label, unknown)] = values
    result = SolverResult(
        SolverStatus.OPTIMAL, x, y, lp.c + lp.A.T @ y, total(lp.c * x), 0,
        basis_from_point(lp, x, y),
    )
    return ClearingSolution(lp, index, result, result.objective)


# ---------------------------------------------------------------------------
# CLI


def _cmd_generate(args) -> int:
    try:
        params = CaseParams(
            farms=args.farms,
            processors=args.processors,
            horizon=args.hours,
            seed=args.seed,
            variant=Variant(args.variant),
        )
    except InvalidParams as e:
        args.usage_error(str(e))  # exits 2
    instance = generate_waste_case(params)
    save_instance(instance, args.out)
    print(f"wrote {args.out}: {instance.stakeholder_count()} stakeholders, "
          f"{instance.graph.st_node_count} space-time nodes")
    return 0


def _iters_arg(text: str) -> int:
    """An argparse type: an iteration limit, an integer of at least 0."""
    try:
        limit = int(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if limit < 0:
        raise argparse.ArgumentTypeError(f"max_iterations must not be negative, got {limit}")
    return limit


def _jobs_arg(text: str) -> int:
    """An argparse type: a worker count, an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return jobs


# clearing status -> exit code of `clear` and `compare`, and the reason
# `clear` prints.  A `compare` instance's code is its space-time solve's if
# that failed, else its quasi-steady-state solve's.
_STATUS_EXIT = {
    SolverStatus.OPTIMAL: (0, ""),
    SolverStatus.INFEASIBLE: (3, "infeasible"),
    SolverStatus.UNBOUNDED: (3, "unbounded"),
    SolverStatus.ITERATION_LIMIT: (4, "iteration limit"),
    SolverStatus.SINGULAR_BASIS: (1, "singular_basis"),
}


def _cmd_clear(args) -> int:
    instance = load_instance(args.instance)
    solution = clear(instance, max_iterations=args.max_iters)
    code, reason = _STATUS_EXIT[solution.status]
    if code:
        print(f"clearing failed: {reason}", file=sys.stderr)
        return code
    settlement = settle(solution)
    write_solution(args.out_dir, instance, solution, settlement)
    print(f"cleared: surplus {_fmt(solution.surplus)}; outputs in {args.out_dir}")
    return 0


def _cmd_audit(args) -> int:
    instance = load_instance(args.instance)
    solution = None
    if args.solution_dir:
        solution = load_solution(args.solution_dir, instance)
    report = run_full_audit(instance, solution=solution)
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        extra = f" [{c.offender}]" if c.offender and not c.passed else ""
        print(f"{mark} {c.name}: residual {c.residual:.3e}{extra}")
    print(f"audit: {report.status}")
    if args.out:
        Path(args.out).write_text(audit_report_json(report))
    return 0 if report.passed else 1


def _compare_one(instance_path: str, outdir: Path, max_iterations: int | None) -> int:
    instance = load_instance(instance_path)
    st = clear(instance, max_iterations=max_iterations)
    qss = clear_qss(st, max_iterations=max_iterations)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        outdir / "surplus.csv",
        ["case", "surplus", "status"],
        [
            ["ST", _fmt(st.surplus) if st.status is SolverStatus.OPTIMAL else "", st.status.value],
            ["QSS", _fmt(qss.surplus) if qss.status is SolverStatus.OPTIMAL else "", qss.status.value],
        ],
    )
    rows = []
    if st.status is SolverStatus.OPTIMAL and qss.status is SolverStatus.OPTIMAL:
        # the QSS LP is the cleared LP with tighter bounds, so it has its rows.
        # delta = price without temporal transport minus price with it:
        # positive at demand peaks when storage shaves prices
        y, y_qss = st.result.y, qss.result.y
        times = _fmts(np.asarray(instance.grid.times))
        prices = zip(_fmts(y), _fmts(y_qss), _fmts(y_qss - y))
        rows = ((node, times[t], p, *texts) for (node, t, p), texts in zip(st.index.rows, prices))
    _write_csv(
        outdir / "price_delta.csv",
        ["node", "time", "product", "price_st", "price_qss", "delta"],
        rows,
    )
    return _STATUS_EXIT[st.status][0] or _STATUS_EXIT[qss.status][0]


def _cmd_compare(args) -> int:
    out = Path(args.out)
    jobs = []
    claimed = {}  # output directory -> the instance that writes it
    for path in args.instance:
        outdir = out / Path(path).stem
        if outdir in claimed:
            print(f"error: {claimed[outdir]} and {path} would both write {outdir}", file=sys.stderr)
            return 1
        claimed[outdir] = path
        jobs.append((path, outdir))
    if args.jobs > 1 and len(jobs) > 1:
        # the pool starts all max_workers processes at its first submit
        workers = min(args.jobs, len(jobs))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(pool.map(_compare_one, *zip(*jobs), [args.max_iters] * len(jobs)))
    else:
        codes = [_compare_one(p, d, args.max_iters) for p, d in jobs]
    for (path, d), code in zip(jobs, codes):
        print(f"compared {path} -> {d} (status {code})")
    return next((code for code in codes if code), 0)


# built once per process, which may call `main` many times: a parser's parts
# refer to one another, so each one dropped would be cyclic garbage
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stclear",
        description="Clear, settle, and audit space-time multi-product markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a waste-to-energy case instance")
    gen.add_argument("--farms", type=int, default=8)
    gen.add_argument("--processors", type=int, default=4)
    gen.add_argument("--hours", type=int, default=24)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument(
        "--variant", choices=[v.value for v in Variant], default="base"
    )
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate, usage_error=gen.error)

    clr = sub.add_parser("clear", help="solve an instance and write solution files")
    clr.add_argument("--instance", required=True)
    clr.add_argument("--out-dir", required=True)
    clr.add_argument("--max-iters", type=_iters_arg, default=None)
    clr.set_defaults(func=_cmd_clear)

    aud = sub.add_parser("audit", help="run the economic property audit")
    aud.add_argument("--instance", required=True)
    aud.add_argument("--solution-dir", default=None,
                     help="audit a previously written solution instead of re-solving")
    aud.add_argument("--out", default=None, help="also write audit.json here")
    aud.set_defaults(func=_cmd_audit)

    cmp_ = sub.add_parser("compare", help="solve space-time vs quasi-steady-state")
    cmp_.add_argument("--instance", action="append", required=True)
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--jobs", type=_jobs_arg, default=1)
    cmp_.add_argument("--max-iters", type=_iters_arg, default=None)
    cmp_.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("STCLEAR_LOG", "").upper()
    if level:
        level = logging.getLevelName(level)  # a level's number, or text for any other name
        logging.basicConfig(level=level if isinstance(level, int) else logging.INFO)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, SchemaError, InvalidInstance) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
