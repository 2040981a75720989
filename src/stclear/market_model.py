"""Stakeholder declarations, the market instance container, and validation.

Four stakeholder classes participate: suppliers and consumers sit at a
space-time node and offer/request one product; transport providers sit on an
arc and move one product between its endpoints; technology providers sit at a
node and convert input products into output products at fixed yields relative
to a reference input.

A market holds each class as one `Table` of columns, one entry per
stakeholder in input order.  The row classes (`Supplier`, ...) are the
constructors that fixtures and library callers use: `MarketInstance` turns a
sequence of them into a table once, and a table builds them back only when
it is indexed or iterated.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .stgraph import ARC, Arc, Graph, GraphError, SpaceTimeNode, TimeGrid, integer


@dataclass(frozen=True)
class Supplier:
    id: str
    node: SpaceTimeNode
    product: str
    capacity: float
    bid: float  # may be negative (tipping fee: supplier pays for removal)


@dataclass(frozen=True)
class Consumer:
    id: str
    node: SpaceTimeNode
    product: str
    capacity: float
    bid: float


@dataclass(frozen=True)
class TransportProvider:
    id: str
    arc: Arc
    product: str
    capacity: float
    bid: float  # >= 0; negative transport bids have no practical reading


@dataclass(frozen=True)
class TechnologyProvider:
    """Converts input products into output products.

    `inputs` and `outputs` map product -> yield per unit of the reference
    product; the reference is an input with yield exactly 1.
    """

    id: str
    node: SpaceTimeNode
    inputs: dict[str, float]
    outputs: dict[str, float]
    reference: str
    capacity: float
    bid: float


# MarketInstance field (and instance-file key) -> row class, in class order
TABLES = {
    "suppliers": Supplier,
    "consumers": Consumer,
    "transporters": TransportProvider,
    "technologies": TechnologyProvider,
}

# the type of each column of a table of each row class, named and ordered as
# the instance file's fields: a row's node splits into its name and time, an
# arc into those of its two ends
YIELDS = dict[str, float]  # a technology's product -> yield map
_PLACED = {"id": str, "node": str, "time": int, "product": str, "capacity": float, "bid": float}
COLUMNS = {
    Supplier: _PLACED,
    Consumer: _PLACED,
    TransportProvider: {"id": str, **ARC, "product": str, "capacity": float, "bid": float},
    TechnologyProvider: {
        "id": str, "node": str, "time": int, "reference": str, "inputs": YIELDS,
        "outputs": YIELDS, "capacity": float, "bid": float,
    },
}


def _values(row: type, x) -> tuple:
    """The column values of a row object of class `row`, in `COLUMNS` order."""
    values = dict(vars(x))
    if "arc" in values:
        values.update(zip(ARC, values.pop("arc").ends))
    else:
        node = values.pop("node")
        values.update(node=node.node, time=node.time)
    return tuple(map(values.__getitem__, COLUMNS[row]))


def _row(row: type, values: dict):
    """The row object of column values, by column name, holding the values
    as stored: its arc is not checked again."""
    at = lambda end: SpaceTimeNode(values[end + "node"], values[end + "time"])
    place = {"arc": lambda: Arc.stored(at("base_"), at("recv_")), "node": lambda: at("")}
    return row(*(place[f.name]() if f.name in place else values[f.name] for f in fields(row)))


def _take(column, index: np.ndarray):
    """The entries `index` of a tuple or array column."""
    if isinstance(column, tuple):
        return tuple(map(column.__getitem__, index.tolist()))
    return column[index]


def _number(value) -> float:
    """A value as a float: a number is an int or a float, Python's or
    numpy's (a Python bool reads as its int).  An integer beyond the float
    range reads as ±inf, as json reads `1e400`, and a value that is no
    number as NaN, which validation reports."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # copysign would overflow on the integer too
        return math.inf if value > 0 else -math.inf


def _floats(values) -> np.ndarray:
    """A float column, each value read by `_number`; a column of numbers
    only is converted in one call."""
    values = tuple(values)
    types = set(map(type, values))
    if all(t in (float, int, bool) or issubclass(t, (np.integer, np.floating)) for t in types):
        try:
            with np.errstate(over="ignore"):  # a long double beyond the float range: ±inf
                return np.asarray(values, dtype=float)
        except OverflowError:  # an integer beyond the float range
            pass
    return np.asarray(list(map(_number, values)), dtype=float)


def _ints(values) -> np.ndarray:
    """A time column: int64 when every value is an integer that fits, else
    the values as given, which validation reports unless they index the
    grid."""
    values = tuple(values)
    if all(map(integer, set(map(type, values)))):
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:  # an index beyond int64
            pass
    return np.fromiter(values, object, len(values))


def _maps(values) -> tuple[dict, ...]:
    """A yields column: a copy of each map, each yield read by `_number`."""
    return tuple({p: _number(g) for p, g in m.items()} for m in values)


# column type -> the converter of a column of values of that type
_CONVERT = {str: tuple, int: _ints, float: _floats, YIELDS: _maps}


class Table(Sequence):
    """One stakeholder class as columns, each an attribute named as in
    `COLUMNS[row]`: entry i of every column belongs to the i-th stakeholder,
    in input order.

    A `str` column is a tuple, an `int` (time) column an integer array (see
    `_ints`), a `float` column a float array, and a `YIELDS` column a tuple
    of the table's own product -> yield maps.

    Indexing or iterating builds `row` objects; the market's own code reads
    the columns."""

    def __init__(self, row: type, **columns):
        self.row, self.columns = row, columns
        vars(self).update(columns)

    def __len__(self) -> int:
        return len(self.id)

    def __getitem__(self, i: int):
        i = range(len(self))[i]
        values = {
            name: column.item(i) if isinstance(column, np.ndarray) else copy.copy(column[i])
            for name, column in self.columns.items()
        }
        return _row(self.row, values)

    def __repr__(self) -> str:
        return f"<Table of {len(self)} {self.row.__name__}>"

    def __eq__(self, other):
        if not isinstance(other, Table):
            return NotImplemented
        return (self.row, self.columns.keys()) == (other.row, other.columns.keys()) and all(
            a == b if isinstance(a, tuple) else np.array_equal(a, b)
            for a, b in zip(self.columns.values(), other.columns.values())
        )

    @property
    def by_id(self) -> Table:
        """This table with its rows in id order, the order of the LP's
        columns and of the instance file's entries; the table itself when
        it is in id order already, as a loaded instance's are."""
        return self if self._sorted is None else self._sorted

    @functools.cached_property
    def _sorted(self) -> Table | None:
        # None, not the table itself, when in id order: a table that kept a
        # reference to itself would wait for the cyclic garbage collector
        order = np.asarray(sorted(range(len(self)), key=self.id.__getitem__), dtype=np.intp)
        if (order == np.arange(len(self))).all():
            return None
        return Table(self.row, **{n: _take(c, order) for n, c in self.columns.items()})

    @functools.cached_property
    def yields(self) -> tuple[np.ndarray, np.ndarray, tuple, np.ndarray]:
        """A technology table's yields flat, one entry per (technology,
        product), as arrays `(owner, output, product, value)`: technology
        `owner[k]` takes in, or puts out if `output[k]`, `value[k]` of
        `product[k]` per unit of its reference.  Each technology's inputs
        come first, then its outputs, each in map order."""
        maps = [m for pair in zip(self.inputs, self.outputs) for m in pair]
        sizes = list(map(len, maps))
        k = np.arange(len(maps))
        values = itertools.chain.from_iterable(map(dict.values, maps))
        return (
            np.repeat(k // 2, sizes),
            np.repeat(k % 2 == 1, sizes),
            tuple(itertools.chain.from_iterable(maps)),
            np.fromiter(values, float, sum(sizes)),
        )

    @classmethod
    def from_columns(cls, row: type, columns: dict) -> Table:
        """A table of `row`s from its columns (the names of `COLUMNS[row]`),
        each a sequence of values in input order, converted by type."""
        return cls(row, **{n: _CONVERT[kind](columns[n]) for n, kind in COLUMNS[row].items()})

    @classmethod
    def from_values(cls, row: type, values: Iterable[tuple]) -> Table:
        """A table of `row`s from one tuple of column values per stakeholder,
        in `COLUMNS[row]` order."""
        names = COLUMNS[row]
        return cls.from_columns(row, dict(zip(names, tuple(zip(*values)) or ((),) * len(names))))


@dataclass(frozen=True)
class MarketInstance:
    """A market: its products, time grid, graph on that grid, and stakeholder tables.

    Each stakeholder field is a `Table`; a sequence of row objects given in
    its place is converted once.  Immutable by contract: its validation
    report is computed on first use and kept, so an instance must not be
    mutated in place (build a new one, for example with
    `dataclasses.replace`, which is validated afresh)."""

    products: tuple[str, ...]
    grid: TimeGrid
    graph: Graph
    suppliers: Table
    consumers: Table
    transporters: Table
    technologies: Table
    metadata: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.graph.grid != self.grid:
            raise GraphError("the graph's time grid is not the market's")
        for name, row in TABLES.items():
            rows = getattr(self, name)
            if not isinstance(rows, Table):
                values = (_values(row, x) for x in rows)
                object.__setattr__(self, name, Table.from_values(row, values))

    @property
    def tables(self) -> tuple[Table, ...]:
        """The four stakeholder tables, in class order."""
        return tuple(getattr(self, name) for name in TABLES)

    def stakeholder_count(self) -> int:
        return sum(map(len, self.tables))

    @functools.cached_property
    def _validation(self) -> ValidationReport:
        return ValidationReport(_violations(self))


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class InvalidInstance(ValueError):
    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(f"{v.code}[{v.subject}]: {v.message}" for v in report.violations)
        super().__init__(f"invalid market instance: {lines}")

    def __reduce__(self):
        # pickled from a `compare --jobs` worker; rebuild from the report
        return type(self), (self.report,)


def validate(instance: MarketInstance) -> ValidationReport:
    """Check every type invariant, dangling reference, and duplicate id.

    Report-style: returns all violations instead of raising on the first.
    The check runs once per instance object; later calls return its report.
    """
    return instance._validation


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _hashed(values: Iterable) -> tuple:
    """`values` as a tuple, each that cannot be hashed (a list given as an id,
    a product or a node name in Python, which is no string) replaced by a new
    `object()`: one that no set holds and no other value repeats."""
    values = tuple(values)
    if _hashable(values):  # a tuple hashes when all its values do
        return values
    return tuple(v if _hashable(v) else object() for v in values)


def _missing(values: Iterable, known, n: int) -> np.ndarray:
    """Whether each of the `n` values is not in `known`."""
    return ~np.fromiter(map(known.__contains__, values), bool, n)


def _repeated(tables: tuple[Table, ...]) -> list[np.ndarray]:
    """Per table, whether each id was already used by an earlier
    stakeholder, counting the tables in class order."""
    repeated = [np.zeros(len(t), dtype=bool) for t in tables]
    ids = _hashed(itertools.chain.from_iterable(t.id for t in tables))
    if len(set(ids)) < len(ids):
        seen = set()
        for t, mask in zip(tables, repeated):
            for i, x in enumerate(_hashed(t.id)):
                mask[i] = x in seen
                seen.add(x)
    return repeated


def _violations(instance: MarketInstance) -> tuple[Violation, ...]:
    """Every violation of `instance`, in report order: stakeholder by
    stakeholder, class by class, each stakeholder's in the order of the
    checks below.  Every check is an array expression over a table's
    columns, so a valid market costs no Python step per stakeholder; a
    technology's checks read its yield maps, one step per technology, and
    the checks of each single yield read the flat `Table.yields`."""
    found = []  # ((table, row, check, entry), violation), sorted into report order
    products, nodes = set(_hashed(instance.products)), set(instance.graph.nodes)
    n_times = len(instance.grid)
    if len(products) != len(instance.products):
        message = "product ids must be unique"
        found.append(((-1,), Violation("DuplicateProduct", "products", message)))
    for i, p in enumerate(instance.products):
        if not isinstance(p, str):
            message = f"product {p!r} is not a string"
            found.append(((-1, i), Violation("NonStringProduct", "products", message)))
    arcs = set(instance.graph.arcs)
    tables = instance.tables
    for k, (t, repeated) in enumerate(zip(tables, _repeated(tables))):
        n, checks = len(t), itertools.count()

        def flag(mask, code, message, owner=None, check=None):
            """A violation of `code` for every entry of `mask`: a row of `t`,
            or a yield of technology `owner[entry]`."""
            check = next(checks) if check is None else check
            for e in np.flatnonzero(mask).tolist():
                i = e if owner is None else owner.item(e)
                found.append(((k, i, check, e), Violation(code, t.id[i], message(e))))

        text = np.fromiter(map(isinstance, t.id, itertools.repeat(str)), bool, n)
        flag(~text, "NonStringId", lambda i: f"stakeholder id {t.id[i]!r} is not a string")
        flag(repeated, "DuplicateId", lambda i: "stakeholder id reused")
        for end in ("base_", "recv_") if t.row is TransportProvider else ("",):
            names, times = getattr(t, end + "node"), getattr(t, end + "time")
            unknown = _missing(_hashed(names), nodes, n)
            flag(unknown, "UnknownNode", lambda i: f"node {names[i]!r} not registered")
            outside = (times < 0) | (times >= n_times) if times.dtype != object else np.fromiter(
                (not integer(type(v)) or not 0 <= v < n_times for v in times), bool, n
            )
            flag(outside, "TimeOutOfRange", lambda i: f"time index {times.item(i)!r} outside grid")
        cap, bid = t.capacity, t.bid
        finite = np.isfinite(cap) & np.isfinite(bid)
        flag(~finite, "NonFiniteNumber", lambda i: "capacity and bid must be finite floats")
        flag(finite & (cap < 0), "NegativeCapacity", lambda i: f"capacity {cap.item(i)} < 0")
        negative_bid = np.isfinite(bid) & (bid < 0)
        if t.row is not TechnologyProvider:
            product = t.product
            flag(
                _missing(_hashed(product), products, n), "UnknownProduct",
                lambda i: f"product {product[i]!r} not registered",
            )
        if t.row is TransportProvider:
            ends = (t.base_node, t.base_time.tolist(), t.recv_node, t.recv_time.tolist())
            unknown = _missing(zip(*map(_hashed, ends)), arcs, n)
            flag(unknown, "UnknownArc", lambda i: "transporter arc not present in the graph")
            flag(negative_bid, "NegativeTransportBid", lambda i: f"transport bid {bid.item(i)} < 0")
        if t.row is not TechnologyProvider:
            continue
        flag(negative_bid, "NegativeTechnologyBid", lambda i: f"technology bid {bid.item(i)} < 0")
        flag(
            ~np.fromiter(map(all, zip(t.inputs, t.outputs)), bool, n), "EmptyYieldSet",
            lambda i: "inputs and outputs must both be non-empty",
        )
        overlap = map(lambda a, b: not a.keys().isdisjoint(b), t.inputs, t.outputs)
        overlap = np.fromiter(overlap, bool, n)
        flag(overlap, "OverlappingProducts", lambda i: "inputs and outputs must be disjoint")
        owner, _, product, value = t.yields
        reference = _hashed(t.reference)
        check = next(checks)  # both checks of a yield, yield by yield
        flag(
            _missing(product, products, len(product)), "UnknownProduct",
            lambda e: f"product {product[e]!r} not registered", owner, check,
        )
        flag(
            ~(np.isfinite(value) & (value > 0)), "NonPositiveYield",
            lambda e: f"yield for {product[e]!r} must be > 0", owner, check,
        )
        flag(
            ~np.fromiter(map(dict.__contains__, t.inputs, reference), bool, n),
            "ReferenceNotInInputs", lambda i: f"reference {t.reference[i]!r} not an input",
        )
        unit = np.fromiter(map(dict.get, t.inputs, reference, itertools.repeat(1.0)), float, n)
        flag(
            unit != 1.0, "ReferenceYieldNotUnity",
            lambda i: f"reference yield is {unit.item(i)}, must be exactly 1",
        )
    found.sort(key=lambda f: f[0])
    return tuple(v for _, v in found)
