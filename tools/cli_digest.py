"""Digest of the `stclear` CLI outputs on a fixed set of generated cases.

For each case it runs, in-process through `stclear.cli_io.main`, `generate`,
`clear`, `audit --out` and `audit --solution-dir --out`; then `compare` runs
over all the generated instances twice, with `--jobs 1` and `--jobs 2`.
Then `clear --max-iters 0` and `compare --max-iters 0` run on the first
case, so the exit codes of a non-optimal clearing are covered too, and
`generate` alone runs for the 4 variants at 8x4x72, the size the benchmark
clears.  Last come the error paths, all on edits of the first case: `clear`
on instances with a zero time step, with a schema fault at the first and at
the last entry of each table, with an arc at an unknown node, at a time past
the grid or beyond int64, or backward before a field fault at a later arc,
with a repeated arc (which clears), and on one invalid instance per
violation code (and one with a time index beyond int64, and one with all of
them), and `audit --solution-dir` on solutions with an unknown, a repeated
or a missing row in either file, or a value that is not a number.  Then
`clear` and `audit --solution-dir --out` run on the integer twin of the
first case, its every integral capacity, bid and yield written as a JSON
integer as a hand-written file states it; its output files must hash as the
first case's.  Last, `clear`, `audit --solution-dir --out` and `compare` run
on the quoting twin of the first case, whose stakeholder ids and node `hub`
hold a comma, a double quote and a newline, so that its CSV files quote
those fields.  It writes one line per
output file with its SHA-256, and one line per command with its exit code
and the SHA-256 of its stdout and stderr.  The temporary
directory is masked as `<tmp>` in the captured text, so two source trees
give the same CLI bytes and error texts on these cases when their digests
are equal:

    PYTHONPATH=src python3 tools/cli_digest.py --out new.txt
    PYTHONPATH=/path/to/other/tree/src python3 tools/cli_digest.py --out old.txt
    diff old.txt new.txt

The cases are the 4 variants at 3x2x6 and 4x2x12 (farms x processors x
hours) with seeds 1 and 7, plus 8x4x24 `base` at seed 7: 17 cases, the 4
generated-only instances, 44 error paths and the two twins, 125 commands
and 279 files (404 lines), about 7 s.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import stclear
from stclear.cli_io import main as stclear_main
from stclear.market_model import TABLES
from stclear.scenario_gen import Variant


def cases():
    for farms, processors, hours in ((3, 2, 6), (4, 2, 12)):
        for variant in Variant:
            for seed in (1, 7):
                yield variant.value, farms, processors, hours, seed
    yield Variant.BASE.value, 8, 4, 24, 7


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], root: Path) -> str:
    """One command line: the exit code and the digests of stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = stclear_main(argv)
    mask = lambda text: text.replace(str(root), "<tmp>").encode("utf-8")
    command = " ".join(argv).replace(str(root), "<tmp>")
    return (
        f"run {command} exit={code} "
        f"stdout={_sha(mask(out.getvalue()))} stderr={_sha(mask(err.getvalue()))}"
    )


def _set(table, entry, key, value):
    """A document edit: `doc[table][entry][key] = value`."""
    def edit(doc):
        doc[table][entry][key] = value
    return edit


def _drop(table, entry, key):
    def edit(doc):
        del doc[table][entry][key]
    return edit


def _arc(entry, base, recv):
    """A document edit that moves a transporter onto the arc `base -> recv`."""
    def edit(doc):
        item = doc["transporters"][entry]
        (item["base_node"], item["base_time"]), (item["recv_node"], item["recv_time"]) = base, recv
    return edit


# instance edits that the schema check refuses: a fault at the first and at
# the last entry of each table, and the graph's own faults
SCHEMA_FAULTS = {
    "time-step-zero": lambda doc: doc.update(time_step=0),
    "arcs-first": _set("arcs", 0, "base_time", "0"),
    "arcs-last": _drop("arcs", -1, "recv_node"),
    "arcs-backward": _set("arcs", -1, "recv_time", 0),
    "arcs-unknown-node": _set("arcs", 0, "base_node", "nowhere"),
    "arcs-past-grid": _set("arcs", 0, "recv_time", 99),
    "arcs-beyond-int64": _set("arcs", 0, "recv_time", 10**20),
    "arcs-backward-before-field-fault": lambda doc: [
        _set("arcs", 0, "base_time", 5)(doc), _drop("arcs", -1, "recv_node")(doc)
    ],
    "suppliers-first": _set("suppliers", 0, "capacity", True),
    "suppliers-last": _set("suppliers", -1, "note", "x"),
    "consumers-first": _drop("consumers", 0, "time"),
    "consumers-last": _set("consumers", -1, "id", 7),
    "transporters-first": _set("transporters", 0, "recv_time", -1),
    "transporters-last": _set("transporters", -1, "bid", None),
    "transporters-self-loop": _arc(3, ("hub", 2), ("hub", 2)),
    "technologies-first": _set("technologies", 0, "inputs", {"waste": "1"}),
    "technologies-last": _set("technologies", -1, "outputs", []),
    "technologies-not-object": lambda doc: doc["technologies"].append("tec"),
    # not a fault: a repeated arc is one arc of the graph, and the market clears
    "arcs-repeated": lambda doc: doc["arcs"].append(doc["arcs"][0]),
}


# instance edits that validation refuses, one per violation code (a repeated
# product is a schema error of the file) and a time index beyond int64, then
# all of them at once
VIOLATIONS = {
    "DuplicateProduct": lambda doc: doc["products"].append(doc["products"][0]),
    "UnknownNode": _set("suppliers", 3, "node", "nowhere"),
    "TimeOutOfRange": _set("consumers", -1, "time", 99),
    "TimeOutOfRange-beyond-int64": _set("suppliers", 0, "time", 10**20),
    "NonFiniteNumber": _set("transporters", 2, "capacity", float("inf")),
    "NegativeCapacity": _set("suppliers", 0, "capacity", -2.5),
    "UnknownProduct": _set("transporters", -1, "product", "biogas"),
    "DuplicateId": lambda doc: _set("technologies", 1, "id", doc["suppliers"][4]["id"])(doc),
    "UnknownArc": _arc(0, ("hub", 0), ("hub", 1)),
    "NegativeTransportBid": _set("transporters", 1, "bid", -0.25),
    "NegativeTechnologyBid": _set("technologies", 0, "bid", -1.0),
    "EmptyYieldSet": _set("technologies", -1, "outputs", {}),
    "OverlappingProducts": _set("technologies", 2, "outputs", {"electricity": 0.07, "waste": 0.5}),
    "NonPositiveYield": _set("technologies", 1, "outputs", {"electricity": 0.0, "heat": -1.0}),
    "ReferenceNotInInputs": _set("technologies", 0, "reference", "electricity"),
    "ReferenceYieldNotUnity": _set("technologies", 3, "inputs", {"waste": 2.0}),
}


def _csv_edit(name, edit):
    """A solution-directory edit: `edit(rows)` of the file `name`, the header
    first."""
    def apply(solution: Path):
        path = solution / name
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
    return apply


def _cell(row, column, value):
    def edit(rows):
        rows[row][column] = value
        return rows
    return edit


# solution-directory edits that `audit --solution-dir` refuses
SOLUTION_FAULTS = {
    "allocations-unknown": _csv_edit("allocations.csv", _cell(3, 0, "nobody")),
    "allocations-duplicate": _csv_edit("allocations.csv", lambda rows: rows + rows[2:3]),
    "allocations-missing": _csv_edit("allocations.csv", lambda rows: rows[:-1]),
    "allocations-not-a-number": _csv_edit("allocations.csv", _cell(-1, 2, "x")),
    "prices-unknown-time": _csv_edit("prices.csv", _cell(2, 1, "99.000000000")),
    "prices-unknown-row": _csv_edit("prices.csv", _cell(1, 0, "nowhere")),
    "prices-duplicate": _csv_edit("prices.csv", lambda rows: rows + rows[1:2]),
    "prices-missing": _csv_edit("prices.csv", lambda rows: rows[:1] + rows[2:]),
}


def _error_paths(instance: str, root: Path) -> list[str]:
    """The commands that fail on edits of `instance` and of its solution."""
    lines = []
    errors = root / "errors"
    errors.mkdir()
    base = json.loads(Path(instance).read_text(encoding="utf-8"))
    edits = {**SCHEMA_FAULTS, **VIOLATIONS}
    edits["all-violations"] = lambda doc: [edit(doc) for edit in list(VIOLATIONS.values())[1:]]
    for name, edit in edits.items():
        doc = copy.deepcopy(base)
        edit(doc)
        path = errors / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        clear = ["clear", "--instance", str(path), "--out-dir", str(errors / name)]
        lines.append(_run(clear, root))
    solution = Path(instance).parent / "solution"
    for name, edit in SOLUTION_FAULTS.items():
        copied = errors / name
        shutil.copytree(solution, copied)
        edit(copied)
        lines.append(_run(["audit", "--instance", instance, "--solution-dir", str(copied)], root))
    return lines


def _integer_twin(instance: str, root: Path) -> list[str]:
    """`clear` and `audit --solution-dir --out` on `instance` with every
    integral capacity, bid and yield written as a JSON integer."""
    whole = lambda value: int(value) if value.is_integer() else value
    doc = json.loads(Path(instance).read_text(encoding="utf-8"))
    for key in TABLES:
        for item in doc[key]:
            item["capacity"], item["bid"] = whole(item["capacity"]), whole(item["bid"])
            for field in ("inputs", "outputs"):
                if field in item:
                    item[field] = {p: whole(g) for p, g in item[field].items()}
    case = root / f"{Path(instance).stem}-integers"
    case.mkdir()
    path = case / f"{case.name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    solution = str(case / "solution")
    return [
        _run(["clear", "--instance", str(path), "--out-dir", solution], root),
        _run(["audit", "--instance", str(path), "--solution-dir", solution,
              "--out", str(case / "audit_solution.json")], root),
    ]


# what the quoting twin adds to every stakeholder id, and its name of `hub`
ID_MARK = 'id,"q"\n'
HUB = 'hub,"north"\n'


def _quoting_twin(instance: str, root: Path) -> list[str]:
    """`clear`, `audit --solution-dir --out` and `compare` on `instance` with
    `ID_MARK` before every stakeholder id and node `hub` renamed `HUB`; both
    keep the order of the ids and of the nodes."""
    rename = lambda node: HUB if node == "hub" else node
    doc = json.loads(Path(instance).read_text(encoding="utf-8"))
    doc["nodes"] = list(map(rename, doc["nodes"]))
    for item in doc["arcs"] + [item for key in TABLES for item in doc[key]]:
        for field in ("node", "base_node", "recv_node"):
            if field in item:
                item[field] = rename(item[field])
        if "id" in item:
            item["id"] = ID_MARK + item["id"]
    case = root / f"{Path(instance).stem}-quoting"
    case.mkdir()
    path = case / f"{case.name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    solution = str(case / "solution")
    return [
        _run(["clear", "--instance", str(path), "--out-dir", solution], root),
        _run(["audit", "--instance", str(path), "--solution-dir", solution,
              "--out", str(case / "audit_solution.json")], root),
        _run(["compare", "--instance", str(path), "--out", str(case / "compare")], root),
    ]


def digest(root: Path) -> list[str]:
    lines = []
    instances = []
    for variant, farms, processors, hours, seed in cases():
        name = f"{variant}-{farms}x{processors}x{hours}-s{seed}"
        case = root / name
        case.mkdir()
        instance = str(case / f"{name}.json")
        instances.append(instance)
        solution = str(case / "solution")
        commands = [
            ["generate", "--farms", str(farms), "--processors", str(processors),
             "--hours", str(hours), "--seed", str(seed), "--variant", variant,
             "--out", instance],
            ["clear", "--instance", instance, "--out-dir", solution],
            ["audit", "--instance", instance, "--out", str(case / "audit.json")],
            ["audit", "--instance", instance, "--solution-dir", solution,
             "--out", str(case / "audit_solution.json")],
        ]
        lines += [_run(argv, root) for argv in commands]
    # the benchmark-size instances, generated only
    big = root / "generate-only"
    big.mkdir()
    for variant in Variant:
        name = f"{variant.value}-8x4x72-s7.json"
        lines.append(_run(["generate", "--farms", "8", "--processors", "4", "--hours", "72",
                           "--seed", "7", "--variant", variant.value,
                           "--out", str(big / name)], root))
    # the same comparison in one process and across a pool of two workers
    for out, jobs in (("compare", "1"), ("compare-jobs2", "2")):
        compare = ["compare", "--out", str(root / out), "--jobs", jobs]
        for instance in instances:
            compare += ["--instance", instance]
        lines.append(_run(compare, root))
    # no iteration allowed: the exit code of an iteration limit
    first = instances[0]
    lines.append(_run(["clear", "--instance", first, "--out-dir", str(root / "limit"),
                       "--max-iters", "0"], root))
    lines.append(_run(["compare", "--instance", first, "--out", str(root / "compare-limit"),
                       "--max-iters", "0"], root))
    lines += _error_paths(instances[0], root)
    lines += _integer_twin(instances[0], root)
    lines += _quoting_twin(instances[0], root)
    files = sorted(p for p in root.rglob("*") if p.is_file())
    lines += [f"file {p.relative_to(root).as_posix()} {_sha(p.read_bytes())}" for p in files]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file to write the digest lines to")
    args = parser.parse_args(argv)
    print(f"stclear from {stclear.__file__}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest(Path(tmp))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
