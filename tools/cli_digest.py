"""Digest of the `stclear` CLI outputs on a fixed set of generated cases.

For each case it runs, in-process through `stclear.cli_io.main`, `generate`,
`clear`, `audit --out` and `audit --solution-dir --out`; then `compare` runs
over all the generated instances twice, with `--jobs 1` and `--jobs 2`.
Last, `clear --max-iters 0` and `compare --max-iters 0` run on the first
case, so the exit codes of a non-optimal clearing are covered too, and
`generate` alone runs for the 4 variants at 8x4x72, the size the benchmark
clears.  It writes one line per output file with its SHA-256, and one line
per command with its exit code and the SHA-256 of its stdout and stderr.  The
temporary directory is masked as `<tmp>` in the captured text, so two source
trees give the same CLI bytes on these cases when their digests are equal:

    PYTHONPATH=src python3 tools/cli_digest.py --out new.txt
    PYTHONPATH=/path/to/other/tree/src python3 tools/cli_digest.py --out old.txt
    diff old.txt new.txt

The cases are the 4 variants at 3x2x6 and 4x2x12 (farms x processors x
hours) with seeds 1 and 7, plus 8x4x24 `base` at seed 7: 17 cases, and
the 4 generated-only instances, 76 commands and 193 output files, about 7 s.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import stclear
from stclear.cli_io import main as stclear_main
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
