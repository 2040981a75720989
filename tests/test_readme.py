"""The README's Python examples run as written, and its CLI synopsis names
the flags that the parser takes."""

import argparse
import re
from pathlib import Path

from stclear.cli_io import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_the_cli_synopsis_names_each_flag_of_its_command():
    block = re.search(r"^## CLI\n\n```\n(.*?)^```$", README.read_text(), re.M | re.S)[1]
    lines = [re.sub(r"[\[\]]", "", line).split() for line in block.splitlines()]
    assert lines and all(words[0] == "stclear" for words in lines)
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [words[1] for words in lines] == list(commands.choices)
    for words in lines:
        parser.parse_args(words[1:])  # a usage error exits 2
        flags = {
            flag
            for action in commands.choices[words[1]]._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
        }
        assert {w for w in words if w.startswith("-")} == flags, words[1]
