"""The README's library quickstart runs against the current API, and its
command-line section names the parser's flags."""

import argparse
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_names_exactly_the_parser_flags():
    """The ``--flag``s of README's Command line section are the option strings
    of the subcommands: a removed flag cannot linger there, and a new one
    cannot go undocumented."""
    from gradflow.cli import build_parser

    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    flags = {option for parser in commands.values() for action in parser._actions
             for option in action.option_strings if option.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z0-9-]*", section)) == flags
