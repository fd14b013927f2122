"""The README's `## CLI` section names exactly the options the CLI declares."""

import re
from pathlib import Path

import click

from clawpack.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def declared_options(cmd: click.Command) -> set[str]:
    opts = {o for p in cmd.params for o in (*p.opts, *p.secondary_opts) if o.startswith("--")}
    for sub in getattr(cmd, "commands", {}).values():
        opts |= declared_options(sub)
    return opts


def test_readme_cli_section_names_every_declared_option():
    text = README.read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert documented == declared_options(main)
