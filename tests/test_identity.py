"""Byte-identity of the default output on fixed seeds.

`scripts/identity_digests.py` holds the one table of commands: the `gen`
file of every family over a grid, the `solve` trace of each algorithm on
five inputs, `solve --exact`, one `bench` report, `verify` of a logimp trace
and of thirteen inputs' greedy and squareimp finals, `constants` and the
runs from tight d=5's small side. `tests/identity_digests.txt` pins its
output; a refactoring must leave every digest unchanged.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "tests", "identity_digests.txt"), encoding="utf-8") as _fh:
    PINNED = dict(line.split() for line in _fh)


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location(
        "identity_digests", os.path.join(ROOT, "scripts", "identity_digests.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cwd = os.getcwd()
    out = module.digests()
    assert os.getcwd() == cwd
    return out


def test_the_script_prints_exactly_the_pinned_keys(digests):
    assert list(digests) == list(PINNED)


@pytest.mark.parametrize("key", list(PINNED))
def test_default_output_is_pinned(digests, key):
    assert digests[key] == PINNED[key]
