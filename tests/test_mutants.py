"""The mutant list of `scripts/mutants.py` stays current: every mutant's old
text occurs exactly once in its file, and no mutant is a no-op. Running the
mutants takes a tier-1 run each, so that stays in the script."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "scripts", "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_old_text_occurs_exactly_once():
    mutants = load_mutants()
    assert len(mutants.MUTANTS) >= 10
    assert mutants.unmatched() == []


def test_an_old_text_that_does_not_occur_once_is_reported():
    mutants = load_mutants()
    missing = mutants.Mutant("instances.py", "no such text", "x", "")
    twice = mutants.Mutant("instances.py", "raise ContractError", "x", "")
    problems = mutants.unmatched((missing, twice))
    assert [p.split(":")[0] for p in problems] == ["0 instances.py", "1 instances.py"]
