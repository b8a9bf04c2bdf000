import os

import mutants


def test_every_mutant_edits_one_place():
    # A kept mutant whose old text is gone or ambiguous no longer tests
    # anything; see tests/mutants.py for how to run them.
    for name, path, old, new in mutants.MUTANTS:
        with open(os.path.join(mutants.ROOT, path)) as fh:
            assert fh.read().count(old) == 1, name
        assert old != new, name
    assert len({m[0] for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
