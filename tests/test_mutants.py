"""The mutant list of `tests/mutants.py` still applies to the code as it is.

Running the mutants is opt-in (`python tests/mutants.py`); this cheap test
only checks that each mutant's old text occurs exactly once in `src/`, in the
file the mutant names, so that a rewrite of the code cannot leave a mutant
that mutates nothing.
"""

from mutants import MUTANTS, ROOT


def test_each_old_text_occurs_once_in_src():
    sources = {path: path.read_text() for path in (ROOT / "src").rglob("*.py")}
    for mutant in MUTANTS:
        where = {path: text.count(mutant.old) for path, text in sources.items()
                 if mutant.old in text}
        assert where == {ROOT / mutant.file: 1}, mutant.name
        assert mutant.new != mutant.old, mutant.name
