"""The mutant list of `tests/mutants.py` still applies to the code as it is,
and the runner leaves nothing behind when it is stopped.

Running the mutants is opt-in (`python tests/mutants.py`); the first test
only checks that each mutant's old text occurs exactly once in `src/`, in the
file the mutant names, so that a rewrite of the code cannot leave a mutant
that mutates nothing.  The second starts the runner and stops it with SIGTERM
while its first mutant runs.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time

import pytest

from mutants import MUTANTS, ROOT


def test_each_old_text_occurs_once_in_src():
    sources = {path: path.read_text() for path in (ROOT / "src").rglob("*.py")}
    for mutant in MUTANTS:
        where = {path: text.count(mutant.old) for path, text in sources.items()
                 if mutant.old in text}
        assert where == {ROOT / mutant.file: 1}, mutant.name
        assert mutant.new != mutant.old, mutant.name


def test_sigterm_kills_the_running_subset_and_removes_the_copy(tmp_path):
    first = MUTANTS[0]
    runner = subprocess.Popen([sys.executable, str(ROOT / "tests" / "mutants.py")],
                              env=dict(os.environ, TMPDIR=str(tmp_path)),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              start_new_session=True)
    pgid = runner.pid  # the leader of a new session heads its own process group
    try:
        deadline = time.monotonic() + 60
        # the copy exists, and the first mutant is written: its subset is starting
        while not any(first.new in path.read_text()
                      for path in tmp_path.glob(f"*/repo/{first.file}")):
            assert runner.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.3)
        runner.send_signal(signal.SIGTERM)
        assert runner.wait(timeout=60) == 128 + signal.SIGTERM
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ProcessLookupError):
            os.killpg(pgid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
        runner.wait()
