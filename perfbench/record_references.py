"""Record the reference payload digests for every request a seed can produce.

    python3 perfbench/record_references.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Requests already present in references.json are kept, so the
file only grows; delete it to record everything again.  A request that
fails its exit-code or verdict check is not recorded; it is listed and the
script exits 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from verdicts import REFERENCES, digest, failure
from workloads import WORKLOADS

JOBS = 2  # requests recorded at once; each is one single-threaded process


def record(request, env) -> tuple[str | None, str | None]:
    """(digest, None) for a request that passes its checks, else (None, why).
    Refused requests carry no payload, so their digest is None."""
    done = subprocess.run([sys.executable, "-m", "sobolex.cli", *request.argv],
                          capture_output=True, text=True, env=env)
    why = failure(request, done.returncode, done.stdout, done.stderr, None)
    if why is not None or request.exit_code != 0:
        return None, why
    return digest(request.argv[0], json.loads(done.stdout)), None


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    env.pop("SOBOLEX_THREADS", None)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    todo = {}
    for workload in WORKLOADS.values():
        for req in workload.universe():
            if req.key not in refs and req.key not in todo:
                todo[req.key] = req
    print(f"{len(refs)} recorded, {len(todo)} to record", flush=True)
    failed = []
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = pool.map(lambda r: record(r, env), todo.values())
        for i, (key, (sha, why)) in enumerate(zip(todo, results)):
            if why is not None:
                failed.append(f"{key}: {why}")
            elif sha is not None:
                refs[key] = sha
            if i % 50 == 0:
                print(f"{i}/{len(todo)}", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    for line in failed:
        print("FAILED " + line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
