"""Correctness gate: exit codes, verdicts, and payloads against references.

A payload is reduced to the fields this benchmark knows (polynomial terms,
matrix entries, check names with their `ok` flags, ...) before it is hashed,
so keys that later versions add to the JSON, such as a per-check
`"evaluated"` count, do not count as failures.  The references are the
sha256 digests of these reduced payloads, recorded by
`record_references.py`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

_EIGEN_KEYS = ("d", "k", "n", "gamma", "eigenvalue", "count", "rank", "expected_dim",
               "eigen_ok", "rank_ok", "orthogonal_to_lower_degree", "vertices_vanish",
               "failures", "ok")
_GRAM_KEYS = ("spec", "rows", "cols", "matrix", "all_zero", "diagonal",
              "positive_definite")


def _pick(obj: dict, keys) -> dict:
    return {k: obj.get(k) for k in keys}


def reduce_payload(command: str, payload: dict):
    """The part of a CLI payload that the references cover."""
    if command == "verify":
        return {"suite": payload.get("suite"), "ok": payload.get("ok"),
                "params": payload.get("params"),
                "checks": [_pick(c, ("name", "ok", "detail"))
                           for c in payload.get("checks", [])]}
    if command == "eigen":
        return _pick(payload, _EIGEN_KEYS)
    if command == "gram":
        return _pick(payload, _GRAM_KEYS)
    if command == "basis":
        return {"family": payload.get("family"), "d": payload.get("d"),
                "gamma": payload.get("gamma"),
                "elements": [{"key": e.get("key"),
                              "terms": [_pick(t, ("exp", "coef"))
                                        for t in e.get("poly", {}).get("terms", [])]}
                             for e in payload.get("elements", [])]}
    return payload


def digest(command: str, payload: dict) -> str:
    reduced = reduce_payload(command, payload)
    text = json.dumps(reduced, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_references() -> dict[str, str]:
    with open(REFERENCES) as fh:
        return json.load(fh)


def failure(request, exit_code: int, stdout: str, stderr: str,
            references: dict[str, str] | None) -> str | None:
    """Why the outcome of `request` is wrong, or None when it is right.
    With `references` None the payload is not compared (used to record)."""
    if exit_code != request.exit_code:
        return f"exit code {exit_code}, expected {request.exit_code}"
    if request.exit_code != 0:
        if stdout:
            return "output on stdout for a refused request"
        if request.stderr not in stderr:
            return f"stderr lacks {request.stderr!r}"
        return None
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if request.verdict is not None and payload.get(request.verdict) is not True:
        return f"verdict {request.verdict} is not true"
    if references is None:
        return None
    want = references.get(request.key)
    if want is None:
        return "no reference payload for this request"
    if digest(request.argv[0], payload) != want:
        return "payload differs from the reference"
    return None
