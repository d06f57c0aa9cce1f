"""Output check: digests of simulated outputs against a committed reference.

A pass of a workload yields two kinds of output:

* the formatted table of every experiment, and
* per simulated config, its benchmark, design, ``l1_misses``,
  ``l2_misses`` and ``mmu_counters``.

Each is reduced to a short SHA-256 digest. ``reference.json`` holds the
digests for the default seed and one held-out seed. Configs are
compared as a multiset of digests, so a change that only renames or
adds a config field does not count as a changed output; a changed
result shows as a reference digest with no observed match. For any
other seed there is no reference: the check reports ``unchecked`` and
relies on the passes of one run agreeing with each other and on the
invariants in :func:`config_invariant_errors`.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def digest(payload) -> str:
    text = payload if isinstance(payload, str) else json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def config_digest(result) -> str:
    """Digest of one config's simulated outputs."""
    config = result.config
    return digest(
        [
            config.benchmark,
            config.design.value,
            int(result.l1_misses),
            int(result.l2_misses),
            sorted(
                (name, int(value))
                for name, value in result.mmu_counters.values.items()
            ),
        ]
    )


def config_invariant_errors(result) -> List[str]:
    """Seed-independent sanity checks on one config's outputs."""
    config = result.config
    label = f"{config.benchmark}/{config.design.value}"
    errors = []
    if result.accesses != config.accesses:
        errors.append(
            f"{label}: {result.accesses} accesses simulated, "
            f"{config.accesses} configured"
        )
    if not 0 <= result.l2_misses <= result.l1_misses <= result.accesses:
        errors.append(
            f"{label}: expected 0 <= l2_misses ({result.l2_misses}) <= "
            f"l1_misses ({result.l1_misses}) <= accesses ({result.accesses})"
        )
    return errors


@dataclass
class PassOutputs:
    """Digests of one pass, as sent from the pass process to the parent."""

    tables: Dict[str, str] = field(default_factory=dict)
    configs: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def as_json(self) -> dict:
        return {
            "tables": dict(self.tables),
            "configs": sorted(self.configs),
            "errors": list(self.errors),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PassOutputs":
        return cls(dict(data["tables"]), list(data["configs"]),
                   list(data["errors"]))

    def fingerprint(self) -> str:
        """One digest of everything simulated, for pass-to-pass checks."""
        return digest({"tables": self.tables, "configs": sorted(self.configs)})


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking one pass.

    ``status`` is ``"checked"`` when a reference exists for the seed and
    ``"unchecked"`` otherwise; ``failed`` counts failed configs plus
    mismatched tables, capped at ``attempted``.
    """

    status: str
    attempted: int
    failed: int
    messages: List[str]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    if not path.is_file():
        return {"seeds": {}}
    return json.loads(path.read_text(encoding="utf-8"))


def reference_for(reference: dict, seed: int, workload: str) -> Optional[dict]:
    return reference.get("seeds", {}).get(str(seed), {}).get(workload)


def check_pass(outputs: PassOutputs, expected: Optional[dict]) -> CheckResult:
    """Compare one pass with the reference entry (``None``: unchecked)."""
    messages = list(outputs.errors)
    if expected is None:
        attempted = max(1, len(outputs.configs))
        failed = min(attempted, len(outputs.errors))
        return CheckResult("unchecked", attempted, failed, messages)

    want = Counter(expected["configs"])
    have = Counter(outputs.configs)
    missing = sum((want - have).values())
    unexpected = sum((have - want).values())
    if missing or unexpected:
        messages.append(
            f"{missing} reference config digests unmatched, "
            f"{unexpected} observed digests not in the reference"
        )
    bad_tables = sorted(
        exp_id
        for exp_id, want_digest in expected["tables"].items()
        if outputs.tables.get(exp_id) != want_digest
    )
    if bad_tables:
        messages.append(f"tables differ from the reference: {bad_tables}")
    attempted = max(1, len(want), len(outputs.configs))
    failed = min(
        attempted,
        max(missing, unexpected) + len(bad_tables) + len(outputs.errors),
    )
    return CheckResult("checked", attempted, failed, messages)


def reference_entry(outputs: PassOutputs) -> dict:
    """What ``--update-reference`` records for one seed and workload."""
    data = outputs.as_json()
    return {"tables": data["tables"], "configs": data["configs"]}
