"""Output checks that do not trust the program under test.

Every check returns a list of problems (empty when the answer is right).
Covers are checked by OR-ing plain Python ints taken from the generator's
own masks, never through a ``repro`` kernel; stores are compared byte for
byte; coverability is recomputed the same way.  :func:`self_check_problems`
feeds each checker a corrupted answer and reports any checker that fails to
flag it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: Files a store keeps beside its entries whose names or contents depend on
#: the writing process (per-writer journals) rather than on the results.
STORE_BOOKKEEPING = ("stats_journal", "store_stats.json", "quarantine")


def cover_problems(label: str, masks: Sequence[int], n: int, solution: Iterable[int]) -> List[str]:
    """The solution's sets, OR-ed as plain ints, must equal ``[n]``."""
    union = 0
    for index in solution:
        if not 0 <= index < len(masks):
            return [f"{label}: set index {index} out of range"]
        union |= masks[index]
    full = (1 << n) - 1
    if union != full:
        missing = (full & ~union).bit_length() - 1
        return [f"{label}: cover misses {bin(full & ~union).count('1')} elements (e.g. {missing})"]
    return []


def pass_problems(label: str, passes: int, limit: int, exact: bool = False) -> List[str]:
    """``passes`` must equal ``limit`` (``exact``) or not exceed it."""
    if exact and passes != limit:
        return [f"{label}: {passes} passes, expected exactly {limit}"]
    if passes > limit:
        return [f"{label}: {passes} passes exceeds the bound {limit}"]
    return []


def algorithm1_pass_limit(alpha: int, cleanup_used: bool) -> int:
    """Theorem 2: 2α+1 passes, one more when the clean-up pass ran."""
    return 2 * alpha + 1 + (1 if cleanup_used else 0)


def special_pair_problems(
    alice: Sequence[int], bob: Sequence[int], special_index: Optional[int], n: int
) -> List[str]:
    """θ=1 D_SC: S_{i*} ∪ T_{i*} = [n], and no single set is [n]."""
    full = (1 << n) - 1
    problems = []
    if special_index is None:
        return ["theta=1 sample names no special pair"]
    if alice[special_index] | bob[special_index] != full:
        problems.append(f"special pair {special_index} does not cover [n]")
    singles = [i for i, mask in enumerate(list(alice) + list(bob)) if mask == full]
    if singles:
        problems.append(f"sets {singles[:3]} alone cover [n]")
    return problems


def store_entries(root: Path) -> Dict[str, bytes]:
    """Every result entry of a store directory, by relative path."""
    entries = {}
    for path in sorted(root.rglob("*")):
        relative = path.relative_to(root)
        if relative.parts[0] in STORE_BOOKKEEPING or not path.is_file():
            continue
        entries[relative.as_posix()] = path.read_bytes()
    return entries


def store_problems(entries: Mapping[str, bytes], reference: Mapping[str, bytes]) -> List[str]:
    """The sharded store must hold exactly the serial store's bytes."""
    if set(entries) != set(reference):
        extra = sorted(set(entries) ^ set(reference))
        return [f"store entry set differs from the serial run ({len(extra)} names, e.g. {extra[0]})"]
    differing = [name for name in entries if entries[name] != reference[name]]
    if differing:
        return [f"{len(differing)} store entries differ from the serial run (e.g. {differing[0]})"]
    return []


def result_payload_problems(entries: Mapping[str, bytes], reference: Mapping[str, bytes]) -> List[str]:
    """Traced stores add telemetry beside each result; the results must match."""
    if set(entries) != set(reference):
        return ["traced store entry set differs from the serial run"]
    for name, raw in entries.items():
        got, want = json.loads(raw), json.loads(reference[name])
        if (got["key"], got["result"]) != (want["key"], want["result"]):
            return [f"traced store entry {name} differs from the serial run"]
    return []


def grid_rows(entries: Mapping[str, bytes]) -> List[dict]:
    """The findings row of every grid cell, in entry-name order."""
    return [json.loads(raw)["result"]["findings"] for raw in entries.values()]


def feasibility_problems(rows: Sequence[Mapping], coverable: Mapping[str, bool], sizes: Mapping[str, tuple]) -> List[str]:
    """Each row's ``feasible`` must equal its instance's recomputed coverability."""
    problems = []
    for row in rows:
        workload = row["workload"]
        if (row["n"], row["m"]) != sizes[workload]:
            problems.append(f"{workload}/{row['algorithm']}: shape {(row['n'], row['m'])} != regenerated {sizes[workload]}")
        elif bool(row["feasible"]) != coverable[workload]:
            problems.append(
                f"{workload}/{row['algorithm']}/{row['order']}: feasible={row['feasible']} "
                f"but the instance is {'coverable' if coverable[workload] else 'uncoverable'}"
            )
    return problems


def union_of(masks: Iterable[int]) -> int:
    union = 0
    for mask in masks:
        union |= mask
    return union


def drop_needed_set(masks: Sequence[int], solution: Sequence[int]) -> List[int]:
    """The cover minus one set that alone covers some element of it."""
    for position, index in enumerate(solution):
        rest = union_of(masks[i] for i in solution[:position] + solution[position + 1:])
        if masks[index] & ~rest:
            return list(solution[:position]) + list(solution[position + 1:])
    return []


def flip_one_byte(entries: Mapping[str, bytes]) -> Dict[str, bytes]:
    corrupted = dict(entries)
    name = sorted(corrupted)[0]
    raw = bytearray(corrupted[name])
    raw[len(raw) // 2] ^= 0x01
    corrupted[name] = bytes(raw)
    return corrupted


def self_check_problems(cases: Mapping[str, List[str]]) -> List[str]:
    """Name every checker that returned no problem on its corrupted answer."""
    return [f"checker {name} did not flag a corrupted answer" for name, found in cases.items() if not found]
