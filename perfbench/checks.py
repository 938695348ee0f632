"""Output checks for the benchmark's operations.

Each check recomputes what it can with its own arithmetic, or tests a
property the method must have, and returns a list of problems (empty
when the output is right).  Nothing here imports mfblocks.
"""

from __future__ import annotations

import json
import math

CHECK_NAMES = (
    "dimensions", "group_relations", "embed_multiplicative", "corner_maps",
    "product_gate", "simple_census", "idempotent_head", "ext_quiver",
    "radical_powers", "pairing_recovery", "frobenius_mf", "isomorphisms",
)
EMBED_CHECKS = ("embed_multiplicative", "corner_maps", "product_gate")
KERNEL_CHECKS = ("idempotent_head", "ext_quiver")
EMBED_LIMIT = 2048      # side dimension ell^(p-1) * p of the dense tables
TABLE_LIMIT = 1 << 18   # field order ell^d of the exp/log tables


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def mult_order(a: int, n: int) -> int:
    k, x = 1, a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k


def field_degree(ell: int, p: int, r: int) -> int:
    return math.lcm(mult_order(ell, p), mult_order(ell, r))


def brute_mf(ell: int, r: int) -> int:
    """The least m >= 1 with ell^m = +-1 mod r."""
    m, x = 1, ell % r
    while x not in (1, r - 1):
        x = x * ell % r
        m += 1
    return m


def recipe(ell: int, n: int) -> tuple:
    """r = ell^n + 1 and the least prime p = 1 mod lcm(ell, r)."""
    r = ell ** n + 1
    step = math.lcm(ell, r)
    p = 1 + step
    while not is_prime(p):
        p += step
    return r, p


def allowed_skips(ell: int, p: int, r: int) -> set:
    """The checks whose tables do not fit at (ell, p, r)."""
    out = set()
    if ell ** (p - 1) * p > EMBED_LIMIT:
        out.update(EMBED_CHECKS)
    if ell ** field_degree(ell, p, r) > TABLE_LIMIT:
        out.update(KERNEL_CHECKS)
    return out


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_verify(text: str, ell: int, p: int, r: int, theta: int,
                 names=CHECK_NAMES) -> tuple:
    """Verify rows: (problems, failures, skips).

    A problem is a malformed report; a failure is a fail row or a skip
    that the table sizes at (ell, p, r) do not explain.
    """
    problems, failures, skips = [], [], 0
    try:
        rows = _json_lines(text)
    except json.JSONDecodeError as err:
        return [f"rows are not JSON lines: {err}"], [], 0
    want_params = {"ell": ell, "p": p, "r": r, "theta": theta}
    if [row.get("check") for row in rows] != list(names):
        problems.append(f"checks {[row.get('check') for row in rows]}"
                        f" != {list(names)}")
    may_skip = allowed_skips(ell, p, r)
    for row in rows:
        name, status = row.get("check"), row.get("status")
        if row.get("params") != want_params:
            problems.append(f"{name}: params {row.get('params')}")
        if status == "skip":
            skips += 1
            reason = (row.get("witness") or {}).get("reason")
            if name not in may_skip or not reason:
                failures.append(f"{name}: unexpected skip ({reason})")
        elif status != "pass":
            failures.append(f"{name}: {status} {row.get('witness')}")
    return problems, failures, skips


def _orbit_reps(p: int, r: int) -> list:
    """Least members of the orbits of F_p^* under its order-r subgroup."""
    sub = [x for x in range(1, p) if pow(x, r, p) == 1]
    return sorted({min(e * u % p for u in sub) for e in range(1, p)})


def quiver_vertices(p: int, r: int) -> list:
    reps = _orbit_reps(p, r)
    return (["(1,1)"] + [f"(phi{e},1)" for e in range(1, p)]
            + [f"(1,psi{e})" for e in range(1, p)]
            + [f"([phi{a}],[psi{b}])" for a in reps for b in reps])


def check_quiver(text: str, ell: int, p: int, r: int, theta: int) -> list:
    """Ext quiver JSON: vertex census and the one-sided block pattern."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"not JSON: {err}"]
    problems = []
    if doc.get("params") != {"ell": ell, "p": p, "r": r, "theta": theta}:
        problems.append(f"params {doc.get('params')}")
    names, M = doc.get("vertices"), doc.get("matrix")
    nv = 2 * p - 1 + ((p - 1) // r) ** 2
    if names != quiver_vertices(p, r) or len(names) != nv:
        return problems + [f"vertices {names} (want {nv})"]
    if not isinstance(M, list) or len(M) != nv or \
            any(not isinstance(row, list) or len(row) != nv for row in M):
        return problems + ["matrix is not square over the vertices"]
    left = [0] + list(range(1, p))
    right = [0] + list(range(p, 2 * p - 1))
    for fam in (left, right):
        for i in fam:
            for j in fam:
                want = 0 if i == j else 1
                if M[i][j] != want:
                    problems.append(f"one-sided {names[i]}->{names[j]}:"
                                    f" {M[i][j]} != {want}")
    for i in left[1:]:
        for j in right[1:]:
            if M[i][j] or M[j][i]:
                problems.append(f"across {names[i]}<->{names[j]} not 0")
    for i in range(2 * p - 1, nv):
        if M[i][i] < 1:
            problems.append(f"orbit pair {names[i]} has no self-extension")
    return problems


def check_recover(text: str, ell: int, p: int, r: int, theta: int) -> list:
    """Recovered exponents {theta, r-theta}; the pairing is a
    nondegenerate bicharacter of Z/r x Z/r."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"not JSON: {err}"]
    problems = []
    if doc.get("params") != {"ell": ell, "p": p, "r": r, "theta": theta}:
        problems.append(f"params {doc.get('params')}")
    if doc.get("recovered") != sorted({theta % r, (r - theta) % r}):
        problems.append(f"recovered {doc.get('recovered')} for theta"
                        f" {theta} mod {r}")
    table = {}
    for entry in doc.get("pairing") or []:
        table[(entry["chi"], entry["eta"])] = entry["value"]
    if sorted(table) != [(e, f) for e in range(r) for f in range(r)] \
            or len(doc["pairing"]) != r * r:
        return problems + ["pairing does not cover Z/r x Z/r once"]
    for e in range(r):
        for f in range(r):
            if table[(e, f)] != table[(1, e * f % r)]:
                problems.append(f"value({e},{f}) != value(1,{e * f % r})")
    if any(table[(0, k)] != 1 or table[(k, 0)] != 1 for k in range(r)):
        problems.append("row 0 or column 0 is not all 1")
    if len({table[(1, k)] for k in range(r)}) != r:
        problems.append("value(1, k) are not distinct: degenerate")
    return problems


def check_mf(text: str, ell: int, r: int = None, n: int = None) -> list:
    """mf against brute force; in recipe mode also r and p."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"not JSON: {err}"]
    if n is None:
        want = {"ell": ell, "r": r, "mf": brute_mf(ell, r)}
    else:
        r, p = recipe(ell, n)
        want = {"ell": ell, "n": n, "r": r, "p": p, "mf": brute_mf(ell, r)}
        if want["mf"] != n:
            return [f"recipe r={r} has brute mf {want['mf']} != {n}"]
    return [] if doc == want else [f"{doc} != {want}"]
