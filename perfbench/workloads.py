"""The benchmark's workloads: CLI task lists and the checks on their outputs.

A task is one `laurent-eulerian` invocation (an argv list for
`laurent_eulerian.cli.main`) plus a check on its parsed JSON report.  The
checks compare against `EULERIAN`, a table the benchmark holds itself, so a
wrong answer is caught even if the program's own agreement flag is wrong too.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

# <N, k>: permutations of N elements with k ascents.  A window (m, n) has
# degree <m+n-1, m-1>.
EULERIAN = {
    (1, 0): 1,
    (2, 0): 1, (2, 1): 1,
    (3, 0): 1, (3, 1): 4, (3, 2): 1,
    (4, 0): 1, (4, 1): 11, (4, 2): 11, (4, 3): 1,
    (5, 0): 1, (5, 1): 26, (5, 2): 66, (5, 3): 26, (5, 4): 1,
    (9, 4): 156190,
}

MODP_FIELD = "32003"

Check = Callable[[dict, dict], Optional[str]]


@dataclass(frozen=True)
class Task:
    argv: tuple
    check: Check  # (report, table) -> None if correct, else the reason

    def verify(self, exit_code: int, stdout: str, table: dict) -> Optional[str]:
        """None when the task exited 0 and its report passes the check."""
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            report = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        try:
            return self.check(report, table)
        except (KeyError, TypeError, IndexError) as err:
            return f"unexpected report shape: {err!r}"


def degree(m: int, n: int, table: dict) -> int:
    return table[(m + n - 1, m - 1)]


def windows(max_total: int) -> list:
    return [(m, t - m) for t in range(2, max_total + 1) for m in range(1, t)]


def _cli(*args) -> tuple:
    return ("--format", "json") + tuple(str(a) for a in args)


def _check_theorem_matrix(max_total: int) -> Check:
    def check(report, table):
        cells = {(c["m"], c["n"]): c for c in report["result"]}
        if sorted(cells) != sorted(windows(max_total)):
            return f"cells {sorted(cells)}"
        for (m, n), c in sorted(cells.items()):
            want = degree(m, n, table)
            chow = None if m + n == 2 else want
            got = (c["status"], c["eulerian"], c["groebner_degree"],
                   c["intersection_degree"], c["unit_ideal"])
            if got != ("ok", want, want, chow, True):
                return f"cell ({m},{n}) reads {got}, expected degree {want}"
        if report["agreement"] is not True:
            return "agreement is not true"
        return None
    return check


def _check_degree(m: int, n: int) -> Check:
    def check(report, table):
        want = degree(m, n, table)
        r = report["result"]
        got = (r["groebner_degree"], r["intersection_degree"], r["eulerian"])
        if got != (want, None if m + n == 2 else want, want):
            return f"degree ({m},{n}) reads {got}, expected {want}"
        if report["agreement"] is not True:
            return "agreement is not true"
        return None
    return check


def _check_unit_basis(report, table):
    if report["result"] != ["1"]:
        return f"unit basis reads {report['result']}"
    return None


def _check_hilbert(m: int, n: int) -> Check:
    def check(report, table):
        r = report["result"]
        dims, want = r["dims"], degree(m, n, table)
        if r["total"] != want or sum(dims) != want:
            return f"total {r['total']} (dims sum {sum(dims)}), expected {want}"
        if dims != dims[::-1]:
            return f"dims {dims} are not palindromic"
        if report["agreement"] is not True:
            return "agreement is not true"
        return None
    return check


def _check_decomposition(m: int, n: int) -> Check:
    def check(report, table):
        r, want, N = report["result"], degree(m, n, table), m + n
        if r["total"] != want or r["expected"] != want:
            return f"total {r['total']}, expected {want}"
        rows = r["rows"]
        if [row["d"] for row in rows] != [d for d in range(1, N + 1) if N % d == 0]:
            return f"divisors {[row['d'] for row in rows]}"
        for row in rows:
            if row["orbit_count"] is None or row["deg_circle"] != N // row["d"] * row["orbit_count"]:
                return f"row d={row['d']} reads {row}"
        if sum(row["deg_circle"] for row in rows) != want:
            return "strata degrees do not sum to the total"
        if report["agreement"] is not True:
            return "agreement is not true"
        return None
    return check


def theorem_grid(seed: int) -> list:
    return [Task(_cli("theorem-matrix", "--max-total", 6), _check_theorem_matrix(6))]


def hilbert_slices(seed: int) -> list:
    return [Task(_cli("hilbert-slices", "--m", 3, "--n", 3, "--seed", seed),
                 _check_hilbert(3, 3))]


def orbit_decomposition(seed: int) -> list:
    return [Task(_cli("decomposition", "--m", 5, "--n", 5), _check_decomposition(5, 5))]


def modp_tasks(max_total: int, skip=()) -> list:
    tasks = []
    for m, n in windows(max_total):
        if (m, n) in skip:
            continue
        tasks.append(Task(_cli("degree", "--m", m, "--n", n, "--field", MODP_FIELD),
                          _check_degree(m, n)))
        tasks.append(Task(_cli("groebner", "--m", m, "--n", n, "--field", MODP_FIELD,
                               "--max-power", m + n), _check_unit_basis))
    return tasks


def modp_grid(seed: int) -> list:
    # (3,3) is left out: its two GF(p) tasks alone take about twice as long
    # as all the others together.
    return modp_tasks(6, skip={(3, 3)})


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "theorem-grid": theorem_grid,
    "hilbert-slices": hilbert_slices,
    "orbit-decomposition": orbit_decomposition,
    "modp-grid": modp_grid,
}


def tasks_for(workload: str, seed: int) -> list:
    """The workload's tasks for this seed, in the order the seed shuffles them to."""
    tasks = WORKLOADS[workload](seed)
    random.Random(seed).shuffle(tasks)
    return tasks
