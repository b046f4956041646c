"""The three benchmark workloads: seeded CLI argument lists and output checks.

A workload's op(i) is a short list of `quadspline` command lines that
run back to back through `quadspline.cli.main`. After each command
the workload checks the captured stdout (CSV) and raises CheckError when
the output is wrong. Inputs depend only on the seed.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import sys
from pathlib import Path

NAMES = ("tables", "solve-n200", "converge-cold")


class CheckError(Exception):
    """A command's output failed the workload's correctness check."""


def load_quadspline(root: Path):
    """Import quadspline from `root/src`, never from an installed copy."""
    src = (root / "src").resolve()
    if not (src / "quadspline" / "__init__.py").is_file():
        raise ImportError(f"no quadspline sources under {src}")
    sys.path.insert(0, str(src))
    import quadspline

    if Path(quadspline.__file__).resolve().parent != src / "quadspline":
        raise ImportError(f"quadspline imported from {quadspline.__file__}, "
                          f"not from {src}")
    return quadspline


def _rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _within_tolerance(check: str, value: str, published: float) -> bool:
    """The published tolerance of one table cell (see registry.TableCell)."""
    if check == "external":
        return value == ""
    if value == "":
        return False
    x = float(value)
    if check == "factor2":
        return 0.5 <= x / published <= 2.0
    if check == "order":
        return 0.1 <= x / published <= 10.0
    if check == "order_upper":
        return x <= 10.0 * published
    if check == "sigfigs4":
        return f"{x:.3e}" == f"{published:.3e}"
    raise CheckError(f"unknown check kind {check!r}")


def _golden_walk(i: int, offset: int, width: int) -> int:
    """Point i of a seeded low-discrepancy walk over range(width).

    The step is the integer nearest width / golden ratio that is coprime to
    width, so the first `width` points are distinct and any few consecutive
    points spread evenly over the range. A run whose ops walk it does about
    the same work, and holds about the same memory, whatever its offset.
    """
    step = round(width * 0.6180339887)
    while math.gcd(step, width) != 1:
        step += 1
    return (offset + i * step) % width


class Tables:
    """`reproduce --table all`: every published cell of tables 1-8.

    The inputs are the published tables, so the seed has nothing to vary.
    """

    def __init__(self, seed: int):
        from quadspline import registry

        self.cells = [cell for t in sorted(registry.TABLES)
                      for cell in registry.TABLES[t]]
        self.csv_sha256 = None

    def op(self, i: int) -> list[list[str]]:
        return [["reproduce", "--table", "all"]]

    def op_info(self, i: int) -> dict:
        return {}

    def check(self, argv: list[str], out: str) -> None:
        rows = _rows(out)
        if len(rows) != len(self.cells):
            raise CheckError(f"{len(rows)} rows, expected {len(self.cells)}")
        for row, cell in zip(rows, self.cells):
            if (row["id"], int(row["n"])) != (cell.entry_id, cell.n):
                raise CheckError(f"row {row} out of table order")
            if not _within_tolerance(cell.check, row["value"], cell.published):
                raise CheckError(f"cell {cell} missed tolerance: {row['value']}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.csv_sha256 is None:
            self.csv_sha256 = digest
        elif digest != self.csv_sha256:
            raise CheckError("CSV differs from the first op of this run")


class SolveN200:
    """One Fredholm-2 and one Volterra-2 `solve` at a seeded n in [190, 210].

    The ops walk the 21 values of n from a seeded offset (see _golden_walk)
    and alternate between the two Volterra-2 problems from a seeded start.
    """

    # The seed code reaches l2 ~ 8e-8 and nodal max ~ 2e-10 at these n.
    L2_BOUND = 1e-6
    MAX_BOUND = 1e-8
    N_LO, N_HI = 190, 210
    VOLTERRA = ("krasnov3", "malek1")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.offset = rng.randrange(self.N_HI - self.N_LO + 1)
        self.first = rng.randrange(len(self.VOLTERRA))

    def _plan(self, i: int) -> tuple[int, str]:
        n = self.N_LO + _golden_walk(i, self.offset, self.N_HI - self.N_LO + 1)
        return n, self.VOLTERRA[(self.first + i) % len(self.VOLTERRA)]

    def op(self, i: int) -> list[list[str]]:
        n, volterra = self._plan(i)
        return [["solve", "-p", pid, "--n", str(n)]
                for pid in ("krasnov1", volterra)]

    def op_info(self, i: int) -> dict:
        n, volterra = self._plan(i)
        return {"n": n, "volterra": volterra}

    def check(self, argv: list[str], out: str) -> None:
        got = {row["metric"]: float(row["value"]) for row in _rows(out)}
        for metric, bound in (("l2_norm_error", self.L2_BOUND),
                              ("max_error", self.MAX_BOUND)):
            value = got.get(metric)
            if value is None or not math.isfinite(value) or not value <= bound:
                raise CheckError(f"{' '.join(argv)}: {metric}={value} "
                                 f"not within {bound}")


class ConvergeCold:
    """`converge -p sin2pix` over 8 seeded ascending n, none repeated in a run.

    [10, 1300] is cut into 8 equal strata of at least WIDTH values; op i
    takes the same position in every stratum, point i of a walk over
    range(WIDTH) from a seeded offset (see _golden_walk). An n comes back
    only after WIDTH ops, far more than the 8 ops the 64-entry coefficient
    cache holds, so every coefficient matrix is built cold, as in a fresh
    `quadspline converge` process.
    """

    LO, HI, STRATA = 10, 1300, 8
    WIDTH = (HI + 1 - LO) // STRATA

    def __init__(self, seed: int):
        self.starts = [self.LO + (self.HI + 1 - self.LO) * k // self.STRATA
                       for k in range(self.STRATA)]
        self.offset = random.Random(seed).randrange(self.WIDTH)

    def ns(self, i: int) -> list[int]:
        j = _golden_walk(i, self.offset, self.WIDTH)
        return [start + j for start in self.starts]

    def op(self, i: int) -> list[list[str]]:
        return [["converge", "-p", "sin2pix",
                 "--ns", ",".join(map(str, self.ns(i)))]]

    def op_info(self, i: int) -> dict:
        return {"ns": self.ns(i)}

    def check(self, argv: list[str], out: str) -> None:
        rows = _rows(out)
        want = [int(n) for n in argv[-1].split(",")]
        if [int(r["n"]) for r in rows] != want:
            raise CheckError(f"rows for n={[r['n'] for r in rows]}, want {want}")
        for r in rows:
            dev = float(r["max_deviation"])
            if r["within_bound"] != "1" or not 0.0 < dev <= float(r["bound"]):
                raise CheckError(f"n={r['n']}: deviation {dev} vs bound {r['bound']}")


def make(name: str, seed: int):
    return {"tables": Tables, "solve-n200": SolveN200,
            "converge-cold": ConvergeCold}[name](seed)
