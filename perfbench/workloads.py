"""Seeded request lists for the three benchmark workloads, and the output oracle.

Nothing here imports pentaseries.  The oracle recomputes every expected reply
with its own code, so a reply is never checked against the program that made
it.

Requests come in blocks.  Each block draws one request from every stratum of
its workload's parameter ranges, in a shuffled order, so every seed covers
the same cost range evenly and a median over a run depends little on which
seed was drawn.  The ranges are sized so that one run of 30 s on a 2-core
machine completes at least 100 requests (see README.md).
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator

FORMATS = ("text", "json")

# Parameter ranges, [low, high), each cut into STRATA equal slices.
EXPAND_ORDER = (1200, 2400)
PARTITION_N = (2500, 6500)
PARTITION_UPTO = (1500, 5000)
VERIFY_STAGE_ORDER = (600, 1000)
VERIFY_STAGE_DEPTH = 4  # stratum i runs depth 4 + i
VERIFY_ROOTS_M = (16, 34)
VERIFY_ROOTS_ORDER = (250, 400)
STRATA = 5


def _strata(rng: random.Random, lo: int, hi: int, count: int = STRATA) -> list[int]:
    """One integer from each of `count` equal slices of [lo, hi), in slice order."""
    width = (hi - lo) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def _expand_block(rng: random.Random) -> list[list[str]]:
    return [
        ["expand", "--method", "all", "--order", str(n), "--format", rng.choice(FORMATS)]
        for n in _strata(rng, *EXPAND_ORDER, 2 * STRATA)
    ]


def _partition_block(rng: random.Random) -> list[list[str]]:
    block = [["partition", "--n", str(n)] for n in _strata(rng, *PARTITION_N)]
    block += [["partition", "--upto", str(n)] for n in _strata(rng, *PARTITION_UPTO)]
    return [argv + ["--format", rng.choice(FORMATS)] for argv in block]


def _verify_block(rng: random.Random) -> list[list[str]]:
    # Stage-heavy half: residual_series passes dominate.  Depth rises with the
    # order slice rather than being drawn, so that every block has the same
    # cost profile and a run's median depends little on the seed.
    block = [
        ["verify", "--depth", str(VERIFY_STAGE_DEPTH + i), "--order", str(n),
         "--roots", str(rng.randint(4, 10))]
        for i, n in enumerate(_strata(rng, *VERIFY_STAGE_ORDER))
    ]
    # Roots-heavy half: poly_divrem and convolve dominate; cost grows with M.
    block += [
        ["verify", "--depth", str(2 + i % 3), "--order", str(rng.randrange(*VERIFY_ROOTS_ORDER)),
         "--roots", str(m)]
        for i, m in enumerate(_strata(rng, *VERIFY_ROOTS_M))
    ]
    return block


BLOCKS = {"expand": _expand_block, "partition": _partition_block, "verify": _verify_block}


def requests(workload: str, seed: int) -> Iterator[list[str]]:
    """The workload's endless request list: whole shuffled blocks, from `seed`."""
    rng = random.Random(seed)
    make_block = BLOCKS[workload]
    while True:
        block = make_block(rng)
        rng.shuffle(block)
        yield block


def _opts(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


# ---------------------------------------------------------------- oracle


def pentagonal_signs(order: int) -> dict[int, int]:
    """Nonzero coefficients of prod (1 - x^k) up to x^order: (-1)^k at
    k(3k-1)/2 for every integer k."""
    signs = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        sign = -1 if k % 2 else 1
        signs[k * (3 * k - 1) // 2] = sign
        if k * (3 * k + 1) // 2 <= order:
            signs[k * (3 * k + 1) // 2] = sign
        k += 1
    return signs


def partition_numbers(n: int) -> list[int]:
    """p(0)..p(n) by Euler's pentagonal recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while k * (3 * k - 1) // 2 <= m:
            g = k * (3 * k - 1) // 2
            term = p[m - g] + (p[m - g - k] if g + k <= m else 0)
            total += term if k % 2 else -term
            k += 1
        p[m] = total
    return p


def parse_series_text(line: str) -> dict[int, int]:
    """Read "1 - x - x^2 + 3x^5" back into {exponent: coefficient}."""
    tokens = line.split(" ")
    first = tokens[0]
    terms = [("-", first[1:]) if first.startswith("-") else ("+", first)]
    terms += zip(tokens[1::2], tokens[2::2])
    if len(tokens) % 2 == 0:
        raise ValueError("dangling sign")
    coeffs: dict[int, int] = {}
    for sign, body in terms:
        if sign not in "+-" or len(sign) != 1:
            raise ValueError(f"bad separator {sign!r}")
        mag, x, power = body.partition("x")
        value = int(mag) if mag else 1
        exponent = (int(power[1:]) if power.startswith("^") else 1) if x else 0
        if exponent in coeffs or (x and power and not power.startswith("^")):
            raise ValueError(f"bad term {body!r}")
        coeffs[exponent] = value if sign == "+" else -value
    return {e: c for e, c in coeffs.items() if c}


class Oracle:
    """Checks replies; the partition table is built once, before timing."""

    def __init__(self, workload: str):
        hi = max(PARTITION_N[1], PARTITION_UPTO[1]) if workload == "partition" else 0
        self.p = partition_numbers(hi)

    def check(self, argv: list[str], returncode: int | None, stdout: bytes) -> str | None:
        """None when the reply is right, else a one-line reason."""
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            return getattr(self, f"_check_{argv[0]}")(_opts(argv), stdout.decode())
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            return f"unreadable reply: {exc!r}"

    def _check_expand(self, opts: dict[str, str], out: str) -> str | None:
        order = int(opts["--order"])
        signs = pentagonal_signs(order)
        if opts["--format"] == "json":
            payload = json.loads(out)
            if payload["order"] != order or len(payload["coeffs"]) != order + 1:
                return "wrong order"
            got = {e: int(c) for e, c in enumerate(payload["coeffs"]) if int(c)}
            if payload["agree"] != {"method1": True, "method2": True, "closed": True}:
                return f"methods disagree: {payload['agree']}"
        else:
            lines = out.split("\n")
            verdicts = ["method1: agree", "method2: agree", "closed: agree", "4 methods agree", ""]
            if lines[1:] != verdicts:
                return f"methods disagree: {lines[1:]}"
            got = parse_series_text(lines[0])
        if got != signs:
            bad = min(e for e in set(got) | set(signs) if got.get(e, 0) != signs.get(e, 0))
            return f"coefficient of x^{bad}: got {got.get(bad, 0)}, want {signs.get(bad, 0)}"
        return None

    def _check_partition(self, opts: dict[str, str], out: str) -> str | None:
        json_out = opts["--format"] == "json"
        if "--n" in opts:
            n = int(opts["--n"])
            payload = json.loads(out) if json_out else {"n": n, "p": out.rstrip("\n")}
            if payload["n"] != n or int(payload["p"]) != self.p[n]:
                return f"p({n}) wrong"
            return None
        n = int(opts["--upto"])
        payload = json.loads(out) if json_out else {"upto": n, "p": out.split()}
        values = [int(v) for v in payload["p"]]
        if payload["upto"] != n or values != self.p[: n + 1]:
            bad = next((i for i, (a, b) in enumerate(zip(values, self.p)) if a != b), len(values))
            return f"p(0..{n}) wrong from index {bad}"
        return None

    def _check_verify(self, opts: dict[str, str], out: str) -> str | None:
        depth, m = int(opts["--depth"]), int(opts["--roots"])
        want = [f"stage {meth} m={i}: pass" for meth in ("method1", "method2") for i in range(1, depth + 1)]
        want.append(f"division depth={depth}: pass")
        want += [f"root d={d} expected={m // d} measured={m // d} match" for d in range(1, m + 1)]
        want += ["all checks passed", ""]
        got = out.split("\n")
        if got != want:
            bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            return f"line {bad}: got {got[bad] if bad < len(got) else None!r}"
        return None
