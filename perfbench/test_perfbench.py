"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import Oracle, partition_numbers, pentagonal_signs, requests

HERE = Path(__file__).resolve().parent
ENV = run.child_env()
SMALL = {
    "expand": [["expand", "--method", "all", "--order", "40", "--format", f] for f in ("text", "json")],
    "partition": [["partition", opt, "60", "--format", f] for opt in ("--n", "--upto") for f in ("text", "json")],
    "verify": [["verify", "--depth", "2", "--order", "60", "--roots", "6"]],
}
COUNT_SUFFIXES = ("calls", "elem_ops", "mul_ops", "entries", "terms", "hits", "misses",
                  "hit_ratio", "useful_ratio", "stdout_bytes")


def cli(argv):
    proc = subprocess.run(run.cli_cmd(argv), env=ENV, cwd=run.ROOT, capture_output=True, check=True)
    return proc.stdout


def first_requests(workload, seed, count=40):
    return list(itertools.islice(itertools.chain.from_iterable(requests(workload, seed)), count))


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(run.BLOCKS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", sorted(run.BLOCKS))
def test_request_list_is_a_function_of_the_seed(workload):
    assert first_requests(workload, 7) == first_requests(workload, 7)
    assert first_requests(workload, 7) != first_requests(workload, 8)


def test_oracle_tables():
    assert [partition_numbers(10)[n] for n in (0, 1, 4, 10)] == [1, 1, 5, 42]
    assert partition_numbers(100)[100] == 190569292
    assert pentagonal_signs(26) == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}


def _corrupt(argv, out: bytes) -> bytes:
    """One wrong number in a correct reply."""
    text = out.decode()
    if argv[0] == "expand":
        if "json" in argv:
            return text.replace('"0"', '"1"', 1).encode()
        return text.replace("x^5", "x^6", 1).encode()
    if argv[0] == "partition":
        value = str(partition_numbers(60)[60])
        return text.replace(value, str(int(value) + 1)).encode()
    return text.replace("measured=3", "measured=2", 1).encode()


@pytest.mark.parametrize("argv", [a for w in sorted(SMALL) for a in SMALL[w]], ids=" ".join)
def test_oracle_accepts_reply_and_flags_one_wrong_number(argv):
    oracle = Oracle(argv[0])
    out = cli(argv)
    assert oracle.check(argv, 0, out) is None
    bad = _corrupt(argv, out)
    assert bad != out
    assert oracle.check(argv, 0, bad) is not None
    assert oracle.check(argv, 1, out) is not None


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_stdout_is_byte_identical(workload, tmp_path):
    argv = first_requests(workload, 3, 1)[0]
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(run.TRACER), str(spans), "0", *argv],
                            env=ENV, cwd=run.ROOT, capture_output=True, check=True)
    assert traced.stdout == cli(argv)
    totals = run.layer_totals(json.loads(spans.read_text()))
    assert totals["cli.main.calls"] == 1


@pytest.mark.parametrize("workload", sorted(run.BLOCKS))
def test_computed_counts_repeat_with_the_same_seed(workload):
    oracle = Oracle(workload)
    (a, log_a), (b, log_b) = (run.traced_run(workload, 5, 0, ENV, oracle) for _ in range(2))
    assert [r["error"] for r in log_a + log_b] == [None] * (len(log_a) + len(log_b))
    counts = [name for name in run.per_layer_units() if name.endswith(COUNT_SUFFIXES)]
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    assert a["cli.stdout_bytes"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "expand", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
