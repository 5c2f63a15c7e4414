import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pentaseries import bench, cli
from pentaseries.cli import canonical_json, format_series, main
from pentaseries.partitions import partition_series
from pentaseries.telescoping import verify_stage

from oracles import stage_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_series_signs_and_powers():
    s = (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)
    assert format_series(s) == "1 - x - x^2 + x^5 + x^7 - x^12"
    assert format_series((1,)) == "1"
    assert format_series((0, 0)) == "0"
    assert format_series((-1, 2)) == "-1 + 2x"
    assert format_series(partition_series(4)) == "1 + x + 2x^2 + 3x^3 + 5x^4"


def test_expand_closed_text(capsys):
    code, out, _ = run_cli(capsys, "expand", "--method", "closed", "--order", "12")
    assert code == 0
    assert out.strip() == "1 - x - x^2 + x^5 + x^7 - x^12"


def test_expand_order_zero(capsys):
    code, out, _ = run_cli(capsys, "expand", "--method", "closed", "--order", "0")
    assert code == 0
    assert out.strip() == "1"


@pytest.mark.parametrize("method", ["product", "method1", "method2"])
def test_expand_each_method_same_text(capsys, method):
    code, out, _ = run_cli(capsys, "expand", "--method", method, "--order", "26")
    assert code == 0
    assert out.strip() == "1 - x - x^2 + x^5 + x^7 - x^12 - x^15 + x^22 + x^26"


def test_expand_all_agree(capsys):
    code, out, _ = run_cli(capsys, "expand", "--method", "all", "--order", "100")
    assert code == 0
    assert "4 methods agree" in out
    for name in ("method1", "method2", "closed"):
        assert f"{name}: agree" in out


def test_expand_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--method", "closed", "--order", "7", "--format", "json"
    )
    assert code == 0
    line = out.strip()
    payload = json.loads(line)
    assert payload["order"] == 7
    assert payload["coeffs"] == ["1", "-1", "-1", "0", "0", "1", "0", "1"]
    assert canonical_json(payload) == line


def test_expand_all_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--method", "all", "--order", "40", "--format", "json"
    )
    assert code == 0
    line = out.strip()
    payload = json.loads(line)
    assert payload["agree"] == {"method1": True, "method2": True, "closed": True}
    assert canonical_json(payload) == line


def test_expand_unknown_method_usage_error(capsys):
    code, _, err = run_cli(capsys, "expand", "--method", "newton", "--order", "5")
    assert code == 2
    assert "invalid choice" in err


def test_expand_missing_order_usage_error(capsys):
    code, _, _ = run_cli(capsys, "expand", "--method", "closed")
    assert code == 2


def test_partition_upto_text(capsys):
    code, out, _ = run_cli(capsys, "partition", "--upto", "5")
    assert code == 0
    assert out.strip() == "1 1 2 3 5 7"


def test_partition_single_text(capsys):
    code, out, _ = run_cli(capsys, "partition", "--n", "0")
    assert code == 0
    assert out.strip() == "1"


def test_partition_single_json(capsys):
    code, out, _ = run_cli(capsys, "partition", "--n", "10", "--format", "json")
    assert code == 0
    assert out.strip() == '{"n":10,"p":"42"}'


def test_partition_upto_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "partition", "--upto", "6", "--format", "json")
    assert code == 0
    line = out.strip()
    payload = json.loads(line)
    assert payload == {"upto": 6, "p": ["1", "1", "2", "3", "5", "7", "11"]}
    assert canonical_json(payload) == line


def test_partition_needs_exactly_one_selector(capsys):
    code, _, _ = run_cli(capsys, "partition")
    assert code == 2
    code, _, _ = run_cli(capsys, "partition", "--upto", "4", "--n", "4")
    assert code == 2


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--depth", "5", "--order", "300")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("match") == 10
    assert "FAIL" not in out and "MISMATCH" not in out


def test_verify_roots_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--depth", "1", "--order", "50", "--roots", "4")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("root ")]
    assert rows == [
        "root d=1 expected=4 measured=4 match",
        "root d=2 expected=2 measured=2 match",
        "root d=3 expected=1 measured=1 match",
        "root d=4 expected=1 measured=1 match",
    ]


def test_verify_order_too_small(capsys):
    code, _, err = run_cli(capsys, "verify", "--depth", "1", "--order", "4")
    assert code == 2
    assert "order below stage emissions" in err
    assert "5" in err


@pytest.mark.parametrize("depth", range(1, 9))
def test_stage_order_boundary_agrees_with_verify_stage(capsys, depth):
    # method 2's stage-m identity carries stage m+1's emissions
    needs = {
        "method1": stage_of("method1", depth)[1],
        "method2": stage_of("method2", depth + 1)[1],
    }
    for method, need in needs.items():
        with pytest.raises(ValueError, match="order below stage emissions"):
            verify_stage(method, depth, need - 1)
        verify_stage(method, depth, need)
    max_need = max(needs.values())
    argv = ["verify", "--depth", str(depth), "--roots", "1", "--order"]
    assert run_cli(capsys, *argv, str(max_need - 1))[0] == 2
    assert run_cli(capsys, *argv, str(max_need))[0] == 0


def test_verify_roots_above_limit_exits_2_before_any_build(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "root_multiplicities", no_work)
    monkeypatch.setattr(cli, "identity_exponents", no_work)
    code, out, err = run_cli(capsys, "verify", "--depth", "1", "--order", "10", "--roots", "401")
    assert code == 2
    assert out == ""
    # argparse writes its usage line, then the one error line
    assert [line for line in err.splitlines() if "error" in line] == [
        "pentaseries verify: error: argument --roots: must be <= 400"
    ]


def test_verify_roots_at_limit_is_accepted(capsys, monkeypatch):
    class WorkStarted(Exception):
        pass

    def fail(factors):
        raise WorkStarted(factors)

    monkeypatch.setattr(cli, "root_multiplicities", fail)
    with pytest.raises(WorkStarted) as started:
        run_cli(capsys, "verify", "--depth", "1", "--order", "10", "--roots", "400")
    assert started.value.args == (400,)


def run_cli_subprocess(*argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "pentaseries.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )


@pytest.mark.parametrize("depth", ["1000000000", str(2**63 + 1)], ids=["huge", "past-index-range"])
def test_verify_depth_at_or_above_order_exits_2_without_walking(depth):
    # the timeout turns a walk of the stages into a failure instead of a hang
    proc = run_cli_subprocess("verify", "--depth", depth, "--order", "5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    # one line, so no traceback
    assert proc.stderr == (
        f"order below stage emissions: stage {depth} needs an exponent above {depth}, got order 5\n"
    )


def test_bench_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "60,120")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "task,n,wall_ns,max_coeff_bits"
    assert len(lines) == 7
    for line in lines[1:]:
        task, n, wall_ns, bits = line.split(",")
        assert task in ("product", "partition_inverse", "partition_recurrence")
        assert int(n) in (60, 120)
        assert int(wall_ns) > 0
        assert int(bits) >= 1


def test_bench_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "50", "--format", "json")
    assert code == 0
    line = out.strip()
    payload = json.loads(line)
    assert [r["task"] for r in payload] == ["product", "partition_inverse", "partition_recurrence"]
    assert canonical_json(payload) == line


def test_bench_records_the_median_of_the_timed_calls(monkeypatch):
    # per (size, task): one warm-up, then five timed calls taking these ns
    durations = {30: [50, 10, 40, 20, 30], 70: [7, 9, 6, 10, 8]}
    stamps = []
    for n in durations:
        for d in durations[n]:
            start = 1000 * len(stamps)
            stamps += [start, start + d]
    events = []

    def clock():
        events.append("clock")
        return stamps.pop(0)

    def task(n):
        events.append("call")
        return [n]

    monkeypatch.setattr(bench, "_TASKS", (("t", task),))
    monkeypatch.setattr(bench.time, "perf_counter_ns", clock)
    records = bench.run_bench(list(durations))
    assert [(r.n, r.wall_ns, r.max_coeff_bits) for r in records] == [(30, 30, 5), (70, 8, 7)]
    # the warm-up call runs before the first clock read of its size, untimed
    assert events == (["call"] + ["clock", "call", "clock"] * 5) * 2
    assert stamps == []


def test_bench_rejects_unordered_sizes(capsys):
    code, _, _ = run_cli(capsys, "bench", "--sizes", "300,200")
    assert code == 2
    code, _, _ = run_cli(capsys, "bench", "--sizes", "10,10")
    assert code == 2
    code, _, _ = run_cli(capsys, "bench", "--sizes", "abc")
    assert code == 2


def test_bench_rejects_size_zero(capsys):
    # the sizes are the x-axis of criterion 8's log-log fit, so n = 0 is no usable data point
    code, _, err = run_cli(capsys, "bench", "--sizes", "0")
    assert code == 2
    assert "sizes must be >= 1" in err
    code, _, _ = run_cli(capsys, "bench", "--sizes", "0,50")
    assert code == 2


def test_memory_error_exits_2_not_mismatch(capsys, monkeypatch):
    def exhausted(order):
        raise MemoryError

    monkeypatch.setattr(cli, "closed_form_series", exhausted)
    code, out, err = run_cli(capsys, "expand", "--method", "closed", "--order", "5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "out of memory" in err


INDEX_OVERFLOW = str(2**63)


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--method", "product", "--order", INDEX_OVERFLOW),
        ("expand", "--method", "closed", "--order", INDEX_OVERFLOW),
        ("verify", "--depth", "1", "--order", INDEX_OVERFLOW, "--roots", "1"),
    ],
    ids=["expand-product", "expand-closed", "verify"],
)
def test_index_sized_order_exits_2_not_mismatch(capsys, argv):
    # [0] * (2**63 + 1) raises OverflowError before anything is allocated
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "input too large" in err


def test_partition_huge_n_fails_fast():
    # the table is reserved before the ~2.5e9 pentagonal offsets are built;
    # the timeout turns a regression into a failure instead of a hang
    proc = run_cli_subprocess("partition", "--n", INDEX_OVERFLOW)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "input too large" in proc.stderr


@pytest.mark.parametrize("method", ["product", "all"])
def test_expand_huge_order_fails_fast(method):
    # the product's list is allocated before its levels are counted or walked;
    # the timeout turns a regression into a failure instead of a hang
    proc = run_cli_subprocess("expand", "--method", method, "--order", INDEX_OVERFLOW)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input too large: expand size exceeds the index range\n"


def test_verify_huge_depth_and_order_fails_fast():
    # the order's size is checked before any stage is walked
    proc = run_cli_subprocess("verify", "--depth", "1000000000", "--order", INDEX_OVERFLOW)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input too large: verify size exceeds the index range\n"


def test_expand_all_mismatch_names_first_difference(capsys, monkeypatch):
    order = 30
    _, expected_out, _ = run_cli(capsys, "expand", "--method", "all", "--order", str(order))
    stream_series = cli.stream_series

    def flipped(method, n):
        c = list(stream_series(method, n))
        c[17] += 3
        return tuple(c)

    monkeypatch.setattr(cli, "stream_series", flipped)
    code, out, err = run_cli(capsys, "expand", "--method", "all", "--order", str(order))
    assert code == 1
    expected = expected_out.splitlines()
    expected[-4:] = ["method1: MISMATCH", "method2: MISMATCH", "closed: agree", "methods disagree"]
    assert out.splitlines() == expected
    assert err.splitlines() == [
        "method1: first difference at x^17: product 0, method1 3",
        "method2: first difference at x^17: product 0, method2 3",
    ]


def test_cli_import_skips_unused_stdlib_modules():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    unused = ("dataclasses", "inspect", "statistics")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import pentaseries.cli, sys; print([m for m in {unused!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pentaseries.cli", "partition", "--n", "12"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "77"
