import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pentaseries import bench, cli, partitions, roots, telescoping
from pentaseries.cli import canonical_json, format_series, main
from pentaseries.partitions import partition_series
from pentaseries.telescoping import verify_stage

from oracles import argparse_oracle, stage_of


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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("method", ["product", "method1", "method2", "closed"])
def test_expand_one_method_exact_output(capsys, method, fmt):
    # one method alone: the series and nothing else, so no verdict, summary or "agree"
    code, out, err = run_cli(capsys, "expand", "--method", method, "--order", "12", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "text":
        assert out == "1 - x - x^2 + x^5 + x^7 - x^12\n"
    else:
        assert out == '{"order":12,"coeffs":["1","-1","-1","0","0","1","0","1","0","0","0","0","-1"]}\n'
        assert "agree" not in json.loads(out)


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
    assert list(payload) == ["order", "coeffs", "agree"]
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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 500])
def test_partition_n_is_the_last_entry_of_upto(capsys, monkeypatch, k, fmt):
    fills = []
    fill = partitions._fill

    def spy(n):
        fills.append(n)
        return fill(n)

    monkeypatch.setattr(partitions, "_fill", spy)
    outs = []
    for selector in ("--upto", "--n"):
        code, out, err = run_cli(capsys, "partition", selector, str(k), "--format", fmt)
        assert (code, err) == (0, "")
        outs.append(out)
        # one fill per request, an empty one for p(0)
        assert fills == [k] * len(outs)
    upto, single = outs
    if fmt == "json":
        assert json.loads(single) == {"n": k, "p": json.loads(upto)["p"][-1]}
    else:
        assert single == upto.split()[-1] + "\n"


# (exit code, sha256 of stdout) for the argv shapes the benchmark runs, so
# that a change meant to keep stdout byte-identical is checked on every run
# rather than by a comparison made by hand
STDOUT_DIGESTS = {
    "expand --method all --order 2400":
        (0, "b87f5f767abe57e226bbbed292338612c9db1b8b3c717b1f704f84d94d65befb"),
    "expand --method all --order 2400 --format json":
        (0, "aa11ed0f5271c053fc1ae09388e7a452d0b4a9c605b91079ef0840dd1f7e3c74"),
    # the fill's groups of four start at n = 1 mod 4, so n = 6497..6500 end
    # its last group after one, two, three and four entries: every group tail
    "partition --n 6497":
        (0, "83c26b29b3680a0cbd468a9356c89855c554f794064e1353c403ad8aa33694bb"),
    "partition --n 6498":
        (0, "f7abd64a31062db4dc6c8bafa083ea871f349176901f98d1460c27a5c11bfd70"),
    "partition --n 6499":
        (0, "9f2bcd4bea216fb764937b1a37bb4f46bace621f7f2cda58d0f4303f1855d916"),
    "partition --upto 4999 --format json":
        (0, "a21aa790c3fc50a585ccf1ea0d185cdada7e1025a82938fb9d2560b21f258718"),
    "partition --n 6500":
        (0, "33e397da4663868adc09652101f94103ea8885bf201d9152c8373c3816d19008"),
    "partition --upto 5000":
        (0, "298416be5f91f17ecc7af26965006cc959f2ab4e14fac596c14ed36c93266703"),
    "partition --upto 5000 --format json":
        (0, "342605c8eb053e91dd63aa6e8c972ac7531b736a7b53053c5aeac4d8bd22d546"),
    # the largest fill the suite runs, whose lanes are the widest
    "partition --upto 20000 --format json":
        (0, "216562453b2283e9908c8444c365d6758923002a1017420f90490f60daebb985"),
    "verify --depth 8 --order 1000 --roots 4":
        (0, "ce05fc41173c4bc39deb3ef6a65e86fff5b2cf5447eed72043b81c9ebf8f13af"),
    "verify --depth 2 --order 60 --roots 34":
        (0, "6966a9df14eb5e04e854975c7582db38346092fec52523828db75747a0f0a564"),
}


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS))
def test_benchmark_shaped_stdout_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == STDOUT_DIGESTS[argv]


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


@pytest.mark.parametrize("scale", [3, -1], ids=["tripled", "negated"])
def test_verify_fails_a_product_with_a_leftover(capsys, monkeypatch, scale):
    # every count of such a product is floor(M/d); only its leftover differs
    argv = ("verify", "--depth", "2", "--order", "60", "--roots", "12")
    _, passing, _ = run_cli(capsys, *argv)
    full_product = roots._full_product
    monkeypatch.setattr(roots, "_full_product", lambda m: [scale * c for c in full_product(m)])
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    stage_lines = [line for line in passing.splitlines() if not line.startswith("root ")][:-1]
    assert out.splitlines() == stage_lines + ["1 check(s) failed"]
    assert err == (
        "roots M=12: the product is not a product of factors (1 - x^n): "
        f"leftover of degree 0, starting [{scale}]\n"
    )


def _second_count_three(m):
    counts = roots.root_multiplicities(m)
    return (counts[0], 3, *counts[2:])


# (the cli name patched, its stand-in, the index of the one line that changes, that line)
ONE_FAILED_CHECK = {
    "stage": ("verify_stage", lambda method, m, order: (method, m) != ("method2", 2)
              and verify_stage(method, m, order), 4, "stage method2 m=2: FAIL"),
    "division": ("iterated_division_check", lambda depth: False, 6, "division depth=3: FAIL"),
    "root": ("root_multiplicities", _second_count_three, 8, "root d=2 expected=2 measured=3 MISMATCH"),
}


@pytest.mark.parametrize("check", ONE_FAILED_CHECK)
def test_verify_one_failed_check_changes_its_line_alone(capsys, monkeypatch, check):
    # the line, the summary and the exit code each report the one failure
    name, fake, index, line = ONE_FAILED_CHECK[check]
    argv = ("verify", "--depth", "3", "--order", "60", "--roots", "4")
    _, passing, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, name, fake)
    expected = passing.splitlines()
    assert len(expected) == 12 and expected[-1] == "all checks passed"
    expected[index] = line
    expected[-1] = "1 check(s) failed"
    assert run_cli(capsys, *argv) == (1, "\n".join(expected) + "\n", "")


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
    # the one error line, in the form argparse wrote after its usage line
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


def cli_env():
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=str(src))


def run_cli_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "pentaseries.cli", *argv],
        capture_output=True,
        text=True,
        env=cli_env(),
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


def test_verify_order_beyond_memory_exits_2_without_walking(capsys, monkeypatch):
    # about 2.5e9 stages lie below this order, but [0] * (order + 1) raises
    # MemoryError before any is walked, and before anything is allocated
    def no_walk(*args):
        raise AssertionError("stages walked")

    monkeypatch.setattr(telescoping, "_stages", no_walk)
    argv = ["verify", "--depth", "4611686018427387904", "--order", "9223372036854775000"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "out of memory: verify input too large\n")


def test_verify_builds_each_nested_sum_once(capsys, work):
    # the walk checks both methods at stage m before stage m + 1, so method 2
    # reads the residuals method 1 has just built, although the cache keeps
    # only 4; method by method every nest would be built twice (33,226 updates)
    telescoping.residual_series.cache_clear()
    assert run_cli(capsys, "verify", "--depth", "6", "--order", "300", "--roots", "3")[0] == 0
    assert work["series", "div", "updates"] == 16613
    assert telescoping.residual_series.cache_info()[:2] == (17, 14)


def test_verify_stage_memory_is_flat_in_the_depth(capsys, memory):
    # the walk needs the residuals of stages m and m + 1 only, so a deeper
    # request at the same order peaks no higher: about 47 KB at both depths
    # on 3.11, where keeping every residual took 73 and 245 KB
    def peak(depth):
        telescoping.residual_series.cache_clear()
        argv = ["verify", "--depth", str(depth), "--order", "600", "--roots", "1"]
        traced = memory(main, argv)
        assert capsys.readouterr().out.endswith("all checks passed\n")
        return traced

    assert peak(16) <= 1.25 * peak(3)


def test_memory_error_mid_walk_prints_no_stage_line(capsys, monkeypatch):
    # the stage lines are printed after the walk, so running out of memory at
    # method 2's stage 3 prints none, not even method 1's, which had passed
    def stage(method, m, order):
        if (method, m) == ("method2", 3):
            raise MemoryError
        return verify_stage(method, m, order)

    monkeypatch.setattr(cli, "verify_stage", stage)
    argv = ["verify", "--depth", "4", "--order", "100", "--roots", "1"]
    assert run_cli(capsys, *argv) == (2, "", "out of memory: verify input too large\n")


@pytest.mark.parametrize("name", ["iterated_division_check", "root_multiplicities"])
def test_memory_error_after_the_walk_prints_no_line(capsys, monkeypatch, name):
    # every line is printed after the last check, so running out of memory in
    # the division or the roots phase prints none of the passed stage lines
    def exhausted(arg):
        raise MemoryError

    monkeypatch.setattr(cli, name, exhausted)
    argv = ["verify", "--depth", "3", "--order", "60", "--roots", "4"]
    assert run_cli(capsys, *argv) == (2, "", "out of memory: verify input too large\n")


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


BIG = "1" + "0" * 4300  # 10^4300: 4,301 digits


@pytest.mark.parametrize(
    "argv, shown",
    [
        (("partition", "--n", "3"), f"{BIG}\n"),
        (("partition", "--upto", "2", "--format", "json"), f'{{"upto":2,"p":["{BIG}","{BIG}","{BIG}"]}}\n'),
    ],
    ids=["text", "json"],
)
def test_output_past_the_int_digit_limit_is_printed_whole(capsys, monkeypatch, argv, shown):
    # p(n) passes 4,300 digits, the default int-to-str limit, near n = 1.5e7;
    # a fill that large takes hours, so the fill is patched to return 10^4300.
    # The command lifts the limit for its own output only.
    monkeypatch.setattr(cli, "partition_values", lambda n: (10**4300,) * (n + 1))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert run_cli(capsys, *argv) == (0, shown, "")
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(ValueError):
            str(10**4300)


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
    # the fill allocates its entries before the ~2.5e9 pentagonal offsets are
    # built; the timeout turns a regression into a failure instead of a hang
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
    # the JSON form carries the same verdicts
    code, out, _ = run_cli(capsys, "expand", "--method", "all", "--order", str(order), "--format", "json")
    assert code == 1
    assert json.loads(out)["agree"] == {"method1": False, "method2": False, "closed": True}


def test_expand_all_checks_against_the_product_looked_up_at_call_time(capsys, monkeypatch):
    # the product is the reference route: rebound with one wrong coefficient,
    # all three other routes disagree with it at that exponent
    product_series = cli.product_series

    def nudged(order):
        c = list(product_series(order))
        c[9] -= 1
        return tuple(c)

    monkeypatch.setattr(cli, "product_series", nudged)
    code, out, err = run_cli(capsys, "expand", "--method", "all", "--order", "30")
    assert code == 1
    assert out.splitlines()[0].startswith("1 - x - x^2 + x^5 + x^7 - x^9 - x^12")
    assert out.splitlines()[1:] == ["method1: MISMATCH", "method2: MISMATCH", "closed: MISMATCH", "methods disagree"]
    assert err.splitlines() == [
        f"{name}: first difference at x^9: product -1, {name} 0" for name in ("method1", "method2", "closed")
    ]


def test_cli_import_skips_unused_stdlib_modules():
    unused = ("__future__", "argparse", "dataclasses", "enum", "inspect", "json", "re", "statistics",
              "typing")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import pentaseries.cli, sys; print([m for m in {unused!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        env=cli_env(),
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


# Option values for the command-line fuzz, (mostly valid, invalid): the caps
# and the index range at and around their edges, and text int() bends or rejects.
INT_TEXTS = (
    ["0", "1", "2", "7", "399", "400", "401", str(2**63 - 1), str(2**63), str(2**63 + 1),
     " 7 ", "1_000", "+3", "-0", "-0\n"],
    ["-1", "-5", "-1.5", "1.5", "abc", "", "0x10"],
)
VALUES = {
    "--method": (["product", "method1", "method2", "closed", "all"], ["newton", "ALL", ""]),
    "--format": (["text", "json", "csv"], ["xml", ""]),
    "--order": INT_TEXTS,
    "--depth": INT_TEXTS,
    "--roots": INT_TEXTS,
    "--upto": INT_TEXTS,
    "--n": INT_TEXTS,
    "--sizes": (["50", "50,100", "2000,4000,8000"], ["100,50", "10,10", "0", "0,50", "-1,2", "1,,2", "abc", ""]),
}
COMMAND_OPTIONS = {
    "expand": ["--method", "--order", "--format"],
    "partition": ["--upto", "--n", "--format"],
    "verify": ["--depth", "--order", "--roots"],
    "bench": ["--sizes", "--format"],
}
ABBREVIATIONS = {"--meth": "--method", "--ord": "--order", "--form": "--format", "--up": "--upto",
                 "--dep": "--depth", "--ro": "--roots", "--si": "--sizes"}


def fuzz_argv(rng):
    """A seeded argv, mostly each option of one command once in a random
    order, with some options dropped, repeated, borrowed from another command
    or abbreviated, some values invalid, and now and then a stray token or a
    final option without its value."""
    if rng.random() < 0.04:
        return [] if rng.random() < 0.5 else [rng.choice(["foo", "Expand", "-5"])]
    command = rng.choice(list(COMMAND_OPTIONS))
    options = list(COMMAND_OPTIONS[command])
    if command == "partition" and rng.random() < 0.8:
        options.remove(rng.choice(["--upto", "--n"]))
    options = [o for o in options if rng.random() < 0.95]
    options += rng.choices([*VALUES, *ABBREVIATIONS, *options], k=rng.choice([0, 0, 0, 0, 1, 2]))
    rng.shuffle(options)
    argv = [command]
    for option in options:
        good, bad = VALUES[ABBREVIATIONS.get(option, option)]
        value = rng.choice(good if rng.random() < 0.9 else bad)
        argv += [f"{option}={value}"] if rng.random() < 0.3 else [option, value]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["stray", "--bogus", "-x", "-7"]))
    if rng.random() < 0.05:
        argv.append(rng.choice(COMMAND_OPTIONS[command]))
    return argv


def argparse_outcome(parser, argv):
    """("ok", namespace dict) or ("exit", code, error text) from the oracle;
    the error text is what follows the usage lines."""
    err = io.StringIO()
    try:
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            return "ok", vars(parser.parse_args(argv))
    except SystemExit as exc:
        lines = err.getvalue().splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines) if line.startswith("pentaseries") and ": error: " in line)
        return "exit", exc.code, "".join(lines[start:])


def uses_abbreviation(argv):
    return any(token.partition("=")[0] in ABBREVIATIONS for token in argv)


def test_parser_agrees_with_argparse_oracle(capsys, rng):
    parser = argparse_oracle()
    outcomes = {"ok": 0, "exit": 0}
    for _ in range(500):
        argv = fuzz_argv(rng)
        outcome = argparse_outcome(parser, argv)
        outcomes[outcome[0]] += 1
        if outcome[0] == "ok" and not uses_abbreviation(argv):
            expected = dict(outcome[1])
            assert cli._parse(argv) == (expected.pop("command"), expected), argv
            continue
        # every rejection, and every argv argparse took only by an abbreviation,
        # exits 2 before any work, with one stderr line and nothing on stdout
        assert outcome[0] == "ok" or outcome[1] == 2, argv
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.endswith("\n"), argv
        # argparse's own text where it is one line; it splits a value with a
        # line break over two, which the new parser writes as a repr
        if outcome[0] == "exit" and not uses_abbreviation(argv) and outcome[2].count("\n") == 1:
            assert err == outcome[2], argv
    # both sides of the grammar are exercised
    assert min(outcomes.values()) >= 100, outcomes


def test_parser_forms_and_repeats():
    expected = ("expand", {"method": "all", "order": 5, "format": "json"})
    argvs = [
        ["expand", "--method", "all", "--order", "5", "--format", "json"],
        ["expand", "--format=json", "--order=5", "--method=all"],
        ["expand", "--order", "9", "--method", "closed", "--order=5", "--method", "all", "--format", "json"],
    ]
    for argv in argvs:
        assert cli._parse(argv) == expected
    assert cli._parse(["partition", "--n=0"]) == ("partition", {"upto": None, "n": 0, "format": "text"})
    assert cli._parse(["expand", "--method", "closed", "--order", "-0"]) == (
        "expand", {"method": "closed", "order": 0, "format": "text"})


@pytest.mark.parametrize(
    "token", ["-", "-1", "-1.5", "-.5", "-1.", "-.", "--", "-x", "-1\n", "-1.5\n", "- 1", "-a b", "-5 "]
)
def test_dash_values_read_as_argparse_reads_them(token):
    # each of _option_like's rules both ways: '-' alone, negative integers and
    # decimals, a final newline, and a space anywhere make a value; any other
    # token after the dash makes an option, and so a missing value
    argv = ["verify", "--depth", "1", "--order", token]
    try:
        command, opts = cli._parse(argv)
        outcome = "ok", {"command": command, **opts}
    except cli._UsageError as exc:
        outcome = "exit", 2, f"{exc}\n"
    assert outcome == argparse_outcome(argparse_oracle(), argv)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["verify", "--depth", "-1", "--order", "10"], "argument --depth: must be >= 0"),
        (["verify", "--depth", "0", "--order", "10"], "argument --depth: must be >= 1"),
        (["verify", "--depth", "1", "--order", "10", "--roots", "0"], "argument --roots: must be >= 1"),
        (["verify", "--depth", "1", "--order", "10", "--roots", "401"], "argument --roots: must be <= 400"),
        (["expand", "--method", "closed", "--order", "-1"], "argument --order: must be >= 0"),
    ],
    ids=["depth-negative", "depth-zero", "roots-zero", "roots-above-cap", "order-negative"],
)
def test_count_edges_exit_2_with_argparse_text(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"pentaseries {argv[0]}: error: {error}\n"
    assert argparse_outcome(argparse_oracle(), argv) == ("exit", 2, err)


def test_unrecognized_argument_with_a_line_break_stays_one_line(capsys):
    code, out, err = run_cli(capsys, "expand", "--method", "closed", "--order", "5", "a\nb")
    assert (code, out) == (2, "")
    assert err == "pentaseries: error: unrecognized arguments: 'a\\nb'\n"


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["expand", "-h"], ["verify", "--depth", "1", "--help"]])
def test_help_prints_the_synopsis(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == cli.__doc__.partition("\n\n")[2]
    assert "pentaseries verify    --depth D --order N [--roots M]" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--method", "closed", "--order", "7", "--format", "json"],
        ["expand", "--method", "all", "--order", "40", "--format", "json"],
        ["partition", "--n", "10", "--format", "json"],
        ["partition", "--upto", "30", "--format", "json"],
        ["partition", "--upto", "0", "--format", "json"],
        ["bench", "--sizes", "20,40", "--format", "json"],
    ],
    ids=["expand", "expand-all", "partition-n", "partition-upto", "partition-upto-0", "bench"],
)
def test_canonical_json_matches_json_dumps(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert canonical_json(payload) == json.dumps(payload, separators=(",", ":")) == out.rstrip("\n")


def test_canonical_json_rejects_strings_that_need_escaping():
    for text in ['a"b', "a\\b", "line\n", "tab\t", "\x7f", "é"]:
        for obj in (text, [text], ["1", text], {text: 1}, {"k": text}):
            with pytest.raises(ValueError, match="needs JSON escaping"):
                canonical_json(obj)
    assert canonical_json([]) == json.dumps([]) and canonical_json({}) == json.dumps({})
    with pytest.raises(TypeError, match="^not a CLI payload type: float$"):
        canonical_json(1.5)


def test_run_writes_every_byte_before_its_fast_exit(capsys):
    # ~2 MB, far past any stream buffer, so a lost final flush would show
    argv = ["partition", "--upto", "20000", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "pentaseries.cli", *argv], capture_output=True, env=cli_env(), timeout=60
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(proc.stdout) > 2_000_000
    assert hashlib.sha256(proc.stdout).hexdigest() == hashlib.sha256(out.encode()).hexdigest()


def test_run_passes_usage_exit_code_through():
    proc = run_cli_subprocess("expand", "--method", "closed")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "pentaseries expand: error: the following arguments are required: --order\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_disk_exits_2_with_one_line():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "pentaseries.cli", "expand", "--method", "closed", "--order", "5"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=30,
        )
    assert proc.returncode == 2
    assert proc.stderr == "pentaseries: error: output failed: No space left on device\n"


def test_pipe_closed_early_exits_2_with_one_line():
    # ~2 MB into a pipe whose reader leaves after 10 bytes
    proc = subprocess.Popen(
        [sys.executable, "-m", "pentaseries.cli", "partition", "--upto", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert head == "1 1 2 3 5 "
    assert proc.returncode == 2
    assert err == "pentaseries: error: output failed: Broken pipe\n"
