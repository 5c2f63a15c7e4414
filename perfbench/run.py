"""Cold-process benchmark of the pentaseries CLI.

    python3 perfbench/run.py --workload {expand,partition,verify} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout.  A closed loop with one client: each request
is one CLI command in a fresh ``python -m pentaseries.cli`` process with
PYTHONPATH=src, waited on before the next starts, so every request pays
interpreter start, the package import and cold module caches, as a CLI user
does.  Every reply is checked by the oracle in workloads.py.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each request twice,
plainly and under tracer.py, checks that both print the same bytes, and
reports the per-layer metrics as means per request.

Standard output: one JSON line recording the inputs (seed, every request's
arguments and wall time, Python version, CPU count, git commit), then the
result as the last line.  See README.md for what each metric shows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import BLOCKS, Oracle, requests

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"
TIMEOUT_S = 20
# Fixed latency limit per workload on req_p90_ms, about twice the p90 seen on
# a 2-core machine.  A failed request counts as missing it.
P90_LIMIT_MS = {"expand": 600, "partition": 700, "verify": 800}

END_TO_END = {
    "setup_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "throughput_rps": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# Per-layer metric families: span name -> metric suffixes.
LAYER_METRICS = {
    "series.partial_product": ("calls", "self_ms", "elem_ops"),
    "series.convolve": ("calls", "self_ms", "mul_ops"),
    "series.div_binomial": ("calls", "self_ms", "elem_ops"),
    "pentagonal.closed_form_series": ("calls", "self_ms"),
    "telescoping.stream_series": ("calls", "self_ms"),
    "telescoping.residual_series": ("calls", "self_ms", "hits", "misses", "hit_ratio", "elem_ops"),
    "telescoping.verify_stage": ("calls", "total_ms"),
    "partitions.PartitionTable.extend_to": ("calls", "self_ms", "entries", "terms"),
    "partitions.iterated_division_check": ("calls", "total_ms"),
    "roots.root_multiplicity": ("calls", "total_ms"),
    "roots.poly_divrem": ("calls", "self_ms", "elem_ops", "useful_ratio"),
    "roots.poly_mul": ("calls", "self_ms"),
    "roots.cyclotomic": ("hits", "misses"),
    "cli.main": ("total_ms",),
    "cli.format_series": ("self_ms",),
    "cli.canonical_json": ("self_ms",),
}
EXTRA_LAYER = {"cli.stdout_bytes": "bytes", "proc.spawn_ms": "ms", "trace.overhead_ratio": "ratio"}


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return "ratio" if metric.endswith("_ratio") else "count"


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.{m}": _unit(m) for span, ms in LAYER_METRICS.items() for m in ms}
    units.update(EXTRA_LAYER)
    return units


def git_commit() -> str | None:
    """HEAD's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(cmd: list[str], env: dict[str, str]) -> tuple[float, int | None, bytes]:
    """Run one process to exit; (wall ms, exit code or None on timeout, stdout)."""
    t0 = time.perf_counter_ns()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return TIMEOUT_S * 1e3, None, b""
    return (time.perf_counter_ns() - t0) / 1e6, proc.returncode, proc.stdout


def child_env() -> dict[str, str]:
    """The caller's environment without PYTHON* settings (such as
    PYTHONDONTWRITEBYTECODE, which would recompile the package in every
    request), and with PYTHONPATH=src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "pentaseries.cli", *argv]


def import_seconds(env: dict[str, str]) -> float:
    """Wall seconds for a fresh process to import pentaseries and exit."""
    ms, code, _ = spawn([sys.executable, "-c", "import pentaseries"], env)
    if code != 0:
        raise RuntimeError(f"import pentaseries failed with exit code {code}")
    return ms / 1e3


def untraced_run(workload: str, seed: int, seconds: float, env, oracle) -> tuple[dict, list]:
    """Requests until `seconds` pass, with one set-up timing before each block,
    so set-up is sampled across the run as the requests are."""
    import_seconds(env)  # discarded: writes the bytecode caches
    setup, log = [], []
    deadline = time.perf_counter() + seconds
    blocks = requests(workload, seed)
    while not log or time.perf_counter() < deadline:
        setup.append(import_seconds(env))
        for argv in next(blocks):
            if log and time.perf_counter() >= deadline:
                break
            ms, code, out = spawn(cli_cmd(argv), env)
            error = oracle.check(argv, code, out)
            # A failed request counts as missing any latency limit.
            log.append({"argv": argv, "ms": TIMEOUT_S * 1e3 if error else ms, "error": error})
    lat = [r["ms"] for r in log]
    ok = sum(r["error"] is None for r in log)
    metrics = {
        "setup_s": statistics.median(setup),
        "req_p50_ms": statistics.median(lat),
        "req_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0],
        "throughput_rps": ok / (sum(lat) / 1e3),
        "success_ratio": ok / len(log),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    return metrics, log


def layer_totals(doc: dict) -> dict[str, float]:
    """Sum one traced request's spans into per-name calls, self and total time,
    and counts.  Self time is a span's duration minus its children's (tracer
    tare included); total time is its duration minus all tracer tare inside."""
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    tare_below = [0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        _, start, end, parent, tare, _ = spans[i]
        if parent >= 0:
            child_ns[parent] += end - start + tare
            tare_below[parent] += tare + tare_below[i]
    out: dict[str, float] = {}
    for i, (name, start, end, _, _, counts) in enumerate(spans):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_ms"] = out.get(f"{name}.self_ms", 0) + (end - start - child_ns[i]) / 1e6
        out[f"{name}.total_ms"] = out.get(f"{name}.total_ms", 0) + (end - start - tare_below[i]) / 1e6
        for key, value in (counts or {}).items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    for name, (hits, misses) in doc["caches"].items():
        out[f"{name}.hits"] = hits
        out[f"{name}.misses"] = misses
    return out


def traced_run(workload: str, seed: int, seconds: float, env, oracle) -> tuple[dict, list]:
    """Whole blocks of request pairs, plain and traced, until `seconds` pass."""
    log = []
    totals: dict[str, float] = {}
    plain_ms, traced_ms = [], []
    deadline = time.perf_counter() + seconds
    blocks = requests(workload, seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        while not log or time.perf_counter() < deadline:
            for argv in next(blocks):
                rid = str(len(log))
                spans_path = os.path.join(tmp, f"{rid}.json")
                cmds = {"plain": cli_cmd(argv),
                        "traced": [sys.executable, str(TRACER), spans_path, rid, *argv]}
                # Alternate which of the pair runs first.
                order = ("plain", "traced") if len(log) % 2 == 0 else ("traced", "plain")
                res = {kind: spawn(cmds[kind], env) for kind in order}
                (ms_a, code_a, out_a), (ms_b, code_b, out_b) = res["plain"], res["traced"]
                error = oracle.check(argv, code_a, out_a) or oracle.check(argv, code_b, out_b)
                if not error and out_a != out_b:
                    error = "traced stdout differs"
                if not error and not os.path.exists(spans_path):
                    error = "no spans written"
                log.append({"argv": argv, "ms": ms_a, "traced_ms": ms_b, "error": error})
                if error:
                    continue
                plain_ms.append(ms_a)
                traced_ms.append(ms_b)
                with open(spans_path) as f:
                    one = layer_totals(json.load(f))
                one["cli.stdout_bytes"] = len(out_b)
                one["proc.spawn_ms"] = ms_b - one["cli.main.total_ms"]
                for key, value in one.items():
                    totals[key] = totals.get(key, 0) + value
    n = max(1, len(plain_ms))
    metrics = {name: totals.get(name, 0) / n for name in per_layer_units()}
    hits = totals.get("telescoping.residual_series.hits", 0)
    lookups = hits + totals.get("telescoping.residual_series.misses", 0)
    metrics["telescoping.residual_series.hit_ratio"] = hits / lookups if lookups else 0
    divs = totals.get("roots.poly_divrem.calls", 0)
    metrics["roots.poly_divrem.useful_ratio"] = totals.get("roots.poly_divrem.useful", 0) / divs if divs else 0
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_ms) / statistics.median(plain_ms) if plain_ms else 0)
    return metrics, log


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BLOCKS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pentaseries" / "cli.py").is_file():
        print(f"no pentaseries sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    oracle = Oracle(args.workload)
    run = traced_run if args.trace else untraced_run
    metrics, log = run(args.workload, args.seed, args.seconds, env, oracle)
    units = per_layer_units() if args.trace else END_TO_END
    failed = sum(r["error"] is not None for r in log)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(log),
        "p90_limit_ms": P90_LIMIT_MS[args.workload],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "requests": log,
    }
    if not args.trace:
        record["p90_within_limit"] = metrics["req_p90_ms"] <= P90_LIMIT_MS[args.workload]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(log),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
