"""Run one pentaseries CLI command with the calls into every layer timed.

    python perfbench/tracer.py SPANS_FILE REQUEST_ID CLI_ARG...

Behaves like ``python -m pentaseries.cli CLI_ARG...`` (same stdout bytes,
same exit code) and, after the command, writes its spans to SPANS_FILE as
one JSON document.  The program itself is not changed: every public
function of the layer modules is wrapped from outside, in every
``pentaseries`` namespace that binds it, because ``from .x import f`` copies
the binding.  ``PartitionTable.extend_to`` is wrapped on its class.

A span is [name, start_ns, end_ns, parent_index, tare_ns, counts].  start
and end bracket the wrapped call only; tare_ns is the time the tracer spent
outside that bracket computing counts, which the reader subtracts from the
parent.  Counts are computed from the call arguments (and, for poly_divrem,
the remainder), never measured inside the program.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

LAYERS = ("series", "pentagonal", "telescoping", "partitions", "roots", "cli")
# gpent runs ~780k times per `partition --upto 8000`: wrapping it would swamp
# the run, so the reader derives its work from extend_to's `terms` instead.
UNWRAPPED = {"pentagonal.gpent"}
CACHED = ("telescoping.residual_series", "roots.cyclotomic")


def _partial_product_ops(factors, order):
    m = max(0, min(factors, order + 1))
    return {"elem_ops": m * (order + 1) - m * (m + 1) // 2}


def _convolve_ops(a, b, out_len):
    ops = 0
    lb = len(b)
    for i, ai in enumerate(a):
        if i >= out_len:
            break
        if ai:
            ops += min(out_len - i, lb)
    return {"mul_ops": ops}


def _div_binomial_ops(a, k):
    return {"elem_ops": max(0, len(a.coeffs) - k)}


def _poly_divrem_ops(a, b):
    db = len(b.coeffs) - 1
    return {"elem_ops": max(0, len(a.coeffs) - db) * len(b.coeffs)}


def _residual_ops(method, m, order):
    """Element updates of residual_series' list passes for one cache miss."""
    head = (3 * m * m + m) // 2 if method == "method1" else 3 * m * (m + 1) // 2
    if head > order:
        return 0
    extra = method == "method2"
    ops = max(0, order - head + 1 - m) if extra else 0
    j = 0
    while head + m * j <= order:
        length = order - (head + m * j) + 1
        ops += max(0, length - (m + j + extra)) + length
        j += 1
    return ops


def _extend_ops(table, n):
    """New table entries, and pentagonal offsets <= m summed over the new m."""
    lo = table.computed_upto
    terms = 0
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= n:
                terms += n - max(g, lo + 1) + 1 if n > lo else 0
        k += 1
    return {"entries": max(0, n - lo), "terms": terms}


class Tracer:
    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.caches: dict[str, object] = {}
        self.cache_start: dict[str, tuple[int, int]] = {}

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            t_in = perf_counter_ns()
            ctx = before(*args, **kwargs) if before else None
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, 0, ctx]
            spans.append(span)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            if after:
                span[5] = after(ctx, result)
            span[1], span[2] = start, end
            span[4] = (start - t_in) + (perf_counter_ns() - end)
            return result

        return traced

    def install(self) -> None:
        import pentaseries.cli  # noqa: F401  (imports every layer)
        from pentaseries.partitions import PartitionTable

        modules = {layer: sys.modules[f"pentaseries.{layer}"] for layer in LAYERS}
        hooks = {
            "series.partial_product": (_partial_product_ops, None),
            "series.convolve": (_convolve_ops, None),
            "series.div_binomial": (_div_binomial_ops, None),
            "roots.poly_divrem": (_poly_divrem_ops, lambda ctx, res: dict(ctx, useful=int(not res[1].coeffs))),
        }
        residual = modules["telescoping"].residual_series

        def residual_before(method, m, order):
            return residual.cache_info().misses, (method, m, order)

        def residual_after(ctx, _result):
            misses, args = ctx
            return {"elem_ops": _residual_ops(*args) if residual.cache_info().misses > misses else 0}

        hooks["telescoping.residual_series"] = (residual_before, residual_after)

        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__ or name in UNWRAPPED):
                    continue
                if name in CACHED:
                    self.caches[name] = obj
                wrapped[id(obj)] = self.wrap(name, obj, *hooks.get(name, (None, None)))
        for modname, module in list(sys.modules.items()):
            if modname == "pentaseries" or modname.startswith("pentaseries."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        setattr(module, attr, wrapped[id(obj)])
        PartitionTable.extend_to = self.wrap(
            "partitions.PartitionTable.extend_to", PartitionTable.extend_to, _extend_ops)
        self.cache_start = {name: self._cache_counts(name) for name in self.caches}

    def _cache_counts(self, name: str) -> tuple[int, int]:
        info = self.caches[name].cache_info()
        return info.hits, info.misses

    def dump(self, path: str) -> None:
        caches = {}
        for name, (hits, misses) in self.cache_start.items():
            h, m = self._cache_counts(name)
            caches[name] = [h - hits, m - misses]
        with open(path, "w") as f:
            json.dump({"request_id": self.request_id, "spans": self.spans, "caches": caches}, f)


def main() -> int:
    spans_path, request_id, *argv = sys.argv[1:]
    tracer = Tracer(request_id)
    tracer.install()
    from pentaseries import cli

    code = cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
