"""Command-line driver; its usage text is _USAGE."""

import errno
import os
import sys

from .bench import BenchRecord, run_bench
from .partitions import iterated_division_check, partition_values
from .pentagonal import closed_form_series
from .roots import root_multiplicities
from .series import product_series
from .telescoping import identity_exponents, stream_series, verify_stage

# The roots phase takes 0.19 s at M = 200, 0.72 s at 300 and 2.0 s at 400 in
# process on a 2-core VM (about M^3.4: M^3 kernel updates on ever wider ints,
# a third of them the build), so the cap keeps a run well under half a minute.
_ROOTS_LIMIT = 400

_USAGE = f"""\
    pentaseries expand    --method {{product|method1|method2|closed|all}} --order N [--format text|json]
    pentaseries partition --upto N | --n N [--format text|json]
    pentaseries verify    --depth D --order N [--roots M]   (M <= {_ROOTS_LIMIT})
    pentaseries bench     --sizes 2000,4000,8000 [--format csv|json]

Options take `--opt value` or `--opt=value`, in any order; a repeated option
keeps its last value.  A prefix of an option name is not accepted.

Exit codes: 0 success (all checks pass), 1 mathematical mismatch, 2 usage or
precondition error, including an input too large for memory or for the
platform's index range, and a failed write of the output; 130 interrupted
(Ctrl-C).  On a mismatch, `expand --method all` names the first differing
exponent of each disagreeing method on stderr.  JSON is emitted canonically
(fixed key order, no spaces, coefficients as decimal strings), so
re-serializing a parsed payload gives back the same bytes.
"""


def canonical_json(obj) -> str:
    """The bytes of json.dumps(obj, separators=(",", ":")) for the CLI's dicts,
    lists, ints, bools and strings.  No string needs escaping: each is str() of
    an int or a fixed name (a payload key, a route in "agree", a bench task).
    Strings are tested first, since they are nearly every list element."""
    if isinstance(obj, str):
        return f'"{obj}"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f'"{k}":{canonical_json(v)}' for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ",".join(map(canonical_json, obj)) + "]"
    raise TypeError(f"not a CLI payload type: {type(obj).__name__}")


def format_series(s: tuple[int, ...]) -> str:
    """Human form: zero terms omitted, explicit sign separators,
    e.g. "1 - x - x^2 + x^5"."""
    parts: list[str] = []
    for e, c in enumerate(s):
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = "x" if e == 1 else f"x^{e}"
            body = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# The four expansions, the reference route first.  Each builder looks its
# function up when it is called, so a rebinding of the module name (a test's
# monkeypatch, the benchmark's tracer) is the function that runs.
_EXPANSIONS = {
    "product": lambda order: product_series(order),
    "method1": lambda order: stream_series("method1", order),
    "method2": lambda order: stream_series("method2", order),
    "closed": lambda order: closed_form_series(order),
}


def cmd_expand(method: str, order: int, format: str) -> int:
    """One method alone, or all four checked against the first: a verdict,
    a summary and any JSON "agree" map come only with more than one."""
    names = list(_EXPANSIONS) if method == "all" else [method]
    results = {name: _EXPANSIONS[name](order) for name in names}
    reference = results[names[0]]
    verdicts = {name: results[name] == reference for name in names[1:]}
    all_agree = all(verdicts.values())
    for name, ok in verdicts.items():
        if not ok:
            # every route returns order + 1 coefficients, so a mismatch
            # always has a first differing exponent
            e, want, got = next(
                (e, x, y) for e, (x, y) in enumerate(zip(reference, results[name])) if x != y
            )
            print(f"{name}: first difference at x^{e}: {names[0]} {want}, {name} {got}", file=sys.stderr)
    if format == "json":
        payload = {"order": len(reference) - 1, "coeffs": [str(c) for c in reference]}
        if verdicts:
            payload["agree"] = verdicts
        print(canonical_json(payload))
    else:
        print(format_series(reference))
        for name, ok in verdicts.items():
            print(f"{name}: {'agree' if ok else 'MISMATCH'}")
        if verdicts:
            print(f"{len(names)} methods agree" if all_agree else "methods disagree")
    return 0 if all_agree else 1


def cmd_partition(upto: int | None, n: int | None, format: str) -> int:
    """Exactly one of n (p(n) only) and upto (p(0)..p(upto)) is given."""
    values = partition_values(upto if n is None else n)
    if n is not None:
        if format == "json":
            print(canonical_json({"n": n, "p": str(values[n])}))
        else:
            print(values[n])
    elif format == "json":
        print(canonical_json({"upto": upto, "p": [str(v) for v in values]}))
    else:
        print(" ".join(str(v) for v in values))
    return 0


def cmd_verify(depth: int, order: int, roots: int) -> int:
    # a stage at or above the order raises ValueError before any stage is walked
    for method in ("method1", "method2"):
        identity_exponents(method, depth, order)

    # One (line, ok, stream) record per check, in output order, printed and counted
    # only once every check has run, so a resource failure partway prints nothing.
    # Stage-major, so method 2 reads the residuals method 1 just built; printed method-major.
    passed = {(method, m): verify_stage(method, m, order)
              for m in range(1, depth + 1) for method in ("method1", "method2")}
    checks = [(f"stage {method} m={m}: {'pass' if ok else 'FAIL'}", ok, sys.stdout)
              for (method, m), ok in sorted(passed.items())]
    ok = iterated_division_check(depth)
    checks.append((f"division depth={depth}: {'pass' if ok else 'FAIL'}", ok, sys.stdout))
    try:
        multiplicities = root_multiplicities(roots)
    except ArithmeticError as exc:
        # a leftover quotient other than 1: no count can be trusted, so none is printed
        checks.append((f"roots M={roots}: {exc}", False, sys.stderr))
    else:
        for d, measured in enumerate(multiplicities, 1):
            ok = measured == roots // d
            line = f"root d={d} expected={roots // d} measured={measured} {'match' if ok else 'MISMATCH'}"
            checks.append((line, ok, sys.stdout))
    for line, _, stream in checks:
        print(line, file=stream)
    failures = sum(not ok for _, ok, _ in checks)
    print("all checks passed" if not failures else f"{failures} check(s) failed")
    return 0 if not failures else 1


def cmd_bench(sizes: tuple[int, ...], format: str) -> int:
    records = run_bench(list(sizes))
    # the record's field order is the column order of both formats
    if format == "json":
        print(canonical_json([r._asdict() for r in records]))
    else:
        print("\n".join([",".join(BenchRecord._fields), *(",".join(map(str, r)) for r in records)]))
    return 0


def _count(low: int, high: int | None = None):
    """A validator of an integer count in [low, high].  A negative value
    reads "must be >= 0" whatever low is, and the upper bound is checked last."""

    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"not an integer: {text!r}") from None
        if value < low:
            raise ValueError(f"must be >= {0 if value < 0 else low}")
        if high is not None and value > high:
            raise ValueError(f"must be <= {high}")
        return value

    return check


def _size_list(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from None
    # the sizes are the x-axis of criterion 8's log-log fit, so each must be positive
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be >= 1")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    return sizes


def _choice(*choices: str):
    def check(text: str) -> str:
        if text not in choices:
            raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
        return text

    return check


_REQUIRED = object()
# Each command's handler and options: option -> (validator, default),
# _REQUIRED marking a required option.  A validator raises ValueError with
# the message's tail.  The handler takes each option's name without its
# dashes as a keyword.
_GRAMMAR = {
    "expand": (cmd_expand, {
        "--method": (_choice(*_EXPANSIONS, "all"), _REQUIRED),
        "--order": (_count(0), _REQUIRED),
        "--format": (_choice("text", "json"), "text"),
    }),
    "partition": (cmd_partition, {
        "--upto": (_count(0), None),
        "--n": (_count(0), None),
        "--format": (_choice("text", "json"), "text"),
    }),
    "verify": (cmd_verify, {
        "--depth": (_count(1), _REQUIRED),
        "--order": (_count(0), _REQUIRED),
        "--roots": (_count(1, _ROOTS_LIMIT), 10),
    }),
    "bench": (cmd_bench, {
        "--sizes": (_size_list, _REQUIRED),
        "--format": (_choice("csv", "json"), "csv"),
    }),
}
# options of which a command takes exactly one
_ONE_OF = {"partition": ("--upto", "--n")}
_HELP = ("-h", "--help")


def _option_like(token: str) -> bool:
    """Whether argparse reads the token as an option rather than as a value:
    it starts with '-' and is not '-', a negative number or a string with a
    space.  A final newline does not count, as `$` in argparse's pattern."""
    if not token.startswith("-") or token == "-" or " " in token:
        return False
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")
    if dot:
        return not (frac.isdecimal() and (whole == "" or whole.isdecimal()))
    return not whole.isdecimal()


def _parse(argv: list[str]) -> tuple[str, dict] | None:
    """(command, {option name without dashes: value}) for an argv in the
    grammar, None when it asks for help; otherwise raises ValueError with
    the line argparse would end with.

    Options take `--opt value` or `--opt=value` in any order, and a repeated
    option keeps its last value.  Checks run as argparse runs them: each
    value as it is read, then the required options, then the unrecognized
    arguments.  Unlike argparse, a prefix of an option is not accepted.
    """
    if not argv:
        raise ValueError("pentaseries: error: the following arguments are required: command")
    command, *rest = argv
    if command in _HELP:
        return None
    if command not in _GRAMMAR:
        choices = ", ".join(map(repr, _GRAMMAR))
        raise ValueError(
            f"pentaseries: error: argument command: invalid choice: {command!r} (choose from {choices})"
        )
    prog = f"pentaseries {command}"
    grammar = _GRAMMAR[command][1]
    group = _ONE_OF.get(command, ())
    values: dict[str, object] = {}
    extras: list[str] = []
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            return None
        name, eq, text = token.partition("=")
        if name not in grammar:
            extras.append(token)
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or _option_like(text):
                raise ValueError(f"{prog}: error: argument {name}: expected one argument")
        try:
            values[name] = grammar[name][0](text)
        except ValueError as exc:
            raise ValueError(f"{prog}: error: argument {name}: {exc}") from None
        if name in group:
            for other in group:
                if other != name and other in values:
                    raise ValueError(f"{prog}: error: argument {name}: not allowed with argument {other}")
    missing = [name for name, (_, default) in grammar.items() if default is _REQUIRED and name not in values]
    if missing:
        raise ValueError(f"{prog}: error: the following arguments are required: {', '.join(missing)}")
    if group and not any(name in values for name in group):
        raise ValueError(f"{prog}: error: one of the arguments {' '.join(group)} is required")
    if extras:
        shown = " ".join(t if t.isprintable() else repr(t) for t in extras)
        raise ValueError(f"pentaseries: error: unrecognized arguments: {shown}")
    return command, {name[2:]: values.get(name, default) for name, (_, default) in grammar.items()}


def main(argv: list[str]) -> int:
    """Run one command line and return its exit code; never exits the process."""
    try:
        parsed = _parse(argv)
        if parsed is None:
            print(_USAGE, end="")
            return 0
        command, opts = parsed
        return _GRAMMAR[command][0](**opts)
    except ValueError as exc:
        # an argv outside the grammar, or an argument a command rejects
        print(exc, file=sys.stderr)
        return 2
    except MemoryError:
        # a resource failure is a precondition error, never a mismatch (1)
        print(f"out of memory: {argv[0]} input too large", file=sys.stderr)
        return 2
    except OverflowError:
        # a size past the platform's index range fails before any allocation
        print(f"input too large: {argv[0]} size exceeds the index range", file=sys.stderr)
        return 2


def run() -> None:
    """Console entry point: main(sys.argv[1:]), a flush of both streams and an
    exit that skips interpreter teardown, which holds nothing this process
    needs (no threads, atexit handlers or open files besides the two streams)."""
    # p(n) passes the int-to-str digit limit (4,300 by default) near n = 1.5e7
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    # a stream closed at start is None: stderr then writes nowhere, and a closed
    # stdout is an output failure before any work
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    line = None
    try:
        if sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        code = main(sys.argv[1:])
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        # a failed write (closed pipe, full disk) exits 2, never 1, which means a mismatch
        code, line = 2, f"pentaseries: error: output failed: {exc.strerror or exc}"
    except KeyboardInterrupt:
        # 128 + SIGINT, the shell's code for a command stopped by Ctrl-C
        code, line = 130, "pentaseries: interrupted"
    if line is not None:
        try:
            print(line, file=sys.stderr, flush=True)
        except OSError:
            pass  # stderr failed too: the exit code is all that is left to report
    os._exit(code)


if __name__ == "__main__":
    run()
