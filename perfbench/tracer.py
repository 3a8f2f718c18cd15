"""Run one workload command in-process with spans around the program's layers.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/tracer.py --spans OUT.json --run-id ID -- -m hirotaverify verify ...
    python3 perfbench/tracer.py --spans OUT.json --run-id ID -- perfbench/su11_driver.py ...

The part after ``--`` is the argument list the untraced run gives to
``python3``.  Before running it, the tracer replaces the public functions of
``laurent``, ``operators``, ``wronskian``, ``closedform``, ``verifier`` and
``cli`` with wrappers, in every ``hirotaverify`` namespace that binds them by
name, so calls resolved through module globals are seen wherever they come
from.  ``GaussianRational`` is left alone: its millions of calls would swamp
the trace.  Each span records its name, start, end and parent; every span in
the output file belongs to the file's ``run_id``.  Spans stay in memory and
are written once, when the command ends.  Only the program's public API is
read (``term_count``, ``terms()``, hashing), so the tracer keeps working when
the polynomial representation changes.

A value a counter attaches to a span is computed after the span's end clock,
and the time it takes is recorded with the span, so that neither the span
nor its parent is charged for it.  Spans are only correct for one thread of
one process: a wrapped call from another thread runs untraced, and a
``multiprocessing`` worker process would lose its spans.  Either is listed
under ``foreign`` in the output, and ``layers.py`` refuses such a file.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import multiprocessing.process
import os
import runpy
import sys
import threading
import time

PACKAGE = "hirotaverify"
MODULES = ("laurent", "operators", "wronskian", "closedform", "verifier", "cli")

# laurent functions and LaurentPoly methods, by the metric group they feed.
# Helpers called per term or per comparison (monomial_key, coeff_of_t, __eq__)
# stay unwrapped; their time lands in the caller's self time.
LAURENT_FUNCTIONS = {
    "exact_divide": "laurent.div",
    "parse": "laurent.parse",
    "serialize": "laurent.serialize",
    "differentiate": "laurent.subst",
    "subst_t_inverse": "laurent.subst",
    "subst_y_negate": "laurent.subst",
    "subst_t_negate": "laurent.subst",
    "subst_t_times_i": "laurent.subst",
    "swap_xy": "laurent.subst",
    "conjugate_coeffs": "laurent.subst",
    "substitute": "laurent.subst",
    "to_uv": "laurent.subst",
    "from_uv": "laurent.subst",
}
LAURENT_METHODS = {
    "__mul__": "laurent.mul",
    "__rmul__": "laurent.mul",
    "scale": "laurent.scale",
    "__add__": "laurent.add",
    "__radd__": "laurent.add",
    "__sub__": "laurent.add",
    "__rsub__": "laurent.add",
    "__neg__": "laurent.add",
    "t_coefficients": "laurent.subst",
    "evaluate": "laurent.evaluate",
}
TAU_FAMILY_METHODS = {
    "build": "wronskian.build",
    "load": "wronskian.load",
    "save": "wronskian.save",
}
# verifier helpers that are the bodies of suite checks, though private.
PRIVATE_CHECK_PREFIX = "_check_"


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list = []
        self._stack = [-1]
        # Why spans of this run are incomplete: calls from other threads,
        # worker processes started.
        self.foreign: set[str] = set()
        self._owner = threading.get_ident()

    def watch_workers(self) -> None:
        """Record every worker process the traced program starts.

        Process pools of every start method go through ``BaseProcess.start``.
        """
        start = multiprocessing.process.BaseProcess.start

        def start_worker(process):
            self.foreign.add("worker process started")
            return start(process)

        multiprocessing.process.BaseProcess.start = start_worker

    def wrap(self, name: str, fn, counter=None):
        """Return fn wrapped in a span; counter(args, kwargs, result) adds a value."""
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        foreign, owner, get_ident = self.foreign, self._owner, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != owner:
                foreign.add(f"{name} called from another thread")
                return fn(*args, **kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, None, 0)
                raise
            end = clock()
            stack.pop()
            if counter is None:
                spans[slot] = (index, start, end, parent, None, 0)
            else:
                value = counter(args, kwargs, result)
                spans[slot] = (index, start, end, parent, value, clock() - end)
            return result

        return traced

    def document(self) -> dict:
        return {"run_id": self.run_id, "names": self.names, "spans": self.spans,
                "foreign": sorted(self.foreign)}


# -- counters: values attached to a span, timed apart from it -------------------

def _real_terms(poly) -> int:
    return sum(1 for _, c in poly.terms() if c.is_real)


def _count_mul(args, kwargs, result):
    a, b = args[0], args[1]
    products = a.term_count * b.term_count
    complex_products = products - _real_terms(a) * _real_terms(b) if products else 0
    return [products, complex_products, result.term_count]


def _bound(fn, read):
    """Counter that passes the call's arguments, by parameter name, to read."""
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        return read(signature.bind(*args, **kwargs).arguments, result)

    return count


def _div_ops(arguments, quotient):
    return quotient.term_count * arguments["b"].term_count


def _pair_key(arguments, result):
    return [hash(arguments["f"]), hash(arguments["g"])]


def _side_key(name):
    def read(arguments, result):
        selector = arguments.get("family", arguments.get("which"))
        return [name, arguments["n"], arguments["I"], selector]

    return read


def _cache_bytes(arguments, result):
    return os.path.getsize(arguments["path"])


def _count_reports(args, kwargs, result):
    return len(result) if isinstance(result, list) else 1


def is_check(name: str) -> bool:
    """Whether a program function is the body of one suite check."""
    return (
        name.startswith("check_")
        or name.startswith(PRIVATE_CHECK_PREFIX)
        or name in ("ernst_residual_numeric", "jacobi_identity_check")
    )


def _module_counter(name: str, fn):
    if name == "hirota_dst":
        return _bound(fn, _pair_key)
    if name in ("orderwise_toda_sides", "orderwise_nakamura_sides"):
        return _bound(fn, _side_key(name))
    if is_check(name):
        return _count_reports
    return None


# -- installation ----------------------------------------------------------------

def _own_functions(module):
    for name, value in vars(module).items():
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield name, value


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and rebind every package name that held them."""
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    replaced: dict[int, object] = {}

    laurent = modules["laurent"]
    for name, group in LAURENT_FUNCTIONS.items():
        fn = getattr(laurent, name, None)
        if fn is not None:
            counter = _bound(fn, _div_ops) if group == "laurent.div" else None
            replaced[id(fn)] = tracer.wrap(group, fn, counter)
    poly = laurent.LaurentPoly
    for name, group in LAURENT_METHODS.items():
        fn = poly.__dict__.get(name)
        if fn is None:
            continue
        if id(fn) not in replaced:
            replaced[id(fn)] = (
                _wrap_mul(tracer, fn, poly) if group == "laurent.mul" else tracer.wrap(group, fn)
            )
        setattr(poly, name, replaced[id(fn)])

    for module_name in ("operators", "wronskian", "closedform", "verifier", "cli"):
        module = modules[module_name]
        for name, fn in _own_functions(module):
            private_check = module_name == "verifier" and name.startswith(PRIVATE_CHECK_PREFIX)
            if name.startswith("_") and not private_check:
                continue
            replaced[id(fn)] = tracer.wrap(f"{module_name}.{name}", fn, _module_counter(name, fn))

    family = modules["wronskian"].TauFamily
    for name, group in TAU_FAMILY_METHODS.items():
        raw = family.__dict__.get(name)
        if raw is None:
            continue
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        counter = _bound(fn, _cache_bytes) if name in ("load", "save") else None
        wrapped = tracer.wrap(group, fn, counter)
        setattr(family, name, kind(wrapped) if kind else wrapped)

    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == PACKAGE or module_name.startswith(PACKAGE + ".")):
            continue
        namespace = vars(module)
        for name, value in list(namespace.items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None:
                namespace[name] = wrapped


def _wrap_mul(tracer: Tracer, fn, poly_type: type):
    """Span only polynomial-by-polynomial products; scalar ones go through scale."""
    poly_mul = tracer.wrap("laurent.mul", fn, _count_mul)

    @functools.wraps(fn)
    def dispatch(self, other):
        if isinstance(other, poly_type):
            return poly_mul(self, other)
        return fn(self, other)

    return dispatch


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print("usage: tracer.py --spans OUT --run-id ID -- <python arguments>", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="tracer.py")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]

    tracer = Tracer(args.run_id)
    install(tracer)
    tracer.watch_workers()
    code = 0
    try:
        if command[:1] == ["-m"]:
            sys.argv = [command[1]] + command[2:]
            runpy.run_module(command[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(command)
            runpy.run_path(command[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        with open(args.spans, "w") as out:
            json.dump(tracer.document(), out, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
