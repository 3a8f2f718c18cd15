"""Per-layer metrics from the spans of a traced program run and a traced set-up.

Times ending in ``self_s`` (and ``wronskian.*_s``) are self time: a span's
duration minus the part of it covered by its child spans, summed over the
spans of the group.  The time the tracer spent computing a span's counter
value counts as neither the span's nor its parent's; for the program run it
is reported as ``trace.counter_s``.  ``verifier.check_s.*`` are whole
durations of single check calls.  Counts come from values the tracer
attached to spans.

The traced set-up build is the only place the program builds a family and
writes a cache.  The metrics only a build has (``BUILD_METRICS``) come from
it under their own names; ``setup.*`` are its values of metrics the program
run has too.  All other metrics come from the traced program run.
"""

from __future__ import annotations

import statistics

from tracer import is_check


WRONSKIAN_TIMES = {
    "wronskian.build_s": ("wronskian.build",),
    "wronskian.minors_s": ("wronskian.leading_principal_minors",),
    "wronskian.det_s": (
        "wronskian.determinant",
        "wronskian.det_fraction_free",
        "wronskian.det_cofactor",
    ),
    "wronskian.load_s": ("wronskian.load",),
    "wronskian.save_s": ("wronskian.save",),
}
SIDE_SPANS = ("verifier.orderwise_toda_sides", "verifier.orderwise_nakamura_sides")
# Bareiss minors and the cache write, which no program run does.
BUILD_METRICS = (
    "wronskian.build_s",
    "wronskian.minors_s",
    "wronskian.save_s",
    "laurent.serialize.self_s",
)
# The build's multiply and division work, reported as setup.<name>.
SETUP_METRICS = (
    "laurent.mul.self_s",
    "laurent.mul.term_products",
    "laurent.div.calls",
    "laurent.div.self_s",
    "laurent.div.term_ops",
)

# Medians in seconds over the untraced loop, and the cost of tracing.
UNTRACED_METRICS = (
    "program.wall_s",
    "program.cpu_s",
    "reference.wall_s",
    "trace.overhead_s",
)

# Every per-layer metric, in the order BENCHMARK.json lists them: name -> unit.
METRICS = {
    "laurent.mul.calls": "count",
    "laurent.mul.self_s": "s",
    "laurent.mul.term_products": "count",
    "laurent.mul.useful_ratio": "ratio",
    "laurent.mul.complex_share": "ratio",
    "laurent.scale.calls": "count",
    "laurent.scale.self_s": "s",
    "laurent.div.calls": "count",
    "laurent.div.self_s": "s",
    "laurent.div.term_ops": "count",
    "laurent.add.calls": "count",
    "laurent.add.self_s": "s",
    "laurent.subst.calls": "count",
    "laurent.subst.self_s": "s",
    "laurent.evaluate.self_s": "s",
    "laurent.parse.self_s": "s",
    "laurent.serialize.self_s": "s",
    "gaussian.scalar_muls": "count",
    "operators.calls": "count",
    "operators.self_s": "s",
    "operators.hirota_dst.calls": "count",
    "operators.apply_F.calls": "count",
    "operators.hirota_dst.distinct_ratio": "ratio",
    "wronskian.build_s": "s",
    "wronskian.minors_s": "s",
    "wronskian.det_s": "s",
    "wronskian.load_s": "s",
    "wronskian.save_s": "s",
    "wronskian.cache_bytes": "bytes",
    "closedform.calls": "count",
    "closedform.self_s": "s",
    "verifier.checks": "count",
    "verifier.check_s.p50": "s",
    "verifier.check_s.p90": "s",
    "verifier.sides.calls": "count",
    "verifier.sides.distinct_ratio": "ratio",
    "verifier.su11_family.calls": "count",
    "verifier.self_s": "s",
    "cli.self_s": "s",
    "setup.laurent.mul.self_s": "s",
    "setup.laurent.mul.term_products": "count",
    "setup.laurent.div.calls": "count",
    "setup.laurent.div.self_s": "s",
    "setup.laurent.div.term_ops": "count",
    "program.wall_s": "s",
    "program.cpu_s": "s",
    "reference.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.counter_s": "s",
}


def _is_check(span_name: str) -> bool:
    return is_check(span_name.split(".", 1)[1])


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(run: dict, setup: dict, untraced: dict[str, float]) -> dict[str, dict]:
    """The per-layer metrics of one traced program run and one traced set-up.

    ``untraced`` holds the metrics the untraced loop measured
    (``UNTRACED_METRICS``).
    """
    for document in (run, setup):
        if document["foreign"]:
            raise RuntimeError(f"spans of {document['run_id']} are incomplete: "
                               + "; ".join(document["foreign"]))
    found = _aggregate(run)
    built = _aggregate(setup)
    found.update({name: built[name] for name in BUILD_METRICS})
    found.update({f"setup.{name}": built[name] for name in SETUP_METRICS})
    found.update({name: untraced[name] for name in UNTRACED_METRICS})
    return {name: {"value": found[name], "unit": unit} for name, unit in METRICS.items()}


def _aggregate(document: dict) -> dict[str, float]:
    """Metrics of one span document, under their unprefixed names."""
    names = document["names"]
    spans = document["spans"]
    child_ns = [0] * len(spans)
    counter_ns = 0
    for index, start, end, parent, _, counted in spans:
        counter_ns += counted
        if parent >= 0:
            child_ns[parent] += end - start + counted

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, list] = {}
    check_durations: list[float] = []
    checks = 0
    for slot, (index, start, end, parent, value, _) in enumerate(spans):
        name = names[index]
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_ns[slot]) / 1e9
        calls[name] = calls.get(name, 0) + 1
        if value is not None:
            values.setdefault(name, []).append(value)
        if _is_check(name):
            check_durations.append((end - start) / 1e9)
            checks += value or 0

    def group_self(*groups: str) -> float:
        return sum(self_s.get(g, 0.0) for g in groups)

    def layer(prefix: str) -> list[str]:
        return [n for n in calls if n.split(".", 1)[0] == prefix]

    mul = values.get("laurent.mul", [])
    products = sum(v[0] for v in mul)
    div_ops = sum(values.get("laurent.div", []))
    dst_keys = [tuple(v) for v in values.get("operators.hirota_dst", [])]
    side_keys = [tuple(v) for n in SIDE_SPANS for v in values.get(n, [])]

    return {
        "laurent.mul.calls": calls.get("laurent.mul", 0),
        "laurent.mul.self_s": group_self("laurent.mul"),
        "laurent.mul.term_products": products,
        "laurent.mul.useful_ratio": _ratio(sum(v[2] for v in mul), products),
        "laurent.mul.complex_share": _ratio(sum(v[1] for v in mul), products),
        "laurent.scale.calls": calls.get("laurent.scale", 0),
        "laurent.scale.self_s": group_self("laurent.scale"),
        "laurent.div.calls": calls.get("laurent.div", 0),
        "laurent.div.self_s": group_self("laurent.div"),
        "laurent.div.term_ops": div_ops,
        "laurent.add.calls": calls.get("laurent.add", 0),
        "laurent.add.self_s": group_self("laurent.add"),
        "laurent.subst.calls": calls.get("laurent.subst", 0),
        "laurent.subst.self_s": group_self("laurent.subst"),
        "laurent.evaluate.self_s": group_self("laurent.evaluate"),
        "laurent.parse.self_s": group_self("laurent.parse"),
        "laurent.serialize.self_s": group_self("laurent.serialize"),
        "gaussian.scalar_muls": products + div_ops,
        "operators.calls": sum(calls[n] for n in layer("operators")),
        "operators.self_s": group_self(*layer("operators")),
        "operators.hirota_dst.calls": calls.get("operators.hirota_dst", 0),
        "operators.apply_F.calls": calls.get("operators.apply_F", 0),
        "operators.hirota_dst.distinct_ratio": _ratio(len(set(dst_keys)), len(dst_keys)),
        **{metric: group_self(*groups) for metric, groups in WRONSKIAN_TIMES.items()},
        "wronskian.cache_bytes": sum(values.get("wronskian.load", []))
        + sum(values.get("wronskian.save", [])),
        "closedform.calls": sum(calls[n] for n in layer("closedform")),
        "closedform.self_s": group_self(*layer("closedform")),
        "verifier.checks": checks,
        "verifier.check_s.p50": statistics.median(check_durations) if check_durations else 0.0,
        "verifier.check_s.p90": _p90(check_durations),
        "verifier.sides.calls": len(side_keys),
        "verifier.sides.distinct_ratio": _ratio(len(set(side_keys)), len(side_keys)),
        "verifier.su11_family.calls": calls.get("verifier.su11_family", 0),
        "verifier.self_s": group_self(*layer("verifier")),
        "cli.self_s": group_self(*layer("cli")),
        "trace.counter_s": counter_ns / 1e9,
    }
