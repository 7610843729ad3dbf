"""Traced run of one sdtensor CLI invocation, and the layer metrics derived from it.

Run as a script, this is the child process of a traced benchmark run:

    python3 perfbench/tracer.py --spans OUT.json -- basis --n 4 --m 2 --char all

It imports the package from ``src/`` of the checkout, clears every
``functools.lru_cache`` in it and checks that each starts empty, rebinds the
module-level functions listed in WRAPPED with span-recording wrappers, and
runs ``sdtensor.cli.main`` on the given arguments.  The report goes to stdout
exactly as from ``python -m sdtensor``.  Spans, counters and cache statistics
are kept in memory and written to OUT.json once, after the report.  Nothing
under ``src/`` is modified.

Imported, it provides ``layer_metrics``, which turns such a file into the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# (module, function, span name).  Every span is also a time metric: the span
# name plus ".s", the wall time during which at least one such span was open,
# except where SELF_TIMED names the metric instead.
WRAPPED = (
    ("cli", "_emit_json", "cli.emit"),
    ("cli", "_emit", "cli.emit"),
    ("symclass", "orbits", "symclass.orbits"),
    ("symclass", "decide_orthogonal_basis", "symclass.decide"),
    ("symclass", "act", "symclass.act"),
    ("dims", "dim_general", "dims.dim_general"),
    ("dims", "dim_closed_form", "dims.dim_closed_form"),
    ("chartab", "char_inner_product", "chartab.char_inner_product"),
    ("perm", "embed", "perm.embed"),
    ("perm", "compose", "perm.compose"),
    ("group", "conjugacy_classes", "group.conjugacy_classes"),
    ("verify", "run_checks", "verify.run_checks"),
)

# Spans timed by self time: duration minus the part of it their child spans
# cover.  decide's children are the act calls of its witness building, which
# run on its pool threads; run_checks' children are every other layer.
SELF_TIMED = {
    "symclass.decide": "symclass.decide.s",
    "verify.run_checks": "verify.run_checks.self_s",
}

CALL_COUNTED = ("symclass.act", "perm.embed")

# The caches a traced run must find and start empty.  Every other lru_cache
# of the package is cleared too.
COLD_CACHES = (
    "symclass._action_maps",
    "symclass._subgroup_char_sum",
    "symclass._stabilizer_decision",
    "chartab.value_table",
)


class Recorder:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self):
        self.spans = []  # (name, start, end, span id, parent span id or None)
        self.counters = collections.Counter()
        self.stabilizers = set()
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span per call; after(result, *args) runs untimed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread starts with an empty stack; its spans belong to
            # the span the main thread is blocked in.
            owner = stack or self._main_stack
            parent = owner[-1] if owner else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((name, start, end, span_id, parent))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def count_orbits(self, result, n, m, *_, **__):
        self.counters["symclass.sequences"] += m ** (4 * n)
        self.counters["symclass.orbit_count"] += len(result)
        self.stabilizers.update(frozenset(o.stabilizer) for o in result)


def package_caches(package) -> dict:
    """Every lru_cache defined at module level in the package, by dotted name."""
    caches = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == module.__name__:
                caches[f"{info.name}.{attr}"] = value
    return caches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the sdtensor arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(ROOT / "src"))
    import sdtensor
    from sdtensor import cli

    if not Path(sdtensor.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sdtensor imported from {sdtensor.__file__}, not from {ROOT / 'src'}")
    caches = package_caches(sdtensor)
    for name, cache in caches.items():
        cache.cache_clear()
        if cache.cache_info().currsize:
            raise SystemExit(f"cache {name} is not empty after cache_clear()")
    missing = [name for name in COLD_CACHES if name not in caches]

    recorder = Recorder()
    for module_name, attr, span in WRAPPED:
        module = sys.modules[f"sdtensor.{module_name}"]
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        after = recorder.count_orbits if span == "symclass.orbits" else None
        setattr(module, attr, recorder.wrap(span, fn, after))

    code = cli.main(cli_args)
    sys.stdout.flush()

    recorder.counters["symclass.distinct_stabilizers"] = len(recorder.stabilizers)
    document = {
        "spans": recorder.spans,
        "counters": dict(recorder.counters),
        "caches": {name: cache.cache_info()._asdict() for name, cache in caches.items()},
        "missing": missing,
    }
    with open(args.spans, "w") as fh:
        json.dump(document, fh)
    return code


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(document: dict) -> dict:
    """Per-layer metrics of one traced run, from the file main() wrote.

    cli.bytes_emitted and trace.overhead_s are measured by the parent process
    and are not included.
    """
    spans_by_name = collections.defaultdict(list)
    children = collections.defaultdict(list)
    for name, start, end, span_id, parent in document["spans"]:
        spans_by_name[name].append((start, end, span_id))
        if parent is not None:
            children[parent].append((start, end))

    metrics = {}
    for span in dict.fromkeys(name for _, _, name in WRAPPED):
        spans = spans_by_name[span]
        if span in SELF_TIMED:
            metrics[SELF_TIMED[span]] = sum(
                (end - start - _covered(children[span_id], start, end)
                 for start, end, span_id in spans),
                0.0,
            )
        else:
            metrics[f"{span}.s"] = _covered(
                [(start, end) for start, end, _ in spans], float("-inf"), float("inf")
            )
    for span in CALL_COUNTED:
        metrics[f"{span}.calls"] = len(spans_by_name[span])

    for name in ("symclass.sequences", "symclass.orbit_count", "symclass.distinct_stabilizers"):
        metrics[name] = document["counters"].get(name, 0)

    empty = {"hits": 0, "misses": 0, "currsize": 0}
    caches = document["caches"]
    decisions = caches.get("symclass._stabilizer_decision", empty)
    char_sums = caches.get("symclass._subgroup_char_sum", empty)
    metrics["symclass.decision_cache.hits"] = decisions["hits"]
    metrics["symclass.decision_cache.misses"] = decisions["misses"]
    metrics["symclass.decision_cache.entries"] = decisions["currsize"]
    # Pool threads that miss on the same key at once both compute it; the
    # cache keeps one entry, so misses minus entries counts repeated work.
    metrics["symclass.decision_cache.duplicate_misses"] = decisions["misses"] - decisions["currsize"]
    metrics["symclass.char_sum_cache.hits"] = char_sums["hits"]
    metrics["symclass.char_sum_cache.misses"] = char_sums["misses"]
    metrics["chartab.value_table.misses"] = caches.get("chartab.value_table", empty)["misses"]
    return metrics


# Counts that pool threads can change: threads that miss on the same key at
# once both compute it, so a cache records more misses than it gains entries,
# and each repeated computation makes extra calls to the caches below it.
THREAD_TIMED = (
    "symclass.decision_cache.hits",
    "symclass.decision_cache.misses",
    "symclass.decision_cache.duplicate_misses",
    "symclass.char_sum_cache.hits",
    "symclass.char_sum_cache.misses",
    "chartab.value_table.misses",
)


def repeatable_counts(document: dict, metrics: dict, count_names) -> dict:
    """Counts of one traced run that must be identical in every traced run:
    the counts not in THREAD_TIMED, the decision-cache lookups (one per
    decided orbit) and the number of entries of every cache."""
    counts = {name: metrics[name] for name in count_names if name not in THREAD_TIMED}
    counts["symclass.decision_cache.hits+misses"] = (
        metrics["symclass.decision_cache.hits"] + metrics["symclass.decision_cache.misses"]
    )
    for name, info in document["caches"].items():
        counts[f"{name}.entries"] = info["currsize"]
    return counts


if __name__ == "__main__":
    sys.exit(main())
