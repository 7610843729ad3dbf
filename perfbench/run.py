"""sdtensor benchmark: real CLI invocations, each in a fresh process.

    python3 perfbench/run.py --workload basis-all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Run it from anywhere inside a source checkout; the program is imported from
the checkout's src/ directory, never from an installed copy.

With --trace 0 a run times `python -m sdtensor <workload arguments>` in fresh
processes, interleaved with fresh interpreters that only import sdtensor.cli,
and reports the end-to-end metrics.  With --trace 1 it alternates untraced
invocations with traced ones (see tracer.py) and reports the per-layer
metrics.  Every report is checked byte for byte against its pinned sha256 and
length, and its exit code against the pinned one.  Inputs are fixed; the seed
only sets the order in which the children of a run are started.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

MIN_RUNS = 3  # workload invocations per end-to-end run, unless time runs out
SETUP_RUNS = 9  # import-only interpreters per end-to-end run
MIN_TRACED = 2  # traced invocations per traced run, so counts can be compared
# A child starts only if it can end this many seconds into the run; one still
# running then is killed and counts as failed.
HARD_LIMIT_S = 150.0
TRACEBACK = b"Traceback (most recent call last)"


@dataclass(frozen=True)
class Expected:
    exit_code: int
    sha256: str
    length: int


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    expected: Expected


# Reports pinned at the commit that introduced this benchmark.
WORKLOADS = {
    "basis-all": Workload(
        ("basis", "--n", "4", "--m", "2", "--char", "all"),
        Expected(0, "8ac0819428263b67796f9971e502eba6999355608035c94d102f183bd555a897", 29641613),
    ),
    "verify-orbits": Workload(
        ("verify", "--n", "3", "--m", "3"),
        Expected(0, "51a7d834eedf23dfa6890979b434bcea59384129da1fc7cf4911994c2076eb1e", 2193),
    ),
    "dims-large": Workload(
        ("dims", "--n", "48", "--m", "3"),
        Expected(0, "f63ca841ecc13d1b2f225d20b6ed74864e5d90ffd58a1fab0d2185be0b534df8", 34445),
    ),
    "verify-table": Workload(
        ("verify", "--n", "20"),
        Expected(0, "f39aa04b99ab59c54af7d8c53079706169961d367e91f5f479770d481d2e57fd", 1258),
    ),
}

SETUP_ARGV = ("-c", "import sdtensor.cli")
SETUP_EXPECTED = Expected(0, hashlib.sha256(b"").hexdigest(), 0)

PROBE = (
    "import json, sys, numpy, sdtensor.cli; print(json.dumps({"
    "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'package': sdtensor.cli.__file__}))"
)


@dataclass
class Child:
    """One child process, measured from spawn to exit with stdout consumed."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float  # ru_maxrss of this child alone, from os.wait4
    length: int
    problem: str | None


def child_env() -> dict:
    # SDTENSOR_* variables (the enumeration budget) would change the reports.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SDTENSOR_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, expected: Expected, deadline: float) -> Child:
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.start()
    stderr = []
    drain = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    drain.start()
    digest, length = hashlib.sha256(), 0
    while chunk := proc.stdout.read(1 << 20):
        digest.update(chunk)
        length += len(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    killer.cancel()
    drain.join()
    proc.stdout.close()
    proc.stderr.close()

    problems = []
    if proc.returncode != expected.exit_code:
        problems.append(f"exit code {proc.returncode}, expected {expected.exit_code}")
    if length != expected.length:
        problems.append(f"{length} bytes on stdout, expected {expected.length}")
    elif digest.hexdigest() != expected.sha256:
        problems.append(f"stdout sha256 {digest.hexdigest()[:12]}, expected {expected.sha256[:12]}")
    if TRACEBACK in stderr[0]:
        problems.append("traceback on stderr")
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        length=length,
        problem="; ".join(problems) or None,
    )


def provenance(seed: int) -> dict:
    """Machine, interpreter and source identity; also compiles the bytecode."""
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0:
        raise SystemExit(f"cannot import sdtensor from {ROOT / 'src'}:\n{probe.stderr}")
    found = json.loads(probe.stdout)
    if not Path(found.pop("package")).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sdtensor is not imported from {ROOT / 'src'}")
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),  # the default --jobs of the CLI
        **found,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def describe(values) -> str:
    return (
        f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"
        if values else "no samples"
    )


class Run:
    """The children of one run, started in a seeded order until time is up."""

    def __init__(self, name: str, seed: int, seconds: float, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.deadline = deadline
        self.start = time.perf_counter()
        self.children: list[Child] = []

    def fits(self, slowest: float) -> bool:
        return time.perf_counter() + 1.5 * slowest < self.deadline

    def go_on(self, slowest: float) -> bool:
        return time.perf_counter() - self.start < self.seconds and self.fits(slowest)

    def spawn(self, argv, expected: Expected, label: str) -> Child:
        child = run_child(argv, expected, self.deadline)
        self.children.append(child)
        status = "ok" if child.problem is None else f"FAILED: {child.problem}"
        print(
            f"  {label:<7} wall {child.wall_s:8.4f} s  cpu {child.cpu_s:8.4f} s  "
            f"rss {child.peak_rss_mb:7.1f} MB  {status}",
            flush=True,
        )
        return child

    def invoke(self) -> Child:
        return self.spawn(("-m", "sdtensor", *self.workload.args), self.workload.expected, "run")

    def end_to_end(self) -> dict:
        runs, setups = [], []
        plan = ["run"] * MIN_RUNS + ["setup"] * SETUP_RUNS
        self.rng.shuffle(plan)
        for kind in plan:
            if kind == "setup":
                setups.append(self.spawn(SETUP_ARGV, SETUP_EXPECTED, "setup"))
            elif not runs or self.fits(max(c.wall_s for c in runs)):
                runs.append(self.invoke())
        while self.go_on(max(c.wall_s for c in runs)):
            runs.append(self.invoke())
        return {
            "wall_s": [c.wall_s for c in runs],
            "cpu_s": [c.cpu_s for c in runs],
            "peak_rss_mb": [c.peak_rss_mb for c in runs],
            "setup_s": [c.wall_s for c in setups],
        }

    def traced(self, count_names) -> tuple[dict, list[str], bool]:
        """Per-layer samples, notes, and whether the counts repeated."""
        OUT.mkdir(exist_ok=True)
        plain, traced = [], []

        def trace_once():
            spans_file = OUT / f"{self.name}.{len(traced)}.spans.json"
            spans_file.unlink(missing_ok=True)
            argv = (str(HERE / "tracer.py"), "--spans", str(spans_file), "--", *self.workload.args)
            traced.append((self.spawn(argv, self.workload.expected, "traced"), spans_file))

        plan = ["traced"] * MIN_TRACED + ["plain"]
        self.rng.shuffle(plan)
        for kind in plan:
            if kind == "plain":
                plain.append(self.invoke())
            elif self.fits(max((c.wall_s for c, _ in traced), default=0.0)):
                trace_once()
        while self.go_on(max(c.wall_s for c, _ in traced)):
            trace_once() if len(traced) <= len(plain) else plain.append(self.invoke())

        # Spans are read only now: a child's ru_maxrss starts from this
        # process's own peak, which parsing them would raise.
        notes, layers, repeats = [], [], []
        for child, spans_file in traced:
            if child.problem is None:
                document = json.loads(spans_file.read_text())
                notes.extend(f"not found in the package: {m}" for m in document["missing"])
                layer = tracer.layer_metrics(document)
                layer["cli.bytes_emitted"] = child.length
                layers.append(layer)
                repeats.append(tracer.repeatable_counts(document, layer, count_names))
        metrics = {key: [layer[key] for layer in layers] for key in layers[0]} if layers else {}
        repeated = True
        for key in repeats[0] if repeats else ():
            values = [r[key] for r in repeats]
            if len(set(values)) > 1:
                repeated = False
                notes.append(f"FAILED: count {key} differs between traced runs: {values}")
        metrics["trace.overhead_s"] = [
            statistics.median(c.wall_s for c, _ in traced)
            - statistics.median(c.wall_s for c in plain)
        ]
        return metrics, sorted(set(notes)), repeated


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    run = Run(name, seed, seconds, time.perf_counter() + HARD_LIMIT_S)
    print(f"workload {name}: sdtensor {' '.join(run.workload.args)}  (trace {int(trace)})")
    print(f"  provenance {json.dumps(provenance(seed), sort_keys=True)}", flush=True)
    if trace:
        counts = [m["name"] for m in wanted if m["unit"] == "count"]
        samples, notes, repeated = run.traced(counts)
    else:
        samples, notes, repeated = run.end_to_end(), [], True

    failed = sum(c.problem is not None for c in run.children)
    attempted = len(run.children)
    metrics = {}
    for metric in wanted:
        values = samples.get(metric["name"], [])
        value = statistics.median(values) if values else 0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<42} {value:>14.6g} {metric['unit']:<6} {describe(values)}")
    if not trace:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print(
            "  peak_rss_mb is ru_maxrss of each child process on its own (os.wait4); "
            f"it cannot read below this harness's own peak, {own:.1f} MB."
        )
    print(f"  {'error_rate':<42} {failed / attempted:>14.6g} {'ratio':<6} {failed} of {attempted} failed")
    for note in notes:
        print(f"  {note}")
    return {
        "correct": failed == 0 and repeated,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sdtensor" / "cli.py").is_file():
        print(f"error: no sdtensor source at {ROOT / 'src' / 'sdtensor'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.workload != "all":
        result = measure(args.workload, args.seed, seconds, bool(args.trace), spec)
    else:
        results = {w: measure(w, args.seed, seconds, bool(args.trace), spec) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{metric}": entry
                for w, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
