"""Closed-loop benchmark of the ``pbn`` CLI, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process, no threads: each request is a call of
``prymbn.cli.main(argv)`` and the next one is sent only after it returns.
A run replays the workload's seeded deck in whole passes for about
``--seconds`` seconds (at least one pass), then checks every response with
the oracles.  The last stdout line is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details (seed, argv digest, tail percentile, environment, failures).

On a shared 2-vCPU virtual machine the speed of the CPU drifts by 10-30%
over seconds to minutes, more than the changes the benchmark must resolve.
So a fixed pure-Python calibration kernel runs about every 0.1 s between
requests and around each spawned probe, and every time metric is scaled by
``CALIBRATION_S / kernel time``: it reads as time on a machine where the
kernel takes ``CALIBRATION_S``.  The unscaled figures are in the details
line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays the deck
once untraced and once with every layer's public functions wrapped, and
reports per-layer metrics; the spans go to ``.perfbench-out/``.
Run from a checkout of the repository; the program is imported from ``src``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBES = 21  # fresh processes per run for setup_s and for cold_start_ms
CALIBRATION_S = 0.005  # kernel time at the reference speed
CALIBRATE_EVERY_S = 0.1
WARM_UP = [("--format", fmt, "dim", "--locus", "V", "--g", "10", "--k", "1", "--r", "2")
           for fmt in workloads.FORMATS]


def import_cli():
    """Import ``prymbn.cli`` from this checkout's ``src``, and nowhere else."""
    expected = SRC / "prymbn" / "cli.py"
    if not expected.is_file():
        raise SystemExit(f"perfbench: {expected} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from prymbn import cli
    if Path(cli.__file__).resolve() != expected.resolve():
        raise SystemExit(f"perfbench: imported {cli.__file__}, not {expected}")
    return cli


def call(cli, argv: Sequence[str]) -> Tuple[int, str, str, float]:
    """One request: exit code, stdout, stderr and wall seconds of ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse refusals
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # a crash fails the request, as it would exit 1 from a shell
        code = 1
        err.write(f"uncaught {type(exc).__name__}: {exc}\n")
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), elapsed


def _kernel() -> int:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i * i + 1)
    table = {str(i): [i, i * i, str(total.denominator % 997)] for i in range(800)}
    return len(json.dumps(table, sort_keys=True)) + sum(range(50000))


class Speed:
    """Calibration kernels interleaved with the work, to scale wall times to the reference speed."""

    def __init__(self) -> None:
        self.took: List[float] = []
        self.last = 0.0

    def sample(self) -> int:
        """Run the kernel; return its index.

        The garbage collector is off meanwhile, so the kernel's cost does not
        depend on how many objects the program holds.
        """
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _kernel()
        self.last = time.perf_counter()
        if collecting:
            gc.enable()
        self.took.append(self.last - start)
        return len(self.took) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= CALIBRATE_EVERY_S

    def scale(self, j: int) -> float:
        """Scale for work done between kernel ``j`` and the next one.

        The median of the six nearest kernels ignores a kernel that an
        interrupt slowed down.
        """
        return CALIBRATION_S / statistics.median(self.took[max(0, j - 2):j + 4])


def prepare(workload: str, seed: int):
    """Everything before the first timed request: import, inputs, warm-up.

    The warm-up only loads the lazy imports of the renderers; it sends no
    request that fills a cache of the program.
    """
    cli = import_cli()
    deck = workloads.deck(workload, seed)
    for argv in WARM_UP:
        call(cli, argv)
    return cli, deck


def tail_quantile(n: int) -> Optional[Fraction]:
    """The highest quantile with at least ten of ``n`` samples beyond it.

    None when that quantile would be below the median: too few samples for
    a tail.
    """
    return Fraction(n - 10, n) if n >= 20 else None


def nearest_rank(values: Sequence[float], q: Fraction) -> float:
    ordered = sorted(values)
    return ordered[max(1, ceil(q * len(ordered))) - 1]


class Outcome:
    """What a replay found wrong: failure messages and the count of failed requests."""

    def __init__(self) -> None:
        self.messages: List[str] = []
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def replay(cli, deck, speed: Speed, outcome: Outcome, passes_wanted: Optional[int] = None,
           seconds: float = 0.0, reference: Optional[List[Tuple[int, int]]] = None):
    """Send the deck in whole passes.

    Returns raw and scaled latencies, response digests, wall time and bytes
    rendered.

    The oracle checks each request's first response as soon as it returns,
    outside the timed call, so no response has to be kept; every later
    response to it, or every response when ``reference`` digests are given,
    must repeat that one byte for byte.  With ``passes_wanted`` unset, a new
    pass starts only while the last one would still end within ``seconds``.
    """
    import oracle

    raw: List[float] = []
    kernel: List[int] = []
    out_bytes = 0
    digests = list(reference or [])
    failing = set()  # requests whose first response failed the oracle
    passes, last = 0, 0.0
    j = speed.sample()
    start = time.perf_counter()
    while passes == 0 or (passes < passes_wanted if passes_wanted
                          else time.perf_counter() - start + last <= seconds):
        pass_start = time.perf_counter()
        for i, req in enumerate(deck):
            if speed.due():
                j = speed.sample()
            code, out, err, dt = call(cli, req.argv)
            raw.append(dt)
            kernel.append(j)
            out_bytes += len(out.encode())
            digest = (code, hash(out))
            if i == len(digests):
                digests.append(digest)
                reason = oracle.check(req, code, out)
                if reason is not None:
                    failing.add(i)
                    last_err = (err.strip().splitlines() or [""])[-1]
                    outcome.fail(oracle.describe(req, f"{reason} {last_err}".strip()))
            elif digest != digests[i]:
                outcome.fail(oracle.describe(req, "output differs from its first response"))
            elif i in failing:
                outcome.failed += 1
        last = time.perf_counter() - pass_start
        passes += 1
    wall = time.perf_counter() - start
    speed.sample()
    scaled = [dt * speed.scale(k) for dt, k in zip(raw, kernel)]
    return raw, scaled, digests, wall, out_bytes


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probe(workload: str, seed: int) -> Tuple[float, Optional[str]]:
    """Seconds from spawning a fresh interpreter until it is ready to send its first request."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        try:
            child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
    ok = line.strip() == "ready" and child.returncode == 0
    return ready - start, None if ok else f"setup probe exited {child.returncode}"


def cold_start(req) -> Tuple[float, Optional[str]]:
    """Wall seconds of ``python -m prymbn.cli`` for one request, and a failure reason, if any."""
    import oracle

    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "prymbn.cli", *req.argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    return elapsed, oracle.check(req, done.returncode, done.stdout)


def probe(speed: Speed, work) -> Tuple[float, float, Optional[str]]:
    """Scaled and raw seconds of one probe between two kernels, and its failure reason."""
    j = speed.sample()
    raw, reason = work()
    speed.sample()
    return raw * speed.scale(j), raw, reason


def environment() -> Dict[str, object]:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"git_sha": sha, "python": platform.python_version(), "nproc": nproc,
            "machine": platform.machine()}


def measure(workload: str, seed: int, seconds: float, cli, deck):
    """The untraced run: end-to-end metrics."""
    speed, outcome = Speed(), Outcome()
    raw, scaled, _, wall, _ = replay(cli, deck, speed, outcome, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setups, colds = [], []
    for _ in range(PROBES):  # alternate, so both kinds see the same machine states
        setups.append(probe(speed, lambda: setup_probe(workload, seed)))
        colds.append(probe(speed, lambda: cold_start(workloads.COLD_START[workload])))
    for _, _, reason in setups + colds:
        if reason is not None:
            outcome.fail(f"probe: {reason}")

    q = tail_quantile(len(deck))

    def figures(latencies, cold, setup):
        return {
            "throughput_qps": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (nearest_rank(latencies, q) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cold_start_ms": (statistics.median(cold) * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
        }

    metrics = figures(scaled, [c[0] for c in colds], [s[0] for s in setups])
    attempted = len(raw) + 2 * PROBES
    details = {
        "passes": len(raw) // len(deck),
        "timed_s": wall,
        "latency_tail": {"percentile": float(q * 100), "samples": len(raw),
                         "beyond": len(raw) - ceil(q * len(raw))},
        "failed_ratio": outcome.failed / attempted,
        "cold_start_request": " ".join(workloads.COLD_START[workload].argv),
        "kernel_ms": {"median": statistics.median(speed.took) * 1e3, "min": min(speed.took) * 1e3,
                      "max": max(speed.took) * 1e3, "count": len(speed.took)},
        "unscaled": {name: value for name, (value, _) in
                     figures(raw, [c[1] for c in colds], [s[1] for s in setups]).items()},
    }
    return metrics, attempted, outcome, details


def measure_traced(workload: str, seed: int, cli, deck):
    """One untraced and one traced pass of the deck: per-layer metrics."""
    import spans

    modules = spans.layer_modules()
    speed, outcome = Speed(), Outcome()
    _, plain, digests, _, _ = replay(cli, deck, speed, outcome, passes_wanted=1)
    for module in modules:  # the traced pass starts with empty caches too
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        raw, traced, _, _, out_bytes = replay(cli, deck, speed, outcome, passes_wanted=1,
                                              reference=digests)
    finally:
        tracer.uninstall()

    layer = tracer.layer_metrics(sum(raw))
    layer["cli.out_bytes"] = out_bytes
    layer["trace.overhead_ratio"] = sum(traced) / sum(plain)
    units = {"self_ms": "ms", "share": "ratio", "overhead_ratio": "ratio", "out_bytes": "bytes",
             "coeff_bits": "bits", "max_length": "parts"}
    metrics = {}
    for name, value in layer.items():
        last = name.rsplit(".", 1)[-1]
        unit = "ms" if ".ms_per_call." in name or ".suite_ms." in name else units.get(last, "count")
        metrics[name] = (value, unit)

    out_file = ROOT / ".perfbench-out" / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write(out_file)
    predicted = workloads.DOMINANT[workload]
    share = sum(layer[f"{name}.share"] for name in predicted)
    other = sum(layer[f"{name}.share"] for name in spans.LAYERS if name not in predicted)
    details = {
        "spans": len(tracer.start),
        "spans_file": str(out_file.relative_to(ROOT)),
        "dominant": {"predicted": list(predicted), "share": share, "other_share": other,
                     "confirmed": share > other},
    }
    return metrics, 2 * len(deck), outcome, details


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli, deck = prepare(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if args.trace:
        metrics, attempted, outcome, extra = measure_traced(args.workload, args.seed, cli, deck)
    else:
        metrics, attempted, outcome, extra = measure(args.workload, args.seed, args.seconds, cli, deck)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests_per_pass": len(deck),
        "argv_sha256": workloads.digest(deck),
        **extra,
        "env": environment(),
        "failures": outcome.messages,
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
