"""cellqec benchmark: CLI workloads timed in-process, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop: one client in this process runs its op
list (cellqec command lines, through ``cellqec.cli.main``) one op after
another, starting passes over the list while the next one is expected to end
within ``--seconds``, and checks every output.  Timings are scaled to a
nominal host speed with ``hostspeed`` (see there).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, from one untraced and one traced pass.  See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import hostspeed  # noqa: E402  (lives beside this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "search.schemes": "count",
        "search.classes": "count",
        "search.new_class_ratio": "ratio",
        "gf2.coset_steps": "count",
        "gf2.budget_exceeded": "count",
        "trace.overhead_s": "s",
    })
    return units


class Run:
    """Runs op lists, counting attempts and failures across passes."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.first_out: dict[int, str] = {}
        # a running hostspeed.Probe, whose handler time is taken out of
        # the op times
        self.probe: hostspeed.Probe | None = None

    def call(self, argv) -> tuple[int, str, str, float]:
        from cellqec import cli

        out, err = io.StringIO(), io.StringIO()
        busy0 = self.probe.busy_s if self.probe else 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that crashes counts as failed
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if self.probe:
            elapsed -= self.probe.busy_s - busy0
        return code, out.getvalue(), err.getvalue(), elapsed

    def one_pass(self) -> tuple[float, dict]:
        """(seconds in ops, summed check counts); raises CheckFailed."""
        wall = 0.0
        counts: dict[str, int] = {}
        for i, op in enumerate(self.ops):
            code, out, err, dt = self.call(op.argv)
            wall += dt
            self.attempted += 1
            if code != 0:
                self.failed += 1
                print(f"op failed (exit {code}): {' '.join(op.argv)}:"
                      f" {err.strip()[-300:]}", file=sys.stderr)
                continue
            try:
                checked = op.check(out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise workloads.CheckFailed(
                    f"{' '.join(op.argv)}: malformed output: {exc!r}") from exc
            for key, value in checked.items():
                counts[key] = counts.get(key, 0) + value
            # every cellqec output is byte-stable for fixed inputs and seed
            if self.first_out.setdefault(i, out) != out:
                raise workloads.CheckFailed(
                    f"{' '.join(op.argv)}: output changed between passes")
        return wall, counts


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the set-up interpreters
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until its inputs are ready.

    Returns the measured seconds of each spawn and the host speed around
    it, from the reference spawns just before and just after it.  This
    process and every spawn run on one CPU, so the reference spawns see
    the speed the measured one saw.
    """
    child = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
             " import workloads; workloads.prepare(sys.argv[3], int(sys.argv[4]));"
             " print('ready', flush=True)")
    seconds, speeds = [], []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        refs = [hostspeed.spawn_sample()]
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            with subprocess.Popen(
                    [sys.executable, "-c", child, str(HERE), str(SRC), workload,
                     str(seed)], stdout=subprocess.PIPE, cwd=ROOT) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
            if proc.returncode != 0 or line.strip() != b"ready":
                raise RuntimeError(
                    f"set-up probe failed with exit {proc.returncode}")
            refs.append(hostspeed.spawn_sample())
            seconds.append(elapsed)
            speeds.append(hostspeed.speed(refs[-2:], hostspeed.SPAWN_NOMINAL_S))
    finally:
        os.sched_setaffinity(0, allowed)
    return seconds, speeds


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def context(workload: str, seed: int) -> dict:
    import networkx
    import numpy

    return {"workload": workload, "seed": seed, "git_sha": git_sha(),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "networkx": networkx.__version__}


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Start passes over the op list while the next is expected to end
    within seconds, judged by the last pass; at least one pass.

    Each pass's time is scaled by the host speed sampled during it, and
    the metrics are medians over the passes.
    """
    walls, speeds, norm, rates = [], [], [], []
    start = time.perf_counter()
    with hostspeed.Probe() as probe:
        run.probe = probe
        try:
            while (not walls or time.perf_counter() - start + walls[-1]
                   <= seconds):
                first = len(probe.samples)
                probe.take()
                wall, counts = run.one_pass()
                probe.take()
                speed = hostspeed.speed(probe.samples[first:])
                walls.append(wall)
                speeds.append(speed)
                norm.append(wall * speed)
                rates.append(counts.get("work", 0) / norm[-1])
        finally:
            run.probe = None
    metrics = {"wall_s": statistics.median(norm),
               "work_per_s": statistics.median(rates)}
    return metrics, {"wall_s": norm, "measured_wall_s": walls,
                     "host_speed": speeds}


def measure_traced(run: Run) -> tuple[dict, dict]:
    """One untraced and one traced pass; per-layer metrics from the trace."""
    plain_wall, _ = run.one_pass()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_wall, counts = run.one_pass()
    metrics: dict[str, float] = {}
    spans = tracer.summary()
    for name, agg in spans.items():
        metrics[f"{name}.calls"] = agg["calls"]
        metrics[f"{name}.self_s"] = agg["self_s"]
    classes = counts.get("search.classes", 0)
    canon = spans["surface.canonical_form"]["calls"]
    metrics.update({
        "search.schemes": counts.get("search.schemes", 0),
        "search.classes": classes,
        "search.new_class_ratio": classes / canon if canon else 0.0,
        "gf2.coset_steps": tracer.coset_steps,
        "gf2.budget_exceeded": tracer.budget_exceeded,
        "trace.overhead_s": traced_wall - plain_wall,
    })
    return metrics, {"wall_s": [plain_wall], "traced_wall_s": [traced_wall]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 ops=None) -> dict:
    """Measure one workload in this process and return its result object.

    ops replaces the workload's op list (the self-test passes small ones).
    """
    setup, setup_speeds = measure_setup(workload, seed)
    setup_norm = [s * v for s, v in zip(setup, setup_speeds)]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cellqec

    if Path(cellqec.__file__).resolve().parent != SRC / "cellqec":
        raise RuntimeError(f"cellqec imported from {cellqec.__file__}, not {SRC}")
    run = Run(workloads.ops(workload, seed) if ops is None else ops)
    detail = {"context": context(workload, seed)}
    try:
        names = workloads.decode_codes(workload)
        if names:
            small = workload == "decode_small"
            detail["decoder_checks"] = workloads.check_decoder(
                names, seed, patterns=20 if small else 3, exhaustive=small)
        if trace:
            metrics, samples = measure_traced(run)
            units = per_layer_units()
        else:
            metrics, samples = measure(run, seconds)
            metrics["setup_s"] = statistics.median(setup_norm)
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END_UNITS
        correct, error = True, None
    except workloads.CheckFailed as exc:
        correct, error, metrics, units, samples = False, str(exc), {}, {}, {}
    detail.update(samples=dict(samples, setup_s=setup_norm,
                               measured_setup_s=setup,
                               setup_host_speed=setup_speeds), error=error,
                  failed_share=run.failed / max(run.attempted, 1))
    return {
        "detail": detail,
        "result": {
            "correct": correct, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics},
        },
    }


def run_all(args) -> int:
    """Each workload in its own interpreter, then one table of results."""
    results = {}
    for name in workloads.WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE,
            text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        share = res["failed"] / res["attempted"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']} failed_share={share:.4f}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "cellqec" / "__init__.py").is_file():
        print(f"error: no cellqec sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
