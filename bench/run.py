"""The repository benchmark: three workloads through ``monogenic``'s public API and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick        # schema check of every workload, no timings

Run from the repository root.  Each workload runs in its own process with one
client sending requests in a closed loop (``child.py``).  With ``--trace 0``
the end-to-end metrics of BENCHMARK.json are measured with tracing off; with
``--trace 1`` one untraced and one traced pass, each in its own process, give
the per-layer metrics.  Times are scaled to a reference machine speed by a
speed probe (see ``child.SpeedProbe`` and README.md).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment and
the raw figures as measured.  The exit code is 0 only when every process ran
to its end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: set-up is measured in this many processes per run and reported as the median
SETUP_SAMPLES = 3
#: mean time of one speed-probe sample (see child.SpeedProbe) on the machine
#: the baseline was taken on, a 2-vCPU Xeon VM with Python 3.11; times
#: are reported as if the whole run had gone at that speed
REFERENCE_SAMPLE_S = 120e-6
#: a request holding fewer probe samples takes the mean speed of its pass
MIN_SAMPLES = 5
#: a run ends within this many seconds, or fails
RUN_TIMEOUT_S = 170
#: monotonic time by which the current run must end; set by main()
deadline = math.inf
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: per-kind times: the sum over a kind's requests, or a point-evaluation percentile
KIND_METRICS = (
    "verify_n2_s",
    "verify_n3_s",
    "negctl_s",
    "ckprod_s",
    "apply_s",
    "roundtrip_s",
    "eval_p50_ms",
    "eval_p90_ms",
    "norm_bracket_s",
    "growth_cli_s",
)


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:  # one client, one thread: at most nproc
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, mode: str, seconds: float = 0.0, quick: bool = False) -> dict:
    """Run one workload process and return its result line.  The process is
    killed and waited for if the run's deadline passes."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--seconds", str(seconds),
    ]
    if quick:
        cmd.append("--quick")
    timeout = max(deadline - time.monotonic(), 1.0) if math.isfinite(deadline) else None
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}/{mode} exited with {proc.returncode}")
    return json.loads(lines[-1])


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)), 1) - 1]


def probe_speed(rows) -> float:
    """Mean time of a speed-probe sample over rows that end in (samples,
    probe seconds); the reference time when they hold no sample."""
    samples = sum(row[-2] for row in rows)
    return sum(row[-1] for row in rows) / samples if samples else REFERENCE_SAMPLE_S


def at_reference_speed(passes: list[list[list]]) -> list[list[list]]:
    """The passes with each request's seconds scaled to the reference speed,
    by the probe samples taken during the request, or during its pass when
    the request held fewer than MIN_SAMPLES."""
    out = []
    for rows in passes:
        pass_speed = probe_speed(rows)
        out.append([
            [kind, label, seconds * REFERENCE_SAMPLE_S / (probe_s / samples if samples >= MIN_SAMPLES else pass_speed)]
            for kind, label, seconds, _, samples, probe_s in rows
        ])
    return out


def request_medians(passes: list[list[list]]) -> list[tuple[str, str, float]]:
    """(kind, label, median seconds over the passes) for each request."""
    return [
        (column[0][0], column[0][1], statistics.median(row[2] for row in column))
        for column in zip(*passes)
    ]


def kind_metrics(requests: list[tuple[str, str, float]]) -> dict[str, float]:
    """Per-kind sums, and the point-evaluation percentiles in ms."""
    by_kind: dict[str, list[float]] = {}
    for kind, _, seconds in requests:
        by_kind.setdefault(kind, []).append(seconds)
    out = {}
    for name in KIND_METRICS:
        if name.startswith("eval_"):
            evals = by_kind.get("eval")
            share = 0.5 if name == "eval_p50_ms" else 0.9
            out[name] = 1000.0 * nearest_rank(evals, share) if evals else 0.0
        else:
            out[name] = sum(by_kind.get(name[: -len("_s")], ()), 0.0)
    return out


def check_metrics(requests: list[tuple[str, str, float]], names) -> dict[str, float]:
    """verify.<check>.s for each such name: the clean requests of the check,
    both dimensions."""
    out = {name: 0.0 for name in names if name.startswith("verify.")}
    for kind, label, seconds in requests:
        if kind in ("verify_n2", "verify_n3"):
            out[f"verify.{label}.s"] += seconds
    return out


def per_layer(plain: dict, traced: dict, names) -> dict[str, float]:
    requests = request_medians(at_reference_speed(plain["passes"]))
    untraced_wall = sum(seconds for _, _, seconds in request_medians(plain["passes"]))
    traced_wall = sum(row[2] for row in traced["passes"][0])
    return {
        **traced["trace"],
        **kind_metrics(requests),
        **check_metrics(requests, names),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }


def probe_rows(results: list[dict]) -> list:
    """Every (samples, probe seconds) pair of a run's processes."""
    pairs = [r["setup"][1:] for r in results]
    for r in results:
        if "trace" not in r:  # the traced pass runs without the probe
            pairs += [row[-2:] for rows in r["passes"] for row in rows]
    return pairs


def end_to_end(setups: list[dict], timed: dict) -> dict[str, float]:
    """Set-up is scaled by the mean probe sample of the whole run: import
    time does not follow the probe request by request, but a slow minute
    shows in both."""
    results = setups + [timed]
    speed = probe_speed(probe_rows(results))
    return {
        "setup_s": statistics.median(r["setup"][0] for r in results) * REFERENCE_SAMPLE_S / speed,
        "wall_s": sum(s for _, _, s in request_medians(at_reference_speed(timed["passes"]))),
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def measured(results: list[dict]) -> dict[str, float]:
    """Raw figures behind the reported ones: the untraced request list's
    time and the set-up time as measured, and the probe's mean sample time
    they were scaled by."""
    timed = next(r for r in results if "trace" not in r and r["passes"])
    return {
        "wall_s": sum(s for _, _, s in request_medians(timed["passes"])),
        "setup_s": statistics.median(r["setup"][0] for r in results),
        "probe_sample_us": 1e6 * probe_speed(probe_rows(results)),
    }


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = "missing"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "threads_per_workload": 1,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(spec: dict, trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run with this --trace value reports."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> tuple[dict, dict]:
    """Run one workload; return the result object and the
    raw figures behind it."""
    units = metric_units(load_spec(), trace)
    if trace:
        plain = run_child(workload, seed, "timed", seconds, quick=quick)
        traced = run_child(workload, seed, "traced", quick=quick)
        results = [plain, traced]
        metrics = per_layer(plain, traced, units)
    else:
        setups = [run_child(workload, seed, "setup", quick=quick) for _ in range(SETUP_SAMPLES - 1)]
        timed = run_child(workload, seed, "timed", seconds, quick=quick)
        results = setups + [timed]
        metrics = end_to_end(setups, timed)
    wrapped = [name for r in results for name in r["left_wrapped"]]
    if wrapped:
        print(f"tracer wrappers left in place: {wrapped}", file=sys.stderr)
    failed = sum(r["failed"] for r in results)
    result = {
        "correct": failed == 0 and not wrapped,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, measured(results)


def check_schema(result: dict, units: dict[str, str]) -> list[str]:
    """Problems with one result object; empty when it has the documented
    keys, types, metric names and units."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys are {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if type(result.get(key)) is not int:
            problems.append(f"{key} is not an int")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, item in metrics.items():
        if set(item) != {"value", "unit"} or type(item["value"]) not in (int, float):
            problems.append(f"metric {name} is malformed: {item}")
        elif not math.isfinite(item["value"]) or item["unit"] != units.get(name):
            problems.append(f"metric {name} is not finite or has the wrong unit: {item}")
    return problems


def quick() -> int:
    """One request of each kind per workload, untraced and traced; checks the
    schema of every result and that the gates pass, never the timings."""
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, 0, 0.0, trace, quick=True)[0]
            label = f"{workload} --trace {int(trace)}"
            problems += [f"{label}: {p}" for p in check_schema(result, metric_units(spec, trace))]
            if not result["correct"]:
                problems.append(f"{label}: not correct")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"quick": "failed" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    global deadline
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not os.path.isdir(os.path.join(ROOT, "src", "monogenic")):
        print(f"no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick()
        if args.workload is None:
            parser.error("--workload is required")
        result, raw = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ChildFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed, "measured": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
