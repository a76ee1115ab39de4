#!/usr/bin/env python3
"""The topocon benchmark: scenario wall time, memory and set-up per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload omission-n3 --seed 1 --seconds 10 --trace 0

It builds the topocon libraries, the topocon CLI and the perfbench program
from the checkout's sources into .bench_build/perfbench, runs the workload's
legs (each leg its own process, so its peak RSS is its own), checks every
output, and prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs one leg of each
kind, the traced layer decomposition (perfbench layers) and the service
probe (perfbench serve), and reports the per-layer metrics instead. The line before the result stamps the machine,
the build and the seed. --corrupt-expected alters every expected artifact
on purpose, so a working checker must report failures (see README.md).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD_DIR / "perfbench"
TOPOCON = BUILD_DIR / "topocon" / "tools" / "topocon"

# The workloads and their expected artifacts (None: checked by oracle).
GOLDEN = {
    "omission-n3": "tests/golden/omission-n3.json",
    "omission-n4": "tests/golden/omission-n4.json",
    "deep-n2": None,
}
# The legs of one round. One process of a multi-second leg varies by about
# 10% on a shared 4-vCPU box, so legs run twice where the time budget
# allows and every metric is the median over its legs. omission-n4's t1
# leg takes about 25 s and runs once. A traced run needs only one leg of
# each kind, for the pool ratios.
ROUND = {
    "omission-n3": ("tN", "t1", "tN", "t1"),
    "omission-n4": ("tN", "t1", "tN"),
    "deep-n2": ("t1", "tN", "t1", "tN"),
}
TRACED_ROUND = ("t1", "tN")
# Set-up probes per run, spread over the legs of the first round. A probe
# is a process in the t1 leg's configuration that ends at its first
# on_job_start; perfbench spawns and times them itself.
SETUP_PROBES = 120
RUN_DEADLINE_S = 170  # every run must end within 180 s after the build

END_TO_END_UNITS = {
    "wall_s.t1": "s",
    "wall_s.tN": "s",
    "cpu_s.tN": "s",
    "peak_rss_mib.t1": "MiB",
    "peak_rss_mib.tN": "MiB",
    "setup_s": "s",
    "submits_per_s": "1/s",
    "daemon_rss_growth_mib": "MiB",
}

PER_LAYER_UNITS = {
    "frontier.expand_s": "s",
    "frontier.merge_s": "s",
    "frontier.commit_s": "s",
    "frontier.states_committed": "count",
    "frontier.merge_fold_ratio": "ratio",
    "frontier.views_interned": "count",
    "frontier.bytes_per_state": "B",
    "components.s": "s",
    "components.leaves_per_s": "1/s",
    "decision_table.build_s": "s",
    "decision_table.entries": "count",
    "solver.check_s": "s",
    "solver.redo_share": "ratio",
    "solver.unattributed_s": "s",
    "pool.speedup": "ratio",
    "pool.cpu_util": "ratio",
    "adversary.build_ms": "ms",
    "api.run_s": "s",
    "api.write_json_ms": "ms",
    "api.teardown_s": "s",
    "scenario.expand_ms": "ms",
    "scenario.render_ms": "ms",
    "service.miss_p50_ms": "ms",
    "service.hit_p50_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.plan_key_us": "us",
    "service.render_artifact_ms": "ms",
    "service.retained_kib_per_distinct": "KiB",
    "submit_p50_ms": "ms",
    "submit_p99_ms": "ms",
    "submit.samples": "count",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def threads():
    return len(os.sched_getaffinity(0))


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError("the checkout has no topocon sources to build")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", str(threads())],
        check=True, stdout=sys.stderr)


def machine_stamp():
    cpu_model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    mem_total_kib = 0
    with open("/proc/meminfo", encoding="utf-8") as meminfo:
        for line in meminfo:
            if line.startswith("MemTotal:"):
                mem_total_kib = int(line.split()[1])
                break
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, check=False)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    # The commit is unknown in an exported checkout; the digest of the
    # sources the program was built from names the build either way.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    info = leg_json([str(PROGRAM), "info"], ROOT, 60)
    return {
        "nproc": threads(),
        "cpu_model": cpu_model,
        "mem_total_kib": mem_total_kib,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def leg_json(argv, cwd, timeout):
    """Runs one perfbench process; returns its last stdout line as JSON.

    The leg gets its own process group, so a leg that overruns is killed
    together with any daemon it spawned.
    """
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired as error:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(argv[:3])} timed out") from error
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(round(share * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


def jobs_of(document):
    return [job for sweep in document["sweeps"] for job in sweep["jobs"]]


def compare_artifacts(produced, expected):
    """(checks, failures): one check per job, plus the document bytes."""
    try:
        got = jobs_of(json.loads(produced))
        want = jobs_of(json.loads(expected))
    except (ValueError, KeyError, TypeError):
        return 1, 1
    checks = max(len(got), len(want))
    failures = sum(1 for i in range(checks)
                   if i >= len(got) or i >= len(want) or got[i] != want[i])
    if failures == 0 and produced != expected:
        failures = 1
    return checks, failures


def corrupt(artifact):
    """The expected artifact altered on purpose: one verdict flipped."""
    for old, new in ((b'"SOLVABLE"', b'"NOT-SEPARATED"'),
                     (b'"NOT-SEPARATED"', b'"SOLVABLE"')):
        if old in artifact:
            return artifact.replace(old, new, 1)
    return artifact + b" "


class Run:
    """One benchmark invocation: rounds of legs, then medians."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.n = threads()
        self.attempted = 0
        self.failed = 0
        self.samples = {}  # end-to-end metric -> one value per leg
        self.setup = []  # every set-up sample of the run
        self.reference = None  # the first t1 artifact
        self.tn_artifacts = []  # compared with it after the round

    def remaining(self):
        return self.deadline - time.monotonic()

    def leg(self, argv):
        return leg_json([str(PROGRAM), *argv], self.work, self.remaining())

    def check(self, checks, failures, what):
        self.attempted += checks
        self.failed += failures
        if failures:
            log(f"{what}: {failures} of {checks} checks failed")

    def record(self, values):
        for name, value in values.items():
            self.samples.setdefault(name, []).append(value)

    def expected(self, artifact):
        return corrupt(artifact) if self.args.corrupt_expected else artifact

    def probe_setup(self, probes):
        out = self.leg(["setup", self.args.workload, str(probes)])
        self.setup.extend(out["setup_s"])

    def run_leg(self, mode):
        workload = self.args.workload
        path = self.work / f"{mode}.json"
        out = self.leg(["leg", workload, mode, str(self.n), path.name])
        artifact = path.read_bytes()
        self.check(out["oracle_checks"], out["oracle_failures"],
                   f"{mode} verdicts vs the oracle")
        if mode == "t1":
            golden = GOLDEN[workload]
            if golden is not None:
                self.check(*compare_artifacts(
                    artifact, self.expected((ROOT / golden).read_bytes())),
                    f"t1 artifact vs {golden}")
            if self.reference is None:
                self.reference = artifact
            self.record({"wall_s.t1": out["wall_s"],
                         "peak_rss_mib.t1": out["peak_rss_kib"] / 1024})
            return
        self.tn_artifacts.append(artifact)
        self.record({"wall_s.tN": out["wall_s"], "cpu_s.tN": out["cpu_s"],
                     "peak_rss_mib.tN": out["peak_rss_kib"] / 1024,
                     "submits_per_s": out["jobs"] / out["wall_s"],
                     "daemon_rss_growth_mib":
                         (out["rss_end_kib"] - out["rss_after_first_kib"])
                         / 1024})

    def serve_stream(self):
        """The service probe: the seed's submits against an N-thread daemon."""
        argv = ["serve", str(TOPOCON), str(self.n), str(self.args.seed)]
        if self.args.corrupt_expected:
            argv.append("--corrupt-expected")
        out = self.leg(argv)
        self.check(out["submits"], out["failed"], "daemon submits")
        return out

    def measure(self):
        start = time.monotonic()
        legs = TRACED_ROUND if self.args.trace else ROUND[self.args.workload]
        rounds = 0
        while True:
            for mode in legs:
                if rounds == 0 and not self.args.trace:
                    self.probe_setup(SETUP_PROBES // len(legs))
                self.run_leg(mode)
            for artifact in self.tn_artifacts:
                self.check(*compare_artifacts(
                    artifact, self.expected(self.reference)),
                    "per-query tN records vs the t1 records")
            self.tn_artifacts.clear()
            rounds += 1
            elapsed = time.monotonic() - start
            # Never start a round the deadline cannot hold.
            if (elapsed >= self.args.seconds
                    or self.remaining() < 1.5 * elapsed / rounds):
                break
        return rounds

    def end_to_end(self):
        values = {name: statistics.median(samples)
                  for name, samples in self.samples.items()}
        if self.setup:
            values["setup_s"] = statistics.median(self.setup)
        return values

    def per_layer(self, e2e):
        trace_dir = ROOT / ".bench_build" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / (
            f"{self.args.workload}-seed{self.args.seed}.trace.json")
        layers = self.leg(["layers", self.args.workload, str(self.n),
                           str(trace_file)])
        self.check(layers["cross_checks"], layers["cross_failures"],
                   "layer decomposition vs the Session's DepthStats")
        serve = self.serve_stream()
        latency = serve["latency_ms"]
        hits = serve["hit_ms"]
        merge_in = layers["frontier_merge_in"]
        components_s = layers["components_s"]
        check_s = layers["solver_check_s"]
        retained = layers["frontier_states_retained"]
        metrics = {
            "frontier.expand_s": layers["frontier_expand_s"],
            "frontier.merge_s": layers["frontier_merge_s"],
            "frontier.commit_s": layers["frontier_commit_s"],
            "frontier.states_committed": layers["frontier_states_committed"],
            "frontier.merge_fold_ratio":
                layers["frontier_merge_out"] / merge_in if merge_in else 0.0,
            "frontier.views_interned": layers["frontier_views_interned"],
            "frontier.bytes_per_state":
                layers["frontier_rss_growth_bytes"] / retained
                if retained else 0.0,
            "components.s": components_s,
            "components.leaves_per_s":
                layers["components_leaves"] / components_s
                if components_s > 0 else 0.0,
            "decision_table.build_s": layers["decision_table_s"],
            "decision_table.entries": layers["decision_table_entries"],
            "solver.check_s": check_s,
            "solver.redo_share":
                layers["solver_redo_s"] / check_s if check_s > 0 else 0.0,
            "solver.unattributed_s": layers["solver_unattributed_s"],
            "pool.speedup": e2e["wall_s.t1"] / e2e["wall_s.tN"],
            "pool.cpu_util": e2e["cpu_s.tN"] / (self.n * e2e["wall_s.tN"]),
            "adversary.build_ms": layers["adversary_build_s"] * 1e3,
            "api.run_s": layers["api_run_s"],
            "api.write_json_ms": layers["api_write_json_s"] * 1e3,
            "api.teardown_s": layers["api_teardown_s"],
            "scenario.expand_ms": layers["scenario_expand_s"] * 1e3,
            "scenario.render_ms": layers["scenario_render_s"] * 1e3,
            "service.plan_key_us": layers["service_plan_key_s"] * 1e6,
            "service.render_artifact_ms":
                layers["service_render_artifact_s"] * 1e3,
            "service.miss_p50_ms": statistics.median(serve["miss_ms"]),
            "service.hit_p50_ms": statistics.median(hits) if hits else 0.0,
            "service.cache_hit_ratio": len(hits) / len(latency),
            "service.retained_kib_per_distinct":
                (serve["rss_end_kib"] - serve["rss_warm_kib"]) /
                max(1, serve["distinct_after_warmup"]),
            "submit_p50_ms": percentile(latency, 0.50),
            "submit_p99_ms": percentile(latency, 0.99),
            "submit.samples": len(latency),
            "trace.coverage": layers["covered_s"] / layers["traced_wall_s"],
            "trace.overhead_frac":
                layers["api_run_s"] / layers["api_untraced_run_s"] - 1,
        }
        return metrics, trace_file


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(GOLDEN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="alter every expected artifact on purpose; "
                             "the run must then report failures")
    args = parser.parse_args()

    try:
        build()
        stamp = machine_stamp()
        work = ROOT / ".bench_build" / f"work-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            run = Run(args, work)
            rounds = run.measure()
            e2e = run.end_to_end()
            trace_file = None
            if args.trace:
                metrics, trace_file = run.per_layer(e2e)
                units = PER_LAYER_UNITS
            else:
                metrics, units = e2e, END_TO_END_UNITS
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as error:
        log(f"error: {error}")
        return 1

    print(json.dumps({
        "machine": stamp,
        "workload": args.workload,
        "seed": args.seed,
        "threads_N": run.n,
        "rounds": rounds,
        "legs": {name: len(v) for name, v in run.samples.items()},
        "setup_samples": len(run.setup),
        "failed_frac": run.failed / run.attempted,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
