"""opprelay benchmark entry point.

    python3 benchmark/run.py --workload mc_sc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Each run starts fresh Python processes only (child.py):

* SETUP_SAMPLES processes that time `import opprelay` plus building the
  workload's scenarios, whose fastest is `setup_s` (untraced runs only),
  half of them before the workload process and half after;
* one workload process that repeats the workload's round of public
  entry-point calls for --seconds and checks the outputs.  While it runs,
  a sampler reads the peak RSS of its pool workers from /proc.

Prints the environment and a full report as JSON lines, then, as the last
line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  Exits non-zero without that line if anything fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 8
RUN_BUDGET_S = 170  # a run must end within 180 s
SAMPLE_INTERVAL_S = 0.02


def declared_metrics() -> dict[str, list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def end_to_end_values(setups: list[float], res: dict) -> dict[str, float]:
    # The fastest setup: other tenants of a shared machine only ever add
    # time to a fresh import.
    return {
        "setup_s": min(setups),
        "wall_s": res["wall_s"],
        "peak_rss_mb": res["own_peak_rss_mb"] + res["workers_peak_rss_mb"],
    }


class WorkerRss(threading.Thread):
    """Samples the processes of a session other than its leader (the
    workload process), that is its pool workers.  `peak_mb` is the largest
    sum, over the workers alive at one sample, of each worker's peak RSS
    so far (VmHWM).  Pages a forked worker shares copy-on-write with the
    workload process count in both, as they do in RSS."""

    def __init__(self, leader: int) -> None:
        super().__init__(daemon=True)
        self.leader = leader
        self.peak_mb = 0.0
        self.samples = 0
        self._done = threading.Event()
        self._in_session: dict[str, bool] = {}

    def _session_of(self, pid: str) -> bool:
        if pid not in self._in_session:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            self._in_session[pid] = int(fields[3]) == self.leader  # session id
        return self._in_session[pid]

    def _sample(self) -> float:
        total_kib = 0
        for pid in os.listdir("/proc"):
            if not pid.isdigit() or int(pid) == self.leader:
                continue
            try:
                if not self._session_of(pid):
                    continue
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
                            break
            except (OSError, IndexError, ValueError):
                continue  # exited between listing and reading
        return total_kib / 1024.0

    def run(self) -> None:
        while not self._done.wait(SAMPLE_INTERVAL_S):
            self.peak_mb = max(self.peak_mb, self._sample())
            self.samples += 1

    def stop(self) -> None:
        self._done.set()
        self.join()


def child(*args: str, deadline: float, sample_workers: bool = False) -> dict:
    """Run child.py to completion and return its JSON line.  The child
    gets its own session, so a timeout also kills its pool workers."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    sampler = WorkerRss(proc.pid)
    if sample_workers:
        sampler.start()
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        if sample_workers:
            sampler.stop()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    res = json.loads(out.strip().splitlines()[-1])
    if sample_workers:
        res["workers_peak_rss_mb"] = sampler.peak_mb
        res["rss_samples"] = sampler.samples
    return res


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "opprelay", "__init__.py")):
        print(f"no opprelay sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    declared = declared_metrics()
    common = ("--workload", args.workload, "--seed", str(args.seed))

    def setup_samples(n: int) -> list[float]:
        return [child(*common, "--setup-only", deadline=deadline)["setup_s"]
                for _ in range(0 if args.trace else n)]

    # Half the set-up samples before the workload process and half after,
    # so that they span the whole run as its rounds do.
    setups = setup_samples(SETUP_SAMPLES // 2)
    res = child(*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                deadline=deadline, sample_workers=True)
    setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **res.pop("versions"),
        "git_commit": git_commit(),
    }
    if args.trace:
        values, wanted = res["layers"], declared["per_layer"]
    else:
        values, wanted = end_to_end_values(setups, res), declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    if not args.trace:
        res["figures"] = {**metrics, **res["figures"]}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_samples_s": setups,
        **res,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
