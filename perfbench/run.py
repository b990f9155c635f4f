"""Run one workload of the adnoise benchmark and print its metrics.

    python3 perfbench/run.py --workload fine-grid --seed 1 --seconds 36 \
        --trace 0

Run it from the root of a source checkout; it imports adnoise from ./src.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The lines before the last name every
metric with its unit and give the run record; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from tracer import LAYER_METRICS
from worker import PROBE_REF_S

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5          # fresh interpreters per run behind setup_s
PINNED_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_TIMEOUT_S = 170
END_TO_END = (("op_p50_s", "s"), ("op_p90_s", "s"), ("ops_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: PINNED_THREADS for var in THREAD_VARS})
    return env


def spawn_worker(args, role, deadline):
    """Start a workload process; returns (seconds from start to its 'ready'
    message, that message, the final 'probe' or 'result' message)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    messages = []
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=worker_env()) as proc:
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                   proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith("@bench "):
                    messages.append(json.loads(line[len("@bench "):]))
                    if len(messages) == 1:
                        ready_s = time.perf_counter() - t0
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or len(messages) != 2:
        raise BenchError(f"{role} worker exited {proc.returncode} after "
                         f"{len(messages)} of 2 messages")
    return ready_s, messages[0], messages[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def commit(root):
    """HEAD of a git checkout, read without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def rescale(metrics, units, factor):
    """Times (unit s) times factor, rates (unit 1/s) divided by it."""
    scale = {"s": factor, "1/s": 1.0 / factor}
    return {name: metrics[name] * scale.get(unit, 1.0)
            for name, unit in units.items()}


def measure(args):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup, setup_probes, attempted, failed, failures = [], [], 0, 0, []
    n_setup = 1 if args.trace else SETUP_SAMPLES
    for _ in range(n_setup - 1):
        ready_s, ready, probe = spawn_worker(args, "setup", deadline)
        setup.append(ready_s)
        setup_probes.append(probe["probe_s"])
        attempted += ready["attempted"]
        failed += ready["failed"]
        failures += ready["failures"]
    ready_s, ready, result = spawn_worker(args, "measure", deadline)
    setup.append(ready_s)
    setup_probes.append(result["probe_s"])
    attempted += result["attempted"]
    failed += result["failed"]
    failures += result["failures"]

    wall = dict(result["metrics"])
    if args.trace:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        wall["setup_s"] = statistics.median(setup)
        units = dict(END_TO_END)
    metrics = rescale(wall, units, PROBE_REF_S / result["probe_s"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(
            t * PROBE_REF_S / p for t, p in zip(setup, setup_probes))
    record = {
        "workload": args.workload, "seed": args.seed,
        "run_seconds": args.seconds, "trace": args.trace,
        "commit": commit(Path.cwd()),
        "source_sha256": workloads.digest_files(
            hashlib.sha256(), Path("src"), "*.py").hexdigest(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        **result["environment"],
        "threads": {var: PINNED_THREADS for var in THREAD_VARS},
        "samples": {**result["samples"], "setup_runs": len(setup)},
        "setup_samples_s": setup, "setup_probes_s": setup_probes,
        "probe_s": result["probe_s"], "probe_ref_s": PROBE_REF_S,
        "wall_metrics": wall,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": failures[:5],
        "outputs_sha256": result["outputs_sha256"],
        "digested_ops": result["digested_ops"],
        "run_check": result["run_check"],
    }
    for key in ("traced_op_p50_s", "untraced_op_p50_s", "spans_file"):
        if key in result:
            record[key] = result[key]
    return record, {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/adnoise/cli.py").is_file():
        print("run.py: no src/adnoise here; run it from the root of an "
              "adnoise source checkout", file=sys.stderr)
        return 2
    try:
        record, metrics = measure(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    record_path = (Path(".bench_work") / f"{args.workload}-{args.seed}"
                   / f"record-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    samples = record["samples"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"samples {samples}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {record['failed_frac']:.6g} "
          f"({record['failed']}/{record['attempted']}); "
          f"outputs_sha256 {record['outputs_sha256']} over "
          f"{record['digested_ops']} ops")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
