"""Workload process of the adnoise benchmark.

run.py starts this from the root of a source checkout, with BLAS/OpenMP
threads pinned in the environment.  It imports adnoise from ./src, runs the
workload's fixed warm-up op untimed and reports 'ready'; with role
'measure' it then runs the timed closed loop (one client) and reports a
result.  Protocol messages are '@bench <json>' lines on the original
stdout; whatever the program prints goes to a sink.

    python3 perfbench/worker.py --workload fine-grid --seed 1 \
        --seconds 36 --trace 0 --role measure
"""

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYER_METRICS, Tracer

MIN_OPS = 100            # op_p90_s needs ten samples beyond it
MIN_TRACED_PAIRS = 20
LOOP_CAP_S = 120         # a loop stops here even short of its minimum
DIGEST_OPS = MIN_OPS     # outputs_sha256 covers this many untraced ops
MAX_REPORTED_FAILURES = 5
WORK_DIR = Path(".bench_work")
# run.py rescales timing metrics to a reference speed: x PROBE_REF_S /
# (median wall time of probe() in the same process).  Other tenants of a
# shared host change the interpreter's speed by up to 2x over minutes; this
# pure Python loop tracks that change in the ops better than numpy, LAPACK
# or string-formatting kernels did (see README.md).
PROBE_ITERATIONS = 40000
PROBE_REF_S = 0.003
SETUP_PROBES = 30


def probe():
    """Wall time of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class _Sink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def import_adnoise(src=Path("src")):
    """Import adnoise from ./src and refuse any other copy."""
    sys.path.insert(0, str(src))
    import adnoise
    import adnoise.cli
    origin = Path(adnoise.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"adnoise was imported from {origin}, not {src}")
    return adnoise


class Runner:
    """Runs ops in this process, checks their output and hashes it."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.outdir = workdir / "out"
        self.config = workdir / "config.txt"
        self.digest = hashlib.sha256()
        self.digested = 0
        self.attempted = 0
        self.failures = []
        self.observations = []    # pooled by workloads.check_run
        self.probe_times = []
        self.outdir.mkdir(parents=True, exist_ok=True)

    def run(self, op, tracer=None, digest=False):
        """Run one op and return its wall time.  The output check, the
        hash, tracer (un)installation and a probe() run happen outside the
        timed interval."""
        self.config.write_text(op.render(self.outdir))
        for path in self.outdir.iterdir():
            path.unlink()
        argv = [op.command, "--config", str(self.config)]
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        try:
            observation = workloads.check_output(op, self.outdir, code)
        except workloads.OutputError as exc:
            self.failures.append(str(exc))
        else:
            if observation is not None:
                self.observations.append(observation)
        if digest and self.digested < DIGEST_OPS:
            workloads.digest_files(self.digest, self.outdir)
            self.digested += 1
        self.probe_times.append(probe())
        return elapsed

    def check_run(self):
        """Run-level invariants; a violation counts as one failure."""
        try:
            return workloads.check_run(self.observations)
        except workloads.OutputError as exc:
            self.failures.append(str(exc))
            return None

    def counts(self):
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:MAX_REPORTED_FAILURES]}


def _done(start, seconds, n, minimum):
    elapsed = time.perf_counter() - start
    return (elapsed >= seconds and n >= minimum) or elapsed >= LOOP_CAP_S


def timed_loop(runner, ops, seconds):
    """Closed loop of untraced ops; returns their wall times."""
    times = []
    start = time.perf_counter()
    while not _done(start, seconds, len(times), MIN_OPS):
        times.append(runner.run(next(ops), digest=True))
    return times


def traced_loop(runner, ops, seconds, tracer):
    """Each generated op runs once untraced and once traced, the order
    alternating, so the overhead compares equal inputs.  Returns
    (untraced times, traced times)."""
    plain, traced = [], []
    start = time.perf_counter()
    while not _done(start, seconds, len(traced), MIN_TRACED_PAIRS):
        op = next(ops)
        op_id = len(traced)
        for with_trace in (op_id % 2 == 1, op_id % 2 == 0):
            if with_trace:
                tracer.begin_op(op_id)
                traced.append(runner.run(op, tracer=tracer))
            else:
                plain.append(runner.run(op, digest=True))
    return plain, traced


def end_to_end(times):
    """Wall-time metrics of the timed ops; run.py rescales them."""
    return {"op_p50_s": statistics.median(times),
            "op_p90_s": statistics.quantiles(times, n=10)[-1],
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(tracer, plain, traced, spans_path):
    """Per-layer metrics in wall time; run.py rescales them."""
    summary = tracer.summary(len(traced))
    summary["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    tracer.write(spans_path)
    return {name: summary.get(name, 0.0) for name, _, _ in LAYER_METRICS}


def environment(adnoise):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "adnoise": adnoise.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"),
                        default="measure")
    args = parser.parse_args(argv)

    proto = sys.stdout
    sys.stdout = _Sink()

    def send(**message):
        proto.write("@bench " + json.dumps(message) + "\n")
        proto.flush()

    adnoise = import_adnoise()
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{args.workload}-{args.seed}"
    runner = Runner(adnoise.cli, workdir)
    runner.run(workload.warmup)
    send(event="ready", **runner.counts())
    if args.role == "setup":
        send(event="probe",
             probe_s=statistics.median(probe() for _ in range(SETUP_PROBES)))
        return 0

    ops = workloads.stream(args.workload, args.seed)
    result = {"event": "result", "environment": environment(adnoise)}
    if args.trace:
        tracer = Tracer(adnoise)
        plain, traced = traced_loop(runner, ops, args.seconds, tracer)
        spans_path = workdir / "spans.jsonl"
        result["metrics"] = per_layer(tracer, plain, traced, spans_path)
        result["samples"] = {"untraced_ops": len(plain),
                             "traced_ops": len(traced),
                             "spans": len(tracer.spans)}
        result["traced_op_p50_s"] = statistics.median(traced)
        result["untraced_op_p50_s"] = statistics.median(plain)
        result["spans_file"] = str(spans_path)
    else:
        times = timed_loop(runner, ops, args.seconds)
        result["metrics"] = end_to_end(times)
        result["samples"] = {"timed_ops": len(times)}
    result["probe_s"] = statistics.median(runner.probe_times)
    result["run_check"] = runner.check_run()
    result["outputs_sha256"] = runner.digest.hexdigest()
    result["digested_ops"] = runner.digested
    result.update(runner.counts())
    send(**result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
