"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fit|score|draw --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it measures the
jdan under src/ next to this directory. It writes the seeded inputs to a
scratch directory under .perfbench_work/, times set-up in fresh
interpreters, runs the workload in a child process (workload.py), and prints
a readable report, a `record:` line (environment and input hashes), and last
a JSON line {"correct", "attempted", "failed", "metrics"}. The metrics are the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
README.md says what each workload and metric is for.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
DEADLINE_S = 170  # the whole run, child included, ends within this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# ROADMAP re-anchor 1 figures, for the traced run's per-unit layer times
ROADMAP = {
    "nll_grad_ms_per_batch128": "3.4 ms (conditional)",
    "log_score_ms_per_row": "1.0-1.15 ms (2.0-2.3 s / 2000 conditional rows)",
    "crps_ms_per_row_dim": "0.7 ms (1.4 s / 2000 unconditional rows, one dim)",
    "energy_ms_per_row": "29 ms (5.8 s / 200 rows, m = 200)",
    "sample_ms_per_1e4_draws": "155 ms",
}


def _command_output(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=10,
                              cwd=ROOT).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _source_sha256():
    """One hash over src/jdan, so results name the code even without git."""
    lines = []
    src = os.path.join(ROOT, "src", "jdan")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            lines.append(f"{inputs.sha256(os.path.join(src, name))}  {name}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def environment():
    import numpy

    return {
        "git_sha": _command_output(["git", "rev-parse", "HEAD"]),
        "src_jdan_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": _command_output(["nproc"]),
        "os_cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "JDAN_THREADS": os.environ.get("JDAN_THREADS"),
    }


def _child(args, workdir, extra, timeout):
    argv = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
            "--workdir", workdir, "--seed", str(args.seed)] + extra
    # the child's output is diagnostics only; stdout stays for the result
    proc = subprocess.Popen(argv, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    try:
        return proc.wait(timeout=max(timeout, 1.0))
    finally:
        if proc.poll() is None:  # timed out or interrupted: leave nothing running
            proc.kill()
            proc.wait()


def _setup_seconds(args, workdir, deadline):
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rc = _child(args, workdir, ["--setup-only"], deadline - time.monotonic())
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise RuntimeError(f"set-up exited with {rc}")
    return statistics.median(times)


def _metric_units():
    """{name: unit} for the end-to-end and the per-layer metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _report(args, result, metrics, attempted, failed):
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
             f"{len(result['iterations'])} iterations, worker_count={result['worker_count']}"]
    if args.trace:
        for name, m in metrics.items():
            lines.append(f"  {name:<44}{m['value']:.6g} {m['unit']}")
        for name, value in result["baseline"].items():
            lines.append(f"  {name:<30}{value:.4g} ms   ROADMAP: {ROADMAP[name]}")
    else:
        named = {"cmd1_items_per_s": result["labels"][0], "cmd2_items_per_s": result["labels"][1]}
        lines.append(f"  {'failed_frac':<24}{failed / attempted:.6g}   ({failed} of {attempted})")
        for key, m in metrics.items():
            lines.append(f"  {named.get(key, key):<24}{m['value']:.6g} {m['unit']}   [{key}]")
    if result["calls"]["failed"]:
        lines.append(f"  FAILED {result['calls']['failed']} CLI calls; exit codes in the record")
    for name, ok, detail in result["checks"]:
        if not ok:
            lines.append(f"  FAILED {name}: {detail}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "jdan", "__init__.py")):
        print(f"error: no jdan package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        files = inputs.write_inputs(args.workload, args.seed, workdir)
        record = {"workload": args.workload, "seed": args.seed, "environment": environment(),
                  "inputs": {name: inputs.sha256(path) for name, path in sorted(files.items())}}
        setup_s = _setup_seconds(args, workdir, deadline)
        rc = _child(args, workdir, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    deadline - time.monotonic())
        if rc != 0:
            print(f"error: workload process exited with {rc}", file=sys.stderr)
            return 1
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))

    attempted = result["calls"]["attempted"] + len(result["checks"])
    failed = result["calls"]["failed"] + sum(not ok for _, ok, _ in result["checks"])
    end_to_end, per_layer = _metric_units()
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        values = dict(result["end_to_end"], setup_s=setup_s)
        if any(v is None for v in values.values()):
            print("error: a command never succeeded, so its throughput is unknown", file=sys.stderr)
            print(json.dumps(result["checks"]), file=sys.stderr)
            return 1
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end.items()}
    record.update(worker_count=result["worker_count"], labels=result["labels"],
                  iterations=result["iterations"], checks=result["checks"],
                  baseline=result.get("baseline"))
    print(_report(args, result, metrics, attempted, failed))
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
