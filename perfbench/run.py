"""The ddkit benchmark: one workload, one seed, one run.

Run from the root of a checkout (the directory holding ``src/ddkit`` and
``BENCHMARK.json``):

    python3 perfbench/run.py --workload scan --seed 0 --seconds 20 --trace 0

The run starts fresh processes one after another (perfbench/child.py), so
set-up and the first pass are paid the way a one-shot ``ddkit`` call pays
them, and checks every pass against the workload's oracle.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of one traced process.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it repeat the
metrics for a reader.  A run record (versions, BLAS and its thread cap,
commit, seed, input sizes, every sample) goes to
``.perfbench_out/record-<workload>-trace<0|1>.json``, and the spans behind
a traced run's metrics go to ``.perfbench_out/spans-<workload>.json.gz``.

Workloads, why each exists, and which end-to-end metric each per-layer
metric should move are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
WORKLOADS = ("scan", "accept", "pulse", "build")
BLAS_THREADS = 1                    # small matrices; one thread keeps timings steady
MIN_PROCESSES = 3                   # fresh processes per untraced run, at least
PROCESS_SHARE = 8                   # each untraced process gets seconds / 8
CHILD_TIMEOUT = 170                 # seconds; a run must end within 180
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
# What the speed probe (child.probe) takes in the machine's fast phase.  A
# time is scaled by this over the probe readings around it, which removes
# most of the host's speed swings; see README.md.
PROBE_REF_S = 0.014


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def run_child(workload, seed, budget, mode, spans=None):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--budget", f"{budget:.3f}", "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT,
                          text=True)
    if proc.returncode != 0:
        fail(f"{mode} process for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    """SHA-256 over the library sources.

    Benchmark runs are often made in an exported source tree without
    ``.git``, where git_commit() has nothing to report; the digest still
    identifies the code that was measured."""
    h = hashlib.sha256()
    src = os.path.join("src", "ddkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def tail_percentile(samples):
    """Highest of p50/p75/p90/p95/p99 with at least 10 samples beyond it."""
    n = len(samples)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(samples, n=100)[p - 1])
    return best


def measure_end_to_end(args):
    """Fresh timed processes, one at a time, while another fits in --seconds.

    Each process gives one set-up and one cold sample, so a short workload
    gets more of them; a long one still gets MIN_PROCESSES.
    """
    start = time.perf_counter()
    children = []
    while True:
        elapsed = time.perf_counter() - start
        # Stop when one more process of the average length would overrun.
        if len(children) >= MIN_PROCESSES and elapsed + elapsed / len(children) > args.seconds:
            break
        children.append(run_child(args.workload, args.seed,
                                  args.seconds / PROCESS_SHARE, "timed"))
    setup, cold, warm = [], [], []
    for c in children:
        p = c["probe_s"]  # p[0] follows the cold pass, p[i + 1] the i-th warm pass
        # A warm pass takes the mean of the readings on either side of it.
        # Set-up and the cold pass have no reading before them, and one
        # reading is noisy, so they take the median of the process's readings.
        warm.extend(dt * 2 * PROBE_REF_S / (before + after)
                    for dt, before, after in zip(c["warm_s"], p, p[1:]))
        scale = PROBE_REF_S / statistics.median(p)
        setup.append(c["setup_s"] * scale)
        cold.append(c["cold_s"] * scale)
    metrics = {
        "wall_s": statistics.median(warm),
        "cold_s": statistics.median(cold),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(c["peak_rss_bytes"] for c in children) / 1e6,
    }
    raw_warm = [dt for c in children for dt in c["warm_s"]]
    raw_cold = [c["cold_s"] for c in children]
    probes = [x for c in children for x in c["probe_s"]]
    notes = [f"wall_s: median of {len(warm)} warm passes in {len(children)} processes",
             f"times are scaled to the reference speed (probe "
             f"{PROBE_REF_S * 1e3:.0f} ms); probes read "
             f"{min(probes) * 1e3:.1f}-{max(probes) * 1e3:.1f} ms, "
             f"unscaled wall_s {statistics.median(raw_warm):.6f} s, "
             f"unscaled cold_s {statistics.median(raw_cold):.6f} s"]
    tail = tail_percentile(warm)
    notes.append(f"wall_s p{tail[0]}: {tail[1]:.6f} s" if tail else
                 "wall_s: no percentile above the median has 10 samples beyond it")
    notes.append(f"cold_s, setup_s, peak_rss_mb: medians over {len(children)} processes")
    return metrics, children, notes


def measure_per_layer(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}.json.gz")
    child = run_child(args.workload, args.seed, args.seconds, "traced", spans)
    metrics = dict(child["layers"], **{"trace.overhead_frac": child["overhead_frac"]})
    notes = [f"per-layer metrics: traced set-up plus the median of "
             f"{len(child['traced_s'])} traced passes; spans in {spans}",
             "computed (from schedule and dimension, not counted in the library): "
             "simulate.matmuls, simulate.bytes_moved"]
    if not child["counts_repeat"]:
        notes.append("SELF-CHECK FAILED: traced passes disagree on counts")
    return metrics, [child], notes


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ddkit", "__init__.py")):
        fail("run from the root of a ddkit checkout: src/ddkit is missing")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    measure = measure_per_layer if args.trace else measure_end_to_end
    metrics, children, notes = measure(args)

    problems = [name for name in metrics if not NAME.match(name)]
    if problems:
        fail(f"metric names outside [A-Za-z0-9_.-]+: {problems}")
    if set(metrics) != {m["name"] for m in declared}:
        fail(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json")
    if any(not math.isfinite(v) for v in metrics.values()):
        fail(f"non-finite metric in {metrics}")

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    counts_repeat = all(c.get("counts_repeat", True) for c in children)
    correct = failed == 0 and counts_repeat
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": not children[0]["fixed_inputs"],
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "versions": children[0]["versions"],
        "input_sizes": children[0]["sizes"],
        "processes": children,
        "metrics": out,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(OUT_DIR, f"record-{args.workload}-trace{args.trace}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)

    for c in children:
        for line in c["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
    v = record["versions"]
    print(f"workload {args.workload} seed {args.seed}"
          f"{'' if record['seed_used'] else ' (fixed inputs)'}; python {v['python']}, "
          f"numpy {v['numpy']}, scipy {v['scipy']}, {v['blas']} x {v['blas_threads']} "
          f"thread(s), nproc {record['nproc']}")
    for name, m in out.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    print(f"  {failed} of {attempted} checked operations failed; record in {record_path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
