"""One fresh benchmark process: set-up, a cold pass, then warm passes.

run.py starts this script from the root of a checkout, one process at a
time, and reads the JSON object on the last line of its standard output:

    python3 perfbench/child.py --workload scan --seed 0 --budget 6 --mode timed

``timed`` mode times set-up (from before ``import ddkit`` until the inputs
are built), the first pass and then warm passes with nothing traced.  A
speed probe runs after the first pass and after each warm pass.
``traced`` mode traces set-up, makes one untraced cold pass, then alternates
untraced and traced warm passes; it reports per-layer metrics of the set-up
plus the traced pass of median duration, and writes the spans of those two
to ``--spans`` when it ends.
"""

import argparse
import gc
import gzip
import json
import os
import re
import resource
import statistics
import sys
import time

MIN_WARM = 1      # warm passes in a timed process, however long they take
PROBE_LOOPS = 50_000
PROBE_SMALL_OPS = 250
PROBE_RECORDS = 400
MIN_TRACED = 2    # traced passes, so that their counts can be compared
MAX_FAILURES_SHOWN = 5


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Checked:
    """Attempted and failed operation counts over every checked pass."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = self.failed = 0
        self.failures = []

    def __call__(self, outputs):
        for label, ok, detail in self.workload.check(self.inputs, outputs):
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < MAX_FAILURES_SHOWN:
                    self.failures.append(f"{label}: {detail}")


def _probe_inputs():
    import numpy

    rng = numpy.random.default_rng(0)
    small = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(8)]
    doc = {f"k{i}": [i, i / 2, f"s{i}", {"x": [1, 2, 3], "y": None}]
           for i in range(PROBE_RECORDS)}
    text = " ".join(f"name{i} = {i}.{i}" for i in range(PROBE_RECORDS))
    return small, doc, text


def probe():
    """Seconds for a fixed mix of work: the machine's current speed.

    A pure-Python loop and the kind of work the library does around its
    dense kernels: numpy calls on small complex matrices (kron, products, an
    SVD) and interpreter-heavy standard-library code (a JSON round trip, a
    sort, a regular expression, formatting).  Contention from other tenants
    of the host slows such code more than a tight loop, so the probe has to
    contain it to track the passes.  The median of three runs.
    """
    import numpy

    small, doc, text = _probe_inputs()
    pattern = re.compile(r"(\w+)\s*=\s*(\d+(?:\.\d+)?)")
    times = []
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc = (acc + i * i) % 1_000_003
        for i in range(PROBE_SMALL_OPS):
            y = numpy.kron(small[i % 8], small[(i + 1) % 8])
            (y @ y.conj().T).trace()
        numpy.linalg.svd(y)
        d = json.loads(json.dumps(doc))
        sorted(d.items(), key=lambda kv: str(kv[1]))
        [m.group(1) for m in pattern.finditer(text)]
        "".join(f"{k}:{v[1]:.3f};" for k, v in d.items())
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _timed(run, inputs):
    gc.collect()  # garbage of the previous pass is not this pass's cost
    t = time.perf_counter()
    out = run(inputs)
    return time.perf_counter() - t, out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True,
                   help="seconds from process start after which no pass starts")
    p.add_argument("--mode", choices=("timed", "traced"), required=True)
    p.add_argument("--spans", help="gzip JSON file for the spans (traced mode)")
    args = p.parse_args()
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    deadline = t0 + args.budget
    import ddkit

    if os.path.dirname(os.path.dirname(os.path.abspath(ddkit.__file__))) != src:
        raise SystemExit(f"imported ddkit from {ddkit.__file__}, not from {src}")
    import workloads

    w = workloads.WORKLOADS[args.workload]
    result = {}
    if args.mode == "timed":
        inputs = w.setup(args.seed)
        result["setup_s"] = time.perf_counter() - t0
        check = Checked(w, inputs)
        # The cold pass pays the process's first numeric calls, so no probe
        # runs before it.
        result["cold_s"], out = _timed(w.run, inputs)
        probes = [probe()]
        check(out)
        warm = []
        while len(warm) < MIN_WARM or time.perf_counter() < deadline:
            dt, out = _timed(w.run, inputs)
            probes.append(probe())
            warm.append(dt)
            check(out)
        result["warm_s"] = warm
        result["probe_s"] = probes
    else:
        from layertrace import Tracer, count_signature, merged

        setup_tracer = Tracer()
        with setup_tracer.installed(), setup_tracer.region("setup"):
            inputs = w.setup(args.seed)
        check = Checked(w, inputs)
        _, out = _timed(w.run, inputs)
        check(out)
        plain, traced = [], []  # traced: (seconds, tracer, per-layer metrics)
        while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
            dt, out = _timed(w.run, inputs)
            plain.append(dt)
            check(out)
            tracer = Tracer()
            with tracer.installed():
                gc.collect()
                t = time.perf_counter()
                with tracer.region("pass"):
                    out = w.run(inputs)
                dt = time.perf_counter() - t
            traced.append((dt, tracer, tracer.metrics()))
            check(out)
        signatures = [count_signature(m) for _, _, m in traced]
        _, median_tracer, median_metrics = sorted(traced, key=lambda x: x[0])[(len(traced) - 1) // 2]
        plain_s = statistics.median(plain)
        traced_s = statistics.median(dt for dt, _, _ in traced)
        result.update(
            layers=merged(setup_tracer.metrics(), median_metrics),
            overhead_frac=(traced_s - plain_s) / plain_s,
            plain_s=plain,
            traced_s=[dt for dt, _, _ in traced],
            counts_repeat=all(s == signatures[0] for s in signatures),
        )
        with gzip.open(args.spans, "wt") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "setup": setup_tracer.span_table(),
                       "median_pass": median_tracer.span_table()}, f)

    result.update(
        attempted=check.attempted,
        failed=check.failed,
        failures=check.failures,
        peak_rss_bytes=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        sizes=w.sizes(inputs),
        fixed_inputs=w.fixed_inputs,
        versions=_versions(),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
