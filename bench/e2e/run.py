#!/usr/bin/env python3
"""End-to-end benchmark runner for the FaCE reproduction (bench/e2e/README.md).

Builds bench_e2e (and bench_micro) from the checkout's sources on first use,
under $CARGO_TARGET_DIR/e2e (default .bench_build/e2e), then:

One workload, machine-readable -- the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ledger:
  python3 bench/e2e/run.py --workload tpcc --seed 42 --seconds 15 --trace 0

Every workload, human-readable; exits 1 if any check fails:
  python3 bench/e2e/run.py --seed=42 [--trace]

A/B against another build directory of this benchmark (alternating which
side runs first), then compare.py over the two result directories:
  python3 bench/e2e/run.py --pairs=10 --against=<build dir> [--out=DIR]

The durability self-test (a corrupted twin row must be the only mismatch):
  python3 bench/e2e/run.py --selftest
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["tpcc", "tpcc-hdd", "ycsb-b", "ycsb-a-resident"]
# Simulated end-to-end metrics: bit-identical for one seed on any machine,
# traced or not.
SIMULATED = ["tpmc", "update_mean_ms", "update_p999_ms", "write_kb_per_txn",
             "restart_s"]
# bench_micro case -> per-layer metric name.
MICRO = {
    "BM_DeviceRandomWrite": "micro.sim.random_write_ns",
    "BM_DeviceBatchWrite64": "micro.sim.batch_write64_ns",
    "BM_LogAppend": "micro.wal.append_ns",
    "BM_BtreeInsert": "micro.engine.btree_insert_ns",
    "BM_BtreeLookup": "micro.engine.btree_lookup_ns",
    "BM_HeapInsert": "micro.engine.heap_insert_ns",
    "BM_FaceEnqueue": "micro.core.face_enqueue_ns",
    "BM_NURand": "micro.tpcc.nurand_ns",
    "BM_CustomerRowCodec": "micro.tpcc.customer_codec_ns",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(base if os.path.isabs(base) else
                        os.path.join(ROOT, base), "e2e")


def build(targets):
    """Configure once, then build `targets`; returns the build directory."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return out


def binary(bdir, name):
    for path in (os.path.join(bdir, name), os.path.join(bdir, "face", name)):
        if os.path.exists(path):
            return path
    log(f"{name} not found under {bdir}")
    sys.exit(1)


def run_bench(exe, workload, seed, seconds, trace_path=None):
    """One bench_e2e process; returns its result object (None on a crash)."""
    cmd = [exe, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace_path:
        cmd.append(f"--trace={trace_path}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: bench_e2e exited {proc.returncode} without a result")
        return None


def run_micro(bdir):
    """bench_micro once, as per-layer host metrics (ns per operation)."""
    proc = subprocess.run(
        [binary(bdir, "bench_micro"), "--benchmark_format=json",
         "--benchmark_min_time=0.1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    metrics = {}
    if proc.returncode == 0:
        for case in json.loads(proc.stdout)["benchmarks"]:
            name = MICRO.get(case["name"])
            if name and case.get("time_unit") == "ns":
                metrics[name] = {"value": case["real_time"], "unit": "ns"}
    return metrics


def check_trace(path):
    """Validate a Chrome trace with the repository's structural checker."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "check_trace.py"), path,
         "--min-components", "5", "--require-recovery-phases"],
        stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def declared(kind):
    """Metric names BENCHMARK.json declares for `kind`, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return [m["name"] for m in json.load(f)[kind]]
    except OSError:
        return None


def traced_metrics(bdir, res, trace_path):
    """Per-layer ledger of a traced result: bench layer map + bench_micro.
    Returns (metrics, ok)."""
    ok = check_trace(trace_path)
    metrics = dict(res["layer"])
    metrics.update(run_micro(bdir))
    dropped = metrics.get("trace.dropped", {}).get("value", 1)
    if dropped:
        log(f"{res['workload']}: tracer dropped {dropped} spans")
    return metrics, ok and dropped == 0


def single(args):
    """Single-workload mode: one workload, one JSON line."""
    targets = ["bench_e2e"] + (["bench_micro"] if args.trace else [])
    bdir = build(targets)
    trace_path = None
    if args.trace:
        trace_path = os.path.join(bdir, f"trace_{args.workload}.json")
    res = run_bench(binary(bdir, "bench_e2e"), args.workload, args.seed,
                    args.seconds, trace_path)
    if res is None:
        sys.exit(1)
    attempted, failed = res["attempted"], res["failed"]
    ok = failed == 0 and res["mismatches"] == 0
    if args.trace:
        metrics, trace_ok = traced_metrics(bdir, res, trace_path)
        attempted += 1
        failed += 0 if trace_ok else 1
        ok = ok and trace_ok
        kind = "per_layer"
    else:
        metrics = res["e2e"]
        kind = "end_to_end"
    names = declared(kind)
    if names is not None and sorted(names) != sorted(metrics):
        log(f"metrics differ from BENCHMARK.json {kind}: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(names))}")
        ok = False
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if ok else 1)


def table(args):
    """Human mode: every workload, printed with units; exit 1 on failure."""
    bdir = build(["bench_e2e"] + (["bench_micro"] if args.trace else []))
    exe = binary(bdir, "bench_e2e")
    results, ok = {}, True
    for wl in WORKLOADS:
        res = run_bench(exe, wl, args.seed, args.seconds)
        if res is None:
            ok = False
            continue
        results[wl] = res
        rate = res["failed"] / max(1, res["attempted"])
        print(f"\n== {wl} (seed {args.seed}): {res['attempted']} ops, "
              f"{res['failed']} failed, error_rate {rate:.4f}, "
              f"{res['mismatches']} durability mismatches")
        for name, m in res["e2e"].items():
            print(f"  {name:<18} {m['value']:>16.6f} {m['unit']}")
        samples = res["layer"]["txn.update_samples"]["value"]
        print(f"  (update latency over {samples:.0f} update transactions)")
        ok = ok and res["failed"] == 0 and res["mismatches"] == 0
        if args.trace:
            path = os.path.join(bdir, f"trace_{wl}.json")
            traced = run_bench(exe, wl, args.seed, args.seconds, path)
            if traced is None:
                ok = False
                continue
            perturbed = [name for name in SIMULATED
                         if res["e2e"][name] != traced["e2e"][name]]
            trace_ok = check_trace(path)
            layer = traced["layer"]
            ok = ok and not perturbed and trace_ok and \
                traced["failed"] == 0 and layer["trace.dropped"]["value"] == 0
            print(f"  traced run: simulated metrics "
                  f"{'PERTURBED: ' + ', '.join(perturbed) if perturbed else 'identical'}, "
                  f"trace.overhead_pct {layer['trace.overhead_pct']['value']:.1f}, "
                  f"{layer['trace.spans']['value']:.0f} spans, "
                  f"{layer['trace.dropped']['value']:.0f} dropped")
            for name, m in layer.items():
                print(f"    {name:<34} {m['value']:>14.6f} {m['unit']}")
    if args.trace:
        print("\n== bench_micro (ns per operation)")
        for name, m in sorted(run_micro(bdir).items()):
            print(f"  {name:<34} {m['value']:>14.3f}")
    if "tpcc" in results and "tpcc-hdd" in results:
        f, h = results["tpcc"]["e2e"], results["tpcc-hdd"]["e2e"]
        shape = (f["tpmc"]["value"] > h["tpmc"]["value"] and
                 f["restart_s"]["value"] < h["restart_s"]["value"])
        print(f"\npaper shape (FaCE tpmC above HDD-only, restart below): "
              f"{'yes' if shape else 'NO'}")
        ok = ok and shape
    sys.exit(0 if ok else 1)


def pairs(args):
    """A/B: alternate which side runs first, then compare the two sides."""
    exe_b = binary(build(["bench_e2e"]), "bench_e2e")
    exe_a = binary(os.path.abspath(args.against), "bench_e2e")
    out = os.path.abspath(args.out or os.path.join(build_dir(), "ab"))
    for side in ("A", "B"):
        os.makedirs(os.path.join(out, side), exist_ok=True)
    for i in range(args.pairs):
        seed = args.seed + i
        for wl in WORKLOADS:
            order = [("A", exe_a), ("B", exe_b)]
            if i % 2:
                order.reverse()
            for side, exe in order:
                res = run_bench(exe, wl, seed, args.seconds)
                if res is None:
                    continue
                path = os.path.join(out, side, f"{wl}.{i}.json")
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(res, f)
        log(f"pair {i + 1}/{args.pairs} done")
    sys.exit(subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                             os.path.join(out, "A"),
                             os.path.join(out, "B")]).returncode)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=15,
                    help="host seconds of repetitions per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="per-layer ledger from a traced run")
    ap.add_argument("--pairs", type=int, default=0)
    ap.add_argument("--against", help="build directory of the A side")
    ap.add_argument("--out", help="A/B result directory")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        exe = binary(build(["bench_e2e"]), "bench_e2e")
        sys.exit(subprocess.run([exe, "--selftest"]).returncode)
    if args.pairs:
        if not args.against:
            ap.error("--pairs needs --against=<build dir>")
        pairs(args)
    if args.workload:
        single(args)
    table(args)


if __name__ == "__main__":
    main()
