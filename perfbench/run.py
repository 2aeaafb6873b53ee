#!/usr/bin/env python3
"""PI2 simulator benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/ (Release, into
$CARGO_TARGET_DIR or .bench_build), runs the workload in its own
single-threaded pi2_perfbench process, checks every simulated point against
perfbench/fingerprints.json, and prints the metrics BENCHMARK.json names:
the end-to-end ones with --trace 0, the per-layer ones with --trace 1. The
last line of stdout is the result object; the exit code is 0 only when every
point ran and matched its fingerprint.

Other modes:
    --self-test               check that a perturbed fingerprint fails a run
    --record-fingerprints     (re)write the fingerprints of --workload
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
SPEC = os.path.join("campaigns", "fig_resilience.json")

# Tail percentile per workload: fixed so that it names the same statistic on
# every run, and chosen so that a normal run has at least ten points beyond it.
TAIL_PCT = {"dumbbell_mixed": 75, "fluid_mix": 75, "campaign_grid": 90}

# Host-time metrics are scaled to a host that runs the reference kernel
# (workload.cpp: reference_kernel_s, timed after every pass on the same CPU)
# in this many seconds, about the reference host's typical time. The scaling
# divides out the host's own speed drift, which moves every host time by
# 15-20 % over minutes; the raw figures are printed and recorded as well.
REF_KERNEL_S = 0.005


def binary_timeout_s(seconds):
    """A run measures for `seconds`, plus warm-up, set-up batches and (traced)
    on/off rounds and replays; allow twice that and a fixed margin."""
    return 2 * seconds + 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        fail("BENCHMARK.json not found next to perfbench/")
    with open(path) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures (first time only) and builds pi2_perfbench; returns its path.
    A build directory configured beforehand keeps its settings (e.g. a
    sanitizer build); host_facts() then flags the results."""
    for needed in ("src/CMakeLists.txt", SPEC):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} missing: run from the root of a full checkout")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                shutil.rmtree(bdir, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", bdir, "--target", "pi2_perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail(f"build failed (log: {log_path})")
    return os.path.join(bdir, "pi2_perfbench")


def cmake_cache(bdir):
    cache = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line and not line.startswith(("#", "//")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout has no git)."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench", "campaigns"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_facts(bdir):
    cache = cmake_cache(bdir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    flags = " ".join(filter(None, [cache.get("CMAKE_CXX_FLAGS", ""),
                                   cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")]))
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # an exported checkout has none
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = out.stdout.strip() or None
        except OSError:
            pass
    comparable = build_type in ("Release", "RelWithDebInfo") and "-fsanitize" not in flags
    return {"nproc": os.cpu_count(), "cpu_model": model, "compiler": version,
            "flags": flags, "build_type": build_type,
            "commit": commit, "source_digest": source_digest(),
            "comparable": comparable}


def run_binary(binary, bdir, args):
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = os.path.join(bdir, "tmp", args.workload)
    shutil.rmtree(tmp, ignore_errors=True)  # fresh journal/telemetry directory
    records = os.path.join(bdir, "records")
    os.makedirs(records, exist_ok=True)
    out = os.path.join(records, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seconds", str(args.seconds),
           "--seed", str(args.seed), "--trace", str(args.trace), "--spec", SPEC,
           "--tmp", tmp, "--out", out]
    timeout = binary_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:g} s")
    if proc.returncode != 0:
        fail(f"pi2_perfbench exited with {proc.returncode}")
    with open(out) as f:
        return json.load(f), out


def load_fingerprints(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def check_points(record, expected):
    """Counts failed points: errors, and fingerprints that differ from the record."""
    failed = 0
    first_diff = None
    for point in record["points"]:
        want = expected.get(str(point["index"])) if expected else None
        bad = not point["ok"] or want is None or point["fp"] != want
        if bad:
            failed += 1
            if first_diff is None:
                if not point["ok"]:
                    first_diff = f"point {point['index']}: {point.get('error', 'failed')}"
                elif want is None:
                    first_diff = f"point {point['index']}: no recorded fingerprint"
                else:
                    keys = [k for k in want if point["fp"].get(k) != want[k]]
                    first_diff = (f"point {point['index']}: {keys[0]} = "
                                  f"{point['fp'].get(keys[0])}, recorded {want[keys[0]]}"
                                  if keys else f"point {point['index']}: extra keys")
    return failed, first_diff


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def first_pass(record):
    """One pass's points (the workload's points each once)."""
    seen, points = set(), []
    for p in record["points"]:
        if p["index"] in seen:
            break
        seen.add(p["index"])
        points.append(p)
    return points


def slowness(pass_row):
    """How much slower than the reference speed the host ran around this pass."""
    return pass_row["ref_s"] / REF_KERNEL_S


def scaled_rates(passes):
    return [p["sim_s"] / p["wall_s"] * slowness(p) for p in passes]


def end_to_end(record, attempted, failed, workload):
    passes = record["passes"]
    rates = scaled_rates(passes)
    per_pass = len(record["points"]) // len(passes)
    point_ms = [point["wall_s"] * 1e3 / slowness(passes[i // per_pass])
                for i, point in enumerate(record["points"])]
    setup = [s / slowness(p) for p in passes for s in p["setup_s"]]
    raw_setup = [s for p in passes for s in p["setup_s"]]
    print(f"# host slowness (reference kernel / {REF_KERNEL_S * 1e3:g} ms): median "
          f"{statistics.median(slowness(p) for p in passes):.4f}; unscaled "
          f"sim_s_per_s {statistics.median(p['sim_s'] / p['wall_s'] for p in passes):.6g}, "
          f"point_ms_p50 {statistics.median(p['wall_s'] * 1e3 for p in record['points']):.6g}, "
          f"setup_s {statistics.median(raw_setup):.6g}")
    pct = TAIL_PCT[workload]
    beyond = len(point_ms) * (100 - pct) / 100
    print(f"# point_ms_tail = p{pct} of {len(point_ms)} points ({beyond:.0f} beyond it)")
    if beyond < 10:
        print(f"# warning: fewer than ten points beyond p{pct}", file=sys.stderr)
    return {
        "sim_s_per_s": statistics.median(rates),
        "events_per_pkt": sum(p["events"] for p in passes) / sum(p["enqueued"] for p in passes),
        "point_ms_p50": statistics.median(point_ms),
        "point_ms_tail": percentile(point_ms, pct),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        "ok_share": (attempted - failed) / attempted,
    }


def per_layer(record):
    passes = record["passes"]
    sim_s = sum(p["sim_s"] for p in passes)
    one = [p["fp"] for p in first_pass(record)]
    total = lambda key: sum(fp[key] for fp in one)
    enqueued = total("enqueued")
    layers = record["layers"]
    spans = record["spans"]
    plain = statistics.median(scaled_rates(passes))
    traced = statistics.median(scaled_rates(record["traced_passes"]))
    run = spans["topology.run"]
    out = {
        "sim.events_per_sim_s": sum(p["events"] for p in passes) / sim_s,
        "net.pkts_per_sim_s": sum(p["enqueued"] for p in passes) / sim_s,
        "tcp.retransmits": total("retransmits"),
        "tcp.timeouts": total("timeouts"),
        "net.marked_share": total("marked") / enqueued,
        "net.dropped_share": (total("aqm_dropped") + total("tail_dropped")) / enqueued,
        "aqm.guard_events": total("guard_events"),
        "fluid.ticks_per_sim_s": total("fluid_ticks") / sum(p["sim_s"] for p in first_pass(record)),
        "faults.applied": total("faults_applied"),
        "runner.retries": record["retries"],
        "topology.run_ms": run["total_s"] / run["calls"] * 1e3,
        "trace.overhead_share": plain / traced - 1.0,
        "host.ref_kernel_ms": statistics.median(p["ref_s"] for p in passes) * 1e3,
    }
    for key in ("sim.sched_compactions", "sim.sched_op_ns", "tcp.cc_ack_ns",
                "aqm.enqueue_ns.coupled-pi2", "aqm.enqueue_ns.dualpi2", "aqm.enqueue_ns.pie",
                "fluid.tick_ns", "faults.monitor_share", "topology.wire_ms",
                "campaign.parse_expand_ms", "durable.journal_append_ms", "durable.codec_us",
                "telemetry.added_ms", "telemetry.bytes_per_point", "telemetry.probe_share",
                "stats.recovery_us"):
        out[key] = layers[key]
    return out


def run_once(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload '{args.workload}' (one of {', '.join(names)})")
    bdir = build_dir()
    binary = build(bdir)
    record, record_path = run_binary(binary, bdir, args)
    expected = load_fingerprints(args.fingerprints).get(args.workload)
    attempted = len(record["points"])
    failed, first_diff = check_points(record, expected)
    facts = host_facts(bdir)
    if args.trace:
        values = per_layer(record)
        wanted = bench["per_layer"]
    else:
        values = end_to_end(record, attempted, failed, args.workload)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record["host"] = facts
    record["metrics"] = metrics
    record["failed"] = failed
    with open(record_path, "w") as f:
        json.dump(record, f)
    print(f"# host: {json.dumps(facts)}")
    if not facts["comparable"]:
        print("# warning: sanitizer or unoptimised build; do not compare these numbers",
              file=sys.stderr)
    source = "traced run (per-layer)" if args.trace else "plain run, no spans (end-to-end)"
    print(f"# {args.workload}: {len(record['passes'])} passes, {attempted} points, "
          f"metrics from the {source}; record {os.path.relpath(record_path, ROOT)}")
    if args.trace:
        print(f"# spans: {json.dumps(record['spans'])}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    if failed:
        print(f"# FAILED {failed}/{attempted} points; first: {first_diff}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def record_fingerprints(args):
    bdir = build_dir()
    binary = build(bdir)
    record, _ = run_binary(binary, bdir, args)
    points = first_pass(record)
    prints = {str(p["index"]): p["fp"] for p in points}
    for p in record["points"]:
        if not p["ok"] or p["fp"] != prints[str(p["index"])]:
            fail(f"point {p['index']} is not deterministic within one run; not recorded")
    table = load_fingerprints(args.fingerprints)
    table[args.workload] = prints
    with open(args.fingerprints, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(prints)} fingerprint(s) of {args.workload} in {args.fingerprints}")
    return 0


def self_test(args):
    """A run against the recorded fingerprints passes; the same run against a
    copy with one count changed reports that point failed and exits non-zero."""
    workload = "campaign_grid"
    table = load_fingerprints(args.fingerprints)
    base = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    good = subprocess.run(base + ["--fingerprints", args.fingerprints],
                          cwd=ROOT, capture_output=True, text=True)
    good_result = json.loads(good.stdout.strip().splitlines()[-1])
    with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
        perturbed = dict(table)
        perturbed[workload] = json.loads(json.dumps(table[workload]))
        perturbed[workload]["7"]["events"] += 1
        path = os.path.join(tmp, "fingerprints.json")
        with open(path, "w") as f:
            json.dump(perturbed, f)
        bad = subprocess.run(base + ["--fingerprints", path], cwd=ROOT,
                             capture_output=True, text=True)
    bad_result = json.loads(bad.stdout.strip().splitlines()[-1])
    passes = good_result["attempted"] // len(table[workload])
    checks = [
        ("recorded fingerprints pass", good.returncode == 0 and good_result["correct"]),
        ("perturbed count exits non-zero", bad.returncode != 0),
        ("perturbed run reported incorrect", bad_result["correct"] is False),
        ("exactly point 7 fails, once per pass",
         bad_result["failed"] == bad_result["attempted"] // len(table[workload])),
        ("ok_share below 1", bad_result["metrics"]["ok_share"]["value"] < 1.0),
    ]
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"({passes} passes; perturbed run: {bad_result['failed']}/"
          f"{bad_result['attempted']} points failed)")
    return 0 if all(ok for _, ok in checks) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprints", default=FINGERPRINTS)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if args.self_test:
        return self_test(args)
    if not args.workload:
        fail("--workload is required")
    if args.record_fingerprints:
        return record_fingerprints(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
