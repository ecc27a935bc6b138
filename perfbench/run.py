#!/usr/bin/env python3
"""End-to-end training benchmark of dkfac (distributed K-FAC vs SGD).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_workload into .bench_build on
first use (the dkfac library from src/ plus workload.cpp), runs one workload
and prints a table of metrics followed, as the last line of stdout, by one
JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics of untraced runs; --trace 1 the per-layer metrics of
a traced run. Exits 1 when a correctness check fails and 2 when the build
or the workload program fails. Workloads, metrics and checks: perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("sgd_w2_thread", "kfac_f10_w2_thread", "kfac_f1_w4_socket")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the program (incremental); returns its path."""
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_workload")


def run_workload(cmd):
    """Runs the program in its own process group, so that on timeout the
    socket workload's forked rank processes are killed with it."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def load(path):
    with open(path) as f:
        return json.load(f)


def job_ranks(out_dir, job, world):
    return [load(os.path.join(out_dir, "%s.rank%d.json" % (job["name"], r)))
            for r in range(world)]


def check_untraced(name, ranks, epochs, batches, stopped):
    """Correctness failures of one untraced job."""
    bad = []
    r0 = ranks[0]
    for r in ranks:
        if r["stopped"] != stopped:
            bad.append("%s rank %d: stopped=%s" % (name, r["rank"], r["stopped"]))
        if r["first_step_hash"] != r0["first_step_hash"]:
            bad.append("%s rank %d: replica differs after the first step"
                       % (name, r["rank"]))
    if stopped:
        return bad
    for r in ranks:
        if len(r["probes"]) != epochs * batches:
            bad.append("%s rank %d: %d steps, expected %d"
                       % (name, r["rank"], len(r["probes"]), epochs * batches))
        if [(e["train_loss_bits"], e["val_accuracy"]) for e in r["epochs"]] != \
           [(e["train_loss_bits"], e["val_accuracy"]) for e in r0["epochs"]]:
            bad.append("%s rank %d: epoch metrics differ from rank 0"
                       % (name, r["rank"]))
    if len(r0["epochs"]) != epochs or len(r0["evals"]) != epochs:
        bad.append("%s: %d epochs recorded, expected %d"
                   % (name, len(r0["epochs"]), epochs))
    for e in r0["epochs"]:
        if not math.isfinite(e["train_loss"]) or not 0.0 <= e["val_accuracy"] <= 1.0:
            bad.append("%s: epoch %d loss %r accuracy %r"
                       % (name, e["epoch"], e["train_loss"], e["val_accuracy"]))
    if metrics.time_to_target(r0["probes"], r0["evals"], r0["epochs"]) is None:
        bad.append("%s: validation accuracy never reached %.2f (best %.4f)"
                   % (name, metrics.TARGET_ACCURACY,
                      max(e["val_accuracy"] for e in r0["epochs"])))
    return bad


def end_to_end(manifest, out_dir):
    world, epochs = manifest["world"], manifest["epochs"]
    failures = []
    attempted = failed = 0
    train = None
    setups = []
    rss_kb = [manifest["max_rss_kb"]]
    for job in manifest["jobs"]:
        attempted += 1
        ranks = job_ranks(out_dir, job, world)
        rss_kb += [r["max_rss_kb"] for r in ranks]
        bad = check_untraced(job["name"], ranks, epochs,
                             manifest["batches_per_epoch"], job["kind"] == "setup")
        if job["kind"] == "train":
            train = ranks
        failures += bad
        failed += 1 if bad else 0
        s = metrics.setup_seconds(job["start_ns"], ranks[0]["probes"])
        if s is None:
            failures.append("%s: no end of first step" % job["name"])
        else:
            setups.append(s)
    hashes = {r["first_step_hash"] for job in manifest["jobs"]
              for r in job_ranks(out_dir, job, world)}
    if len(hashes) != 1:
        failures.append("first-step weights differ between jobs of one seed")
        failed += 1
    r0 = train[0]
    steps = metrics.steady_steps(r0["probes"])
    tail = metrics.tail_percentile(steps)
    ttt = metrics.time_to_target(r0["probes"], r0["evals"], r0["epochs"])
    global_batch = manifest["local_batch"] * world
    m = {
        "samples_per_s": global_batch * len(steps) / (sum(steps) / 1e9),
        "step_ms_p50": statistics.median(steps) / 1e6,
        "step_ms_tail": tail[0] / 1e6,
        "setup_s": statistics.median(setups),
        "peak_heap_mb": max(r["peak_heap_bytes"] for r in train) / 2 ** 20,
    }
    notes = {
        "step_ms_tail": "p%.1f of %d steady steps" % (tail[1], tail[2]),
        "setup_s": "median of %d jobs" % len(setups),
    }
    # Seed-dominated quality figures: printed and checked, not gated.
    extra = {
        "time_to_target_s": "%.4f (target %.2f val accuracy)"
                            % (ttt[0] if ttt else float("nan"), metrics.TARGET_ACCURACY),
        "epochs_to_target": ttt[1] if ttt else -1,
        "final_train_loss": r0["epochs"][-1]["train_loss"],
        "failed_run_share": failed / attempted,
        "peak_rss_mb": "%.1f (largest resident set of any process)" % (max(rss_kb) / 1024.0),
        "val_accuracy_by_epoch": " ".join("%.3f" % e["val_accuracy"]
                                          for e in r0["epochs"]),
    }
    return m, notes, extra, failures, attempted, failed


def traced(manifest, out_dir):
    world = manifest["world"]
    jobs = {j["kind"]: j for j in manifest["jobs"]}
    untraced = job_ranks(out_dir, jobs["train"], world)
    tr = job_ranks(out_dir, jobs["traced"], world)
    failures = check_untraced("train", untraced, manifest["epochs"],
                              manifest["batches_per_epoch"], False)
    # Replica fidelity: the traced Listing-1 loop must land on the same
    # weights and epoch losses as train_with_comm, bit for bit.
    if tr[0]["final_hash"] != untraced[0]["final_hash"]:
        failures.append("traced loop's final weights differ from train_with_comm")
    if tr[0]["epoch_losses"] != [e["train_loss_bits"] for e in untraced[0]["epochs"]]:
        failures.append("traced loop's epoch losses differ from train_with_comm")
    for r in tr:
        failures += metrics.comm_count_mismatches(r)
    # Every rank must have issued the same collective sequence.
    seqs = [[(c[0], c[1]) for c in r["comms"]] for r in tr]
    if any(s != seqs[0] for s in seqs):
        failures.append("ranks issued different collective sequences")
    step_p50 = statistics.median(metrics.steady_steps(untraced[0]["probes"])) / 1e6
    m, covers = metrics.per_layer(tr, jobs["traced"]["start_ns"], step_p50)
    if min(covers) < 0.95:
        failures.append("named spans cover only %.3f of a steady step" % min(covers))
    if m["comm.failed_calls"] != 0:
        failures.append("%d collectives failed" % m["comm.failed_calls"])
    allocs_all = [statistics.mean(
        [s[5] for s in r["spans"] if s[0] == "train.step" and s[4] >= 1])
        for r in tr]
    bytes_all = [statistics.mean(
        [s[6] for s in r["spans"] if s[0] == "train.step" and s[4] >= 1])
        for r in tr]
    extra = {
        "mem.allocs_per_step.all_ranks": sum(allocs_all),
        "mem.alloc_mb_per_step.all_ranks": sum(bytes_all) / 2 ** 20,
    }
    return m, extra, failures


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, ".bench_build")
    try:
        program = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    out_dir = os.path.join(build_dir, "runs", "%s-%d-%d-%d"
                           % (args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        run_workload([program, "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", out_dir])
        manifest = load(os.path.join(out_dir, "manifest.json"))
        if args.trace == 0:
            m, notes, extra, failures, attempted, failed = end_to_end(manifest, out_dir)
            specs = metrics.END_TO_END
        else:
            m, extra, failures = traced(manifest, out_dir)
            notes = {}
            attempted, failed = len(manifest["jobs"]), 1 if failures else 0
            specs = metrics.per_layer_specs()
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("perfbench: workload run failed: %r" % e)
        return 2
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for name, unit, _ in specs:
        print("  %-40s %14.6g %-8s %s" % (name, m[name], unit, notes.get(name, "")))
    for name, value in extra.items():
        print("  %-40s %s" % (name, value))
    for f in failures:
        print("  CHECK FAILED: " + f)
    correct = not failures and all(metrics.is_finite(m[n]) for n, _, _ in specs)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m[n] if metrics.is_finite(m[n]) else None,
                        "unit": u} for n, u, _ in specs},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
