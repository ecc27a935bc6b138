"""Metric definitions of the training benchmark.

Pure functions over the raw per-rank timelines of perfbench_workload (see
workload.cpp for the file format), kept apart from run.py so
test_metrics.py can check them on synthetic inputs. Times arrive in nanoseconds on the shared monotonic
clock; every metric is taken on rank 0's timeline unless its name says
otherwise.
"""

import math
import statistics

# Top-1 validation accuracy every workload must reach within its 8 epochs
# (README.md, "Target"): the lowest best-epoch accuracy seen over ~115
# seed × workload runs is 0.8125, so 0.70 leaves room on every seed.
TARGET_ACCURACY = 0.70

# Samples beyond the reported tail percentile.
TAIL_SAMPLES = 10

END_TO_END = [
    # name, unit, better
    ("samples_per_s", "1/s", "higher"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_heap_mb", "MB", "lower"),
]

COMM_KINDS = ("grad", "factor", "decomp")
COMM_OPS = ("allreduce", "allgather", "broadcast", "barrier")
FACTOR_DIMS = (8, 10, 16, 27, 32, 33, 72, 144, 288)


def layer_names():
    """The 22 K-FAC layers of ResNet-20 (kfac_name order)."""
    names = ["resnet20.stem.conv"]
    for stage in (1, 2, 3):
        for block in (1, 2, 3):
            base = "resnet20.s%d.b%d" % (stage, block)
            names += [base + ".conv1", base + ".conv2"]
            if stage > 1 and block == 1:
                names.append(base + ".down.conv")
    names.append("resnet20.fc")
    return names


def per_layer_specs():
    specs = [("data.load_ms", "ms", "lower"),
             ("nn.forward_ms", "ms", "lower"),
             ("nn.backward_ms", "ms", "lower"),
             ("nn.loss_ms", "ms", "lower"),
             ("nn.gflops", "GFLOP/s", "higher"),
             ("kfac.step_factor_ms", "ms", "lower"),
             ("kfac.step_decomp_ms", "ms", "lower"),
             ("kfac.factor_a_ms", "ms", "lower"),
             ("kfac.factor_g_ms", "ms", "lower"),
             ("kfac.factor_gflops", "GFLOP/s", "higher")]
    specs += [("kfac.factor_ms." + n, "ms", "lower") for n in layer_names()]
    for kind in COMM_KINDS:
        specs += [("comm.%s_wait_ms" % kind, "ms", "lower"),
                  ("comm.%s_xfer_ms" % kind, "ms", "lower"),
                  ("comm.%s_bytes" % kind, "B", "lower"),
                  ("comm.%s_calls" % kind, "count", "lower")]
    specs += [("comm.wire_sent_bytes", "B", "lower"),
              ("comm.failed_calls", "count", "lower")]
    specs += [("linalg.sym_eig_ms.d%d" % d, "ms", "lower") for d in FACTOR_DIMS]
    specs += [("linalg.sym_eig_gflops", "GFLOP/s", "higher"),
              ("linalg.decomp_batch_ms", "ms", "lower"),
              ("linalg.decomp_imbalance", "ratio", "lower"),
              ("optim.step_ms", "ms", "lower"),
              ("train.init_ms", "ms", "lower"),
              ("train.first_step_ms", "ms", "lower"),
              ("train.eval_ms", "ms", "lower"),
              ("train.span_cover", "ratio", "higher"),
              ("trace.overhead_pct", "%", "lower"),
              ("mem.allocs_per_step", "count", "lower"),
              ("mem.alloc_mb_per_step", "MB", "lower")]
    specs += [("mem.allocs_per_step." + p, "count", "lower")
              for p in ("forward", "backward", "kfac", "optim", "comm")]
    return specs


# ---- end-to-end ------------------------------------------------------------

def tail_percentile(values, beyond=TAIL_SAMPLES):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample_count): the (n - beyond)-th smallest
    sample, i.e. the nearest-rank percentile 100·(n − beyond)/n. None when
    there are not more than `beyond` samples.
    """
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond  # 1-based
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def steady_steps(probes):
    """Step durations from step_probe timestamps.

    `probes` is [(epoch, batch, t_ns), ...] in call order. A steady step is
    the interval between two consecutive probes of the same epoch (one that
    crosses an epoch boundary also holds evaluation), excluding the run's
    first step. Returns durations in ns.
    """
    out = []
    for (e0, b0, t0), (e1, b1, t1) in zip(probes, probes[1:]):
        if e0 != e1 or b1 != b0 + 1:
            continue
        if (e0, b0) == (probes[0][0], probes[0][1]):
            continue
        out.append(t1 - t0)
    return out


def time_to_target(probes, evals, epochs, target=TARGET_ACCURACY):
    """(seconds, epochs) to the first epoch whose val accuracy >= target.

    Runs from the first step's start (first probe) to the end of that
    epoch's evaluation (`evals` holds (epoch0, t_ns) taken right after
    evaluation); `epochs` holds dicts with 1-based "epoch" and
    "val_accuracy". None when the target is never reached.
    """
    eval_end = {e + 1: t for e, t in evals}
    for m in epochs:
        if m["val_accuracy"] >= target:
            return (eval_end[m["epoch"]] - probes[0][2]) / 1e9, m["epoch"]
    return None


def setup_seconds(job_start_ns, probes):
    """Job start call to the end of the first step (the probe of batch 1)."""
    for e, b, t in probes:
        if (e, b) == (0, 1):
            return (t - job_start_ns) / 1e9
    return None


# ---- per-layer -------------------------------------------------------------

def merge_wait_xfer(ranks_comms):
    """Splits every collective into wait and transfer.

    `ranks_comms[r]` lists rank r's records as (seq, entry_ns, exit_ns).
    The same collective has the same seq on every rank. Wait runs from this
    rank's entry to the last rank's entry (capped at this rank's exit, so
    clock jitter never yields negative transfer); transfer is the rest of
    the call. Returns per rank a dict seq -> (wait_ns, xfer_ns).
    """
    last_entry = {}
    for comms in ranks_comms:
        for seq, entry, _ in comms:
            last_entry[seq] = max(last_entry.get(seq, entry), entry)
    out = []
    for comms in ranks_comms:
        split = {}
        for seq, entry, exit_ in comms:
            start = min(max(entry, last_entry[seq]), exit_)
            split[seq] = (start - entry, exit_ - start)
        out.append(split)
    return out


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def self_time(spans, index, children):
    s = spans[index]
    return (s["end"] - s["start"]) - sum(spans[c]["end"] - spans[c]["start"]
                                         for c in children.get(index, ()))


def parse_spans(raw):
    return [{"name": r[0], "start": r[1], "end": r[2], "parent": r[3],
             "step": r[4], "allocs": r[5], "alloc_bytes": r[6]} for r in raw]


def parse_comms(raw):
    return [{"seq": r[0], "op": r[1], "kind": r[2], "entry": r[3], "exit": r[4],
             "bytes": r[5], "wire": r[6], "span": r[7], "failed": r[8]}
            for r in raw]


def comm_count_mismatches(rank_file):
    """Differences between the decorator's per-op sums and the backend's
    CommStats; empty when they agree exactly."""
    sums = {}
    for c in parse_comms(rank_file["comms"]):
        if c["op"] == "barrier":
            continue
        calls, nbytes = sums.get(c["op"], (0, 0))
        sums[c["op"]] = (calls + 1, nbytes + c["bytes"])
    backend = rank_file["backend"]
    bad = []
    for op in ("allreduce", "allgather", "broadcast"):
        got = sums.get(op, (0, 0))
        want = (backend[op + "_calls"], backend[op + "_bytes"])
        if got != want:
            bad.append("rank %d %s: decorator %s vs backend %s"
                       % (rank_file["rank"], op, got, want))
    return bad


def per_layer(traced_ranks, job_start_ns, untraced_step_p50_ms):
    """Per-layer metrics of one traced job; rank 0 unless noted."""
    r0 = traced_ranks[0]
    spans = parse_spans(r0["spans"])
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    steps = {s["step"]: i for i, s in enumerate(spans)
             if s["name"] == "train.step"}
    steady = sorted(k for k in steps if k >= 1)

    def child_of(step, name):
        return [c for c in children.get(steps[step], ())
                if spans[c]["name"] == name]

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def step_median(name):
        return median_or_zero([sum(dur(c) for c in child_of(k, name)) / 1e6
                               for k in steady if child_of(k, name)])

    m = {}
    m["data.load_ms"] = step_median("data.load")
    m["nn.forward_ms"] = step_median("nn.forward")
    m["nn.backward_ms"] = step_median("nn.backward")
    m["nn.loss_ms"] = step_median("nn.loss")
    m["optim.step_ms"] = step_median("optim.step")
    batch_flops = 3.0 * r0["forward_flops_per_sample"] * r0["local_batch"]
    m["nn.gflops"] = median_or_zero([
        batch_flops / sum(dur(c) for c in child_of(k, "nn.forward")
                          + child_of(k, "nn.backward")) for k in steady])

    # K-FAC step self time (comm children removed), by StepReport flags.
    flags = {s: (f, d) for s, f, d in r0["kfac_steps"]}
    factor_only, decomp = [], []
    for k in steady:
        for c in child_of(k, "kfac.step"):
            t = self_time(spans, c, children) / 1e6
            f, d = flags.get(k, (False, False))
            if d:
                decomp.append(t)
            elif f:
                factor_only.append(t)
    m["kfac.step_factor_ms"] = median_or_zero(factor_only)
    m["kfac.step_decomp_ms"] = median_or_zero(decomp)

    a_rows = r0["factor_a_ns"][1:]  # drop the first step
    g_rows = r0["factor_g_ns"][1:]
    m["kfac.factor_a_ms"] = median_or_zero([sum(r) / 1e6 for r in a_rows])
    m["kfac.factor_g_ms"] = median_or_zero([sum(r) / 1e6 for r in g_rows])
    batch_factor_flops = r0["factor_flops_per_sample"] * r0["local_batch"]
    m["kfac.factor_gflops"] = median_or_zero(
        [batch_factor_flops / (sum(a) + sum(g)) for a, g in zip(a_rows, g_rows)])
    for i, name in enumerate(r0["layers"]):
        m["kfac.factor_ms." + name] = median_or_zero(
            [(a[i] + g[i]) / 1e6 for a, g in zip(a_rows, g_rows)])

    # Collectives: wait/xfer merged across ranks by sequence number.
    comms = [parse_comms(r["comms"]) for r in traced_ranks]
    split = merge_wait_xfer([[(c["seq"], c["entry"], c["exit"]) for c in rc]
                             for rc in comms])[0]
    span_step = {i: s["step"] for i, s in enumerate(spans)}
    per_step = {}  # (step, kind) -> [wait, xfer, bytes, calls]
    wire = {}
    for c in comms[0]:
        step = span_step[c["span"]]
        if step < 1:
            continue
        wire[step] = wire.get(step, 0) + c["wire"]
        if c["kind"] not in COMM_KINDS:
            continue
        acc = per_step.setdefault((step, c["kind"]), [0, 0, 0, 0])
        w, x = split[c["seq"]]
        acc[0] += w
        acc[1] += x
        acc[2] += c["bytes"]
        acc[3] += 1
    for kind in COMM_KINDS:
        rows = [v for (s, k), v in per_step.items() if k == kind]
        m["comm.%s_wait_ms" % kind] = median_or_zero([r[0] / 1e6 for r in rows])
        m["comm.%s_xfer_ms" % kind] = median_or_zero([r[1] / 1e6 for r in rows])
        m["comm.%s_bytes" % kind] = median_or_zero([r[2] for r in rows])
        m["comm.%s_calls" % kind] = median_or_zero([r[3] for r in rows])
    m["comm.wire_sent_bytes"] = median_or_zero([wire.get(k, 0) for k in steady])
    m["comm.failed_calls"] = sum(r["failed_calls"] for r in traced_ranks)

    eig = {int(d): ns for d, ns in r0["sym_eig_ns"].items()}
    for d in FACTOR_DIMS:
        m["linalg.sym_eig_ms.d%d" % d] = eig.get(d, 0) / 1e6
    eig_flops = sum(9.0 * d ** 3 for d in eig)
    m["linalg.sym_eig_gflops"] = eig_flops / sum(eig.values()) if eig else 0.0
    batch_ms = [r["decomp_batch_ns"] / 1e6 for r in traced_ranks]
    m["linalg.decomp_batch_ms"] = max(batch_ms)
    mean_batch = statistics.mean(batch_ms)
    m["linalg.decomp_imbalance"] = max(batch_ms) / mean_batch if mean_batch > 0 else 0.0

    m["train.init_ms"] = (spans[steps[0]]["start"] - job_start_ns) / 1e6
    m["train.first_step_ms"] = dur(steps[0]) / 1e6
    m["train.eval_ms"] = median_or_zero(
        [dur(i) / 1e6 for i, s in enumerate(spans) if s["name"] == "train.eval"])
    covers = [sum(dur(c) for c in children.get(steps[k], ())) / dur(steps[k])
              for k in steady]
    m["train.span_cover"] = statistics.median(covers)
    traced_p50 = statistics.median([dur(steps[k]) / 1e6 for k in steady])
    m["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_step_p50_ms - 1.0)

    # Allocations on rank 0's step thread, as a mean over steady steps. A
    # collective's allocations count under comm, not under the span that
    # issued it.
    comm_spans = {i for i, s in enumerate(spans) if s["name"] in COMM_OPS}

    def self_allocs(i):
        return spans[i]["allocs"] - sum(spans[c]["allocs"]
                                        for c in children.get(i, ()) if c in comm_spans)

    def mean_allocs(name):
        return statistics.mean([sum(self_allocs(c) for c in child_of(k, name))
                                for k in steady])

    m["mem.allocs_per_step"] = statistics.mean(
        [spans[steps[k]]["allocs"] for k in steady])
    m["mem.alloc_mb_per_step"] = statistics.mean(
        [spans[steps[k]]["alloc_bytes"] for k in steady]) / 2 ** 20
    m["mem.allocs_per_step.forward"] = mean_allocs("nn.forward")
    m["mem.allocs_per_step.backward"] = mean_allocs("nn.backward")
    m["mem.allocs_per_step.kfac"] = mean_allocs("kfac.step")
    m["mem.allocs_per_step.optim"] = mean_allocs("optim.step")
    m["mem.allocs_per_step.comm"] = statistics.mean(
        [sum(spans[c]["allocs"] for c in child_of(k, "comm.grad_sync"))
         + sum(spans[i]["allocs"] for i in comm_spans if spans[i]["step"] == k
               and spans[spans[i]["parent"]]["name"] != "comm.grad_sync")
         for k in steady])
    return m, covers


def is_finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)
