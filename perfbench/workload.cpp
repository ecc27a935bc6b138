// perfbench_workload — runs one benchmark workload and writes raw per-rank
// timelines; perfbench/run.py turns them into metrics.
//
//   perfbench_workload --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// --trace 0 (end-to-end): one full training job through the library's own
// train::train_with_comm, timed only through its public hooks (step_probe,
// on_model_init, on_epoch_checkpoint), then repeated set-up probes (a job
// stopped at the end of its first step) until S seconds have passed.
//
// --trace 1 (per-layer): the same untraced job, then a traced job that
// drives the paper's Listing-1 loop from this file — batch → forward →
// loss → backward → gradient allreduce → KfacPreconditioner::step →
// Sgd::step — with spans around each call, every collective recorded by
// TracingComm, and outside timing passes over the factor and
// decomposition kernels between steps.
//
// Every job writes DIR/<job>.rank<r>.json per rank and the program writes
// DIR/manifest.json last.
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "bench_util.hpp"
#include "comm/fusion.hpp"
#include "comm/net/launch.hpp"
#include "comm/thread_comm.hpp"
#include "core/preconditioner.hpp"
#include "linalg/batch.hpp"
#include "linalg/eigen.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/sgd.hpp"
#include "recorder.hpp"
#include "sim/arch_stats.hpp"
#include "train/trainer.hpp"

namespace perfbench {
namespace {

using dkfac::Tensor;
namespace comm = dkfac::comm;
namespace data = dkfac::data;
namespace nn = dkfac::nn;
namespace train = dkfac::train;

// ---- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  bool kfac;
  int update_freq;  // K-FAC-opt decomposition interval (factors: freq/10)
  int world;
  bool socket;  // one process per rank over loopback TCP, else thread ranks
};

// Every workload uses 4 compute threads in total (ranks × OMP threads), so
// workloads differ only in optimizer, update frequency and transport.
constexpr int kComputeThreads = 4;
constexpr Workload kWorkloads[] = {
    {"sgd_w2_thread", false, 0, 2, false},
    {"kfac_f10_w2_thread", true, 10, 2, false},
    {"kfac_f1_w4_socket", true, 1, 4, true},
};

// ResNet-20 at width 8 on the 16×16 CIFAR stand-in, local batch 32, the
// shared bench LR schedule at base LR 0.1 over kEpochs epochs.
constexpr int kDepth = 20;
constexpr int64_t kWidth = 8;
constexpr int64_t kLocalBatch = 32;
constexpr float kBaseLr = 0.1f;
constexpr int kEpochs = 8;

uint64_t splitmix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct JobInputs {
  data::SyntheticSpec spec;
  train::TrainConfig config;
  train::ModelFactory factory;
};

JobInputs make_inputs(const Workload& w, uint64_t seed) {
  JobInputs in;
  in.spec = dkfac::bench::bench_cifar_spec();
  in.spec.seed = splitmix(seed, 1);
  in.config = dkfac::bench::bench_train_config(kEpochs, kBaseLr, w.kfac);
  in.config.local_batch = kLocalBatch;
  if (w.kfac) in.config.kfac.with_update_freq(w.update_freq);
  in.config.model_seed = splitmix(seed, 2);
  in.config.data_seed = splitmix(seed, 3);
  in.factory = dkfac::bench::bench_resnet_factory(kDepth, 10, kWidth);
  return in;
}

// ---- helpers ---------------------------------------------------------------

/// FNV-1a over the bit patterns of every parameter value.
uint64_t weights_hash(nn::Layer& model) {
  uint64_t h = 1469598103934665603ull;
  for (nn::Parameter* p : model.parameters()) {
    for (float v : p->value.span()) {
      uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      h = (h ^ bits) * 1099511628211ull;
    }
  }
  return h;
}

uint32_t float_bits(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

int64_t max_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text << '\n';
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Keeps every core busy for `seconds`. After a few seconds of machine
/// idle the first training step can take 1–1.7 s instead of ~0.1–0.3 s
/// (see README.md, "Cold start"), so each run starts from a busy machine.
/// Plain std::threads, joined before any fork: the socket workload forks
/// rank processes from this process afterwards.
void warm_up(double seconds) {
  const int64_t until = now_ns() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int t = 0; t < kComputeThreads; ++t) {
    threads.emplace_back([until] {
      volatile double x = 1.0;
      while (now_ns() < until) {
        for (int i = 0; i < 10000; ++i) x = x * 1.0000001 + 1e-9;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Runs `rank_fn` SPMD on the workload's transport and writes each rank's
/// JSON to `<prefix>.rank<r>.json`. Returns the job's start time: the
/// instant before the call that starts the group.
int64_t run_job(const Workload& w, const std::string& prefix,
                const std::function<std::string(comm::Communicator&)>& rank_fn) {
  const auto rank_main = [&](comm::Communicator& c) {
    omp_set_num_threads(kComputeThreads / w.world);
    write_file(prefix + ".rank" + std::to_string(c.rank()) + ".json", rank_fn(c));
  };
  const int64_t start = now_ns();
  if (w.socket) {
    const int rc = comm::net::run_ranks(w.world, [&](comm::Communicator& c) {
      try {
        rank_main(c);
        return 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d: %s\n", c.rank(), e.what());
        return 1;
      }
    });
    if (rc != 0) throw std::runtime_error("socket job exited with " + std::to_string(rc));
  } else {
    comm::LocalGroup group(w.world);
    group.run([&](int, comm::Communicator& c) { rank_main(c); });
  }
  return start;
}

// ---- untraced job: the library's own training loop ------------------------

struct StopAfterFirstStep {};

std::string untraced_rank(const JobInputs& in, bool stop_after_first_step,
                          comm::Communicator& c) {
  train::TrainConfig config = in.config;
  std::vector<std::array<int64_t, 3>> probes;
  probes.reserve(4096);
  std::vector<std::array<int64_t, 2>> evals;
  nn::Layer* model = nullptr;
  uint64_t first_step_hash = 0;
  uint64_t final_hash = 0;
  config.on_model_init = [&](nn::Layer& m) { model = &m; };
  config.step_probe = [&](int epoch, int64_t batch) {
    probes.push_back({epoch, batch, now_ns()});
    if (epoch == 0 && batch == 1) {
      first_step_hash = weights_hash(*model);
      if (stop_after_first_step) throw StopAfterFirstStep{};
    }
  };
  config.on_epoch_checkpoint = [&](int epoch, nn::Layer&) {
    evals.push_back({epoch, now_ns()});
  };
  config.on_trained_model = [&](nn::Layer& m) { final_hash = weights_hash(m); };

  train::TrainResult result;
  bool stopped = false;
  int64_t peak_heap_bytes = 0;
  try {
    result = train::train_with_comm(in.factory, in.spec, config, c);
    // Thread ranks share the process: the first to read gets the job's
    // peak, the other the (smaller) peak since that read.
    peak_heap_bytes = take_peak_heap_bytes();
  } catch (const StopAfterFirstStep&) {
    stopped = true;
  }

  Json j;
  j.begin_obj();
  j.key("rank").num(c.rank()).key("world").num(c.size());
  j.key("stopped").boolean(stopped);
  j.key("probes").begin_arr();
  for (const auto& p : probes) j.begin_arr().num(p[0]).num(p[1]).num(p[2]).end_arr();
  j.end_arr();
  j.key("evals").begin_arr();
  for (const auto& e : evals) j.begin_arr().num(e[0]).num(e[1]).end_arr();
  j.end_arr();
  j.key("epochs").begin_arr();
  for (const train::EpochMetrics& m : result.epochs) {
    j.begin_obj()
        .key("epoch").num(m.epoch)
        .key("train_loss").num(static_cast<double>(m.train_loss))
        .key("train_loss_bits").num(static_cast<uint64_t>(float_bits(m.train_loss)))
        .key("val_accuracy").num(static_cast<double>(m.val_accuracy))
        .end_obj();
  }
  j.end_arr();
  j.key("first_step_hash").str(std::to_string(first_step_hash));
  j.key("final_hash").str(std::to_string(final_hash));
  j.key("max_rss_kb").num(max_rss_kb());
  j.key("peak_heap_bytes").num(peak_heap_bytes);
  j.end_obj();
  return j.text();
}

// ---- traced job: the Listing-1 loop driven from this file -----------------

/// OH·OW of a K-FAC layer's output at 16×16 input: ResNet-CIFAR stage s
/// has width·2^s channels at (16/2^s)², the classifier is one position.
int64_t spatial_positions(const nn::KfacCapturable& layer, int64_t image) {
  if (dynamic_cast<const nn::Linear*>(&layer) != nullptr) return 1;
  const int64_t side = image / (layer.kfac_g_dim() / kWidth);
  return side * side;
}

int64_t median_ns(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string traced_rank(const JobInputs& in, comm::Communicator& inner) {
  const train::TrainConfig& config = in.config;
  if (!config.damping_decay_epochs.empty() || !config.freq_decay_epochs.empty() ||
      config.overlap_comm || config.straggler_slack_s > 0.0 ||
      config.optimizer != train::OptimizerKind::kSgd) {
    throw std::runtime_error("traced loop replicates the synchronous SGD/K-FAC path only");
  }
  Recorder rec;
  TracingComm comm(inner, rec);

  std::optional<ScopedSpan> init_span(std::in_place, rec, "train.init");
  const data::SyntheticImageDataset train_set(in.spec,
                                              data::SyntheticImageDataset::Split::kTrain);
  const data::SyntheticImageDataset val_set(in.spec,
                                            data::SyntheticImageDataset::Split::kVal);
  const data::ShardedLoader loader(train_set, config.local_batch, comm.rank(),
                                   comm.size(), config.data_seed);
  dkfac::Rng model_rng(config.model_seed);
  nn::LayerPtr model = in.factory(model_rng);
  std::vector<nn::Parameter*> params = model->parameters();
  for (nn::Parameter* p : params) comm.broadcast(p->value, /*root=*/0);

  const dkfac::optim::LrSchedule schedule(config.lr);
  dkfac::optim::Sgd sgd(params, {.lr = schedule.lr_at(0.0f),
                                 .momentum = config.momentum,
                                 .weight_decay = config.weight_decay});
  std::optional<comm::FusionBuffer> grad_fusion;
  if (comm.size() > 1) {
    grad_fusion.emplace(comm, comm.cost_model().recommended_fusion_bytes(comm.size()));
  }
  std::optional<dkfac::kfac::KfacPreconditioner> kfac;
  if (config.use_kfac) {
    dkfac::kfac::KfacOptions opts = config.kfac;
    opts.lr = schedule.lr_at(0.0f);
    kfac.emplace(*model, comm, opts);
  }
  init_span.reset();

  const std::vector<nn::KfacCapturable*> layers = model->kfac_layers();
  double forward_flops = 0.0;  // per sample, sim::LayerShape::forward_flops
  double factor_flops = 0.0;   // per sample, sim::LayerShape::factor_flops
  for (const nn::KfacCapturable* l : layers) {
    dkfac::sim::LayerShape shape{l->kfac_name(), l->kfac_a_dim(), l->kfac_g_dim(),
                                 spatial_positions(*l, in.spec.height)};
    forward_flops += shape.forward_flops();
    factor_flops += shape.factor_flops();
  }

  struct StepKfac {
    int64_t step;
    bool factors;
    bool decomps;
  };
  std::vector<StepKfac> kfac_flags;
  // Outside factor pass: [step][layer] ns for the A and the G factor.
  std::vector<std::vector<int64_t>> factor_a_ns;
  std::vector<std::vector<int64_t>> factor_g_ns;
  std::vector<Tensor> last_factors(2 * layers.size());

  const int64_t batches = loader.batches_per_epoch();
  int64_t global_step = 0;
  std::vector<float> epoch_losses;
  for (int epoch = config.start_epoch; epoch < config.epochs; ++epoch) {
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    for (int64_t b = 0; b < batches; ++b) {
      rec.step = global_step;
      {
        ScopedSpan step_span(rec, "train.step");
        const float frac_epoch = static_cast<float>(epoch) +
                                 static_cast<float>(b) / static_cast<float>(batches);
        const float lr = schedule.lr_at(frac_epoch);
        sgd.set_lr(lr);
        if (kfac) kfac->set_lr(lr);
        data::Batch batch;
        {
          ScopedSpan s(rec, "data.load");
          batch = loader.batch(epoch, b);
        }
        {
          ScopedSpan s(rec, "nn.zero_grad");
          model->zero_grad();
        }
        Tensor logits;
        {
          ScopedSpan s(rec, "nn.forward");
          logits = model->forward(batch.images);
        }
        nn::LossResult loss;
        {
          ScopedSpan s(rec, "nn.loss");
          loss = nn::softmax_cross_entropy(logits, batch.labels, config.label_smoothing);
        }
        {
          ScopedSpan s(rec, "nn.backward");
          model->backward(loss.grad);
        }
        {
          ScopedSpan s(rec, "comm.grad_sync");
          if (grad_fusion) {
            for (nn::Parameter* p : params) grad_fusion->add(p->grad);
            grad_fusion->execute(comm::ReduceOp::kAverage);
          }
        }
        if (epoch == config.start_epoch && b == 1) {
          if (kfac) kfac->mark_steady_state();
          if (grad_fusion) grad_fusion->mark_steady_state();
        }
        if (kfac) {
          ScopedSpan s(rec, "kfac.step");
          kfac->step();
        }
        {
          ScopedSpan s(rec, "optim.step");
          sgd.step();
        }
        {
          ScopedSpan s(rec, "train.accuracy");
          loss_sum += loss.loss;
          acc_sum += nn::accuracy(logits, batch.labels);
        }
      }
      rec.step = -1;
      if (kfac) {
        const auto& report = kfac->last_report();
        kfac_flags.push_back(
            {global_step, report.factors_updated, report.decompositions_updated});
        // Outside pass: the factor kernels on this step's captured
        // activations, on every rank alike. No barrier follows: one would
        // absorb the cross-rank skew that, untraced, carries into the next
        // step's first collective.
        ScopedSpan s(rec, "outside.factors");
        std::vector<int64_t>& a_ns = factor_a_ns.emplace_back(layers.size());
        std::vector<int64_t>& g_ns = factor_g_ns.emplace_back(layers.size());
        for (size_t i = 0; i < layers.size(); ++i) {
          const int64_t t0 = now_ns();
          last_factors[2 * i] = layers[i]->kfac_a_factor();
          const int64_t t1 = now_ns();
          last_factors[2 * i + 1] = layers[i]->kfac_g_factor();
          a_ns[i] = t1 - t0;
          g_ns[i] = now_ns() - t1;
        }
      }
      ++global_step;
    }
    {
      ScopedSpan s(rec, "train.epoch_stats");
      std::vector<float> stats{static_cast<float>(loss_sum / batches),
                               static_cast<float>(acc_sum / batches)};
      comm.allreduce(stats, comm::ReduceOp::kAverage);
      epoch_losses.push_back(stats[0]);
    }
    ScopedSpan s(rec, "train.eval");
    train::evaluate(*model, val_set, comm, config.eval_batch);
  }

  // Exact-count check input: the backend's own counters, read before any
  // further collective.
  const comm::CommStats backend = inner.stats();
  const uint64_t final_hash = weights_hash(*model);

  // Outside linalg pass on the run's last factors: sym_eig per distinct
  // factor dim, and run_decomposition_batch over this rank's owned factors
  // as the preconditioner's assignment() places them.
  constexpr int kReps = 5;
  std::map<int64_t, int64_t> eig_ns;
  int64_t batch_ns = 0;
  if (kfac) {
    for (const Tensor& f : last_factors) {
      const int64_t dim = f.shape()[0];
      if (eig_ns.count(dim) != 0) continue;
      std::vector<int64_t> t;
      for (int r = 0; r < kReps; ++r) {
        const int64_t t0 = now_ns();
        dkfac::linalg::SymEig e = dkfac::linalg::sym_eig(f);
        t.push_back(now_ns() - t0);
      }
      eig_ns[dim] = median_ns(t);
    }
    const std::vector<int64_t> owned = kfac->assignment().owned_by(comm.rank());
    std::vector<dkfac::linalg::SymEig> out(owned.size());
    std::vector<int64_t> t;
    for (int r = 0; r < kReps; ++r) {
      std::vector<dkfac::linalg::BatchTask> tasks;
      for (size_t i = 0; i < owned.size(); ++i) {
        const Tensor& f = last_factors[static_cast<size_t>(owned[i])];
        tasks.push_back({f.shape()[0], [&out, &f, i] { out[i] = dkfac::linalg::sym_eig(f); }});
      }
      inner.barrier();
      const int64_t t0 = now_ns();
      dkfac::linalg::run_decomposition_batch(tasks);
      t.push_back(now_ns() - t0);
    }
    batch_ns = median_ns(t);
  }

  Json j;
  j.begin_obj();
  j.key("rank").num(comm.rank()).key("world").num(comm.size());
  j.key("forward_flops_per_sample").num(forward_flops);
  j.key("factor_flops_per_sample").num(factor_flops);
  j.key("local_batch").num(config.local_batch);
  j.key("final_hash").str(std::to_string(final_hash));
  j.key("epoch_losses").begin_arr();
  for (float l : epoch_losses) j.num(static_cast<uint64_t>(float_bits(l)));
  j.end_arr();
  j.key("backend").begin_obj()
      .key("allreduce_calls").num(backend.allreduce_calls)
      .key("allreduce_bytes").num(backend.allreduce_bytes)
      .key("allgather_calls").num(backend.allgather_calls)
      .key("allgather_bytes").num(backend.allgather_bytes)
      .key("broadcast_calls").num(backend.broadcast_calls)
      .key("broadcast_bytes").num(backend.broadcast_bytes)
      .end_obj();
  j.key("failed_calls").num(comm.failed_calls());
  j.key("spans").begin_arr();
  for (const SpanRecord& s : rec.spans) {
    j.begin_arr()
        .str(s.name).num(s.start_ns).num(s.end_ns).num(s.parent).num(s.step)
        .num(s.allocs_at_end.calls - s.allocs_at_start.calls)
        .num(s.allocs_at_end.bytes - s.allocs_at_start.bytes)
        .end_arr();
  }
  j.end_arr();
  j.key("comms").begin_arr();
  for (const CommRecord& r : rec.comms) {
    j.begin_arr()
        .num(r.seq).str(r.op).str(r.kind).num(r.entry_ns).num(r.exit_ns)
        .num(r.bytes).num(r.wire_sent_bytes).num(r.span).boolean(r.failed)
        .end_arr();
  }
  j.end_arr();
  j.key("kfac_steps").begin_arr();
  for (const StepKfac& k : kfac_flags) {
    j.begin_arr().num(k.step).boolean(k.factors).boolean(k.decomps).end_arr();
  }
  j.end_arr();
  j.key("layers").begin_arr();
  for (const nn::KfacCapturable* l : layers) j.str(l->kfac_name());
  j.end_arr();
  j.key("factor_a_ns").begin_arr();
  for (const auto& row : factor_a_ns) {
    j.begin_arr();
    for (int64_t v : row) j.num(v);
    j.end_arr();
  }
  j.end_arr();
  j.key("factor_g_ns").begin_arr();
  for (const auto& row : factor_g_ns) {
    j.begin_arr();
    for (int64_t v : row) j.num(v);
    j.end_arr();
  }
  j.end_arr();
  j.key("sym_eig_ns").begin_obj();
  for (const auto& [dim, ns] : eig_ns) j.key(std::to_string(dim)).num(ns);
  j.end_obj();
  j.key("decomp_batch_ns").num(batch_ns);
  j.key("max_rss_kb").num(max_rss_kb());
  j.end_obj();
  return j.text();
}

// ---- main ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    size_t used = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value, &used);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value, &used);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value, &used);
    } else if (flag == "--out") {
      a.out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != 0 && used != value.size()) {
      throw std::invalid_argument("bad value for " + flag + ": " + value);
    }
  }
  if ((argc - 1) % 2 != 0) throw std::invalid_argument("flags take one value each");
  if (a.out.empty() || a.workload.empty()) {
    throw std::invalid_argument("--workload and --out are required");
  }
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const JobInputs in = make_inputs(*w, args.seed);

  Json manifest;
  manifest.begin_obj();
  manifest.key("workload").str(w->name).key("seed").num(args.seed);
  manifest.key("world").num(w->world).key("epochs").num(kEpochs);
  manifest.key("local_batch").num(kLocalBatch);
  manifest.key("batches_per_epoch").num(in.spec.train_size / (kLocalBatch * w->world));
  manifest.key("jobs").begin_arr();
  const auto record_job = [&](const std::string& name, const char* kind,
                              int64_t start) {
    manifest.begin_obj().key("name").str(name).key("kind").str(kind)
        .key("start_ns").num(start).end_obj();
  };

  warm_up(1.0);
  const int64_t measure_start = now_ns();
  const std::string train_name = "train";
  record_job(train_name, "train",
             run_job(*w, args.out + "/" + train_name, [&](comm::Communicator& c) {
               return untraced_rank(in, false, c);
             }));
  if (args.trace == 1) {
    record_job("traced", "traced",
               run_job(*w, args.out + "/traced", [&](comm::Communicator& c) {
                 return traced_rank(in, c);
               }));
  } else {
    // Set-up probes until the run has measured for --seconds (at least 5).
    constexpr int kMinProbes = 5;
    constexpr int kMaxProbes = 40;
    for (int p = 0; p < kMaxProbes; ++p) {
      if (p >= kMinProbes && now_ns() - measure_start >= args.seconds * 1e9) break;
      const std::string name = "setup" + std::to_string(p);
      record_job(name, "setup",
                 run_job(*w, args.out + "/" + name, [&](comm::Communicator& c) {
                   return untraced_rank(in, true, c);
                 }));
    }
  }
  manifest.end_arr();
  manifest.key("max_rss_kb").num(max_rss_kb());
  manifest.end_obj();
  write_file(args.out + "/manifest.json", manifest.text());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 2;
  }
}
