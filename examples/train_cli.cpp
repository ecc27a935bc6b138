// dkfac training CLI: trains on the synthetic CIFAR stand-in, prints
// per-epoch metrics, and optionally writes a checkpoint, a Chrome trace and
// a per-step metrics stream. `train_cli --help` lists every flag.
//
// Each flag is one row of flag_table(). The row parses its value and writes
// it straight into TrainConfig, KfacOptions or ElasticOptions; where the
// library owns a check (KfacOptions::validate, comm::parse_precision,
// parse_log_level, faultnet::parse_plan) the row calls it instead of
// restating it. A rejected flag exits 2 with
//
//   train_cli: --flag: expected ..., got '<value>'
//
// and an error while training exits 1.
#include <omp.h>

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/net/faultnet.hpp"
#include "comm/net/launch.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "train/elastic.hpp"
#include "train/trainer.hpp"

namespace {

using namespace dkfac;

enum class Backend { kThread, kSocket };
using BuildModel = nn::LayerPtr (*)(Rng&);

template <typename T>
using Choices = std::vector<std::pair<const char*, T>>;

const Choices<BuildModel> kModels = {
    {"resnet8", [](Rng& rng) { return nn::resnet_cifar(8, 10, rng, 8); }},
    {"resnet14", [](Rng& rng) { return nn::resnet_cifar(14, 10, rng, 8); }},
    {"resnet20", [](Rng& rng) { return nn::resnet_cifar(20, 10, rng, 8); }},
    {"cnn", [](Rng& rng) { return nn::simple_cnn(3, 10, rng, 8); }},
};
const Choices<train::OptimizerKind> kOptimizers = {
    {"sgd", train::OptimizerKind::kSgd},
    {"adam", train::OptimizerKind::kAdam},
    {"lars", train::OptimizerKind::kLars},
};
const Choices<kfac::DistributionStrategy> kStrategies = {
    {"lw", kfac::DistributionStrategy::kLayerWise},
    {"opt", kfac::DistributionStrategy::kFactorWise},
    {"sb", kfac::DistributionStrategy::kSizeBalanced},
};
const Choices<Backend> kBackends = {{"thread", Backend::kThread},
                                    {"socket", Backend::kSocket}};

/// Settings that exist only on the command line; every other flag writes
/// the library's own option structs.
struct Cli {
  const char* model = "resnet8";
  BuildModel build = kModels.front().second;
  Backend backend = Backend::kThread;
  std::string save_path;
  std::string trace_path;
  train::TrainConfig config;
  train::elastic::ElasticOptions elastic;
};

/// Thrown by a row whose value does not parse; completes "expected ...",
/// or leaves that to the row's metavar when empty.
struct Rejected {
  std::string expected;
};

struct Flag {
  std::vector<std::string_view> names;  // canonical name first, then aliases
  std::string metavar;                  // empty for a switch
  const char* help;
  std::function<void(const char*)> apply;  // gets the value (null for a switch)
};

/// `name(item)` of every item, separated by `separator`.
template <typename Range, typename Name>
std::string join(const Range& items, Name name,
                 std::string_view separator = "|") {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += separator;
    out += name(item);
  }
  return out;
}

std::string_view same(std::string_view name) { return name; }

template <typename T>
std::string names_of(const Choices<T>& choices) {
  return join(choices, [](const auto& choice) { return choice.first; });
}

template <typename T>
T choose(const char* text, const Choices<T>& choices) {
  for (const auto& [name, value] : choices) {
    if (std::strcmp(name, text) == 0) return value;
  }
  throw Rejected{};
}

template <typename T>
const char* name_of(T value, const Choices<T>& choices) {
  for (const auto& [name, v] : choices) {
    if (v == value) return name;
  }
  return "?";
}

/// All of `text` as a finite T of at least `min` (above it when `strict`).
template <typename T>
T number(const char* text, T min = std::numeric_limits<T>::lowest(),
         bool strict = false) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && ptr == end && value >= min &&
            !(strict && value == min);
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::ostringstream expected;
    expected << (std::is_integral_v<T> ? "an integer" : "a finite number");
    if (min != std::numeric_limits<T>::lowest()) {
      expected << (strict ? " > " : " >= ") << min;
    }
    throw Rejected{expected.str()};
  }
  return value;
}

std::vector<Flag> flag_table(Cli& cli) {
  train::TrainConfig& config = cli.config;
  kfac::KfacOptions& kfac = config.kfac;
  train::elastic::ElasticOptions& elastic = cli.elastic;
  // The rows outlive these references safely: a reference captured by
  // reference names the object it is bound to, here a member of `cli`.
  // The K-FAC rows leave the options valid, so validate() can only fail
  // on the value the row just wrote.
  return {
      {{"--model"}, names_of(kModels), "network to train",
       [&](const char* v) {
         cli.build = choose(v, kModels);
         cli.model = v;
       }},
      {{"--optimizer"}, names_of(kOptimizers),
       "inner optimizer that K-FAC preconditions",
       [&](const char* v) { config.optimizer = choose(v, kOptimizers); }},
      {{"--kfac"}, "", "precondition gradients with distributed K-FAC",
       [&](const char*) { config.use_kfac = true; }},
      {{"--strategy"}, names_of(kStrategies),
       "K-FAC placement: layer-wise, factor-wise (Algorithm 1) or "
       "size-balanced factor-wise",
       [&](const char* v) { kfac.strategy = choose(v, kStrategies); }},
      {{"--backend"}, names_of(kBackends),
       "thread: ranks are threads of this process; socket: forked "
       "processes over localhost TCP, with bitwise-identical results",
       [&](const char* v) { cli.backend = choose(v, kBackends); }},
      {{"--workers", "--ranks"}, "N", "number of ranks",
       [&](const char* v) { elastic.initial_ranks = number(v, 1); }},
      {{"--epochs"}, "N", "training epochs",
       [&](const char* v) { config.epochs = number(v, 1); }},
      {{"--batch"}, "N", "per-rank batch size",
       [&](const char* v) { config.local_batch = number<int64_t>(v, 1); }},
      {{"--lr"}, "F",
       "base learning rate (1 warm-up epoch, x0.1 at 60% and 85% of the run)",
       [&](const char* v) { config.lr.base_lr = number(v, 0.0f, true); }},
      {{"--update-freq"}, "N",
       "K-FAC eigendecompositions every N steps, factors every N/10",
       [&](const char* v) {
         kfac.with_update_freq(number<int>(v));
         kfac.validate();
       }},
      {{"--rank-fraction"}, "F",
       "keep the top F of each factor's eigenpairs (1 = exact)",
       [&](const char* v) {
         kfac.eigen_rank_fraction = number<float>(v);
         kfac.validate();
       }},
      {{"--overlap"}, "",
       "overlap gradient and factor communication with backprop",
       [&](const char*) { config.overlap_comm = true; }},
      {{"--factor-precision"},
       join(std::array{comm::Precision::kFp32, comm::Precision::kFp16,
                       comm::Precision::kBf16},
            comm::precision_name),
       "wire precision of the K-FAC factor and decomposition exchange",
       [&](const char* v) {
         kfac.factor_precision = comm::parse_precision(v);
       }},
      {{"--save"}, "PATH", "write the trained model's checkpoint to PATH",
       [&](const char* v) { cli.save_path = v; }},
      {{"--trace"}, "PATH",
       "write a Chrome trace_event JSON; socket ranks write PATH with a "
       ".rank<N> infix and the launcher merges them into PATH",
       [&](const char* v) { cli.trace_path = v; }},
      {{"--metrics"}, "PATH", "stream rank 0's per-step metrics as JSONL",
       [&](const char* v) { config.metrics_path = v; }},
      {{"--elastic"}, "CKPT",
       "run socket ranks under the fault-tolerant supervisor: a dead rank "
       "shrinks the group, which resumes from the epoch checkpoint CKPT",
       [&](const char* v) { elastic.checkpoint_path = v; }},
      {{"--min-ranks"}, "N", "--elastic: fail once fewer than N ranks remain",
       [&](const char* v) { elastic.min_ranks = number(v, 1); }},
      {{"--max-ranks"}, "N",
       "--elastic: regrow the world up to N ranks (0 = the initial count)",
       [&](const char* v) { elastic.max_ranks = number(v, 0); }},
      {{"--respawns"}, "N",
       "--elastic: replacement processes each rank slot may fork",
       [&](const char* v) { elastic.respawns_per_rank = number(v, 0); }},
      {{"--straggler-slack"}, "S",
       "shed a step's K-FAC factor update when the ranks' compute times "
       "spread by more than S seconds",
       [&](const char* v) { config.straggler_slack_s = number(v, 0.0f); }},
      {{"--fault-plan"}, "PLAN",
       "arm deterministic fault injection on the socket wire in every rank, "
       "e.g. rank=1,op=send,nth=40,action=bitflip (grammar in "
       "comm/net/faultnet.hpp)",
       [&](const char* v) {
         // Fail here rather than inside a forked rank; the children load
         // the plan from the environment.
         (void)comm::net::faultnet::parse_plan(v);
         ::setenv("DKFAC_FAULT_PLAN", v, 1);
       }},
      {{"--log-level"},
       join(std::array{LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                       LogLevel::kError},
            log_level_name),
       "least severe message printed",
       [](const char* v) {
         const std::optional<LogLevel> level = parse_log_level(v);
         if (!level) throw Rejected{};
         log_level() = *level;
       }},
  };
}

std::string usage(const std::vector<Flag>& flags) {
  std::string out = "usage: train_cli";
  for (const Flag& flag : flags) {
    out += " [" + join(flag.names, same);
    if (!flag.metavar.empty()) out += " " + flag.metavar;
    out += "]";
  }
  return out + "\n";
}

[[noreturn]] void reject(std::string_view flag, const std::string& expected,
                         const char* got, const char* detail = nullptr) {
  std::fprintf(stderr, "train_cli: %.*s: expected %s, got '%s'%s%s%s\n",
               static_cast<int>(flag.size()), flag.data(), expected.c_str(),
               got, detail ? " (" : "", detail ? detail : "",
               detail ? ")" : "");
  std::exit(2);
}

void parse(int argc, char** argv, Cli& cli) {
  const std::vector<Flag> flags = flag_table(cli);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      std::printf("%s\nTrains on the synthetic CIFAR stand-in. A rejected flag "
                  "exits 2; an error while training exits 1.\n\n",
                  usage(flags).c_str());
      for (const Flag& flag : flags) {
        std::string line = join(flag.names, same, ", ");
        if (!flag.metavar.empty()) line += " " + flag.metavar;
        std::printf("  %s\n      %s\n", line.c_str(), flag.help);
      }
      std::exit(0);
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      for (std::string_view name : f.names) {
        if (name == arg) flag = &f;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "%s", usage(flags).c_str());
      reject("flag", "one listed by --help", argv[i]);
    }
    const bool choice = flag->metavar.find('|') != std::string::npos;
    const std::string expected = (choice ? "one of " : "") + flag->metavar;
    const char* value = nullptr;
    if (!flag->metavar.empty()) {
      if (i + 1 >= argc) reject(arg, expected, "");
      value = argv[++i];
    }
    try {
      flag->apply(value);
    } catch (const Rejected& r) {
      reject(arg, r.expected.empty() ? expected : r.expected, value);
    } catch (const Error& e) {
      reject(arg, expected, value, e.what());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  train::TrainConfig& config = cli.config;
  // Where the CLI's defaults differ from the library's.
  config.epochs = 5;
  config.weight_decay = 5e-4f;
  config.lr.base_lr = 0.05f;
  config.kfac.damping = 0.003f;
  cli.elastic.initial_ranks = 2;
  parse(argc, argv, cli);

  const int workers = cli.elastic.initial_ranks;
  const bool elastic = !cli.elastic.checkpoint_path.empty();
  config.lr = {.base_lr = config.lr.base_lr,
               .warmup_epochs = 1.0f,
               .warmup_start_factor = 0.25f,
               .decay_epochs = {0.6f * config.epochs, 0.85f * config.epochs},
               .decay_factor = 0.1f};
  if (!cli.save_path.empty()) {
    config.on_trained_model = [&cli](nn::Layer& model) {
      nn::save_checkpoint(model, cli.save_path);
      std::printf("checkpoint written to %s\n", cli.save_path.c_str());
    };
  }

  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.height = spec.width = 16;
  spec.grid = 4;
  spec.train_size = 1280;
  spec.val_size = 512;
  spec.noise = 3.0f;
  const train::ModelFactory factory = cli.build;

  std::printf("model=%s optimizer=%s kfac=%s backend=%s workers=%d epochs=%d "
              "global-batch=%lld comm=%s factor-precision=%s\n",
              cli.model, name_of(config.optimizer, kOptimizers),
              config.use_kfac ? name_of(config.kfac.strategy, kStrategies)
                              : "off",
              elastic ? "elastic-socket" : name_of(cli.backend, kBackends),
              workers, config.epochs,
              static_cast<long long>(config.local_batch * workers),
              config.overlap_comm ? "overlapped" : "synchronous",
              config.use_kfac
                  ? comm::precision_name(config.kfac.factor_precision)
                  : "n/a");

  const auto print_result = [&config](const train::TrainResult& result) {
    for (const train::EpochMetrics& m : result.epochs) {
      std::printf("epoch %2d: loss %.3f  train acc %.1f%%  val acc %.1f%%  "
                  "(%.1fs)\n",
                  m.epoch, m.train_loss, 100.0f * m.train_accuracy,
                  100.0f * m.val_accuracy, m.seconds);
    }
    std::printf("best validation accuracy: %.1f%%; comm volume %llu bytes\n",
                100.0f * result.best_val_accuracy,
                static_cast<unsigned long long>(result.comm_stats.total_bytes()));
    if (config.use_kfac && result.comm_stats.factor_dense_bytes > 0) {
      std::printf("factor payload: %llu dense -> %llu packed -> %llu encoded "
                  "bytes\n",
                  static_cast<unsigned long long>(result.comm_stats.factor_dense_bytes),
                  static_cast<unsigned long long>(result.comm_stats.factor_packed_bytes),
                  static_cast<unsigned long long>(result.comm_stats.factor_encoded_bytes));
    }
    if (result.comm_stats.wire_sent_bytes > 0) {
      std::printf("wire (rank 0): %llu bytes sent, %llu bytes received\n",
                  static_cast<unsigned long long>(result.comm_stats.wire_sent_bytes),
                  static_cast<unsigned long long>(result.comm_stats.wire_recv_bytes));
    }
    if (config.overlap_comm) {
      std::printf("overlap: %.3f s collective time, %.3f s blocked "
                  "(hid %.3f s behind compute)\n",
                  result.comm_stats.async.comm_seconds,
                  result.comm_stats.async.wait_seconds,
                  result.comm_stats.async.overlap_won_seconds());
    }
  };

  try {
    if (elastic) {
      // Fault-tolerant supervisor: forked socket ranks that survive rank
      // death by re-forming and resuming from the durable checkpoint.
      // (--trace is not merged in this mode; use --metrics to observe the
      // elastic.* counters.)
      const train::elastic::ElasticResult result =
          train::elastic::run_elastic(factory, spec, config, cli.elastic);
      if (!result.completed) {
        std::fprintf(stderr, "elastic job failed (exit code %d)\n",
                     result.exit_code);
        return result.exit_code == 0 ? 1 : result.exit_code;
      }
      std::printf("elastic job completed: world %d after %d re-formation(s), "
                  "%d respawn(s), %d join(s), %llu factor step(s) shed\n",
                  result.final_world, result.reformations, result.respawns,
                  result.joins,
                  static_cast<unsigned long long>(result.skipped_factor_steps));
      std::printf("final loss %.3f  val acc %.1f%%  checkpoint %s\n",
                  result.final_train_loss, 100.0f * result.final_val_accuracy,
                  cli.elastic.checkpoint_path.c_str());
      return 0;
    }
    if (cli.backend == Backend::kSocket) {
      // N real processes over localhost TCP: fork, rendezvous, train.
      // Rank 0's child prints the metrics; the launcher propagates the
      // first failing child's exit code.
      const int status = comm::net::run_ranks(workers, [&](comm::Communicator& comm) {
        omp_set_num_threads(train::omp_threads_per_rank(workers));
        if (!cli.trace_path.empty()) {
          // Common epoch across ranks: everyone leaves the barrier within
          // microseconds and CLOCK_MONOTONIC is system-wide, so per-rank
          // timestamps line up after the merge.
          obs::Tracer::set_thread_name("rank.main");
          obs::Tracer::instance().enable();
          comm.barrier();
          obs::Tracer::instance().set_epoch_now();
        }
        const train::TrainResult result =
            train::train_with_comm(factory, spec, config, comm);
        if (comm.rank() == 0) print_result(result);
        if (!cli.trace_path.empty()) {
          obs::ExportOptions trace_opts;
          trace_opts.pid = comm.rank();
          trace_opts.process_name = "rank " + std::to_string(comm.rank());
          obs::write_chrome_trace_file(
              obs::rank_trace_path(cli.trace_path, comm.rank()), trace_opts);
        }
        return 0;
      });
      if (status == 0 && !cli.trace_path.empty()) {
        std::vector<std::string> rank_traces;
        for (int r = 0; r < workers; ++r) {
          rank_traces.push_back(obs::rank_trace_path(cli.trace_path, r));
        }
        obs::merge_chrome_traces(rank_traces, cli.trace_path);
        std::printf("trace written to %s (merged from %d ranks)\n",
                    cli.trace_path.c_str(), workers);
      }
      return status;
    }
    if (!cli.trace_path.empty()) {
      obs::Tracer::set_thread_name("main");
      obs::Tracer::instance().enable();
    }
    const train::TrainResult result =
        train::train_distributed(factory, spec, config, workers);
    print_result(result);
    if (!cli.trace_path.empty()) {
      obs::ExportOptions trace_opts;
      trace_opts.process_name = "train_cli";
      obs::write_chrome_trace_file(cli.trace_path, trace_opts);
      std::printf("trace written to %s\n", cli.trace_path.c_str());
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
