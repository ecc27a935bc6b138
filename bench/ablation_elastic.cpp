// Ablation: shed-step cost of straggler slack (ROADMAP follow-on to the
// elastic fault-tolerance work; companion to table3_update_freq and
// fig6_freq_tail_accuracy).
//
// When a rank reports lag above `straggler_slack_s` on a step where a
// K-FAC factor update is due, the group collectively sheds the update and
// carries the stale factors — trading curvature freshness for not waiting
// on the slow rank. This bench quantifies that trade: one rank reports a
// fixed simulated lag into every straggler vote (the hook reports, it does
// not sleep, so runs stay deterministic and the only difference between
// configurations is which factor updates are shed), and the slack setting
// sweeps from "shedding disabled" through "shed everything sheddable" to
// "lag within slack, shed nothing".
//
// Reported per slack setting: factor updates shed, final train loss and
// val accuracy, and the deltas against the slack-disabled baseline.
// Results land in the ablation_elastic rows of LEDGER.jsonl.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "ledger.hpp"
#include "train/trainer.hpp"

namespace {

using namespace dkfac;

constexpr int kWorld = 4;
constexpr int kEpochs = 6;
constexpr int kStragglerRank = 3;
constexpr double kStragglerLagSeconds = 0.02;

struct Row {
  const char* name;
  double slack_s;
  train::TrainResult result;
};

}  // namespace

int main() {
  bench::print_banner("Ablation",
                      "Shed-step cost vs straggler slack (elastic follow-on)");
  bench::Ledger ledger("ablation_elastic", bench::yardstick_ms());
  bench::print_note(
      "rank 3 reports 20 ms of simulated lag into every straggler vote; "
      "the sweep varies straggler_slack_s only, so shed factor updates are "
      "the sole difference between runs.");

  const train::ModelFactory factory = bench::bench_resnet_factory();
  const data::SyntheticSpec spec = bench::bench_cifar_spec();

  // slack=0 disables shedding entirely — the undisturbed baseline. The
  // middle settings sit below the 20 ms reported lag, so every sheddable
  // factor update is shed; 50 ms sits above it, so nothing is.
  std::vector<Row> rows = {{"off (slack=0)", 0.0, {}},
                           {"slack=5ms", 0.005, {}},
                           {"slack=10ms", 0.010, {}},
                           {"slack=50ms", 0.050, {}}};

  for (Row& row : rows) {
    train::TrainConfig config = bench::bench_train_config(
        kEpochs, /*base_lr=*/0.1f, /*use_kfac=*/true);
    config.straggler_slack_s = row.slack_s;
    config.straggler_lag_hook = [](int rank, int64_t) {
      return rank == kStragglerRank ? kStragglerLagSeconds : 0.0;
    };
    row.result = train::train_distributed(factory, spec, config, kWorld);
  }

  ledger.add("run", "world_size", kWorld);
  ledger.add("run", "epochs", kEpochs);
  ledger.add("run", "straggler_rank", kStragglerRank);
  ledger.add("run", "straggler_lag_s", kStragglerLagSeconds);
  const Row& base = rows.front();
  std::printf("%-16s %10s %12s %12s %12s %10s %10s\n", "config", "shed",
              "train loss", "loss delta", "val acc", "acc delta", "steps");
  for (const Row& row : rows) {
    const float loss = row.result.epochs.back().train_loss;
    const float base_loss = base.result.epochs.back().train_loss;
    std::printf("%-16s %10llu %12.4f %+12.4f %11s %+9.1f%% %10lld\n",
                row.name,
                static_cast<unsigned long long>(row.result.skipped_factor_steps),
                loss, loss - base_loss,
                bench::pct(row.result.final_val_accuracy),
                100.0f * (row.result.final_val_accuracy -
                          base.result.final_val_accuracy),
                static_cast<long long>(row.result.iterations));
    ledger.add(row.name, "slack_s", row.slack_s);
    ledger.add(row.name, "shed_factor_steps",
               static_cast<double>(row.result.skipped_factor_steps));
    ledger.add(row.name, "steps", static_cast<double>(row.result.iterations));
    ledger.add(row.name, "final_train_loss", loss);
    ledger.add(row.name, "loss_delta", loss - base_loss);
    ledger.add(row.name, "final_val_accuracy", row.result.final_val_accuracy);
    ledger.add(row.name, "val_accuracy_delta",
               row.result.final_val_accuracy - base.result.final_val_accuracy);
  }

  ledger.write();
  return 0;
}
