// Registered with OMP_NUM_THREADS=1 in the environment: the user's OpenMP
// setting must cap every rank's team, however many cores the machine has.
#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>

#include "nn/resnet.hpp"
#include "train/trainer.hpp"

namespace dkfac::train {
namespace {

TEST(OmpThreadsPerRank, RespectsOmpNumThreads) {
  ASSERT_EQ(omp_get_max_threads(), 1) << "run with OMP_NUM_THREADS=1";
  EXPECT_EQ(omp_threads_per_rank(1), 1);
  EXPECT_EQ(omp_threads_per_rank(2), 1);

  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.height = spec.width = 8;
  spec.grid = 2;
  spec.train_size = 64;
  spec.val_size = 32;
  TrainConfig config;
  config.local_batch = 16;
  config.epochs = 1;
  config.lr.base_lr = 0.05f;
  std::atomic<int> widest_team{0};
  config.step_probe = [&widest_team](int, int64_t) {
    int seen = widest_team.load();
    const int team = omp_get_max_threads();
    while (team > seen && !widest_team.compare_exchange_weak(seen, team)) {
    }
  };
  train_distributed([](Rng& rng) { return nn::simple_cnn(3, 4, rng, 4); },
                    spec, config, /*world_size=*/2);
  EXPECT_EQ(widest_team.load(), 1);
}

}  // namespace
}  // namespace dkfac::train
