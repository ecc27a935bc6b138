#include "comm/thread_comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <numeric>
#include <vector>

#include "comm/codec.hpp"
#include "common/error.hpp"

namespace dkfac::comm {
namespace {

class ThreadCommSizes : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCommSizes, AllreduceSum) {
  const int p = GetParam();
  LocalGroup group(p);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> data{static_cast<float>(rank + 1), 10.0f * (rank + 1)};
    comm.allreduce(data, ReduceOp::kSum);
    const float expected1 = p * (p + 1) / 2.0f;
    EXPECT_FLOAT_EQ(data[0], expected1);
    EXPECT_FLOAT_EQ(data[1], 10.0f * expected1);
  });
}

TEST_P(ThreadCommSizes, AllreduceAverage) {
  const int p = GetParam();
  LocalGroup group(p);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> data{static_cast<float>(rank)};
    comm.allreduce(data, ReduceOp::kAverage);
    EXPECT_FLOAT_EQ(data[0], (p - 1) / 2.0f);
  });
}

TEST_P(ThreadCommSizes, AllreduceMax) {
  const int p = GetParam();
  LocalGroup group(p);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> data{static_cast<float>(rank), -static_cast<float>(rank)};
    comm.allreduce(data, ReduceOp::kMax);
    EXPECT_FLOAT_EQ(data[0], static_cast<float>(p - 1));
    EXPECT_FLOAT_EQ(data[1], 0.0f);
  });
}

TEST_P(ThreadCommSizes, AllgatherUniformSizes) {
  const int p = GetParam();
  LocalGroup group(p);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> send{static_cast<float>(rank), static_cast<float>(rank) + 0.5f};
    std::vector<float> got = comm.allgather(send);
    ASSERT_EQ(got.size(), static_cast<size_t>(2 * p));
    for (int r = 0; r < p; ++r) {
      EXPECT_FLOAT_EQ(got[static_cast<size_t>(2 * r)], static_cast<float>(r));
      EXPECT_FLOAT_EQ(got[static_cast<size_t>(2 * r + 1)], static_cast<float>(r) + 0.5f);
    }
  });
}

TEST_P(ThreadCommSizes, AllgatherVariableSizes) {
  // Rank r contributes r+1 elements — the K-FAC eigendecomposition gather
  // has exactly this ragged structure (factors differ in size).
  const int p = GetParam();
  LocalGroup group(p);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> send(static_cast<size_t>(rank + 1),
                            static_cast<float>(rank));
    std::vector<float> got = comm.allgather(send);
    size_t expected_total = 0;
    for (int r = 0; r < p; ++r) expected_total += static_cast<size_t>(r + 1);
    ASSERT_EQ(got.size(), expected_total);
    size_t off = 0;
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i <= r; ++i) {
        EXPECT_FLOAT_EQ(got[off++], static_cast<float>(r));
      }
    }
  });
}

TEST_P(ThreadCommSizes, BroadcastFromEachRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    LocalGroup group(p);
    group.run([&](int rank, Communicator& comm) {
      std::vector<float> data(4, rank == root ? 42.0f : -1.0f);
      comm.broadcast(data, root);
      for (float v : data) EXPECT_FLOAT_EQ(v, 42.0f);
    });
  }
}

TEST_P(ThreadCommSizes, RepeatedCollectivesStayConsistent) {
  const int p = GetParam();
  LocalGroup group(p);
  group.run([&](int rank, Communicator& comm) {
    for (int iter = 0; iter < 50; ++iter) {
      std::vector<float> data{static_cast<float>(rank + iter)};
      comm.allreduce(data, ReduceOp::kSum);
      float expected = 0.0f;
      for (int r = 0; r < p; ++r) expected += static_cast<float>(r + iter);
      ASSERT_FLOAT_EQ(data[0], expected) << "iteration " << iter;
    }
  });
}

TEST_P(ThreadCommSizes, MixedCollectiveSequence) {
  const int p = GetParam();
  LocalGroup group(p);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> g{static_cast<float>(rank)};
    comm.allreduce(g, ReduceOp::kAverage);
    std::vector<float> gathered = comm.allgather(g);
    ASSERT_EQ(gathered.size(), static_cast<size_t>(p));
    // Every rank contributed the identical averaged value.
    for (float v : gathered) EXPECT_FLOAT_EQ(v, g[0]);
    comm.broadcast(g, 0);
    comm.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, ThreadCommSizes,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ThreadComm, DeterministicReductionAcrossRanks) {
  // All ranks must compute bit-identical reductions (rank-ordered sums).
  const int p = 4;
  LocalGroup group(p);
  std::vector<std::vector<float>> results(p);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> data{0.1f * (rank + 1), 0.3f * (rank + 1), -0.7f * (rank + 1)};
    comm.allreduce(data, ReduceOp::kAverage);
    results[static_cast<size_t>(rank)] = data;
  });
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(results[static_cast<size_t>(r)], results[0]);
  }
}

TEST(ThreadComm, StatsAccumulate) {
  LocalGroup group(2);
  group.run([&](int, Communicator& comm) {
    std::vector<float> data(100, 1.0f);
    comm.allreduce(data, ReduceOp::kSum);
    comm.allreduce(data, ReduceOp::kSum);
    auto gathered = comm.allgather(std::span<const float>(data.data(), 10));
    EXPECT_EQ(comm.stats().allreduce_calls, 2u);
    EXPECT_EQ(comm.stats().allreduce_bytes, 2u * 100u * sizeof(float));
    EXPECT_EQ(comm.stats().allgather_calls, 1u);
    EXPECT_EQ(comm.stats().allgather_bytes, 10u * sizeof(float));
    EXPECT_GT(comm.stats().total_bytes(), 0u);
  });
}

TEST(ThreadComm, ByteAccountingExactAcrossRepeatedAllreduces) {
  // Regression for the scratch-buffer reuse in allreduce: varying payload
  // sizes (grow, shrink, regrow) must reduce correctly and every call must
  // add exactly size_bytes() to the counter.
  LocalGroup group(3);
  group.run([&](int rank, Communicator& comm) {
    const std::vector<size_t> sizes{100, 7, 512, 1, 64};
    uint64_t expected_bytes = 0;
    uint64_t expected_calls = 0;
    for (size_t n : sizes) {
      std::vector<float> data(n, static_cast<float>(rank + 1));
      comm.allreduce(data, ReduceOp::kSum);
      expected_bytes += n * sizeof(float);
      ++expected_calls;
      // Sum over ranks 1+2+3 — stale scratch contents must never leak in.
      for (float v : data) ASSERT_FLOAT_EQ(v, 6.0f) << "payload size " << n;
      EXPECT_EQ(comm.stats().allreduce_bytes, expected_bytes);
      EXPECT_EQ(comm.stats().allreduce_calls, expected_calls);
    }
  });
}

TEST(ThreadComm, FactorVolumeCountersAccumulate) {
  SelfComm comm;
  EXPECT_EQ(comm.stats().factor_dense_bytes, 0u);
  // No precision codec: encoded equals packed.
  comm.record_factor_volume(100, 55, 55);
  comm.record_factor_volume(100, 55, 55);
  EXPECT_EQ(comm.stats().factor_dense_bytes, 200u);
  EXPECT_EQ(comm.stats().factor_packed_bytes, 110u);
  EXPECT_EQ(comm.stats().factor_encoded_bytes, 110u);
  // Full chain: dense → packed → encoded.
  comm.record_factor_volume(100, 55, 28);
  EXPECT_EQ(comm.stats().factor_dense_bytes, 300u);
  EXPECT_EQ(comm.stats().factor_packed_bytes, 165u);
  EXPECT_EQ(comm.stats().factor_encoded_bytes, 138u);
  comm.reset_stats();
  EXPECT_EQ(comm.stats().factor_dense_bytes, 0u);
  EXPECT_EQ(comm.stats().factor_packed_bytes, 0u);
  EXPECT_EQ(comm.stats().factor_encoded_bytes, 0u);
}

TEST(ThreadComm, EncodedAllreduceMatchesScalarRankOrderFold) {
  // The encode-once-reduce-in-fp32 collective must equal the hand-rolled
  // fold: decode every rank's quantised contribution, sum in rank order,
  // average, re-encode — bit for bit, on every rank.
  constexpr int kWorld = 3;
  constexpr size_t kElems = 9;  // odd → pad slot exercised
  auto value = [](int rank, size_t i) {
    return 0.713f * static_cast<float>(i + 1) -
           0.41f * static_cast<float>(rank + 1);
  };
  std::vector<float> expected_sum(kElems, 0.0f);
  for (int r = 0; r < kWorld; ++r) {
    for (size_t i = 0; i < kElems; ++i) {
      expected_sum[i] += Codec::decode_scalar(
          Codec::encode_scalar(value(r, i), Precision::kFp16), Precision::kFp16);
    }
  }
  for (float& v : expected_sum) v /= static_cast<float>(kWorld);
  std::vector<float> expected_enc(static_cast<size_t>(
      Codec::encoded_floats(static_cast<int64_t>(kElems))));
  Codec::encode(expected_sum, expected_enc, Precision::kFp16);

  LocalGroup group(kWorld);
  group.run([&](int rank, Communicator& comm) {
    std::vector<float> mine(kElems);
    for (size_t i = 0; i < kElems; ++i) mine[i] = value(rank, i);
    std::vector<float> enc(expected_enc.size());
    Codec::encode(mine, enc, Precision::kFp16);
    comm.allreduce_encoded(enc, Precision::kFp16, ReduceOp::kAverage);
    for (size_t i = 0; i < enc.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(enc[i]),
                std::bit_cast<uint32_t>(expected_enc[i]))
          << "rank " << rank << " word " << i;
    }
    // Counted as an allreduce at the ENCODED size; the internal allgather
    // transport must not leak into the allgather counters.
    EXPECT_EQ(comm.stats().allreduce_calls, 1u);
    EXPECT_EQ(comm.stats().allreduce_bytes, enc.size() * sizeof(float));
    EXPECT_EQ(comm.stats().allgather_calls, 0u);
    EXPECT_EQ(comm.stats().allgather_bytes, 0u);
  });
}

TEST(ThreadComm, EncodedAllreduceMaxFoldsDecodedValues) {
  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    // rank 0 holds {-1, 5}, rank 1 holds {2, -3} → max {2, 5}.
    std::vector<float> mine = rank == 0 ? std::vector<float>{-1.0f, 5.0f}
                                        : std::vector<float>{2.0f, -3.0f};
    std::vector<float> enc(1);
    Codec::encode(mine, enc, Precision::kBf16);
    comm.allreduce_encoded(enc, Precision::kBf16, ReduceOp::kMax);
    std::vector<float> out(2);
    Codec::decode(enc, out, Precision::kBf16);
    EXPECT_EQ(out[0], 2.0f);
    EXPECT_EQ(out[1], 5.0f);
  });
}

TEST(ThreadComm, EncodedAllreduceSelfCommIsIdentity) {
  SelfComm comm;
  std::vector<float> src = {1.5f, -2.25f, 0.125f};
  std::vector<float> enc(2);
  Codec::encode(src, enc, Precision::kFp16);
  const std::vector<float> before = enc;
  comm.allreduce_encoded(enc, Precision::kFp16, ReduceOp::kAverage);
  for (size_t i = 0; i < enc.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(enc[i]),
              std::bit_cast<uint32_t>(before[i]));
  }
  EXPECT_EQ(comm.stats().allreduce_calls, 1u);
  EXPECT_EQ(comm.stats().allreduce_bytes, enc.size() * sizeof(float));
}

TEST(ThreadComm, EncodedAllreduceRejectsFp32) {
  SelfComm comm;
  std::vector<float> data(4, 1.0f);
  EXPECT_THROW(comm.allreduce_encoded(data, Precision::kFp32, ReduceOp::kSum),
               Error);
}

TEST(ThreadComm, ResetStats) {
  SelfComm comm;
  std::vector<float> data(8, 1.0f);
  comm.allreduce(data, ReduceOp::kSum);
  EXPECT_GT(comm.stats().total_bytes(), 0u);
  comm.reset_stats();
  EXPECT_EQ(comm.stats().total_bytes(), 0u);
}

TEST(ThreadComm, LengthMismatchThrows) {
  LocalGroup group(2);
  EXPECT_THROW(
      group.run([&](int rank, Communicator& comm) {
        std::vector<float> data(static_cast<size_t>(rank == 0 ? 3 : 5), 1.0f);
        comm.allreduce(data, ReduceOp::kSum);
      }),
      Error);
}

TEST(ThreadComm, RunPropagatesExceptions) {
  LocalGroup group(2);
  EXPECT_THROW(group.run([&](int rank, Communicator& comm) {
                 comm.barrier();
                 if (rank == 1) throw Error("worker failure");
               }),
               Error);
}

TEST(ThreadComm, InvalidRankThrows) {
  LocalGroup group(2);
  EXPECT_THROW(group.comm(2), Error);
  EXPECT_THROW(group.comm(-1), Error);
  EXPECT_THROW(LocalGroup(0), Error);
}

TEST(ThreadComm, BroadcastInvalidRootThrows) {
  SelfComm comm;
  std::vector<float> data(1);
  // SelfComm has no root check beyond its own semantics; LocalGroup does.
  LocalGroup group(2);
  EXPECT_THROW(group.run([&](int, Communicator& c) {
                 std::vector<float> d(1);
                 c.broadcast(d, 5);
               }),
               Error);
}

TEST(SelfComm, CollectivesAreIdentity) {
  SelfComm comm;
  EXPECT_EQ(comm.rank(), 0);
  EXPECT_EQ(comm.size(), 1);
  std::vector<float> data{1.0f, 2.0f};
  comm.allreduce(data, ReduceOp::kAverage);
  EXPECT_FLOAT_EQ(data[0], 1.0f);
  auto gathered = comm.allgather(data);
  EXPECT_EQ(gathered, data);
  comm.broadcast(data, 0);
  EXPECT_FLOAT_EQ(data[1], 2.0f);
}

TEST(ThreadComm, TensorConvenienceOverloads) {
  LocalGroup group(2);
  group.run([&](int rank, Communicator& comm) {
    Tensor t = Tensor::full(Shape{4}, static_cast<float>(rank + 1));
    comm.allreduce(t, ReduceOp::kSum);
    EXPECT_FLOAT_EQ(t[0], 3.0f);
  });
}

}  // namespace
}  // namespace dkfac::comm
