// Chaos-mode stress: random microsecond delays at protocol decision points
// (Config::chaos_permille, OMSP_CHAOS) shake out interleavings the scheduler
// rarely produces, and try-lock semantics under contention.
#include <gtest/gtest.h>

#include <vector>

#include "../common/workloads.hpp"
#include "core/runtime.hpp"
#include "tmk/system.hpp"

namespace omsp::tmk {
namespace {

constexpr unsigned kPermille = 200; // 20% of protocol decision points

TEST(ChaosEnv, TriangularPatternStillExact) {
  const std::int64_t N = 24, D = 64;
  const long M = 1000003;
  std::vector<long> ref(N * D, 1);
  for (std::int64_t i = 0; i < N; ++i) {
    for (std::int64_t k = 0; k < D; ++k) ref[i * D + k] = ref[i * D + k] * 3 % M;
    for (std::int64_t j = i + 1; j < N; ++j)
      for (std::int64_t k = 0; k < D; ++k)
        ref[j * D + k] = (ref[j * D + k] + ref[i * D + k]) % M;
  }
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.cost = sim::CostModel::zero();
  cfg.chaos_permille = kPermille;
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<long> got;
    test::run_triangular(cfg, got);
    ASSERT_EQ(got, ref);
  }
}

TEST(ChaosEnv, FalseSharingMergeUnderDelays) {
  Config cfg;
  cfg.topology = sim::Topology(4, 1);
  cfg.mode = Mode::kProcess;
  cfg.heap_bytes = 1u << 20;
  cfg.cost = sim::CostModel::zero();
  cfg.chaos_permille = kPermille;
  for (int trial = 0; trial < 3; ++trial) {
    DsmSystem dsm(cfg);
    auto page = dsm.alloc_page_aligned<int>(1024);
    dsm.parallel([&](Rank r) {
      for (int round = 0; round < 5; ++round) {
        for (std::uint32_t i = r; i < 1024; i += 4)
          page[i] = page[i] + 1;
        dsm.barrier();
      }
    });
    for (int i = 0; i < 1024; ++i) ASSERT_EQ(page[i], 5) << i;
  }
}

TEST(TryLock, NonBlockingSemantics) {
  Config cfg;
  cfg.topology = sim::Topology(2, 1);
  cfg.heap_bytes = 1u << 20;
  cfg.cost = sim::CostModel::zero();
  DsmSystem dsm(cfg);
  auto winners = dsm.alloc_page_aligned<int>(4);
  winners[0] = 0;
  dsm.parallel([&](Rank r) {
    // Exactly one rank can hold the lock at a time; the other's test fails
    // while it is held.
    if (r == 0) {
      ASSERT_TRUE(dsm.lock_try_acquire(11));
      dsm.barrier(); // rank 1 probes while we hold it
      dsm.barrier();
      dsm.lock_release(11);
      dsm.barrier();
    } else {
      dsm.barrier();
      EXPECT_FALSE(dsm.lock_try_acquire(11));
      dsm.barrier();
      dsm.barrier(); // rank 0 released
      EXPECT_TRUE(dsm.lock_try_acquire(11));
      dsm.lock_release(11);
    }
  });
}

TEST(TryLock, SuccessfulTryTransfersConsistency) {
  Config cfg;
  cfg.topology = sim::Topology(2, 1);
  cfg.heap_bytes = 1u << 20;
  cfg.cost = sim::CostModel::zero();
  DsmSystem dsm(cfg);
  auto cell = dsm.alloc_page_aligned<long>(8);
  cell[0] = 0;
  dsm.parallel([&](Rank r) {
    if (r == 0) {
      dsm.lock_acquire(5);
      cell[0] = 42;
      dsm.lock_release(5);
      dsm.barrier();
    } else {
      dsm.barrier();
      // A successful try-acquire is an acquire: it must deliver rank 0's
      // write through the lock's release->acquire chain.
      ASSERT_TRUE(dsm.lock_try_acquire(5));
      EXPECT_EQ(cell[0], 42);
      dsm.lock_release(5);
    }
  });
}

} // namespace
} // namespace omsp::tmk
