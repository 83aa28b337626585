#include <gtest/gtest.h>

#include <thread>

#include "common/stats.hpp"
#include "trace/tracer.hpp"

namespace omsp {
namespace {

TEST(Stats, AddAndGet) {
  StatsBoard b;
  EXPECT_EQ(b.get(Counter::kMsgsSent), 0u);
  trace::record(b, trace::EventKind::kMessage, 0, /*bytes=*/123);
  EXPECT_EQ(b.get(Counter::kMsgsSent), 1u);
  EXPECT_EQ(b.get(Counter::kBytesSent), 123u);
}

TEST(Stats, ResetZeroes) {
  StatsBoard b;
  for (int i = 0; i < 5; ++i)
    trace::record(b, trace::EventKind::kDiffCreate, 0);
  b.reset();
  EXPECT_EQ(b.get(Counter::kDiffsCreated), 0u);
}

TEST(Stats, ConcurrentIncrementsAreLossFree) {
  StatsBoard b;
  constexpr int kThreads = 8, kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i)
        trace::record(b, trace::EventKind::kPageFault, 0);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(b.get(Counter::kPageFaults),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Stats, SnapshotAccumulates) {
  StatsBoard a, b;
  for (int i = 0; i < 3; ++i)
    trace::record(a, trace::EventKind::kTwinCreate, 0);
  for (int i = 0; i < 4; ++i)
    trace::record(b, trace::EventKind::kTwinCreate, 0);
  StatsSnapshot s;
  a.accumulate(s.v);
  b.accumulate(s.v);
  EXPECT_EQ(s[Counter::kTwins], 7u);
}

TEST(Stats, SnapshotArithmetic) {
  StatsSnapshot a, b;
  a[Counter::kBytesSent] = 1024 * 1024;
  b[Counter::kBytesSent] = 512 * 1024;
  b[Counter::kBytesOffNode] = 512 * 1024;
  a += b;
  EXPECT_DOUBLE_EQ(a.data_mbytes(), 1.5);
  EXPECT_DOUBLE_EQ(a.offnode_mbytes(), 0.5);
}

TEST(Stats, EveryCounterHasAName) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount); ++i) {
    const char* name = counter_name(static_cast<Counter>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

} // namespace
} // namespace omsp
