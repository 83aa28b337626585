// Cost model, workload and counter check shared by the DSM test suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "core/runtime.hpp"

namespace omsp::test {

// Flat latency with service occupancy and no host-CPU folding: makespans are
// purely modeled protocol time, so exact-equality assertions on timing are
// reproducible.
inline sim::CostModel latency_model() {
  auto m = sim::CostModel::zero();
  m.net_latency_us = 100.0;
  m.handler_service_us = 10.0;
  return m;
}

// The protocol-hostile triangular elimination: lock-free but heavily
// multi-writer across barriers — every iteration's writes are read by every
// later iteration across all contexts.
inline void run_triangular(const tmk::Config& cfg, std::vector<long>& out) {
  const std::int64_t N = 24, D = 64;
  const long M = 1000003;
  core::OmpRuntime rt(cfg);
  auto a = rt.alloc_page_aligned<long>(N * D);
  for (std::int64_t i = 0; i < N * D; ++i) a[i] = 1;
  for (std::int64_t i = 0; i < N; ++i) {
    for (std::int64_t k = 0; k < D; ++k) a[i * D + k] = a[i * D + k] * 3 % M;
    rt.parallel_for(i + 1, N, core::Schedule::static_chunked(1),
                    [&](std::int64_t j) {
                      for (std::int64_t k = 0; k < D; ++k)
                        a[j * D + k] = (a[j * D + k] + a[i * D + k]) % M;
                    });
  }
  out.assign(a.local(), a.local() + N * D);
}

// Counters that are a deterministic function of a phased workload. The
// piggyback-dependent quantities (byte totals, intervals closed, write
// notices) are wall-clock dependent even on the seed InlineTransport: a
// service-time twin flush mints an interval carrying the creator's *current*
// vector time, which races with the vt merges of the creator's own
// concurrent fetches. Message counts, faults and diffs are exact.
inline constexpr Counter kDeterministicCounters[] = {
    Counter::kMsgsSent,         Counter::kMsgsOffNode,
    Counter::kPageFaults,       Counter::kReadFaults,
    Counter::kWriteFaults,      Counter::kTwins,
    Counter::kDiffsCreated,     Counter::kDiffsApplied,
    Counter::kDiffBytesCreated, Counter::kFullPageFetches,
    Counter::kBarriers,         Counter::kPrefetchBatches,
    Counter::kPrefetchPagesFetched, Counter::kPrefetchHits,
};

inline void expect_deterministic_counters_eq(const StatsSnapshot& a,
                                             const StatsSnapshot& b) {
  for (const Counter c : kDeterministicCounters)
    EXPECT_EQ(a[c], b[c]) << "counter " << counter_name(c);
}

} // namespace omsp::test
