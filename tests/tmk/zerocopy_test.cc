// Zero-copy intra-node delivery (Config::zerocopy, OMSP_ZEROCOPY): when the
// requester and responder share a node, diff/page reply payloads are parsed
// as views into the delivered buffer instead of deserialized copies. The
// contract is XHC's zero-copy vs copy-in/copy-out switch made bit-for-bit:
// flipping the knob may not change a single computed value, modeled
// microsecond, or pre-existing counter — only the two zerocopy_* counters
// (and their paired trace events) record that the fast path ran.
#include <gtest/gtest.h>

#include <vector>

#include "../common/env_guard.hpp"
#include "../common/workloads.hpp"
#include "net/transport.hpp"
#include "tmk/system.hpp"
#include "trace/sinks.hpp"

namespace omsp::tmk {
namespace {

using test::expect_deterministic_counters_eq;
using test::latency_model;
using test::ScopedEnvClear;

// Strictly phased round-robin: exactly ONE rank is active per phase; it
// rewrites its own page, then reads the previous active rank's page while
// the other ranks head for the barrier. The structural counters (messages,
// faults, twins, diffs) are a deterministic function of the protocol; see
// test::kDeterministicCounters for what run-to-run still varies and why.
struct RunResult {
  std::vector<long> sums;
  StatsSnapshot stats;
  double makespan_us = 0;
  std::uint64_t zc_deliveries = 0;
  std::uint64_t zc_bytes = 0;
};

RunResult run_round_robin(const Config& base) {
  Config cfg = base;
  DsmSystem dsm(cfg);
  const int P = static_cast<int>(dsm.nprocs());
  const std::int64_t B = kPageSize / sizeof(long); // one page per rank
  auto data = dsm.alloc_page_aligned<long>(B * P);
  for (std::int64_t i = 0; i < B * P; ++i) data[i] = 0;
  RunResult res;
  res.sums.assign(P, 0);
  dsm.parallel([&](Rank r) {
    for (int it = 0; it < 2 * P; ++it) {
      if (it % P == static_cast<int>(r)) {
        for (std::int64_t i = 0; i < B; ++i) data[r * B + i] += r + it + 1;
        const int prev = (static_cast<int>(r) + P - 1) % P;
        long s = 0;
        for (std::int64_t i = 0; i < B; ++i) s += data[prev * B + i];
        res.sums[r] += s;
      }
      dsm.barrier();
    }
  });
  res.stats = dsm.stats();
  res.makespan_us = dsm.master_time_us();
  res.zc_deliveries = res.stats[Counter::kZeroCopyDeliveries];
  res.zc_bytes = res.stats[Counter::kZeroCopyBytes];
  return res;
}

// Off-vs-on equality of the counters a phased run does NOT hold fixed is
// asserted suite-wide instead: the full pre-existing suite (every exact-value
// and trace-audit test) runs under OMSP_ZEROCOPY=on in CI and must pass
// unmodified. Here we demand equality of everything the workload itself holds
// fixed (test::expect_deterministic_counters_eq), plus values and makespan.

struct ZeroCopyParam {
  Mode mode;
  Protocol protocol;
  const char* name;
};

class ZeroCopyBitForBit : public ::testing::TestWithParam<ZeroCopyParam> {};

// The acceptance bar: off vs on, same values, same modeled time, same
// deterministic counters — and the on run really took the view path. (The
// suite-wide OMSP_ZEROCOPY=on CI leg extends this to every exact-value
// test in the repo.)
TEST_P(ZeroCopyBitForBit, OffAndOnAgreeExactly) {
  ScopedEnvClear env;
  const ZeroCopyParam& p = GetParam();
  Config cfg;
  cfg.topology = sim::Topology(1, 4); // one node: every message intra-node
  cfg.mode = p.mode;
  cfg.protocol = p.protocol;
  cfg.cost = latency_model();

  const RunResult off = run_round_robin(cfg);
  Config on = cfg;
  on.zerocopy.enabled = true;
  const RunResult zc = run_round_robin(on);

  EXPECT_EQ(off.sums, zc.sums);
  EXPECT_DOUBLE_EQ(off.makespan_us, zc.makespan_us);
  expect_deterministic_counters_eq(off.stats, zc.stats);
  EXPECT_EQ(off.zc_deliveries, 0u);
  EXPECT_EQ(off.zc_bytes, 0u);
  if (p.mode == Mode::kProcess) {
    // Four contexts share the node: page fetches/diff fetches cross context
    // boundaries and must have been delivered as views.
    EXPECT_GT(zc.zc_deliveries, 0u);
    EXPECT_GT(zc.zc_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesProtocols, ZeroCopyBitForBit,
    ::testing::Values(
        ZeroCopyParam{Mode::kProcess, Protocol::kLazyRC, "ProcessLazy"},
        ZeroCopyParam{Mode::kProcess, Protocol::kHomeLRC, "ProcessHome"},
        ZeroCopyParam{Mode::kThread, Protocol::kLazyRC, "ThreadLazy"}),
    [](const auto& info) { return std::string(info.param.name); });

// Mixed topology: only intra-node pairs may take the view path; off-node
// replies still copy. Values and pre-existing counters stay exact.
TEST(ZeroCopy, MixedTopologyStaysExact) {
  ScopedEnvClear env;
  Config cfg;
  cfg.topology = sim::Topology(2, 2); // 2 nodes x 2 procs
  cfg.mode = Mode::kProcess;
  cfg.cost = latency_model();
  const RunResult off = run_round_robin(cfg);
  Config on = cfg;
  on.zerocopy.enabled = true;
  const RunResult zc = run_round_robin(on);
  EXPECT_EQ(off.sums, zc.sums);
  EXPECT_DOUBLE_EQ(off.makespan_us, zc.makespan_us);
  expect_deterministic_counters_eq(off.stats, zc.stats);
  EXPECT_GT(zc.zc_deliveries, 0u); // the intra-node neighbor pairs
}

// A threshold larger than any payload disables the path without touching
// anything else — the "on but never eligible" corner.
TEST(ZeroCopy, ThresholdAbovePayloadsMeansNoDeliveries) {
  ScopedEnvClear env;
  Config cfg;
  cfg.topology = sim::Topology(1, 4);
  cfg.mode = Mode::kProcess;
  cfg.cost = latency_model();
  Config on = cfg;
  on.zerocopy.enabled = true;
  on.zerocopy.threshold_bytes = 1u << 20;
  const RunResult off = run_round_robin(cfg);
  const RunResult zc = run_round_robin(on);
  EXPECT_EQ(off.sums, zc.sums);
  expect_deterministic_counters_eq(off.stats, zc.stats);
  EXPECT_EQ(zc.zc_deliveries, 0u);
  EXPECT_EQ(zc.zc_bytes, 0u);
}

// Composed with the overlapped transport: the async fetch and the barrier
// prefetch batches go through the same view-parse, and stay value-exact.
TEST(ZeroCopy, ComposesWithOverlap) {
  ScopedEnvClear env;
  Config cfg;
  cfg.topology = sim::Topology(1, 4);
  cfg.mode = Mode::kProcess;
  cfg.cost = latency_model();
  cfg.overlap.enabled = true;
  const RunResult off = run_round_robin(cfg);
  Config on = cfg;
  on.zerocopy.enabled = true;
  const RunResult zc = run_round_robin(on);
  EXPECT_EQ(off.sums, zc.sums);
  EXPECT_DOUBLE_EQ(off.makespan_us, zc.makespan_us);
  expect_deterministic_counters_eq(off.stats, zc.stats);
  EXPECT_GT(zc.zc_deliveries, 0u);
}

// Stats <-> trace audit with the feature on: every zerocopy_* increment has
// a paired kZeroCopyDeliver event, and folding the trace reproduces the live
// board exactly (OBSERVABILITY.md "lossless" contract, trace version 6).
TEST(ZeroCopy, TraceReconstructsZeroCopyCounters) {
  ScopedEnvClear env;
  Config cfg;
  cfg.topology = sim::Topology(1, 4);
  cfg.mode = Mode::kProcess;
  cfg.cost = latency_model();
  cfg.trace.enabled = true;
  cfg.zerocopy.enabled = true;
  Config run = cfg;
  const int P = 4;
  const std::int64_t B = kPageSize / sizeof(long);
  DsmSystem dsm(run);
  auto data = dsm.alloc_page_aligned<long>(B * P);
  for (std::int64_t i = 0; i < B * P; ++i) data[i] = 0;
  dsm.parallel([&](Rank r) {
    for (int it = 0; it < 2 * P; ++it) {
      if (it % P == static_cast<int>(r)) {
        for (std::int64_t i = 0; i < B; ++i) data[r * B + i] += it + 1;
        long s = 0;
        const int prev = (static_cast<int>(r) + P - 1) % P;
        for (std::int64_t i = 0; i < B; ++i) s += data[prev * B + i];
        (void)s;
      }
      dsm.barrier();
    }
  });
  const StatsSnapshot live = dsm.stats();
  EXPECT_GT(live[Counter::kZeroCopyDeliveries], 0u);
  const StatsSnapshot rebuilt =
      trace::reconstruct_counters(dsm.tracer()->snapshot_events());
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(rebuilt.v[c], live.v[c])
        << "counter " << counter_name(static_cast<Counter>(c));
}

// ---------------------------------------------------------- pools ----------

// The twin and diff pools behind the wall-clock work: after a multi-round
// run, blocks and scratch vectors really came back for reuse instead of
// churning the allocator. Home-based protocol so diff scratch is released
// every interval close (lazy-RC parks non-empty diffs in stored_diffs until
// GC, so only the home path guarantees visible reuse here).
TEST(ZeroCopy, TwinAndDiffPoolsRecycle) {
  ScopedEnvClear env;
  Config cfg;
  cfg.topology = sim::Topology(1, 2);
  cfg.mode = Mode::kProcess;
  cfg.protocol = Protocol::kHomeLRC;
  cfg.cost = sim::CostModel::zero();
  DsmSystem dsm(cfg);
  const std::int64_t B = kPageSize / sizeof(long);
  auto data = dsm.alloc_page_aligned<long>(B * 2);
  for (std::int64_t i = 0; i < B * 2; ++i) data[i] = 0;
  dsm.parallel([&](Rank r) {
    for (int it = 0; it < 4; ++it) {
      for (std::int64_t i = 0; i < B; ++i) data[r * B + i] += it + 1;
      dsm.barrier();
      long s = 0;
      for (std::int64_t i = 0; i < B; ++i) s += data[(1 - r) * B + i];
      (void)s;
      dsm.barrier();
    }
  });
  std::size_t twin_free = 0, diff_free = 0;
  for (ContextId c = 0; c < dsm.num_contexts(); ++c) {
    twin_free += dsm.context(c).twin_pool_free();
    diff_free += dsm.context(c).diff_pool_free();
  }
  EXPECT_GT(twin_free, 0u); // twins were retired back to the pool
  EXPECT_GT(diff_free, 0u); // diff scratch came back after the fetches
}

} // namespace
} // namespace omsp::tmk
