// Protocol correctness under the seeded PerturbingTransport: latency jitter,
// bounded reordering and duplicate delivery must not change any computed
// value, and injected duplicates exercise the DsmContext::handle idempotence
// contract for real (a retransmitted diff request finds its twin consumed, a
// re-applied home diff is a byte-level no-op, a repeated page fetch is a pure
// read).
#include <gtest/gtest.h>

#include <vector>

#include "../common/workloads.hpp"
#include "core/runtime.hpp"
#include "net/transport.hpp"
#include "trace/sinks.hpp"

namespace omsp::tmk {
namespace {

using test::run_triangular;

net::PerturbOptions perturb_with_seed(std::uint64_t seed) {
  net::PerturbOptions o;
  o.enabled = true;
  o.seed = seed;
  return o; // default jitter/duplicate/reorder rates
}

net::PerturbOptions duplicate_everything() {
  net::PerturbOptions o;
  o.enabled = true;
  o.seed = 99;
  o.jitter_max_us = 0;
  o.duplicate_prob = 1.0;
  o.reorder_prob = 0;
  return o;
}

struct PerturbParam {
  std::uint64_t seed;
  Protocol protocol;
  const char* name;
};

class PerturbedTriangular : public ::testing::TestWithParam<PerturbParam> {};

// The acceptance bar: with perturbation on (seeds 1..3, both protocols) the
// most protocol-hostile workload still computes exact integer results.
TEST_P(PerturbedTriangular, ExactResultsUnderPerturbation) {
  const PerturbParam& p = GetParam();
  std::vector<long> ref, perturbed;
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.protocol = p.protocol;
  cfg.cost = sim::CostModel::zero();
  run_triangular(cfg, ref);
  cfg.perturb = perturb_with_seed(p.seed);
  run_triangular(cfg, perturbed);
  ASSERT_EQ(perturbed, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PerturbedTriangular,
    ::testing::Values(PerturbParam{1, Protocol::kLazyRC, "LazySeed1"},
                      PerturbParam{2, Protocol::kLazyRC, "LazySeed2"},
                      PerturbParam{3, Protocol::kLazyRC, "LazySeed3"},
                      PerturbParam{1, Protocol::kHomeLRC, "HomeSeed1"},
                      PerturbParam{2, Protocol::kHomeLRC, "HomeSeed2"},
                      PerturbParam{3, Protocol::kHomeLRC, "HomeSeed3"}),
    [](const auto& info) { return info.param.name; });

// Every request/reply duplicated: each diff request, home diff and page fetch
// is delivered twice, so the handlers' idempotence is exercised on every
// single protocol round trip — and the data must still be exact.
class DuplicateDelivery : public ::testing::TestWithParam<Protocol> {};

TEST_P(DuplicateDelivery, EveryRequestDeliveredTwiceStaysExact) {
  std::vector<long> ref, dup;
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.protocol = GetParam();
  cfg.cost = sim::CostModel::zero();
  run_triangular(cfg, ref);
  cfg.perturb = duplicate_everything();
  run_triangular(cfg, dup);
  ASSERT_EQ(dup, ref);
}

INSTANTIATE_TEST_SUITE_P(Protocols, DuplicateDelivery,
                         ::testing::Values(Protocol::kLazyRC,
                                           Protocol::kHomeLRC),
                         [](const auto& info) {
                           return info.param == Protocol::kLazyRC ? "Lazy"
                                                                  : "Home";
                         });

TEST(DuplicateDeliveryStats, InjectionActuallyHappened) {
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.cost = sim::CostModel::zero();
  cfg.perturb = duplicate_everything();
  DsmSystem dsm(cfg);
  auto& pt = dynamic_cast<net::PerturbingTransport&>(dsm.router().transport());
  EXPECT_STREQ(pt.name(), "perturbing");

  auto cells = dsm.alloc_page_aligned<long>(4);
  for (int i = 0; i < 4; ++i) cells[i] = 0;
  dsm.parallel([&](Rank r) {
    for (int it = 0; it < 20; ++it) {
      dsm.lock_acquire(0);
      cells[0] = cells[0] + 1;
      dsm.lock_release(0);
      cells[1 + (r % 3)] = cells[1 + (r % 3)] + 1;
      dsm.barrier();
    }
  });
  EXPECT_EQ(cells[0], 4 * 20);
  // With duplicate_prob=1 every transport delivery was re-sent; both copies
  // are accounted, so the duplicate count is real traffic, not bookkeeping.
  EXPECT_GT(pt.stats().duplicates, 0u);
  EXPECT_EQ(pt.stats().reorders, 0u);
}

// Injected duplicates flow through Router::account like any delivery, so the
// stats<->trace pairing invariant holds even on a perturbed run: the trace
// reconstructs every counter exactly.
TEST(PerturbedTrace, ReconstructsCountersExactly) {
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.cost = sim::CostModel::zero();
  cfg.trace.enabled = true;
  // duplicate_prob=1 guarantees injected events regardless of how the thread
  // schedule shapes the message sequence; jitter/reorder stay at defaults.
  cfg.perturb = perturb_with_seed(2);
  cfg.perturb.duplicate_prob = 1.0;
  DsmSystem dsm(cfg);
  auto data = dsm.alloc_page_aligned<long>(512);
  for (int i = 0; i < 512; ++i) data[i] = 0;
  dsm.parallel([&](Rank r) {
    for (int it = 0; it < 10; ++it) {
      for (int i = 0; i < 128; ++i) {
        const int idx = static_cast<int>(r) * 128 + i;
        data[idx] = data[idx] + i + it;
      }
      dsm.barrier();
    }
  });
  const StatsSnapshot live = dsm.stats();
  const StatsSnapshot rebuilt =
      trace::reconstruct_counters(dsm.tracer()->snapshot_events());
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(rebuilt.v[c], live.v[c])
        << "counter " << counter_name(static_cast<Counter>(c));
  // And at least one event carries the injected-duplicate marker.
  bool saw_perturbed = false;
  for (const auto& e : dsm.tracer()->events())
    if (e.flags & trace::kFlagPerturbed) saw_perturbed = true;
  EXPECT_TRUE(saw_perturbed);
}

} // namespace
} // namespace omsp::tmk
