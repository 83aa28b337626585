// Protocol-level tests against DsmContext/DsmSystem internals: page state
// transitions, interval bookkeeping, lazy diff flow, lock semantics and
// barrier semantics — the mechanisms behind Table 3's counters.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>

#include "../common/env_guard.hpp"
#include "../common/workloads.hpp"
#include "tmk/system.hpp"

namespace omsp::tmk {
namespace {

Config cfg2(Mode mode = Mode::kThread) {
  Config cfg;
  cfg.topology = sim::Topology(2, 1);
  cfg.mode = mode;
  cfg.heap_bytes = 1u << 20;
  cfg.cost = sim::CostModel::zero();
  return cfg;
}

// --------------------------------------------------------- page states ----

TEST(PageStates, InitialStateIsReadValid) {
  DsmSystem dsm(cfg2());
  auto x = dsm.alloc_page_aligned<int>(1024);
  const PageId p = static_cast<PageId>(x.addr() / kPageSize);
  EXPECT_EQ(dsm.context(0).page_state(p), PageState::kRead);
  EXPECT_FALSE(dsm.context(0).page_dirty(p));
}

TEST(PageStates, WriteFaultCreatesTwinAndDirty) {
  DsmSystem dsm(cfg2());
  auto x = dsm.alloc_page_aligned<int>(1024);
  const PageId p = static_cast<PageId>(x.addr() / kPageSize);
  x[0] = 5; // master writes through context 0
  EXPECT_EQ(dsm.context(0).page_state(p), PageState::kReadWrite);
  EXPECT_TRUE(dsm.context(0).page_dirty(p));
  auto s = dsm.stats();
  EXPECT_EQ(s[Counter::kTwins], 1u);
  EXPECT_EQ(s[Counter::kWriteFaults], 1u);
}

TEST(PageStates, NoticeInvalidatesRemoteCopy) {
  DsmSystem dsm(cfg2());
  auto x = dsm.alloc_page_aligned<int>(1024);
  const PageId p = static_cast<PageId>(x.addr() / kPageSize);
  x[0] = 5;
  dsm.parallel([&](Rank r) {
    if (r == 1) {
      // Fork delivered the master's write notice: our copy must have been
      // invalidated, and this read re-validates it.
      const int got = x[0];
      EXPECT_EQ(got, 5);
    }
  });
  EXPECT_EQ(dsm.context(1).page_state(p), PageState::kRead);
  EXPECT_GT(dsm.stats()[Counter::kPageInvalidations], 0u);
}

TEST(PageStates, LazyDiffOnlyOnRequest) {
  DsmSystem dsm(cfg2());
  auto x = dsm.alloc_page_aligned<int>(1024);
  const PageId p = static_cast<PageId>(x.addr() / kPageSize);
  x[0] = 5;
  dsm.parallel([&](Rank) {}); // fork/join: interval closes, notice travels
  EXPECT_EQ(dsm.stats()[Counter::kDiffsCreated], 0u)
      << "no one asked for the page yet";
  dsm.parallel([&](Rank r) {
    if (r == 1) {
      const int got = x[0]; // first touch fetches the diff
      EXPECT_EQ(got, 5);
    }
  });
  EXPECT_EQ(dsm.stats()[Counter::kDiffsCreated], 1u);
  EXPECT_GE(dsm.context(0).stored_diff_count(p), 1u);
}

TEST(PageStates, FlushWriteProtectsSoNextWriteRefaults) {
  DsmSystem dsm(cfg2());
  auto x = dsm.alloc_page_aligned<int>(1024);
  const PageId p = static_cast<PageId>(x.addr() / kPageSize);
  x[0] = 5;
  dsm.parallel([&](Rank r) {
    if (r == 1) {
      volatile int v = x[0]; // the read triggers the flush at context 0
      (void)v;
    }
  });
  EXPECT_EQ(dsm.context(0).page_state(p), PageState::kRead);
  const auto twins_before = dsm.stats()[Counter::kTwins];
  x[0] = 6; // must fault again and make a fresh twin
  EXPECT_EQ(dsm.stats()[Counter::kTwins], twins_before + 1);
}

// ----------------------------------------------------------- intervals ----

TEST(Intervals, CloseOnlyWhenDirty) {
  DsmSystem dsm(cfg2());
  EXPECT_EQ(dsm.context(0).own_seq(), 0u);
  dsm.parallel([&](Rank) {}); // nothing written: no interval anywhere
  EXPECT_EQ(dsm.context(0).own_seq(), 0u);
  EXPECT_EQ(dsm.context(1).own_seq(), 0u);
}

TEST(Intervals, RecordsFlowThroughForkJoin) {
  DsmSystem dsm(cfg2());
  auto x = dsm.alloc_page_aligned<int>(1024);
  x[0] = 1; // master write
  dsm.parallel([&](Rank r) {
    if (r == 1) x[1] = 2; // remote write
  });
  // Master learned the remote interval at join.
  const auto vt0 = dsm.context(0).vt_snapshot();
  EXPECT_GE(vt0[1], 1u);
  // And the remote context learned the master's at fork.
  const auto vt1 = dsm.context(1).vt_snapshot();
  EXPECT_GE(vt1[0], 1u);
}

TEST(Intervals, VectorTimeInvariantHolds) {
  DsmSystem dsm(cfg2());
  auto x = dsm.alloc_page_aligned<long>(2048);
  for (int round = 0; round < 5; ++round) {
    dsm.parallel([&](Rank r) {
      x[r * 512] = r + round;
      dsm.barrier();
      volatile long v = x[(1 - r) * 512];
      (void)v;
    });
  }
  // records_unknown_to validates vt <= stored records internally (CHECK);
  // exercise it for both contexts from both perspectives.
  const auto vt0 = dsm.context(0).vt_snapshot();
  const auto vt1 = dsm.context(1).vt_snapshot();
  (void)dsm.context(0).records_unknown_to(vt1);
  (void)dsm.context(1).records_unknown_to(vt0);
}

// --------------------------------------------------------------- locks ----

TEST(Locks, LocalReacquireSendsNoMessages) {
  Config cfg = cfg2();
  cfg.topology = sim::Topology(2, 2); // two threads on context 0
  cfg.mode = Mode::kThread;
  DsmSystem dsm(cfg);
  dsm.reset_stats();
  dsm.parallel([&](Rank r) {
    if (r == 0) {
      // Lock 0's manager is context 0; a context-0 thread acquiring it
      // repeatedly never needs the wire.
      for (int i = 0; i < 10; ++i) {
        dsm.lock_acquire(0);
        dsm.lock_release(0);
      }
    }
  });
  const auto s = dsm.stats();
  EXPECT_EQ(s[Counter::kLockAcquires], 10u);
  EXPECT_EQ(s[Counter::kLockRemoteAcquires], 0u);
}

TEST(Locks, RemoteAcquireCountsMessages) {
  DsmSystem dsm(cfg2());
  dsm.reset_stats();
  dsm.parallel([&](Rank r) {
    if (r == 1) { // context 1 acquiring a context-0-managed lock
      dsm.lock_acquire(0);
      dsm.lock_release(0);
    }
  });
  const auto s = dsm.stats();
  EXPECT_EQ(s[Counter::kLockRemoteAcquires], 1u);
  EXPECT_GT(s[Counter::kMsgsSent], 0u);
}

TEST(Locks, ReleaseConsistencyThroughLockChain) {
  DsmSystem dsm(cfg2());
  auto x = dsm.alloc_page_aligned<int>(1024);
  x[0] = 0;
  dsm.parallel([&](Rank r) {
    // Strict alternation via two locks builds a release->acquire chain;
    // every increment must be visible to the next holder.
    for (int round = 0; round < 10; ++round) {
      dsm.lock_acquire(7);
      if (static_cast<int>(x[1]) % 2 == static_cast<int>(r)) {
        x[0] = x[0] + 1;
        x[1] = x[1] + 1;
      }
      dsm.lock_release(7);
    }
  });
  // Total increments is x[1]; whatever interleaving, x[0] must equal it.
  EXPECT_EQ(x[0], x[1]);
}

TEST(Locks, HoldersMustMatch) {
  DsmSystem dsm(cfg2());
  dsm.parallel([&](Rank r) {
    if (r == 0) {
      dsm.lock_acquire(3);
      dsm.lock_release(3);
    }
  });
  // Releasing a lock never acquired aborts (contract): death test.
  EXPECT_DEATH(
      {
        DsmSystem inner(cfg2());
        inner.parallel([&](Rank rr) {
          if (rr == 0) inner.lock_release(99);
        });
      },
      "not held");
}

// -------------------------------------------------------------- barrier ----

TEST(Barrier, CountsOncePerContextPerEpisode) {
  Config cfg = cfg2();
  cfg.topology = sim::Topology(2, 2);
  DsmSystem dsm(cfg);
  dsm.reset_stats();
  dsm.parallel([&](Rank) {
    dsm.barrier();
    dsm.barrier();
  });
  EXPECT_EQ(dsm.stats()[Counter::kBarriers], 2u * 2u); // 2 contexts x 2
}

TEST(Barrier, DepartureTimeDominatesArrivals) {
  Config cfg = cfg2();
  cfg.cost = sim::CostModel::sp2_default();
  cfg.cost.cpu_scale = 0; // no compute accrual; only modeled costs
  DsmSystem dsm(cfg);
  std::vector<double> after(2, 0);
  dsm.parallel([&](Rank r) {
    if (r == 1) dsm.clock(1).charge(5000); // straggler arrives 5ms late
    dsm.barrier();
    after[r] = dsm.clock(r).now_us();
  });
  EXPECT_GE(after[0], 5000.0); // the fast thread waited for the straggler
  EXPECT_GE(after[1], after[0] - 1000.0);
}


// ------------------------------------------------------ sync-edge pinning ----

// A strictly turn-taking program: one active rank between any two barriers.
// Rank t (t >= 1) reads the page rank t-1 wrote, takes the lock from rank
// t-1's context, bumps a lock-protected counter and writes its own page; the
// master reads both pages after each join. Every twin is therefore flushed
// by a master fetch in a sequential section, never by a fetch racing a
// passive context's barrier close — so intervals, write notices and bytes,
// which kDeterministicCounters must leave out for concurrent programs, are
// exact here. Context 0 never writes a page another context reads, for the
// same reason: no sequential fetch could flush its twin. Returns the
// master's modeled time.
double run_turn_taking(DsmSystem& dsm) {
  constexpr std::size_t kLongs = kPageSize / sizeof(long);
  constexpr LockId kLock = 5;
  const std::uint32_t n = dsm.nprocs();
  auto data = dsm.alloc_page_aligned<long>(n * kLongs);
  auto counter = dsm.alloc_page_aligned<long>(kLongs);
  long want = 0;
  for (Rank t = 1; t < n; ++t) {
    dsm.parallel([&](Rank r) {
      dsm.barrier();
      if (r == t) {
        if (t > 1) {
          for (std::size_t i = 0; i < kLongs; i += 64)
            EXPECT_EQ(data[(t - 1) * kLongs + i],
                      static_cast<long>((t - 1) * 1000 + i));
        }
        // A plain read, then a plain write: a fused read-modify-write
        // instruction would take one fault where a separate load and store
        // take two, and the fault counts would follow the compiler.
        const auto before = static_cast<long>(t * (t - 1) / 2);
        dsm.lock_acquire(kLock);
        EXPECT_EQ(counter[0], before);
        counter[0] = before + t;
        dsm.lock_release(kLock);
        for (std::size_t i = 0; i < kLongs; i += 64)
          data[t * kLongs + i] = static_cast<long>(t * 1000 + i);
      }
      dsm.barrier();
    });
    want += t;
    EXPECT_EQ(data[t * kLongs], static_cast<long>(t * 1000));
    EXPECT_EQ(counter[0], want);
  }
  return dsm.master_time_us();
}

struct PinnedRun {
  bool tree;
  Protocol protocol;
  double master_us;
  // Every counter the run leaves nonzero; all others must be zero.
  std::map<std::string, std::uint64_t> counters;
};

TEST(Protocol, SyncEdgeAccountingIsPinned) {
  const test::ScopedEnvClear env_guard; // the numbers are the seed config's
  const PinnedRun runs[] = {
      {false,
       Protocol::kLazyRC,
       34290.0,
       {{"msgs_sent", 1690}, {"bytes_sent", 209704}, {"msgs_offnode", 1327},
        {"bytes_offnode", 165926}, {"mprotect", 444}, {"page_faults", 88},
        {"read_faults", 58}, {"write_faults", 30}, {"twins", 30},
        {"diffs_created", 30}, {"diffs_applied", 149},
        {"diff_bytes_created", 793}, {"intervals", 60},
        {"write_notices_sent", 1264}, {"write_notices_recv", 1294},
        {"page_invalidations", 268}, {"barriers", 480}, {"lock_acquires", 15},
        {"lock_remote_acquires", 15}}},
      {true,
       Protocol::kLazyRC,
       34290.0,
       {{"msgs_sent", 1690}, {"bytes_sent", 209704}, {"msgs_offnode", 787},
        {"bytes_offnode", 106526}, {"mprotect", 444}, {"page_faults", 88},
        {"read_faults", 58}, {"write_faults", 30}, {"twins", 30},
        {"diffs_created", 30}, {"diffs_applied", 149},
        {"diff_bytes_created", 793}, {"intervals", 60},
        {"write_notices_sent", 1264}, {"write_notices_recv", 1294},
        {"page_invalidations", 268}, {"barriers", 480}, {"lock_acquires", 15},
        {"lock_remote_acquires", 15}, {"coll_stages", 900},
        {"coll_bytes", 99000}}},
      {false,
       Protocol::kHomeLRC,
       18970.0,
       {{"msgs_sent", 1508}, {"bytes_sent", 311363}, {"msgs_offnode", 1183},
        {"bytes_offnode", 218136}, {"mprotect", 429}, {"page_faults", 73},
        {"read_faults", 43}, {"write_faults", 30}, {"twins", 30},
        {"diffs_created", 30}, {"diffs_applied", 15},
        {"diff_bytes_created", 793}, {"intervals", 15},
        {"write_notices_sent", 450}, {"write_notices_recv", 450},
        {"page_invalidations", 253}, {"barriers", 480}, {"lock_acquires", 15},
        {"lock_remote_acquires", 15}, {"full_page_fetches", 43}}},
      {true,
       Protocol::kHomeLRC,
       18970.0,
       {{"msgs_sent", 1508}, {"bytes_sent", 311363}, {"msgs_offnode", 643},
        {"bytes_offnode", 158736}, {"mprotect", 429}, {"page_faults", 73},
        {"read_faults", 43}, {"write_faults", 30}, {"twins", 30},
        {"diffs_created", 30}, {"diffs_applied", 15},
        {"diff_bytes_created", 793}, {"intervals", 15},
        {"write_notices_sent", 450}, {"write_notices_recv", 450},
        {"page_invalidations", 253}, {"barriers", 480}, {"lock_acquires", 15},
        {"lock_remote_acquires", 15}, {"full_page_fetches", 43},
        {"coll_stages", 900}, {"coll_bytes", 99000}}},
  };
  for (const PinnedRun& want : runs) {
    Config cfg;
    cfg.topology = sim::Topology::sp2();
    cfg.mode = Mode::kProcess;
    cfg.heap_bytes = 1u << 20;
    cfg.cost = test::latency_model();
    cfg.coll.tree = want.tree;
    cfg.protocol = want.protocol;
    DsmSystem dsm(cfg);
    const double master_us = run_turn_taking(dsm);
    const StatsSnapshot s = dsm.stats();
    SCOPED_TRACE(std::string(want.tree ? "tree" : "central") +
                 (want.protocol == Protocol::kHomeLRC ? "/home" : "/lazy"));
    EXPECT_EQ(master_us, want.master_us);
    for (std::size_t i = 0; i < s.v.size(); ++i) {
      const char* name = counter_name(static_cast<Counter>(i));
      const auto it = want.counters.find(name);
      EXPECT_EQ(s.v[i], it == want.counters.end() ? 0 : it->second)
          << "counter " << name;
    }
  }
}

// The same program in thread mode: each barrier's and join's node-level
// message leaves at its context's virtual last arrival, and HomeLRC's eager
// diffs at the barrier close are charged from there, so the master's time
// no longer depends on which of a node's threads the host runs last. Byte
// counts are left out: fault-time fetches still race interval flushes here.
TEST(Protocol, ThreadModeSyncTimeIsPinned) {
  const test::ScopedEnvClear env_guard;
  for (const bool tree : {false, true}) {
    for (const Protocol protocol : {Protocol::kLazyRC, Protocol::kHomeLRC}) {
      Config cfg;
      cfg.topology = sim::Topology::sp2();
      cfg.mode = Mode::kThread;
      cfg.heap_bytes = 1u << 20;
      cfg.cost = test::latency_model();
      cfg.coll.tree = tree;
      cfg.protocol = protocol;
      DsmSystem dsm(cfg);
      SCOPED_TRACE(std::string(tree ? "tree" : "central") +
                   (protocol == Protocol::kHomeLRC ? "/home" : "/lazy"));
      EXPECT_EQ(run_turn_taking(dsm),
                protocol == Protocol::kHomeLRC ? 16880.0 : 16330.0);
    }
  }
}

} // namespace
} // namespace omsp::tmk
