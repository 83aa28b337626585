// Configuration for a TreadMarks DSM instance.
//
// The two execution modes reproduce the paper's two systems:
//   * kThread  — the paper's contribution ("OpenMP/thread"): one DSM context
//     (address space) per SMP node, POSIX threads inside it, alias mapping of
//     the shared heap, per-page fault mutex.
//   * kProcess — the baseline ("OpenMP/original"): one DSM context per
//     processor; processors on one node still exchange protocol messages
//     (classified intra-node), no alias mapping, so page updates need the
//     extra write-enable/write-disable mprotect pair the paper counts.
#pragma once

#include <cstddef>
#include <optional>

#include "common/check.hpp"
#include "common/mathutil.hpp"
#include "net/collective.hpp"
#include "net/transport.hpp"
#include "race/options.hpp"
#include "sim/cost_model.hpp"
#include "sim/topology.hpp"
#include "trace/tracer.hpp"

namespace omsp::tmk {

enum class Mode { kThread, kProcess };

// Consistency protocol family:
//  * kLazyRC  — TreadMarks' lazy release consistency with distributed diffs
//    fetched from their writers on demand (the paper's system).
//  * kHomeLRC — home-based LRC in the style of HLRC-SMP/Cashmere-2L (§6
//    related work): every page has a home; writers eagerly flush diffs to
//    the home at releases, and faulting nodes fetch the whole page from the
//    home. Fewer control messages, more data — the classic trade-off.
enum class Protocol { kLazyRC, kHomeLRC };

struct Config {
  sim::Topology topology = sim::Topology::sp2();
  Mode mode = Mode::kThread;
  std::size_t heap_bytes = 16u << 20; // shared heap size (rounded to pages)
  sim::CostModel cost = sim::CostModel::sp2_default();

  // Ablation knobs. Defaults follow the paper: the thread version has the
  // alias ("second") mapping and the per-page fault mutex; the original
  // version has neither.
  std::optional<bool> alias_mapping; // default: mode == kThread
  std::optional<bool> per_page_fault_lock; // default: mode == kThread

  // When false, diffs are created eagerly at interval close instead of on
  // first request (TreadMarks is lazy; this knob exists for the ablation
  // bench).
  bool lazy_diffs = true;

  // Garbage collection: when the cluster-wide stored-diff volume exceeds
  // this many bytes, the next barrier runs a TreadMarks-style GC — every
  // context validates all its pages, then interval records and stored diffs
  // are discarded. 0 disables GC.
  std::size_t gc_threshold_bytes = 0;

  Protocol protocol = Protocol::kLazyRC;

  // Optional features, all off by default. An OMSP_* environment variable
  // can switch on each one the Config leaves off (net/knobs.hpp).

  // Structured protocol tracing (docs/OBSERVABILITY.md; OMSP_TRACE_BIN).
  trace::Options trace;

  // Seeded transport fault injection (net::PerturbingTransport): latency
  // jitter, bounded reordering of notifications, duplicate delivery and loss
  // (OMSP_PERTURB_SEED, OMSP_LOSS_PROB).
  net::PerturbOptions perturb;

  // Overlapped communication (net::QueuedTransport): concurrent per-creator
  // diff fetches and barrier-time batched prefetch (OMSP_OVERLAP). Off keeps
  // the InlineTransport seed semantics bit-for-bit. Only the lazy-RC
  // protocol has overlapped paths; home-based fetches stay synchronous.
  net::OverlapOptions overlap;

  // Collective shape (coll::Schedule; OMSP_COLL): central runs the barrier
  // over the one-level star rooted at the manager; tree reduces arrivals up
  // the topology-derived leader tree and broadcasts departures down it.
  // Both run through the same gather and scatter passes (docs/PROTOCOL.md
  // "Hierarchical collectives").
  coll::Options coll;

  // Data-race detection (race::Detector; OMSP_RACE): vector-clock
  // concurrency checks over flushed diffs, swept at barriers and joins
  // (docs/PROTOCOL.md "Race detection under lazy release consistency"). Off,
  // every modeled number stays bit-for-bit identical to the seed.
  race::Options race;

  // Chaos mode (OMSP_CHAOS): sleep 1-21 us at this permille of protocol
  // decision points to shake out interleavings the scheduler rarely
  // produces. 0 = off.
  unsigned chaos_permille = 0;

  bool use_alias_mapping() const {
    return alias_mapping.value_or(mode == Mode::kThread);
  }
  bool use_per_page_fault_lock() const {
    return per_page_fault_lock.value_or(mode == Mode::kThread);
  }

  // One DSM context per node (thread mode) or per processor (process mode).
  std::uint32_t num_contexts() const {
    return mode == Mode::kThread ? topology.nodes() : topology.nprocs();
  }
  // Worker threads hosted by context c: that node's processor count in
  // thread mode (asymmetric mixes give different contexts different widths),
  // always 1 in process mode.
  std::uint32_t threads_in_context(ContextId c) const {
    return mode == Mode::kThread ? topology.procs_on_node(c) : 1;
  }
  // Uniform-topology shorthand; asymmetric configs must ask per context.
  std::uint32_t threads_per_context() const {
    return mode == Mode::kThread ? topology.procs_per_node() : 1;
  }
  ContextId context_of_rank(Rank r) const {
    return mode == Mode::kThread ? topology.node_of_rank(r) : r;
  }
  NodeId node_of_context(ContextId c) const {
    return mode == Mode::kThread ? c : topology.node_of_rank(c);
  }
  // Thread slot of rank within its context.
  std::uint32_t slot_of_rank(Rank r) const {
    return mode == Mode::kThread ? topology.proc_of_rank(r) : 0;
  }

  void validate() const {
    OMSP_CHECK(heap_bytes > 0);
    OMSP_CHECK(topology.nprocs() >= 1);
  }
};

} // namespace omsp::tmk
