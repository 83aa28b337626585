// Shared scaffolding for the six benchmark applications.
//
// Every application is implemented three times, mirroring the paper's
// evaluation:
//   run_seq — single-threaded reference (the speedup baseline of Table 1);
//   run_omp — the OpenMP port, written exactly as the translator would emit
//             (outlined regions over omsp::core), running on the TreadMarks
//             DSM in either thread or process mode;
//   run_mpi — the hand-written message-passing version over mini-MPI.
//
// Each returns a Result carrying a numerical checksum (the three versions
// must agree), the simulated elapsed time, and the traffic/VM-operation
// statistics the benches turn into Tables 2 and 3.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "core/runtime.hpp"
#include "mpi/mpi.hpp"
#include "sim/cost_model.hpp"
#include "sim/topology.hpp"
#include "sim/virtual_clock.hpp"
#include "tmk/config.hpp"

namespace omsp::apps {

struct Result {
  double checksum = 0;   // application-defined digest; versions must agree
  double time_us = 0;    // simulated elapsed time (virtual clock)
  StatsSnapshot stats;   // communication + VM counters (zero for run_seq)
};

// Run a sequential kernel under a bound virtual clock and return its
// simulated time. `fn` returns the checksum.
template <typename Fn> Result run_sequential(double cpu_scale, Fn&& fn) {
  sim::VirtualClock clock(cpu_scale);
  sim::VirtualClock::Binder bind(&clock);
  Result r;
  r.checksum = fn();
  clock.sync_cpu();
  r.time_us = clock.now_us(); // binding sampled the CPU base
  return r;
}

// Measure one OpenMP run: reset stats, time the master clock around `fn`.
template <typename Fn>
Result run_openmp(core::OmpRuntime& rt, Fn&& fn) {
  rt.dsm().reset_stats();
  Result r;
  const double t0 = rt.dsm().master_time_us();
  r.checksum = fn();
  r.time_us = rt.dsm().master_time_us() - t0;
  r.stats = rt.dsm().stats();
  return r;
}

} // namespace omsp::apps
