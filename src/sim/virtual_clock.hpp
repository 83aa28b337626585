// Per-thread virtual clocks for direct-execution simulation.
//
// Each worker thread owns a VirtualClock. Application compute advances it by
// the thread's measured CPU time (so it works on a single-core host where
// threads are time-sliced); runtime operations advance it by modeled costs
// from the CostModel. Every runtime entry runs inside one RuntimeSection
// (docs/PROTOCOL.md "Virtual time" lists them), the only code that can drop
// *host* CPU time: protocol work is charged at modeled SP2 cost, not at host
// speed.
//
// Synchronization points exchange timestamps: a barrier departure sets every
// participant to max(arrivals) + cost; a lock grant makes the acquirer wait
// for the releaser's release time. This yields a causally consistent virtual
// makespan regardless of how the host scheduler interleaved the threads.
#pragma once

#include <ctime>

#include "common/check.hpp"
#include "sim/cost_model.hpp"

namespace omsp::sim {

class VirtualClock {
public:
  explicit VirtualClock(double cpu_scale = 1.0) : cpu_scale_(cpu_scale) {
    cpu_base_us_ = thread_cpu_us();
  }

  // Read point: fold the thread's CPU time since the last sample into virtual
  // time. Runtime code enters through a RuntimeSection instead.
  void sync_cpu() {
    const double now = thread_cpu_us();
    now_us_ += (now - cpu_base_us_) * cpu_scale_;
    cpu_base_us_ = now;
  }

  // Add modeled cost.
  void charge(double us) {
    OMSP_DCHECK(us >= 0);
    now_us_ += us;
  }

  // Lamport-style merge with an incoming timestamp.
  void advance_to(double t_us) {
    if (t_us > now_us_) now_us_ = t_us;
  }

  double now_us() const { return now_us_; }
  void set_now_us(double t) { now_us_ = t; }

  static double thread_cpu_us() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
  }

  // --- thread-local binding -------------------------------------------------
  // The DSM fault handler and message layer need "the clock of the thread
  // executing right now". Worker threads bind their clock on startup.
  static VirtualClock*& current() {
    thread_local VirtualClock* tls = nullptr;
    return tls;
  }

  // Binding resamples the CPU base on the binding thread: a clock's base must
  // come from the thread that advances it, and a system may build a worker's
  // clock on another thread (DsmSystem builds every clock on the master).
  class Binder {
  public:
    explicit Binder(VirtualClock* clock) : prev_(current()) {
      current() = clock;
      if (clock != nullptr) clock->skip_cpu();
    }
    ~Binder() { current() = prev_; }
    Binder(const Binder&) = delete;
    Binder& operator=(const Binder&) = delete;

  private:
    VirtualClock* prev_;
  };

private:
  friend class RuntimeSection;

  // Resample the CPU base without accumulating: the host time since the last
  // sample is not application compute.
  void skip_cpu() { cpu_base_us_ = thread_cpu_us(); }

  double now_us_ = 0;
  double cpu_base_us_ = 0;
  double cpu_scale_;
  int sections_ = 0; // RuntimeSections open on this clock
};

// The one bracket around runtime code, and the only code that drops host
// time. The outermost section on a clock folds pending app compute on entry
// and drops the host CPU the runtime consumed on exit; a section nested in
// it (runtime work reached from other runtime work) samples nothing, so the
// outer section's work never counts as compute.
class RuntimeSection {
public:
  explicit RuntimeSection(VirtualClock* clock = VirtualClock::current())
      : clock_(clock) {
    if (clock_ != nullptr && clock_->sections_++ == 0) {
      clock_->sync_cpu();
      folded_ = true;
    }
  }
  ~RuntimeSection() {
    if (clock_ != nullptr && --clock_->sections_ == 0) clock_->skip_cpu();
  }
  RuntimeSection(const RuntimeSection&) = delete;
  RuntimeSection& operator=(const RuntimeSection&) = delete;

  VirtualClock* clock() const { return clock_; }

  // Take `host_us` of host CPU that the entry fold captured but that is not
  // application compute (the kernel's SIGSEGV trap and sigreturn before the
  // fault handler opened this section) back out, scaled like compute. A
  // nested section folded nothing, so it takes nothing back.
  void discount_trap(double host_us) {
    if (folded_) clock_->now_us_ -= host_us * clock_->cpu_scale_;
  }

private:
  VirtualClock* clock_;
  bool folded_ = false;
};

} // namespace omsp::sim
