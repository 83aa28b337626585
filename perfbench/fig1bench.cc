// Fig-1 benchmark driver: the six applications under OpenMP/original
// (process mode), OpenMP/thread and MPI on the paper's 4x4 SP2, measured end
// to end and layer by layer from outside the program.
//
//   fig1bench --workload fig1-orig|fig1-thread|fig1-mpi --seed <n>
//             --seconds <s> --trace 0|1 [--smoke] [--corrupt-check <App>]
//
// Every workload runs the bench problem sizes (bench/bench_common.hpp) on
// sim::Topology::sp2() with LazyRC, the inline transport and
// cost.cpu_scale = 0: messages, VM operations, faults, locks and barriers
// are still charged by the SP2 cost model, application compute costs
// nothing, so modeled time carries no host cpu-clock noise.
//
// The load is a closed loop: one driver thread runs the six apps back to
// back, one app run at a time (a "pass"), on one pinned CPU. Each app run is
// one operation; it fails when its checksum misses the sequential reference,
// when the run lost or retransmitted a message, or (traced runs) when its
// protocol trace does not reconstruct Result.stats exactly or dropped
// events.
//
// --trace 0 prints the end-to-end metrics (medians over the measured passes);
// --trace 1 prints the per-layer metrics: it measures untraced passes for
// half the time and traced passes (Config::trace binary sink, read back and
// audited) for the other half, so trace.overhead_pct is the gap between the
// two. The driver's own spans (workload -> pass -> app run -> setup/run/
// check) are kept in memory and written to <kOutDir>/spans.json at exit.
//
// The last line of stdout is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}};
// the line before it records the build (diff kernel, build type, topology)
// and the CPU the run was pinned to.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "tmk/diff.hpp"
#include "trace/sinks.hpp"

extern char** environ;

namespace {

using namespace omsp;
using SteadyClock = std::chrono::steady_clock;

enum class Workload { kOrig, kThread, kMpi };

struct Options {
  std::string workload;
  Workload kind = Workload::kOrig;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string corrupt_check; // app whose first check gets a wrong reference
};

// Spans and trace files, relative to the checkout root the driver runs in.
const std::string kOutDir = ".bench_build/perfbench/out";

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fig1-orig|fig1-thread|fig1-mpi "
               "--seed <n> --seconds <s> --trace 0|1 [--smoke] "
               "[--corrupt-check <App>]\n",
               argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--corrupt-check" && has_value) {
      o.corrupt_check = argv[++i];
    } else {
      usage(argv[0]);
    }
  }
  if (o.workload == "fig1-orig") {
    o.kind = Workload::kOrig;
  } else if (o.workload == "fig1-thread") {
    o.kind = Workload::kThread;
  } else if (o.workload == "fig1-mpi") {
    o.kind = Workload::kMpi;
  } else {
    usage(argv[0]);
  }
  if (!(o.seconds >= 0)) usage(argv[0]);
  return o;
}

// DsmSystem, MpiWorld and OmpRuntime read these at construction; a stray
// OMSP_OVERLAP / OMSP_TOPOLOGY / OMSP_RACE would silently measure a
// different program.
bool environment_is_pinned() {
  bool ok = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string name = kv.substr(0, kv.find('='));
    if (name.rfind("OMSP_", 0) == 0 || name == "OMP_NUM_THREADS" ||
        name == "OMP_SCHEDULE") {
      std::fprintf(stderr, "fig1bench: refusing to run with %s set\n",
                   name.c_str());
      ok = false;
    }
  }
  return ok;
}

// Runs the driver and every simulator thread it starts on one CPU, the
// highest the process may use; returns it, or -1. Spread over the 4 vCPUs of
// a VM shared with other tenants, the 16-thread simulation measured mostly
// its neighbours: process-mode mprotects shoot down TLBs on vCPUs the
// hypervisor had descheduled, and fig1-orig's median pass took 3.4 to 9.3 s
// over ten runs. On one CPU a pass's wall time is the simulator's total host
// work, and the quartile spread of ten runs fell to 18% there.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- the six applications --------------------------------------------------

struct App {
  std::string name;
  double rel_tol; // tests/apps/apps_test.cc tolerance; 0 = exact (TSP)
  std::function<apps::Result(double)> seq;
  std::function<apps::Result(const tmk::Config&)> omp;
  std::function<apps::Result(const sim::Topology&, const sim::CostModel&)> mpi;
  double reference = 0; // run_seq checksum, computed untimed at start-up
};

// The --seed argument picks the input generator seed of Barnes, 3D-FFT,
// Water and MGS: one independent stream per app. Their traffic barely moves
// between inputs. Two inputs stay fixed: SOR's (zero interior, fixed
// boundary) has no seed, and TSP keeps the bench distance matrix (seed 42)
// because its branch-and-bound effort, and with it MPI-TSP's traffic,
// varies about threefold between random instances (3168 to 9794 messages
// over seeds 1-4), more than any end-to-end bound allows.
std::uint64_t app_seed(std::uint64_t seed, std::uint64_t app_index) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + app_index;
  return splitmix64(state);
}

// One App over an app namespace's run_seq/run_omp/run_mpi.
template <typename Params>
App make_app(std::string name, double rel_tol, const Params& p,
             apps::Result (*seq)(const Params&, double),
             apps::Result (*omp)(const Params&, const tmk::Config&),
             apps::Result (*mpi)(const Params&, const sim::Topology&,
                                 const sim::CostModel&,
                                 const net::PerturbOptions&)) {
  return {std::move(name), rel_tol,
          [=](double cpu_scale) { return seq(p, cpu_scale); },
          [=](const tmk::Config& c) { return omp(p, c); },
          [=](const sim::Topology& t, const sim::CostModel& m) {
            return mpi(p, t, m, {});
          }};
}

std::vector<App> make_apps(std::uint64_t seed) {
  auto barnes = bench::barnes_params();
  auto fft = bench::fft_params();
  auto water = bench::water_params();
  auto mgs = bench::mgs_params();
  barnes.seed = app_seed(seed, 0);
  fft.seed = app_seed(seed, 1);
  water.seed = app_seed(seed, 2);
  mgs.seed = app_seed(seed, 3);
  namespace a = apps;
  return {
      make_app("Barnes", 1e-9, barnes, a::barnes::run_seq, a::barnes::run_omp,
               a::barnes::run_mpi),
      make_app("3D-FFT", 1e-9, fft, a::fft3d::run_seq, a::fft3d::run_omp,
               a::fft3d::run_mpi),
      make_app("Water", 1e-9, water, a::water::run_seq, a::water::run_omp,
               a::water::run_mpi),
      make_app("SOR", 1e-9, bench::sor_params(), a::sor::run_seq,
               a::sor::run_omp, a::sor::run_mpi),
      make_app("TSP", 0, bench::tsp_params(), a::tsp::run_seq,
               a::tsp::run_omp, a::tsp::run_mpi),
      make_app("MGS", 1e-8, mgs, a::mgs::run_seq, a::mgs::run_omp,
               a::mgs::run_mpi)};
}

bool checksum_matches(double got, double ref, double rel_tol) {
  if (rel_tol == 0) return got == ref;
  const double scale = std::max({std::abs(got), std::abs(ref), 1.0});
  return std::abs(got - ref) <= rel_tol * scale;
}

// --- configuration ---------------------------------------------------------

sim::CostModel compute_free_cost() {
  sim::CostModel m = bench::paper_cost();
  m.cpu_scale = 0;
  return m;
}

// The config every app of an SDSM workload runs with. At the bench sizes no
// app needs more than the 64 MiB bench heap, so this is also each app's own
// run_omp config.
tmk::Config sdsm_config(Workload w) {
  tmk::Config cfg = bench::paper_config(
      w == Workload::kThread ? tmk::Mode::kThread : tmk::Mode::kProcess,
      sim::Topology::sp2());
  cfg.cost = compute_free_cost();
  return cfg;
}

// --- spans -----------------------------------------------------------------

class SpanLog {
public:
  SpanLog() : t0_(SteadyClock::now()) {}

  std::size_t begin(const std::string& name, std::size_t parent,
                    std::uint64_t run_id) {
    spans_.push_back({name, parent, run_id, seconds_since(t0_), -1});
    return spans_.size(); // ids are 1-based; 0 = no parent
  }
  void end(std::size_t id) { spans_[id - 1].end_s = seconds_since(t0_); }

  void write(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "fig1bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{%s, \"spans\": [\n", header.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"parent\": %zu, \"run_id\": %" PRIu64
                   ", \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": "
                   "%.9f}%s\n",
                   i + 1, s.parent, s.run_id, s.name.c_str(), s.start_s,
                   s.end_s, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

private:
  struct Span {
    std::string name;
    std::size_t parent;
    std::uint64_t run_id;
    double start_s, end_s;
  };
  SteadyClock::time_point t0_;
  std::vector<Span> spans_;
};

// --- one pass of six app runs ----------------------------------------------

struct HostUsage {
  double user_s = 0, sys_s = 0;
  double minor_faults = 0, vol_ctx = 0, invol_ctx = 0;

  static HostUsage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    HostUsage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minor_faults = static_cast<double>(ru.ru_minflt);
    u.vol_ctx = static_cast<double>(ru.ru_nvcsw);
    u.invol_ctx = static_cast<double>(ru.ru_nivcsw);
    return u;
  }
  HostUsage operator-(const HostUsage& b) const {
    return {user_s - b.user_s, sys_s - b.sys_s, minor_faults - b.minor_faults,
            vol_ctx - b.vol_ctx, invol_ctx - b.invol_ctx};
  }
};

// Modeled time the protocol trace attributes to each layer, summed over all
// threads of one app run (docs/OBSERVABILITY.md: dur_us of each kind).
struct TraceTotals {
  double fault_service_us = 0, barrier_wait_us = 0, lock_wait_us = 0;
  double message_cost_us = 0, contention_wait_us = 0;
  double events = 0, dropped = 0, mismatches = 0;

  TraceTotals& operator+=(const TraceTotals& o) {
    fault_service_us += o.fault_service_us;
    barrier_wait_us += o.barrier_wait_us;
    lock_wait_us += o.lock_wait_us;
    message_cost_us += o.message_cost_us;
    contention_wait_us += o.contention_wait_us;
    events += o.events;
    dropped += o.dropped;
    mismatches += o.mismatches;
    return *this;
  }
};

struct AppRun {
  double wall_s = 0;
  apps::Result result;
};

struct Pass {
  double wall_s = 0;
  HostUsage host;
  std::vector<AppRun> runs;
  TraceTotals trace; // traced passes only; audited runs only
};

class Driver {
public:
  Driver(const Options& opt, std::vector<App> apps)
      : opt_(opt), apps_(std::move(apps)), cfg_(sdsm_config(opt.kind)),
        topo_(sim::Topology::sp2()), cost_(compute_free_cost()) {}

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  SpanLog& spans() { return spans_; }
  const std::vector<App>& apps() const { return apps_; }
  const tmk::Config& config() const { return cfg_; }

  // Host seconds to construct and tear down one runtime per app: one round
  // constructs all six, and setup_s is the median round. Rounds run back to
  // back, before any pass, for at least 7 rounds and `budget_s`. Rounds run
  // after passes reuse the heap those passes left and took up to ~45% less
  // time, by an amount that varied from run to run. An MPI runtime's rank
  // threads start in run(), so its round includes one empty run() per app.
  double measure_setup(std::size_t parent, double budget_s) {
    const std::size_t span = spans_.begin("setup", parent, 0);
    std::vector<double> rounds;
    const auto t_all = SteadyClock::now();
    while (rounds.size() < 7 || seconds_since(t_all) < budget_s) {
      const auto t0 = SteadyClock::now();
      for (std::size_t i = 0; i < apps_.size(); ++i) construct_runtime();
      rounds.push_back(seconds_since(t0));
    }
    spans_.end(span);
    std::fprintf(stderr, "fig1bench: setup: %zu rounds in %.2f s\n",
                 rounds.size(), seconds_since(t_all));
    return median(rounds);
  }

  Pass run_pass(std::size_t parent, bool traced) {
    const std::size_t pass_span = spans_.begin(
        traced ? "pass.traced" : "pass", parent, 0);
    Pass pass;
    const HostUsage u0 = HostUsage::now();
    for (const App& app : apps_) {
      const std::uint64_t run_id = ++next_run_id_;
      const std::size_t run_span = spans_.begin("app." + app.name, pass_span,
                                                run_id);
      if (traced) {
        // The setup share of this run, timed on its own.
        const std::size_t s = spans_.begin("setup", run_span, run_id);
        construct_runtime();
        spans_.end(s);
      }
      const std::string trace_path =
          traced ? kOutDir + "/traces/" + app.name + ".trace" : "";
      const std::size_t r_span = spans_.begin("run", run_span, run_id);
      const auto t0 = SteadyClock::now();
      AppRun run;
      run.result = run_one(app, trace_path);
      run.wall_s = seconds_since(t0);
      spans_.end(r_span);

      const std::size_t c_span = spans_.begin("check", run_span, run_id);
      bool ok = check(app, run.result);
      if (traced && opt_.kind != Workload::kMpi) {
        TraceTotals t;
        if (audit(trace_path, run.result, t)) {
          pass.trace += t;
        } else {
          pass.trace.mismatches += t.mismatches;
          pass.trace.dropped += t.dropped;
          ok = false;
        }
      }
      spans_.end(c_span);
      spans_.end(run_span);

      ++attempted_;
      if (!ok) ++failed_;
      pass.wall_s += run.wall_s;
      pass.runs.push_back(run);
    }
    pass.host = HostUsage::now() - u0;
    spans_.end(pass_span);
    return pass;
  }

  // Host and modeled microseconds per empty `parallel` region on this
  // workload's config (0 for MPI, which has no OpenMP runtime).
  void measure_fork_join(double& host_us, double& modeled_us) {
    host_us = modeled_us = 0;
    if (opt_.kind == Workload::kMpi) return;
    const int regions = opt_.smoke ? 50 : 500;
    core::OmpRuntime rt(cfg_);
    rt.parallel([](core::Team&) {});
    const double v0 = rt.dsm().master_time_us();
    const auto t0 = SteadyClock::now();
    for (int i = 0; i < regions; ++i) rt.parallel([](core::Team&) {});
    host_us = seconds_since(t0) * 1e6 / regions;
    modeled_us = (rt.dsm().master_time_us() - v0) / regions;
  }

private:
  void construct_runtime() {
    if (opt_.kind == Workload::kMpi) {
      mpi::MpiWorld world(topo_, cost_);
      world.run([](mpi::Comm&) {});
    } else {
      core::OmpRuntime rt(cfg_);
    }
  }

  apps::Result run_one(const App& app, const std::string& trace_path) {
    if (opt_.kind == Workload::kMpi) return app.mpi(topo_, cost_);
    if (trace_path.empty()) return app.omp(cfg_);
    tmk::Config cfg = cfg_;
    cfg.trace.enabled = true;
    cfg.trace.binary_path = trace_path;
    return app.omp(cfg);
  }

  bool check(const App& app, const apps::Result& r) {
    double ref = app.reference;
    if (app.name == opt_.corrupt_check && !corrupted_) {
      corrupted_ = true;
      ref += 1.0;
    }
    bool ok = checksum_matches(r.checksum, ref, app.rel_tol);
    if (!ok)
      std::fprintf(stderr, "fig1bench: %s checksum %.17g != reference %.17g\n",
                   app.name.c_str(), r.checksum, ref);
    if (r.stats[Counter::kMsgsLost] != 0 ||
        r.stats[Counter::kRetransmits] != 0) {
      std::fprintf(stderr, "fig1bench: %s lost or retransmitted messages\n",
                   app.name.c_str());
      ok = false;
    }
    return ok;
  }

  // The stats<->trace audit: the run's trace must reconstruct Result.stats
  // exactly and must have dropped nothing. Fills `t` either way.
  static bool audit(const std::string& path, const apps::Result& r,
                    TraceTotals& t) {
    const trace::TraceFile tf = trace::read_binary(path);
    const StatsSnapshot rec = trace::reconstruct_counters(tf.events);
    for (std::size_t i = 0; i < rec.v.size(); ++i)
      if (rec.v[i] != r.stats.v[i]) {
        std::fprintf(stderr, "fig1bench: %s: %s stats %" PRIu64
                     " != trace %" PRIu64 "\n",
                     path.c_str(), counter_name(static_cast<Counter>(i)),
                     r.stats.v[i], rec.v[i]);
        ++t.mismatches;
      }
    t.dropped = static_cast<double>(tf.dropped);
    t.events = static_cast<double>(tf.events.size());
    for (const trace::Event& e : tf.events) {
      switch (e.kind) {
      case trace::EventKind::kPageFault: t.fault_service_us += e.dur_us; break;
      case trace::EventKind::kBarrierWait: t.barrier_wait_us += e.dur_us; break;
      case trace::EventKind::kLockAcquire: t.lock_wait_us += e.dur_us; break;
      case trace::EventKind::kMessage: t.message_cost_us += e.dur_us; break;
      case trace::EventKind::kContentionWait:
        t.contention_wait_us += e.dur_us;
        break;
      default: break;
      }
    }
    return t.mismatches == 0 && tf.dropped == 0;
  }

  const Options& opt_;
  std::vector<App> apps_;
  tmk::Config cfg_;
  sim::Topology topo_;
  sim::CostModel cost_;
  SpanLog spans_;
  std::uint64_t attempted_ = 0, failed_ = 0, next_run_id_ = 0;
  bool corrupted_ = false;
};

// --- metrics ---------------------------------------------------------------

using Metrics = std::map<std::string, double>;

double sum_over_runs(const Pass& p, Counter c) {
  double s = 0;
  for (const AppRun& r : p.runs) s += static_cast<double>(r.result.stats[c]);
  return s;
}

double modeled_ms(const Pass& p) {
  double s = 0;
  for (const AppRun& r : p.runs) s += r.result.time_us / 1000.0;
  return s;
}

Metrics end_to_end(const Pass& p) {
  return {{"wall_s", p.wall_s},
          {"cpu_s", p.host.user_s + p.host.sys_s},
          {"modeled_overhead_ms", modeled_ms(p)},
          {"msgs", sum_over_runs(p, Counter::kMsgsSent)},
          {"mbytes",
           sum_over_runs(p, Counter::kBytesSent) / (1024.0 * 1024.0)}};
}

Metrics per_layer(const Pass& p, const std::vector<App>& apps) {
  Metrics m;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const AppRun& r = p.runs[i];
    const std::string k = "apps." + apps[i].name + ".";
    m[k + "wall_s"] = r.wall_s;
    m[k + "modeled_overhead_ms"] = r.result.time_us / 1000.0;
    m[k + "msgs"] = static_cast<double>(r.result.stats[Counter::kMsgsSent]);
  }
  const std::pair<const char*, Counter> tmk_counters[] = {
      {"page_faults", Counter::kPageFaults},
      {"read_faults", Counter::kReadFaults},
      {"write_faults", Counter::kWriteFaults},
      {"mprotect", Counter::kMprotect},
      {"twins", Counter::kTwins},
      {"diffs_created", Counter::kDiffsCreated},
      {"diffs_applied", Counter::kDiffsApplied},
      {"full_page_fetches", Counter::kFullPageFetches},
      {"page_invalidations", Counter::kPageInvalidations},
      {"intervals", Counter::kIntervals},
      {"write_notices_sent", Counter::kWriteNoticesSent},
      {"barriers", Counter::kBarriers},
      {"lock_acquires", Counter::kLockAcquires},
      {"lock_remote_acquires", Counter::kLockRemoteAcquires}};
  for (const auto& [name, c] : tmk_counters)
    m[std::string("tmk.") + name] = sum_over_runs(p, c);
  m["tmk.diff_mbytes"] =
      sum_over_runs(p, Counter::kDiffBytesCreated) / (1024.0 * 1024.0);
  m["tmk.mprotect_per_fault"] =
      ratio(m["tmk.mprotect"], m["tmk.page_faults"]);
  m["tmk.diffs_applied_per_created"] =
      ratio(m["tmk.diffs_applied"], m["tmk.diffs_created"]);
  m["tmk.lock_remote_ratio"] =
      ratio(m["tmk.lock_remote_acquires"], m["tmk.lock_acquires"]);
  m["tmk.faults_per_host_s"] = ratio(m["tmk.page_faults"], p.wall_s);

  m["host.user_s"] = p.host.user_s;
  m["host.sys_s"] = p.host.sys_s;
  m["host.sys_share"] = ratio(p.host.sys_s, p.host.user_s + p.host.sys_s);
  m["host.minor_faults"] = p.host.minor_faults;
  m["host.vol_ctx_switches"] = p.host.vol_ctx;
  m["host.invol_ctx_switches"] = p.host.invol_ctx;

  m["net.msgs_offnode"] = sum_over_runs(p, Counter::kMsgsOffNode);
  m["net.mbytes_offnode"] =
      sum_over_runs(p, Counter::kBytesOffNode) / (1024.0 * 1024.0);
  m["net.coll_stages"] = sum_over_runs(p, Counter::kCollStages);
  m["net.msgs_per_host_s"] =
      ratio(sum_over_runs(p, Counter::kMsgsSent), p.wall_s);
  m["net.retransmits"] = sum_over_runs(p, Counter::kRetransmits);
  m["net.msgs_lost"] = sum_over_runs(p, Counter::kMsgsLost);
  return m;
}

Metrics trace_layer(const Pass& p) {
  return {{"tmk.fault_service_ms", p.trace.fault_service_us / 1000.0},
          {"tmk.barrier_wait_ms", p.trace.barrier_wait_us / 1000.0},
          {"tmk.lock_wait_ms", p.trace.lock_wait_us / 1000.0},
          {"net.message_cost_ms", p.trace.message_cost_us / 1000.0},
          {"net.contention_wait_ms", p.trace.contention_wait_us / 1000.0},
          {"trace.events", p.trace.events},
          {"trace.dropped", p.trace.dropped},
          {"trace.audit_mismatches", p.trace.mismatches}};
}

// Per-key median over passes.
Metrics median_metrics(const std::vector<Metrics>& per_pass) {
  std::map<std::string, std::vector<double>> cols;
  for (const Metrics& m : per_pass)
    for (const auto& [k, v] : m) cols[k].push_back(v);
  Metrics out;
  for (const auto& [k, v] : cols) out[k] = median(v);
  return out;
}

const char* unit_of(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_pct")) return "%";
  if (ends_with("_ms")) return "ms";
  if (ends_with("_us")) return "us";
  if (ends_with("_per_host_s")) return "1/s";
  if (ends_with("_s")) return "s";
  if (name.find("mbytes") != std::string::npos || ends_with("_mb"))
    return "MiB";
  if (ends_with("_per_fault") || ends_with("_per_created") ||
      ends_with("_ratio") || ends_with("_share"))
    return "ratio";
  return "count";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  first ? "" : ", ", k.c_str(), v, unit_of(k));
    out += buf;
    first = false;
  }
  return out + "}}";
}

// Passes until `seconds` of measured host time have elapsed (at least one).
std::vector<Pass> measure(Driver& d, std::size_t parent, double seconds,
                          bool traced) {
  std::vector<Pass> passes;
  const auto t0 = SteadyClock::now();
  do {
    passes.push_back(d.run_pass(parent, traced));
    const Pass& p = passes.back();
    std::fprintf(stderr, "fig1bench: %spass %zu: wall %.3f s, cpu %.3f s [",
                 traced ? "traced " : "", passes.size(), p.wall_s,
                 p.host.user_s + p.host.sys_s);
    for (const AppRun& r : p.runs) std::fprintf(stderr, " %.3f", r.wall_s);
    std::fprintf(stderr, " ]\n");
  } while (seconds_since(t0) < seconds);
  return passes;
}

} // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  if (!environment_is_pinned()) return 2;
  bench::g_smoke = opt.smoke;
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::perror("fig1bench: cannot pin to one CPU");
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(kOutDir + "/traces", ec);
  if (ec) {
    std::fprintf(stderr, "fig1bench: cannot create %s: %s\n", kOutDir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // Untimed sequential references, one per app for this seed.
  std::vector<App> apps = make_apps(opt.seed);
  for (App& a : apps) a.reference = a.seq(0).checksum;

  Driver d(opt, std::move(apps));
  const std::size_t root = d.spans().begin("workload." + opt.workload, 0, 0);

  Metrics metrics;
  // setup_s is an end-to-end metric, so traced runs skip it; its rounds take
  // a tenth of the measured time.
  const double setup_s =
      opt.trace ? 0 : d.measure_setup(root, opt.seconds / 10);
  d.run_pass(root, /*traced=*/false); // warm-up: checked, not measured
  if (!opt.trace) {
    std::vector<Metrics> rows;
    for (const Pass& p : measure(d, root, opt.seconds, false))
      rows.push_back(end_to_end(p));
    metrics = median_metrics(rows);
    metrics["setup_s"] = setup_s;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  } else {
    std::vector<Metrics> plain, traced;
    std::vector<double> plain_wall, traced_wall;
    for (const Pass& p : measure(d, root, opt.seconds / 2, false)) {
      plain.push_back(per_layer(p, d.apps()));
      plain_wall.push_back(p.wall_s);
    }
    for (const Pass& p : measure(d, root, opt.seconds / 2, true)) {
      traced.push_back(trace_layer(p));
      traced_wall.push_back(p.wall_s);
    }
    metrics = median_metrics(plain);
    for (const auto& [k, v] : median_metrics(traced)) metrics[k] = v;
    // MPI runs write no trace, so there is no overhead to measure.
    metrics["trace.overhead_pct"] =
        opt.kind == Workload::kMpi
            ? 0.0
            : 100.0 * (median(traced_wall) / median(plain_wall) - 1.0);
    d.measure_fork_join(metrics["core.fork_join_us"],
                        metrics["core.fork_join_modeled_us"]);
  }
  d.spans().end(root);

  char header[512];
  std::snprintf(header, sizeof header,
                "\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"diff_kernel\": \"%s\", \"build_type\": \"%s\", "
                "\"topology\": \"%s\", \"cpu\": %d, \"smoke\": %s",
                opt.workload.c_str(), opt.seed, tmk::diff_kernel_name(),
                FIG1BENCH_BUILD_TYPE, d.config().topology.spec().c_str(), cpu,
                opt.smoke ? "true" : "false");
  d.spans().write(kOutDir + "/spans.json", header);

  std::printf("{%s}\n", header);
  std::printf("%s\n", result_json(d.failed() == 0, d.attempted(), d.failed(),
                                  metrics)
                          .c_str());
  return 0;
}
