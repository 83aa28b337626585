#include "net/knobs.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/check.hpp"

namespace omsp::knobs {

namespace {

// The whole value as one decimal number; nullopt on anything else.
template <typename T> std::optional<T> parse_number(std::string_view v) {
  T out{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || end != v.data() + v.size()) return std::nullopt;
  return out;
}

// "0"/"off" and "1"/"on".
std::optional<bool> parse_switch(std::string_view v) {
  if (v == "0" || v == "off") return false;
  if (v == "1" || v == "on") return true;
  return std::nullopt;
}

// A row whose module owns the grammar: Parse(spec) -> std::optional.
template <auto Parse, auto Field>
bool parse_spec(std::string_view v, Values& out) {
  auto parsed = Parse(v);
  if (parsed) out.*Field = *parsed;
  return parsed.has_value();
}

bool parse_overlap(std::string_view v, Values& out) {
  const auto on = parse_switch(v);
  if (on) out.overlap.enabled = *on;
  return on.has_value();
}

bool parse_perturb_seed(std::string_view v, Values& out) {
  const auto seed = parse_number<std::uint64_t>(v);
  if (seed && *seed != 0) {
    out.perturb.enabled = true;
    out.perturb.seed = *seed;
  }
  return seed.has_value();
}

bool parse_loss_prob(std::string_view v, Values& out) {
  const auto p = parse_number<double>(v);
  if (!p || !(*p >= 0.0 && *p <= 1.0)) return false;
  if (*p == 0.0) return true;
  net::PerturbOptions& o = out.perturb;
  if (!o.enabled) {
    // Loss requested on its own: inject ONLY loss, so lossy runs are
    // perturbed-run comparable and the knobs stay orthogonal.
    o.enabled = true;
    o.jitter_max_us = 0;
    o.duplicate_prob = 0;
    o.reorder_prob = 0;
  }
  o.loss_prob = *p < 1.0 ? *p : 0.95; // cap: p=1 can never deliver
  // Env-driven lossy sweeps run the entire suite, so scale the retry cap to
  // the requested rate: an attempt fails with q = 1-(1-p)^2 (request or reply
  // lost); pick the cap that leaves a per-exchange exhaustion residual of
  // q^(cap+1) <= 1e-12. Explicit Config users keep whatever cap they set.
  const double q = 1.0 - (1.0 - o.loss_prob) * (1.0 - o.loss_prob);
  const double need = std::ceil(-12.0 / std::log10(q));
  o.max_retries = std::clamp(static_cast<std::uint32_t>(need), 8u, 64u);
  return true;
}

bool parse_trace_bin(std::string_view v, Values& out) {
  out.trace.binary_path = v;
  out.trace.enabled = true;
  return true;
}

bool parse_chaos(std::string_view v, Values& out) {
  const auto p = parse_number<unsigned>(v);
  if (!p || *p > 1000) return false;
  out.chaos_permille = *p;
  return true;
}

constexpr Knob kTable[] = {
    {"OMSP_TOPOLOGY",
     "sp2|sp2cal|flat:<nodes>x<ppn>|fat:<levels>x<radix>x<ppn>|"
     "asym:<p0>+<p1>+...",
     "sp2", "simulated machine for the benches",
     parse_spec<&sim::Topology::parse, &Values::topology>},
    {"OMSP_COLL", "central|tree|tree:<bytes>", "central",
     "collective engine for the DSM barrier and mini-MPI",
     parse_spec<&coll::Options::parse, &Values::coll>},
    {"OMSP_OVERLAP", "0|1|off|on", "off",
     "overlapped diff fetch and barrier-time prefetch", parse_overlap},
    {"OMSP_PERTURB_SEED", "<seed>", "0 (off)",
     "seeded jitter, duplication and reordering", parse_perturb_seed},
    {"OMSP_LOSS_PROB", "<p in [0,1]>", "0 (off)",
     "seeded message loss with retransmission", parse_loss_prob},
    {"OMSP_RACE", "off|page|word", "off", "vector-clock race detection",
     parse_spec<&race::Options::parse, &Values::race>},
    {"OMSP_TRACE_BIN", "<file>", "none", "binary protocol trace sink",
     parse_trace_bin},
    {"OMSP_CHAOS", "<permille 0-1000>", "0 (off)",
     "random 1-21 us sleeps at protocol decision points", parse_chaos},
};

} // namespace

std::span<const Knob> table() { return kTable; }

Values resolve(std::string_view only) {
  OMSP_CHECK_MSG(only.empty() ||
                     std::any_of(std::begin(kTable), std::end(kTable),
                                 [&](const Knob& k) { return k.name == only; }),
                 "knobs::resolve: no such knob");
  Values out;
  for (const Knob& k : kTable) {
    if (!only.empty() && k.name != only) continue;
    const char* v = std::getenv(k.name);
    if (v == nullptr || *v == '\0') continue;
    const bool well_formed = k.parse(v, out);
    if (!well_formed) {
      const std::string msg = std::string("malformed ") + k.name + "=" + v +
                              " (want " + k.grammar + ")";
      OMSP_CHECK_MSG(well_formed, msg.c_str());
    }
  }
  return out;
}

} // namespace omsp::knobs
