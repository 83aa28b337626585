// omsp::knobs — every OMSP_* environment knob, in one table.
//
// The environment is the code-free way to switch on a feature, so a CI job
// can run the whole suite at one point of the configuration space. One rule
// holds for every row:
//   * An unset or empty variable leaves the row's default.
//   * A set value must match the row's grammar. Anything else is a hard
//     error (OMSP_CHECK naming the variable and its grammar): a typo must
//     never silently run the default configuration.
//   * DsmSystem applies a feature from the environment only when its Config
//     left that feature off, and then the environment's value replaces the
//     whole options struct. A feature switched on in code always wins.
// DsmSystem reads every row, so a malformed value anywhere fails at once, but
// takes its machine from Config::topology only. MpiWorld reads only OMSP_COLL
// and bench::paper_topology() only OMSP_TOPOLOGY. OMSP_PERTURB_SEED and
// OMSP_LOSS_PROB compose into one PerturbOptions, seed row first.
#pragma once

#include <span>
#include <string_view>

#include "net/collective.hpp"
#include "net/transport.hpp"
#include "race/options.hpp"
#include "sim/topology.hpp"
#include "trace/tracer.hpp"

namespace omsp::knobs {

// The resolved value of every row; default-constructed = nothing set.
struct Values {
  sim::Topology topology = sim::Topology::sp2();
  coll::Options coll;
  net::OverlapOptions overlap;
  net::PerturbOptions perturb;
  race::Options race;
  trace::Options trace;
  unsigned chaos_permille = 0;

  bool operator==(const Values&) const = default;
};

struct Knob {
  const char* name;    // environment variable
  const char* grammar; // accepted values, as README's "Debugging knobs" says
  const char* dflt;    // behaviour when unset
  const char* doc;
  // Applies a set, non-empty value to `out`; false when it is malformed.
  bool (*parse)(std::string_view value, Values& out);
};

std::span<const Knob> table();

// Reads every row from the environment, or only the row named `only`.
Values resolve(std::string_view only = {});

} // namespace omsp::knobs
