// The OMSP_* knob table (net/knobs.hpp), walked row by row: unset gives the
// default, every valid example parses to its value, and every malformed
// example dies with a message naming the variable.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "../common/env_guard.hpp"
#include "net/knobs.hpp"

namespace omsp::knobs {
namespace {

using Edit = std::function<void(Values&)>; // applied to a default Values
const Edit kDefault = [](Values&) {};

struct Row {
  const char* name;
  std::vector<std::pair<const char*, Edit>> valid;
  std::vector<const char*> malformed;
};

// Loss on its own keeps the other perturbations off, so lossy runs compare
// to clean ones modulo retransmissions. The retry cap scales with the rate:
// q = 1-(1-p)^2 per-attempt failure, cap chosen so q^(cap+1) <= 1e-12.
net::PerturbOptions loss_only(double p, std::uint32_t max_retries) {
  net::PerturbOptions o;
  o.enabled = true;
  o.jitter_max_us = o.duplicate_prob = o.reorder_prob = 0;
  o.loss_prob = p;
  o.max_retries = max_retries;
  return o;
}

// Every row's examples; the set of names must equal the table's.
const std::vector<Row>& rows() {
  const Edit overlap_on = [](Values& v) { v.overlap.enabled = true; };
  static const std::vector<Row> r = {
      {"OMSP_TOPOLOGY",
       {{"sp2", kDefault},
        {"flat:64x4",
         [](Values& v) { v.topology = sim::Topology::flat_switch(64, 4); }},
        {"fat:2x4x2",
         [](Values& v) { v.topology = sim::Topology::fat_tree(2, 4, 2); }}},
       {"fat:2x", "sp3", "flat:4x4junk"}},
      {"OMSP_COLL",
       {{"central", kDefault},
        {"tree", [](Values& v) { v.coll.tree = true; }},
        {"tree:2048", [](Values& v) { v.coll.tree = true;
                                      v.coll.flat_max_bytes = 2048; }}},
       {"ring", "tree:", "tree:x"}},
      // "false" once switched overlap ON: anything but "0" counted as true.
      {"OMSP_OVERLAP",
       {{"1", overlap_on}, {"on", overlap_on}, {"0", kDefault},
        {"off", kDefault}},
       {"false", "true", "2"}},
      {"OMSP_PERTURB_SEED",
       {{"17", [](Values& v) { v.perturb.enabled = true;
                               v.perturb.seed = 17; }},
        {"0", kDefault}},
       {"abc", "-3", "17x"}},
      // p = 1 can never deliver: clamp below certainty, cap at the ceiling.
      {"OMSP_LOSS_PROB",
       {{"0.25", [](Values& v) { v.perturb = loss_only(0.25, 34); }},
        {"1.0", [](Values& v) { v.perturb = loss_only(0.95, 64); }},
        {"0", kDefault}},
       {"x", "-0.1", "1.5", "0.2.5"}},
      {"OMSP_RACE",
       {{"off", kDefault},
        {"page", [](Values& v) { v.race.mode = race::Mode::kPage; }},
        {"word", [](Values& v) { v.race.mode = race::Mode::kWord; }}},
       {"pages", "bogus"}},
      {"OMSP_TRACE_BIN",
       {{"run.trace", [](Values& v) { v.trace.enabled = true;
                                      v.trace.binary_path = "run.trace"; }}},
       {}},
      {"OMSP_CHAOS",
       {{"200", [](Values& v) { v.chaos_permille = 200; }},
        {"1000", [](Values& v) { v.chaos_permille = 1000; }},
        {"0", kDefault}},
       {"abc", "1001", "-1"}},
  };
  return r;
}

const Row& row(std::string_view name) {
  for (const Row& r : rows())
    if (name == r.name) return r;
  ADD_FAILURE() << "no test row for " << name;
  return rows().front();
}

// Unset and empty give the default; each valid example resolves to its
// exact Values, both alone and with every row read.
void expect_parses(const Row& r) {
  SCOPED_TRACE(r.name);
  EXPECT_EQ(resolve(r.name), Values{}) << "unset";
  ::setenv(r.name, "", 1);
  EXPECT_EQ(resolve(r.name), Values{}) << "empty";
  for (const auto& [value, edit] : r.valid) {
    SCOPED_TRACE(value);
    ::setenv(r.name, value, 1);
    Values want;
    edit(want);
    EXPECT_EQ(resolve(r.name), want);
    EXPECT_EQ(resolve(), want); // no other row reads this variable
  }
  ::unsetenv(r.name);
}

// Each malformed example dies with a message naming the variable.
void expect_rejects(const Row& r) {
  SCOPED_TRACE(r.name);
  for (const char* bad : r.malformed) {
    SCOPED_TRACE(bad);
    ::setenv(r.name, bad, 1);
    EXPECT_DEATH((void)resolve(r.name), std::string("malformed ") + r.name);
    EXPECT_DEATH((void)resolve(), std::string("malformed ") + r.name);
  }
  ::unsetenv(r.name);
}

TEST(KnobTable, EveryRowParsesDefaultsAndRejectsMalformed) {
  const test::ScopedEnvClear env_guard; // CI matrices export these vars
  std::set<std::string> covered, tabled;
  for (const Row& r : rows()) covered.insert(r.name);
  for (const Knob& k : table()) tabled.insert(k.name);
  EXPECT_EQ(covered, tabled) << "every table row needs a row here";

  for (const Row& r : rows()) {
    expect_parses(r);
    expect_rejects(r);
  }
}

// The per-knob tests below check one row each, plus what is particular to it.

TEST(TopologyDescriptor, EnvOverride) {
  const test::ScopedEnvClear env_guard;
  expect_parses(row("OMSP_TOPOLOGY"));
  ::setenv("OMSP_TOPOLOGY", "flat:64x4", 1);
  EXPECT_EQ(resolve("OMSP_TOPOLOGY").topology.spec(), "flat:64x4");
}

TEST(CollOptions, EnvResolution) {
  const test::ScopedEnvClear env_guard;
  expect_parses(row("OMSP_COLL"));
}

// A typo must not silently fall back to the centralized engine.
TEST(CollOptionsDeathTest, MalformedEnvIsHardError) {
  const test::ScopedEnvClear env_guard;
  expect_rejects(row("OMSP_COLL"));
}

TEST(OverlapOptions, FromEnvParsesMasks) {
  const test::ScopedEnvClear env_guard;
  expect_parses(row("OMSP_OVERLAP"));
  expect_rejects(row("OMSP_OVERLAP"));
  // The OMSP_OVERLAP_PREFETCH sub-mask is gone: setting it masks nothing.
  ::setenv("OMSP_OVERLAP", "1", 1);
  ::setenv("OMSP_OVERLAP_PREFETCH", "0", 1);
  const net::OverlapOptions o = resolve().overlap;
  ::unsetenv("OMSP_OVERLAP_PREFETCH");
  EXPECT_TRUE(o.enabled);
  EXPECT_TRUE(o.prefetch);
}

TEST(PerturbOptions, FromEnvParsesSeed) {
  const test::ScopedEnvClear env_guard;
  expect_parses(row("OMSP_PERTURB_SEED"));
  expect_rejects(row("OMSP_PERTURB_SEED"));
}

TEST(PerturbOptions, FromEnvParsesLossProb) {
  const test::ScopedEnvClear env_guard;
  expect_parses(row("OMSP_LOSS_PROB"));
  expect_rejects(row("OMSP_LOSS_PROB"));
  // With a perturbation seed, loss keeps the jitter/duplicate/reorder
  // defaults.
  ::setenv("OMSP_PERTURB_SEED", "17", 1);
  ::setenv("OMSP_LOSS_PROB", "0.25", 1);
  net::PerturbOptions want;
  want.enabled = true;
  want.seed = 17;
  want.loss_prob = 0.25;
  want.max_retries = 34;
  EXPECT_EQ(resolve().perturb, want);
  EXPECT_EQ(resolve("OMSP_LOSS_PROB").perturb, loss_only(0.25, 34));
}

// A typo must not silently run with the detector off.
TEST(RaceEnvDeathTest, MalformedSpecDiesLoudly) {
  const test::ScopedEnvClear env_guard;
  expect_rejects(row("OMSP_RACE"));
}

} // namespace
} // namespace omsp::knobs
