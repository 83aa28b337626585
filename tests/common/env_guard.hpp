// Tests that compare a reference run against a feature run (or one run
// against another) rely on the reference really being the seed
// configuration. CI matrix jobs export OMSP_* knobs (net/knobs.hpp), which
// DsmSystem consults whenever the Config leaves the feature off — silently
// flipping the reference run. Instantiate a ScopedEnvClear to clear every
// knob in the table for the test's scope; the destructor restores the outer
// values.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/knobs.hpp"

namespace omsp::test {

class ScopedEnvClear {
public:
  ScopedEnvClear() {
    for (const knobs::Knob& k : knobs::table()) {
      const char* v = std::getenv(k.name);
      saved_.emplace_back(k.name, v != nullptr ? std::optional<std::string>(v)
                                               : std::nullopt);
      ::unsetenv(k.name);
    }
  }
  ~ScopedEnvClear() {
    for (const auto& [n, v] : saved_) {
      if (v.has_value()) ::setenv(n.c_str(), v->c_str(), 1);
      else ::unsetenv(n.c_str());
    }
  }
  ScopedEnvClear(const ScopedEnvClear&) = delete;
  ScopedEnvClear& operator=(const ScopedEnvClear&) = delete;

private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

} // namespace omsp::test
