// Layer counter structs (adlb::ServerStats, turbine::EngineStats, ...)
// list their fields once, each with the metric name it publishes under;
// summing per-rank structs (operator+=) and publishing them
// (runtime::publish_metrics) both walk that one list.
#pragma once

#include <cstdint>

namespace ilps {

template <class S>
struct StatField {
  const char* name;
  uint64_t S::*field;
};

template <class S>
S& add_stats(S& into, const S& from) {
  for (const StatField<S>& f : S::kFields) into.*f.field += from.*f.field;
  return into;
}

}  // namespace ilps
