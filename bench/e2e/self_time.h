// Host self time per trace component, computed from the spans the obs
// tracer recorded on this thread. A span's self time is its host duration
// minus the part covered by the spans nested directly inside it; nesting is
// recovered from the host intervals (the simulator is single-threaded, so
// spans on one thread nest properly).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace face {
namespace bench {
namespace e2e {

/// component -> summed host self time (ns).
inline std::map<std::string, uint64_t> HostSelfNs(
    const std::vector<obs::Tracer::Span>& recorded) {
  std::vector<obs::Tracer::Span> spans = recorded;
  // Parents before children: earlier start first, and on a tie the longer
  // span (the enclosing one) first.
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.host_start_ns != b.host_start_ns) {
      return a.host_start_ns < b.host_start_ns;
    }
    return a.host_end_ns > b.host_end_ns;
  });
  std::vector<uint64_t> child_ns(spans.size(), 0);
  std::vector<size_t> open;  // indices of the enclosing spans, innermost last
  for (size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() &&
           spans[open.back()].host_end_ns <= spans[i].host_start_ns) {
      open.pop_back();
    }
    if (!open.empty()) {
      child_ns[open.back()] += spans[i].host_end_ns - spans[i].host_start_ns;
    }
    open.push_back(i);
  }
  std::map<std::string, uint64_t> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t dur = spans[i].host_end_ns - spans[i].host_start_ns;
    self[spans[i].component] += dur > child_ns[i] ? dur - child_ns[i] : 0;
  }
  return self;
}

}  // namespace e2e
}  // namespace bench
}  // namespace face
