// Reads a metric's exposed value from the global registry: the figure the
// exposition renders, i.e. the sum over every owner alive plus the final
// counts of destroyed ones (DESIGN.md §13.1). Tests use it for deltas
// around a measured region, since other tests in the same binary feed the
// same names.

#ifndef JINFER_TESTS_TESTING_REGISTRY_READER_H_
#define JINFER_TESTS_TESTING_REGISTRY_READER_H_

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"

namespace jinfer {
namespace testing {

/// The exposed value of counter `name`; 0 when it is not registered yet.
inline uint64_t ExposedCounter(std::string_view name) {
  for (const obs::MetricSnapshot& m : obs::Registry::Global().Snapshot()) {
    if (m.name == name) return m.counter;
  }
  return 0;
}

/// The exposed value of gauge `name`; 0 when it is not registered yet.
inline int64_t ExposedGauge(std::string_view name) {
  for (const obs::MetricSnapshot& m : obs::Registry::Global().Snapshot()) {
    if (m.name == name) return m.gauge;
  }
  return 0;
}

}  // namespace testing
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_REGISTRY_READER_H_
