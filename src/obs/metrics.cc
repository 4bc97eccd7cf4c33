#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "util/check.h"

namespace jinfer {
namespace obs {

namespace internal {
std::atomic<uint32_t> g_metrics_enabled{1};
}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled ? 1 : 0,
                                    std::memory_order_relaxed);
}

uint64_t HistogramSnapshot::BucketLower(size_t b) {
  if (b == 0) return 0;
  return uint64_t{1} << (b - 1);
}

uint64_t HistogramSnapshot::BucketUpper(size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return UINT64_MAX;
  return (uint64_t{1} << b) - 1;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [1, count]: the ceil makes p100 the last sample and keeps p0
  // at the first, so quantiles of a single-bucket histogram stay inside
  // that bucket's bounds.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    const uint64_t n = buckets[b];
    if (n == 0) continue;
    if (rank <= cumulative + n) {
      const double lower = static_cast<double>(BucketLower(b));
      const double upper = static_cast<double>(BucketUpper(b));
      // Position of the rank among this bucket's own samples, in (0, 1].
      const double within = static_cast<double>(rank - cumulative) /
                            static_cast<double>(n);
      return lower + (upper - lower) * within;
    }
    cumulative += n;
  }
  return static_cast<double>(BucketUpper(kHistogramBuckets - 1));
}

struct Registry::Slot {
  std::string name;
  MetricKind kind;
  /// Per-owner (Owned handles) rather than process-wide (counter() /
  /// gauge()). An owned counter slot's `counter` holds the final counts of
  /// detached handles.
  bool owned = false;
  // Exactly one engaged, per kind. Separate members keep the metric types
  // copy-free and the slot trivially destroyable in registration order.
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
  // Live owners' cells, per kind.
  std::vector<const Counter*> owned_counters;
  std::vector<const Gauge*> owned_gauges;

  std::vector<const Counter*>& live(const Counter*) { return owned_counters; }
  std::vector<const Gauge*>& live(const Gauge*) { return owned_gauges; }
};

namespace {

constexpr MetricKind KindOf(const Counter*) { return MetricKind::kCounter; }
constexpr MetricKind KindOf(const Gauge*) { return MetricKind::kGauge; }

}  // namespace

Registry::Registry() = default;
Registry::~Registry() = default;

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // Leaked: outlives all users.
  return *registry;
}

Registry::Slot& Registry::Resolve(std::string_view name, MetricKind kind,
                                  bool owned) {
  for (auto& slot : slots_) {
    if (slot->name == name) {
      JINFER_CHECK(slot->kind == kind,
                   "metric '%s' registered twice with different kinds",
                   slot->name.c_str());
      JINFER_CHECK(slot->owned == owned,
                   "metric '%s' registered both per owner and process-wide",
                   slot->name.c_str());
      return *slot;
    }
  }
  auto slot = std::make_unique<Slot>();
  slot->name = std::string(name);
  slot->kind = kind;
  slot->owned = owned;
  switch (kind) {
    case MetricKind::kCounter:
      slot->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      slot->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      slot->histogram = std::make_unique<Histogram>();
      break;
  }
  slots_.push_back(std::move(slot));
  return *slots_.back();
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *Resolve(name, MetricKind::kCounter, /*owned=*/false).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *Resolve(name, MetricKind::kGauge, /*owned=*/false).gauge;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *Resolve(name, MetricKind::kHistogram, /*owned=*/false).histogram;
}

template <typename Metric>
Registry::Slot& Registry::Attach(std::string_view name, const Metric* cell) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = Resolve(name, KindOf(cell), /*owned=*/true);
  slot.live(cell).push_back(cell);
  return slot;
}

template <typename Metric>
void Registry::Detach(Slot& slot, const Metric* cell) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& live = slot.live(cell);
  live.erase(std::find(live.begin(), live.end(), cell));
  // A counter's count outlives its owner so the total stays monotone; a
  // gauge's level is the owner's own and leaves with it.
  if constexpr (std::is_same_v<Metric, Counter>) {
    slot.counter->Inc(cell->Value());
  }
}

template <typename Metric>
Owned<Metric>::Owned(std::string_view name, Registry& registry)
    : registry_(&registry), metric_(std::make_unique<Metric>()) {
  slot_ = &registry.Attach(name, static_cast<const Metric*>(metric_.get()));
}

template <typename Metric>
void Owned<Metric>::Release() {
  if (metric_ == nullptr) return;  // Moved from.
  registry_->Detach(*slot_, static_cast<const Metric*>(metric_.get()));
  metric_.reset();
}

template class Owned<Counter>;
template class Owned<Gauge>;

std::vector<MetricSnapshot> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) {
    MetricSnapshot m;
    m.name = slot->name;
    m.kind = slot->kind;
    switch (slot->kind) {
      case MetricKind::kCounter:
        m.counter = slot->counter->Value();
        for (const Counter* c : slot->owned_counters) m.counter += c->Value();
        break;
      case MetricKind::kGauge:
        m.gauge = slot->gauge->Value();
        for (const Gauge* g : slot->owned_gauges) m.gauge += g->Value();
        break;
      case MetricKind::kHistogram:
        m.histogram = slot->histogram->Snapshot();
        break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace obs
}  // namespace jinfer
