// Measurement helpers for session_bench: exact percentiles over raw
// samples, process CPU and peak memory, snapshots of the obs registry
// (read in process or through server::Client), and the span recorder of
// the traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public functions: the library is measured from outside and
// is not modified to be measured.

#ifndef JINFER_PERFBENCH_MEASURE_H_
#define JINFER_PERFBENCH_MEASURE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Exact quantile of raw samples (nearest rank on the sorted values). The
/// obs histograms interpolate inside log2 buckets, so every percentile
/// this benchmark reports comes from here instead. Sorts `samples`.
double ExactQuantile(std::vector<double>& samples, double q);

/// User + system CPU seconds of this process (all threads, the in-process
/// server's included).
double ProcessCpuSeconds();

/// VmHWM of this process, in MiB.
double PeakRssMiB();

/// Resets VmHWM to the current resident set.
void ResetPeakRss();

/// VmRSS of this process, in MiB.
double ResidentMiB();

/// Sum of the sizes of the regular files directly under `dir`, and their
/// count.
void DirectoryUsage(const std::string& dir, uint64_t* bytes, uint64_t* files);

/// A point-in-time view of an obs registry: each histogram's count and sum
/// (nanoseconds) and each unlabelled counter or gauge.
struct ObsSnapshot {
  struct Hist {
    uint64_t count = 0;
    uint64_t sum = 0;
  };
  std::map<std::string, Hist> histograms;
  std::map<std::string, double> values;

  /// A histogram's sum/count in microseconds (0 when empty), its count,
  /// and a counter's value; absent names read as 0.
  double MeanUs(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
  double Value(const std::string& name) const;

  /// Adds the interval (after − before) to this snapshot, which then holds
  /// the sum of several intervals.
  void AddInterval(const ObsSnapshot& before, const ObsSnapshot& after);
};

/// Fills the unlabelled samples of a Prometheus text exposition into
/// `snapshot->values`.
void ParsePrometheusText(const std::string& text, ObsSnapshot* snapshot);

/// The global registry of this process.
ObsSnapshot SnapshotLocalRegistry();

// ---------------------------------------------------------------------------
// Spans of the traced run.
// ---------------------------------------------------------------------------

/// Stage names. A span's layer is the prefix before the first '.'.
enum class Stage : uint8_t {
  kSession,         ///< One whole session (the root of its tree).
  kCacheGet,        ///< runtime::IndexCache::GetOrBuildTiered.
  kSessionCreate,   ///< runtime::Session construction (InferenceState).
  kNextQuestion,    ///< runtime::Session::NextQuestion.
  kAnswer,          ///< runtime::Session::Answer.
  kWireOpen,        ///< server::Client::OpenSession round trip.
  kWireQuestion,    ///< server::Client::NextQuestion round trip.
  kWireAnswer,      ///< server::Client::Answer round trip.
  kWireClose,       ///< server::Client::CloseSession round trip.
  kCount,
};

const char* StageName(Stage stage);

struct SpanRecord {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t session = 0;
  int32_t parent = -1;  ///< Index in the same thread's buffer, -1 = root.
  Stage stage = Stage::kSession;
  uint8_t detail = 0;  ///< Stage-specific: strategy kind, index tier.
};

/// Collects spans in per-thread buffers while enabled. Threads register a
/// buffer once (ThreadBuffer) and append without locking.
class Tracer {
 public:
  struct Buffer {
    std::vector<SpanRecord> spans;
    std::vector<int32_t> open;  ///< Stack of open span indices.
    uint64_t session = 0;
  };

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on); }

  /// This thread's buffer (created on first use).
  Buffer& ThreadBuffer();

  /// Every span recorded, buffer by buffer.
  std::vector<const Buffer*> Buffers() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer& GlobalTracer();

/// RAII span; a no-op while the tracer is disabled. A kSession span also
/// sets the session id its descendants carry.
class Span {
 public:
  Span(Stage stage, uint64_t session = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Tags the span (a strategy kind, an index tier) for the split tables.
  void set_detail(uint8_t detail);

 private:
  Tracer::Buffer* buffer_ = nullptr;
  int32_t index_ = -1;
};

/// Per-stage aggregate over all recorded spans: count, total duration and
/// self time (duration minus the part its children cover), plus the raw
/// durations for exact percentiles.
struct StageTotals {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  std::vector<double> durations_us;
  std::map<uint8_t, std::vector<double>> durations_us_by_detail;
};

/// Indexed by Stage.
std::vector<StageTotals> AggregateSpans(const Tracer& tracer);

/// Writes at most `max_spans` spans (tab-separated: thread, index, parent,
/// session, stage, start_ns, end_ns) to `path`. Returns the number
/// written.
size_t DumpSpans(const Tracer& tracer, const std::string& path,
                 size_t max_spans);

}  // namespace perfbench

#endif  // JINFER_PERFBENCH_MEASURE_H_
