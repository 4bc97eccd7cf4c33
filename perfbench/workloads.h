// The three session workloads of session_bench, as closed-loop drivers
// against jinfer's public API.
//
//   inproc-lookahead  3 client threads, one default runtime::IndexCache,
//                     runtime::Session in process. Half the sessions run
//                     L1S on 24 (9,8,30,3) instances (|Ω| = 72, the
//                     dispatched u± sweep), half L2S on 24 (3,3,40,8)
//                     instances (entropy² over apply/undo).
//   wire-hot          2 connections to an in-process server::Server
//                     (default ServerOptions) running TD over 32 (3,3,40,8)
//                     instances; every open uploads both CSVs and, after
//                     the first of each instance, hits the memory tier.
//   wire-churn        1 connection to a store-backed server (fresh store
//                     directory, default cache capacity 64) running TD over
//                     (4,4,300,20) instances: one open in ten brings a
//                     never-seen instance (build + persist: one of 256
//                     seeded instances under relation names no session used
//                     before), the rest draw Zipf(1) over a 512-instance
//                     catalog persisted during set-up (memory-tier hits on
//                     the head, mmap loads on the tail).
//
// The catalogs are fixed; every session is a pure function of (workload
// seed, stream, session number): the instance, the strategy and the goal.
// The program under test receives only the generated relations (in
// process) or their CSV bytes (over the wire). Each simulated user waits
// for the question before answering, with zero think time.

#ifndef JINFER_PERFBENCH_WORKLOADS_H_
#define JINFER_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/signature_index.h"
#include "core/strategy.h"
#include "core/types.h"
#include "measure.h"
#include "relational/relation.h"

namespace perfbench {

enum class WorkloadKind { kInprocLookahead, kWireHot, kWireChurn };

/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, WorkloadKind* kind);

/// Session streams: warm-up sessions, the measured sessions, and the
/// sessions of the traced slices of a traced run never share a spec.
enum class Stream : uint64_t { kWarmUp = 1, kMeasured = 2, kTraced = 3 };

/// What one completed (or failed) session produced.
struct SessionRecord {
  uint64_t number = 0;  ///< Session number within its stream.
  bool ok = false;
  std::string error;    ///< Set when !ok.
  uint64_t end_ns = 0;  ///< NowNanos() when the session ended.
  double session_ms = 0;
  double open_ms = 0;
  std::vector<double> question_us;
  std::vector<uint32_t> classes;  ///< Transcript: the classes asked.
  jinfer::core::JoinPredicate predicate;  ///< Final T(S+).
  uint64_t interactions = 0;
  uint64_t upload_bytes = 0;      ///< CSV bytes sent with the open.
  uint64_t informative_sum = 0;   ///< Σ informative classes before picks.
  uint64_t sweep_pairs = 0;       ///< Σ candidates × classes over L1S picks.
};

/// A point in a phase: NowNanos() and the process CPU seconds then.
struct Mark {
  uint64_t ns = 0;
  double cpu_s = 0;
};

/// Everything one measured phase produced.
struct PhaseResult {
  std::vector<SessionRecord> sessions;  ///< Sorted by number.
  double elapsed_s = 0;
  double cpu_s = 0;
  double peak_rss_mib = 0;  ///< VmHWM over the window.
  Mark start;
  std::vector<Mark> slice_ends;  ///< Last one: when the last session ended.
};

/// Per-layer timings taken outside the sessions (after the phase): the
/// in-process replay of wire sessions, and CSV parse / fingerprint of each
/// open's own instance.
struct OffPathTimings {
  std::vector<double> replay_question_us;  ///< Session::NextQuestion.
  std::vector<double> replay_answer_us;    ///< Session::Answer.
  std::vector<double> csv_parse_us;        ///< Both relations of an open.
  std::vector<double> fingerprint_us;      ///< store::FingerprintInstance.
  uint64_t replay_informative_sum = 0;  ///< Σ informative classes before
  uint64_t replay_picks = 0;            ///< each replayed pick.
};

class Workload {
 public:
  struct Spec;      ///< One session: instance, strategy, goal.
  struct Instance;  ///< One instance as the program receives it.

  virtual ~Workload() = default;

  /// Full set-up: generation, store pre-population, server start,
  /// warm-up.
  static std::unique_ptr<Workload> SetUp(WorkloadKind kind, uint64_t seed,
                                         const std::string& work_dir);

  virtual WorkloadKind kind() const = 0;

  /// Runs closed-loop sessions of `stream`, numbered from `first`, from
  /// every client until `seconds` have passed and at least `min_sessions`
  /// sessions have started, marking the ends of `slices` equal slices of
  /// the window.
  PhaseResult RunPhase(Stream stream, uint64_t first, double seconds,
                       size_t min_sessions, size_t slices = 1);

  /// The correctness gate. Every completed session's predicate must be
  /// instance-equivalent to its goal; a wire transcript (classes asked and
  /// final predicate) must equal an in-process runtime::Session replay of
  /// the same (instance, strategy, goal). Returns the first mismatches
  /// found (empty = all correct). With `timings`, records the replay's
  /// per-call durations.
  std::vector<std::string> Verify(Stream stream, const PhaseResult& phase,
                                  OffPathTimings* timings);

  /// Times CSV parse (wire workloads) and fingerprint of the instance of
  /// each of the first `max_opens` sessions of the phase.
  void TimeIngest(Stream stream, const PhaseResult& phase, size_t max_opens,
                  OffPathTimings* timings);

  /// The obs registry the workload's program writes to: the server's,
  /// read through server::Client, or this process's.
  virtual ObsSnapshot Snapshot() = 0;

  /// The store directory (wire-churn), else empty.
  virtual std::string store_dir() const { return ""; }

  /// Resident growth while the set-up generated the catalog: the
  /// benchmark's own share of peak_rss_mb.
  double catalog_mib() const { return catalog_mib_; }

 protected:
  Workload(uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {}

  virtual int clients() const = 0;
  virtual Spec MakeSpec(Stream stream, uint64_t number) const = 0;
  virtual SessionRecord RunSession(int client, const Spec& spec) = 0;
  virtual bool wire() const = 0;

  uint64_t seed_;
  std::string work_dir_;
  std::vector<std::shared_ptr<const Instance>> catalog_;
  double catalog_mib_ = 0;
};

}  // namespace perfbench

#endif  // JINFER_PERFBENCH_WORKLOADS_H_
