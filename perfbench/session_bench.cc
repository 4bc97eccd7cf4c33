// session_bench: jinfer's session-level benchmark (perfbench/README.md).
//
//   session_bench --workload <inproc-lookahead|wire-hot|wire-churn>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>] [--commit <id>]
//
// Sets the workload up kSetups times (set-up time is their median), then
// runs closed-loop sessions for --seconds. With --trace 0 it reports the
// end-to-end metrics. With --trace 1 it alternates untraced and traced
// slices of the same length, and reports the per-layer metrics of the
// traced ones plus a self-time table.
// Every session completes and passes the correctness gate
// (Workload::Verify), or the run exits 1. The last stdout line is one JSON
// object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and a results file with the context stamp (kernel backend, nproc,
// compiler, build type, commit) lands in the work directory.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"
#include "obs/metric_names.h"
#include "util/simd/dispatch.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

namespace obs = jinfer::obs;

/// interactions_per_session averages the first kFixedSessions sessions of
/// the measured stream, which every run completes (the window runs on
/// until they have started): the paper's metric is then exact for a given
/// seed, however fast the run was. Per-session question counts are heavy
/// tailed; 4000 sessions left the mean spreading by up to 0.024 between
/// seeds on wire-churn, 12000 by 0.017-0.025, so more buys little; 8000
/// still fit in a 30 s window of wire-churn's single connection. It also
/// floors each run's p99 well above 1000 samples.
constexpr size_t kFixedSessions = 8000;

/// The measured window is cut into kSlices equal slices by session end
/// time. Each throughput, CPU and latency metric is the value of the best
/// slice (exact quantiles within a slice). On a shared 4-vCPU VM the host
/// steals CPU in bursts of a few seconds, and in those slices the server's
/// thread wake-ups wait: the wire workloads' p99s read 3-20x there (the
/// bursts line up with the steal column of /proc/stat). The median over 5
/// slices let bursts move p99s several-fold between runs; over 12 runs of
/// wire-churn question_us_p99 spread 0.41 as the median of 16 slices, 0.24
/// as their best quartile and 0.14 as the best slice. A change that slows
/// the program slows every slice, the best one too.
constexpr size_t kSlices = 16;

/// setup_s is the median of kSetups complete set-ups; the last one serves
/// the run.
constexpr int kSetups = 3;

/// Spans written to the trace dump (the tables use all of them).
constexpr size_t kMaxDumpedSpans = 100000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench-run";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  ///< Raw samples behind the value (0 = derived).
  std::vector<double> per_slice;  ///< The slice values behind `value`.
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics,
                        bool with_samples) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (with_samples) {
      out += ", \"samples\": " + std::to_string(m.samples);
      if (!m.per_slice.empty()) {
        out += ", \"per_slice\": [";
        for (size_t j = 0; j < m.per_slice.size(); ++j) {
          out += (j ? ", " : "") + JsonNumber(m.per_slice[j]);
        }
        out += "]";
      }
    }
    out += "}";
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-40s %14.4f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

/// Adds name_p50 and name_p99 from raw samples.
void AddQuantiles(std::vector<Metric>* out, const std::string& name,
                  std::vector<double> samples, const std::string& unit) {
  const size_t n = samples.size();
  out->push_back({name + "_p50", ExactQuantile(samples, 0.50), unit, n});
  out->push_back({name + "_p99", ExactQuantile(samples, 0.99), unit, n});
}

double Median(std::vector<double> v) { return ExactQuantile(v, 0.5); }

/// One slice of the measured window: the sessions that ended in it.
struct Slice {
  std::vector<double> session_ms, open_ms, question_us;
  size_t completed = 0;
  double seconds = 0;
  double cpu_s = 0;
};

/// A per-slice value for every slice that completed at least half the
/// median slice's sessions: a slice the host nearly starved holds a few
/// sessions, whose quantiles say nothing about the program.
template <typename Fn>
std::vector<double> OverSlices(const std::vector<Slice>& slices, Fn&& value) {
  std::vector<double> counts;
  for (const Slice& s : slices) counts.push_back(double(s.completed));
  const double floor = std::max(1.0, Median(counts) / 2);
  std::vector<double> values;
  for (const Slice& s : slices) {
    if (double(s.completed) >= floor) values.push_back(value(s));
  }
  return values;
}

/// A metric taken per slice: its value is the best slice's, the lowest or,
/// when higher is better, the highest.
Metric SliceMetric(std::string name, std::vector<double> per_slice,
                   std::string unit, size_t samples,
                   bool higher_is_better = false) {
  const double best =
      per_slice.empty()
          ? 0.0
          : higher_is_better
                ? *std::max_element(per_slice.begin(), per_slice.end())
                : *std::min_element(per_slice.begin(), per_slice.end());
  Metric m{std::move(name), best, std::move(unit), samples};
  m.per_slice = std::move(per_slice);
  return m;
}

std::vector<Metric> EndToEnd(const PhaseResult& phase, double setup_s) {
  std::vector<Slice> slices(phase.slice_ends.size());
  Mark begin = phase.start;
  for (size_t i = 0; i < slices.size(); ++i) {
    const Mark& end = phase.slice_ends[i];
    slices[i].seconds = double(end.ns - begin.ns) / 1e9;
    slices[i].cpu_s = end.cpu_s - begin.cpu_s;
    begin = end;
  }
  double interactions = 0;
  size_t fixed = 0, completed = 0, questions = 0;
  for (const SessionRecord& rec : phase.sessions) {
    if (!rec.ok) continue;
    size_t i = 0;
    while (i + 1 < slices.size() && rec.end_ns > phase.slice_ends[i].ns) ++i;
    Slice& s = slices[i];
    ++s.completed;
    s.session_ms.push_back(rec.session_ms);
    s.open_ms.push_back(rec.open_ms);
    s.question_us.insert(s.question_us.end(), rec.question_us.begin(),
                         rec.question_us.end());
    ++completed;
    questions += rec.question_us.size();
    if (rec.number < kFixedSessions) {
      interactions += static_cast<double>(rec.interactions);
      ++fixed;
    }
  }
  auto quantile = [](std::vector<double> Slice::*samples, double q) {
    return [samples, q](const Slice& s) {
      std::vector<double> v = s.*samples;
      return ExactQuantile(v, q);
    };
  };
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s", 0});
  m.push_back(SliceMetric("sessions_per_s",
                          OverSlices(slices,
                                     [](const Slice& s) {
                                       return double(s.completed) / s.seconds;
                                     }),
                          "1/s", completed, /*higher_is_better=*/true));
  m.push_back(SliceMetric("session_ms_p50",
                          OverSlices(slices, quantile(&Slice::session_ms, 0.50)),
                          "ms", completed));
  m.push_back(SliceMetric("session_ms_p99",
                          OverSlices(slices, quantile(&Slice::session_ms, 0.99)),
                          "ms", completed));
  m.push_back(SliceMetric("open_ms_p50",
                          OverSlices(slices, quantile(&Slice::open_ms, 0.50)),
                          "ms", completed));
  m.push_back(SliceMetric("open_ms_p99",
                          OverSlices(slices, quantile(&Slice::open_ms, 0.99)),
                          "ms", completed));
  m.push_back(SliceMetric("question_us_p50",
                          OverSlices(slices, quantile(&Slice::question_us, 0.50)),
                          "us", questions));
  m.push_back(SliceMetric("question_us_p99",
                          OverSlices(slices, quantile(&Slice::question_us, 0.99)),
                          "us", questions));
  m.push_back({"interactions_per_session",
               fixed == 0 ? 0.0 : interactions / double(fixed), "count",
               fixed});
  m.push_back(SliceMetric("cpu_ms_per_session",
                          OverSlices(slices,
                                     [](const Slice& s) {
                                       return s.cpu_s * 1e3 /
                                              double(s.completed);
                                     }),
                          "ms", completed));
  m.push_back({"peak_rss_mb", phase.peak_rss_mib, "MiB", 0});
  return m;
}

/// The per-layer metrics of the traced slices, split in two lists: `layer`
/// holds the ones every workload measures (BENCHMARK.json's per_layer),
/// `detail` the ones only some workloads exercise.
void PerLayer(Workload& w, const PhaseResult& untraced,
              const PhaseResult& traced, const std::vector<StageTotals>& spans,
              const ObsSnapshot& traced_obs, const ObsSnapshot& whole_run,
              const OffPathTimings& off, std::vector<Metric>* layer,
              std::vector<Metric>* detail) {
  const bool wire = w.kind() != WorkloadKind::kInprocLookahead;
  auto stage = [&](Stage s) -> const StageTotals& {
    return spans[static_cast<size_t>(s)];
  };

  size_t completed = 0;
  uint64_t upload_bytes = 0, informative = 0, picks = 0, sweep_pairs = 0,
           l1s_picks = 0;
  for (const SessionRecord& rec : traced.sessions) {
    if (!rec.ok) continue;
    ++completed;
    upload_bytes += rec.upload_bytes;
    informative += rec.informative_sum;
    picks += rec.classes.size();
    sweep_pairs += rec.sweep_pairs;
    if (rec.sweep_pairs > 0) l1s_picks += rec.classes.size();
  }
  size_t untraced_completed = 0;
  for (const SessionRecord& rec : untraced.sessions) {
    untraced_completed += rec.ok ? 1 : 0;
  }

  // core: in process the session's own calls; over the wire the replay of
  // the same sessions (the server runs the same calls on the same index).
  const std::vector<double>& question_us =
      wire ? off.replay_question_us : stage(Stage::kNextQuestion).durations_us;
  const std::vector<double>& answer_us =
      wire ? off.replay_answer_us : stage(Stage::kAnswer).durations_us;
  AddQuantiles(layer, "core.next_question_us", question_us, "us");
  AddQuantiles(layer, "core.answer_us", answer_us, "us");
  if (wire) {
    informative = off.replay_informative_sum;
    picks = off.replay_picks;
  }
  layer->push_back({"core.informative_classes_mean",
                    picks == 0 ? 0.0 : double(informative) / double(picks),
                    "count", picks});
  // Builds happen mostly during set-up on the hot workloads: the mean
  // covers the whole run.
  layer->push_back({"core.index_build_ms_mean",
                    whole_run.MeanUs(obs::kCacheBuildNanos) / 1e3, "ms",
                    whole_run.Count(obs::kCacheBuildNanos)});
  layer->push_back({"simd.sweep_pairs_per_question",
                    l1s_picks == 0 ? 0.0
                                   : double(sweep_pairs) / double(l1s_picks),
                    "count", l1s_picks});

  // runtime: the cache as the program's own counters saw the traced slices.
  const double lookups = traced_obs.Value(obs::kCacheLookupsTotal);
  layer->push_back({"runtime.cache_probe_us_mean",
                    traced_obs.MeanUs(obs::kCacheProbeNanos), "us",
                    traced_obs.Count(obs::kCacheProbeNanos)});
  layer->push_back(
      {"runtime.memory_hit_rate",
       lookups == 0 ? 0.0
                    : traced_obs.Value(obs::kCacheHitsTotal) / lookups,
       "ratio", static_cast<size_t>(lookups)});
  layer->push_back({"runtime.mapped_loads",
                    traced_obs.Value(obs::kCacheMappedLoadsTotal),
                    "count", 0});
  layer->push_back({"runtime.builds",
                    traced_obs.Value(obs::kCacheBuildsTotal), "count",
                    0});
  layer->push_back({"runtime.evictions",
                    traced_obs.Value(obs::kCacheEvictionsTotal),
                    "count", 0});
  layer->push_back(
      {"runtime.rejected_admissions",
       traced_obs.Value(obs::kCacheRejectedAdmissionsTotal), "count",
       0});

  // store
  AddQuantiles(layer, "store.fingerprint_us", off.fingerprint_us, "us");
  layer->push_back({"store.writes",
                    traced_obs.Value(obs::kStoreWritesTotal), "count",
                    0});
  uint64_t store_bytes = 0, store_files = 0;
  if (!w.store_dir().empty()) {
    DirectoryUsage(w.store_dir(), &store_bytes, &store_files);
  }
  layer->push_back(
      {"store.bytes_per_instance",
       store_files == 0 ? 0.0 : double(store_bytes) / double(store_files),
       "bytes", static_cast<size_t>(store_files)});

  // server / wire
  const double frames = traced_obs.Value(obs::kServerFramesReadTotal);
  layer->push_back({"wire.frames_per_session",
                    completed == 0 ? 0.0 : frames / double(completed), "count",
                    completed});
  layer->push_back({"wire.upload_bytes_per_open",
                    completed == 0 ? 0.0
                                   : double(upload_bytes) / double(completed),
                    "bytes", completed});
  layer->push_back({"server.work_shed",
                    traced_obs.Value(obs::kServerWorkShedTotal),
                    "count", 0});
  layer->push_back({"server.protocol_errors",
                    traced_obs.Value(obs::kServerProtocolErrorsTotal),
                    "count", 0});

  const double decode_us =
      traced_obs.MeanUs(obs::kServerFrameDecodeNanos);
  const double queue_us =
      traced_obs.MeanUs(obs::kServerFrameQueueNanos);
  const double execute_us =
      traced_obs.MeanUs(obs::kServerFrameExecuteNanos);
  double rtt_total = 0;
  uint64_t rtt_count = 0;
  for (Stage s : {Stage::kWireOpen, Stage::kWireQuestion, Stage::kWireAnswer,
                  Stage::kWireClose}) {
    rtt_total += stage(s).total_us;
    rtt_count += stage(s).count;
  }
  const double rtt_us = rtt_count == 0 ? 0.0 : rtt_total / double(rtt_count);
  const double unaccounted_us =
      rtt_count == 0 ? 0.0 : rtt_us - decode_us - queue_us - execute_us;
  auto share = [&](double us) { return rtt_us == 0 ? 0.0 : us / rtt_us; };
  layer->push_back({"server.queue_share_of_rtt", share(queue_us), "ratio",
                    rtt_count});
  layer->push_back({"server.execute_share_of_rtt", share(execute_us), "ratio",
                    rtt_count});
  layer->push_back({"server.unaccounted_share_of_rtt", share(unaccounted_us),
                    "ratio", rtt_count});

  // accounting
  const StageTotals& sessions = stage(Stage::kSession);
  layer->push_back({"trace.residual_frac",
                    sessions.total_us == 0
                        ? 0.0
                        : sessions.self_us / sessions.total_us,
                    "ratio", sessions.count});
  const double untraced_rate = double(untraced_completed) / untraced.elapsed_s;
  const double traced_rate = double(completed) / traced.elapsed_s;
  layer->push_back(
      {"trace.overhead_frac",
       untraced_rate == 0 ? 0.0 : 1.0 - traced_rate / untraced_rate, "ratio",
       0});

  // Workload-specific layers: reported where exercised.
  using jinfer::core::StrategyKind;
  const auto& by_strategy = wire ? std::map<uint8_t, std::vector<double>>{}
                                 : stage(Stage::kNextQuestion)
                                       .durations_us_by_detail;
  for (StrategyKind kind : {StrategyKind::kLookahead1,
                            StrategyKind::kLookahead2}) {
    auto it = by_strategy.find(static_cast<uint8_t>(kind));
    if (it != by_strategy.end()) {
      AddQuantiles(detail,
                   std::string("core.next_question_us.") +
                       jinfer::core::StrategyKindName(kind),
                   it->second, "us");
    }
  }
  if (wire) {
    AddQuantiles(detail, "core.next_question_us.TD", off.replay_question_us,
                 "us");
  } else {
    AddQuantiles(detail, "runtime.cache_get_us",
                 stage(Stage::kCacheGet).durations_us, "us");
    static const char* kTiers[] = {"memory", "mapped", "built"};
    for (const auto& [tier, samples] :
         stage(Stage::kCacheGet).durations_us_by_detail) {
      if (tier < 3) {
        AddQuantiles(detail,
                     std::string("runtime.cache_get_us.") + kTiers[tier],
                     samples, "us");
      }
    }
  }
  if (wire) {
    AddQuantiles(detail, "relational.csv_parse_us", off.csv_parse_us, "us");
    AddQuantiles(detail, "wire.open_rtt_us",
                 stage(Stage::kWireOpen).durations_us, "us");
    AddQuantiles(detail, "wire.question_rtt_us",
                 stage(Stage::kWireQuestion).durations_us, "us");
    AddQuantiles(detail, "wire.answer_rtt_us",
                 stage(Stage::kWireAnswer).durations_us, "us");
    AddQuantiles(detail, "wire.close_rtt_us",
                 stage(Stage::kWireClose).durations_us, "us");
    auto mean = [&](const char* name, const char* hist, double scale,
                    const char* unit) {
      detail->push_back({name, traced_obs.MeanUs(hist) * scale, unit,
                         traced_obs.Count(hist)});
    };
    mean("server.frame_decode_us_mean", obs::kServerFrameDecodeNanos, 1, "us");
    mean("server.frame_queue_us_mean", obs::kServerFrameQueueNanos, 1, "us");
    mean("server.frame_execute_us_mean", obs::kServerFrameExecuteNanos, 1,
         "us");
    mean("server.question_compute_us_mean", obs::kSessionQuestionNanos, 1,
         "us");
    detail->push_back({"server.unaccounted_us_per_frame", unaccounted_us, "us",
                       rtt_count});
    mean("store.load_us_mean", obs::kStoreLoadNanos, 1, "us");
    mean("store.put_ms_mean", obs::kStorePutNanos, 1e-3, "ms");
  }
}

/// Self time per stage over the traced slices, per completed session, with
/// the residual (session time no stage span covers) and, over the wire,
/// each round trip split into the server's own stages.
void PrintSelfTimeTable(const char* workload, size_t sessions,
                        const std::vector<StageTotals>& spans,
                        const std::vector<Metric>& detail) {
  const double session_total =
      spans[static_cast<size_t>(Stage::kSession)].total_us;
  std::printf("self time per layer, %s (traced slices, %zu sessions)\n",
              workload, sessions);
  std::printf("  %-24s %10s %14s %14s %8s\n", "stage", "spans",
              "self_us/sess", "total_us/sess", "share");
  for (size_t s = 0; s < spans.size(); ++s) {
    const StageTotals& t = spans[s];
    if (t.count == 0) continue;
    const char* name = s == static_cast<size_t>(Stage::kSession)
                           ? "(residual: client loop)"
                           : StageName(static_cast<Stage>(s));
    std::printf("  %-24s %10llu %14.2f %14.2f %7.1f%%\n", name,
                static_cast<unsigned long long>(t.count),
                t.self_us / double(std::max<size_t>(sessions, 1)),
                t.total_us / double(std::max<size_t>(sessions, 1)),
                session_total == 0 ? 0.0 : 100.0 * t.self_us / session_total);
  }
  bool header = false;
  for (const Metric& m : detail) {
    if (m.name.rfind("server.", 0) != 0) continue;
    if (!header) {
      std::printf("  per frame, inside each round trip:\n");
      header = true;
    }
    std::printf("    %-36s %10.2f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: session_bench --workload <inproc-lookahead|wire-hot|"
                 "wire-churn> --seed N --seconds S --trace 0|1 "
                 "[--work-dir D] [--commit C]\n");
    return 2;
  }
  WorkloadKind kind;
  if (!ParseWorkload(args.workload, &kind)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  const char* backend = jinfer::util::simd::KernelBackendName(
      jinfer::util::simd::ActiveKernelBackend());
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("context: workload=%s seed=%llu seconds=%g trace=%d "
              "backend=%s nproc=%u compiler=\"%s\" build=%s commit=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, backend, nproc, PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, args.commit.c_str());

  // Set up several times; the last set-up serves the run. The catalog's
  // resident size is read on the first: later set-ups reuse the heap the
  // earlier ones freed.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  double harness_mib = 0;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const uint64_t t0 = NowNanos();
    w = Workload::SetUp(kind, args.seed, args.work_dir);
    setup_s.push_back(double(NowNanos() - t0) / 1e9);
    if (i == 0) harness_mib = w->catalog_mib();
  }

  std::vector<Metric> metrics, detail;
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  auto count = [&](const PhaseResult& phase) {
    for (const SessionRecord& rec : phase.sessions) {
      ++attempted;
      if (!rec.ok) {
        ++failed;
        if (failed <= 5) {
          std::fprintf(stderr, "session %llu failed: %s\n",
                       static_cast<unsigned long long>(rec.number),
                       rec.error.c_str());
        }
      }
    }
  };

  if (args.trace == 0) {
    const PhaseResult phase = w->RunPhase(Stream::kMeasured, 0, args.seconds,
                                          kFixedSessions, kSlices);
    count(phase);
    errors = w->Verify(Stream::kMeasured, phase, nullptr);
    metrics = EndToEnd(phase, Median(setup_s));
    PrintMetrics("end-to-end", metrics);
    std::printf("  %-40s %14.4f %s\n", "failed_frac",
                attempted == 0 ? 0.0 : double(failed) / double(attempted),
                "ratio");
    std::printf("  %-40s %14.4f %s\n", "harness share of peak_rss_mb",
                harness_mib, "MiB");
  } else {
    // Untraced and traced slices alternate U T T U U T T U, so drift over
    // the run cancels out of trace.overhead_frac. Only traced slices feed
    // the per-layer numbers, and only their intervals of the program's
    // own counters are summed.
    constexpr bool kTracedSlice[] = {false, true, true, false,
                                     false, true, true, false};
    PhaseResult untraced, traced;
    ObsSnapshot traced_obs;
    for (bool on : kTracedSlice) {
      PhaseResult& pool = on ? traced : untraced;
      const ObsSnapshot before = on ? w->Snapshot() : ObsSnapshot{};
      GlobalTracer().set_enabled(on);
      PhaseResult slice =
          w->RunPhase(on ? Stream::kTraced : Stream::kMeasured,
                      pool.sessions.size(), args.seconds / 8, 0);
      GlobalTracer().set_enabled(false);
      if (on) traced_obs.AddInterval(before, w->Snapshot());
      pool.elapsed_s += slice.elapsed_s;
      pool.cpu_s += slice.cpu_s;
      for (auto& rec : slice.sessions) pool.sessions.push_back(std::move(rec));
    }
    count(untraced);
    count(traced);
    OffPathTimings off;
    errors = w->Verify(Stream::kMeasured, untraced, nullptr);
    auto more = w->Verify(Stream::kTraced, traced, &off);
    errors.insert(errors.end(), more.begin(), more.end());
    w->TimeIngest(Stream::kTraced, traced, 4000, &off);
    const std::vector<StageTotals> spans = AggregateSpans(GlobalTracer());
    PerLayer(*w, untraced, traced, spans, traced_obs, w->Snapshot(), off,
             &metrics, &detail);

    size_t completed = 0;
    for (const SessionRecord& rec : traced.sessions) completed += rec.ok;
    PrintMetrics("per-layer", metrics);
    PrintMetrics("per-layer, exercised by this workload only", detail);
    PrintSelfTimeTable(args.workload.c_str(), completed, spans, detail);
    const std::string dump = args.work_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".tsv";
    const size_t written = DumpSpans(GlobalTracer(), dump, kMaxDumpedSpans);
    std::printf("spans written to %s: %zu\n", dump.c_str(), written);
  }

  // A failed session (error frame, RETRY_LATER, unparseable rendering,
  // dropped connection) fails the run like a mismatch: its timings are
  // missing from every figure, so a change that makes sessions fail fast
  // would otherwise read as a gain.
  const bool correct = errors.empty() && failed == 0;
  for (const std::string& e : errors) {
    std::fprintf(stderr, "MISMATCH: %s\n", e.c_str());
  }
  if (failed > 0) {
    std::fprintf(stderr, "FAILED: %llu of %llu sessions\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }

  // The results file: metrics with sample counts plus the context stamp a
  // comparison must match (perfbench/compare.py).
  const std::string results = args.work_dir + "/result-" + args.workload +
                              "-seed" + std::to_string(args.seed) + "-trace" +
                              std::to_string(args.trace) + ".json";
  if (std::FILE* f = std::fopen(results.c_str(), "w")) {
    std::fprintf(
        f,
        "{\"context\": {\"backend\": %s, \"nproc\": %u, \"compiler\": %s, "
        "\"build_type\": %s, \"commit\": %s},\n \"workload\": %s, "
        "\"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"correct\": %s, "
        "\"attempted\": %llu, \"failed\": %llu,\n \"harness_rss_mib\": %s, "
        "\"setup_s_each\": [",
        JsonString(backend).c_str(), nproc,
        JsonString(PERFBENCH_COMPILER).c_str(),
        JsonString(PERFBENCH_BUILD_TYPE).c_str(),
        JsonString(args.commit).c_str(), JsonString(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed),
        JsonNumber(args.seconds).c_str(), args.trace,
        correct ? "true" : "false", static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed),
        JsonNumber(harness_mib).c_str());
    for (size_t i = 0; i < setup_s.size(); ++i) {
      std::fprintf(f, "%s%s", i ? ", " : "", JsonNumber(setup_s[i]).c_str());
    }
    std::fprintf(f, "],\n \"metrics\": %s,\n \"detail\": %s}\n",
                 MetricsJson(metrics, true).c_str(),
                 MetricsJson(detail, true).c_str());
    std::fclose(f);
  }

  w.reset();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
