#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "core/oracle.h"
#include "relational/csv.h"
#include "runtime/index_cache.h"
#include "runtime/session.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "store/fingerprint.h"
#include "store/index_store.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace core = jinfer::core;
namespace rel = jinfer::rel;
namespace runtime = jinfer::runtime;
namespace server = jinfer::server;
namespace store = jinfer::store;
namespace util = jinfer::util;

/// An instance's cells as value ids, equal ids iff equal values (a NULL
/// equals nothing and gets an id of its own), row-major: all DrawGoal reads.
struct CellIds {
  size_t r_attrs = 0, p_attrs = 0;
  std::vector<uint16_t> r, p;
};

/// One instance as the program under test receives it, and as little else
/// as the sessions need: the benchmark's share of the window's memory is
/// the catalog only. The correctness gate builds its twin indexes after
/// the window, from the same input.
struct Workload::Instance {
  rel::Relation r, p;            ///< In process: the program's input.
  server::OpenSessionBody open;  ///< Over the wire: the upload.
  CellIds cells;
};

/// One session: which instance, which strategy, which goal.
struct Workload::Spec {
  uint64_t number = 0;
  size_t catalog_index = 0;
  /// A never-seen instance's upload: catalog entry `catalog_index` under
  /// relation names of its own (wire-churn).
  std::shared_ptr<const Instance> fresh;
  core::StrategyKind strategy = core::StrategyKind::kTopDown;
  core::JoinPredicate goal;
  std::vector<std::pair<size_t, size_t>> goal_pairs;  ///< (R attr, P attr).
};

namespace {

uint64_t Mix(uint64_t a, uint64_t b) {
  return util::Mix64(util::Mix64(a) ^ b);
}
uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) { return Mix(Mix(a, b), c); }

// Domain tags keep the seed streams of different purposes apart.
constexpr uint64_t kTagCatalog = 0xca7a;

/// The catalogs are fixed; the workload seed draws the users: each
/// session's goal and instance, and wire-churn's never-seen instances. With
/// catalogs drawn from the workload seed too, instance content alone moved
/// L1S's question p99 by ±25% between seeds (48 instances, 4000 sessions
/// each), more than any bound a comparison could use.
constexpr uint64_t kCatalogSeed = 20140324;
constexpr uint64_t kTagFresh = 0xf5e5;
constexpr uint64_t kTagSession = 0x5e55;

using Config = jinfer::workload::SyntheticConfig;
const Config kWideShape{9, 8, 30, 3};      // |Ω| = 72: two bitset words
const Config kSmallShape{3, 3, 40, 8};     // BM_ServerThroughput's catalog
const Config kChurnShape{4, 4, 300, 20};   // ~6 KB CSV, ~6 ms build

/// Goals have one or two pairs, except on the wide shape. There L1S needs
/// 15-17 questions and 14-21 ms per session on average for two-pair goals,
/// with a p99 of 235-480 ms (measured over 1000 sessions on 16 instances
/// per seed): a few sessions then set the run's throughput and tails, and
/// no two seeds agree. One-pair goals there cost 10.7-11.1 questions and
/// 4.4-4.8 ms.
constexpr size_t kMaxGoalPairs = 2;
constexpr size_t kWideMaxGoalPairs = 1;

/// Catalogs hold many instances per shape so that no single instance's
/// content dominates a workload; every catalog but wire-churn's fits the
/// default cache capacity (64), so its opens stay memory-tier hits.
constexpr size_t kInprocPerShape = 24;
constexpr size_t kHotCatalog = 32;

size_t BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 4);
}

/// Runs fn(i) for i in [0, n) on BenchThreads() threads, thread w taking
/// indexes w, w + threads, ...: Verify's groups come in catalog rank
/// order, so util::ParallelFor's contiguous chunks would hand one thread
/// the whole Zipf head.
template <typename Fn>
void ForEachIndex(size_t n, Fn&& fn) {
  const size_t threads = BenchThreads();
  util::ParallelFor(threads, threads, [&](size_t, size_t, size_t worker) {
    for (size_t i = worker; i < n; i += threads) fn(i);
  });
}

using RelationPair = std::pair<rel::Relation, rel::Relation>;

/// The relations the server parses from an upload.
RelationPair ParseUpload(const server::OpenSessionBody& open) {
  auto r = rel::ReadRelationCsvText(open.r_csv, open.r_name);
  auto p = rel::ReadRelationCsvText(open.p_csv, open.p_name);
  JINFER_CHECK(r.ok() && p.ok(), "CSV parse");
  return {std::move(r).ValueOrDie(), std::move(p).ValueOrDie()};
}

CellIds MakeCellIds(const rel::Relation& r, const rel::Relation& p) {
  CellIds ids;
  ids.r_attrs = r.num_attributes();
  ids.p_attrs = p.num_attributes();
  std::unordered_map<rel::Value, uint32_t, rel::ValueHash> interned;
  uint32_t next = 0;
  auto id_of = [&](const rel::CellView& cell) {
    if (cell.is_null()) return next++;
    const auto [it, inserted] = interned.try_emplace(cell.ToValue(), next);
    if (inserted) ++next;
    return it->second;
  };
  auto fill = [&](const rel::Relation& rel, std::vector<uint16_t>* out) {
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      for (size_t col = 0; col < rel.num_attributes(); ++col) {
        const uint32_t id = id_of(rel.cell(row, col));
        JINFER_CHECK(id <= UINT16_MAX, "more than 65536 distinct cells");
        out->push_back(static_cast<uint16_t>(id));
      }
    }
  };
  fill(r, &ids.r);
  fill(p, &ids.p);
  return ids;
}

/// Generates an instance. Wire instances travel as CSV, and their cell ids
/// come from the parsed upload, exactly what the server will see.
std::shared_ptr<Workload::Instance> MakeInstance(const Config& config,
                                                 uint64_t gen_seed,
                                                 bool wire) {
  auto generated = jinfer::workload::GenerateSynthetic(config, gen_seed);
  JINFER_CHECK(generated.ok(), "generation: %s",
               generated.status().ToString().c_str());
  auto inst = std::make_shared<Workload::Instance>();
  if (!wire) {
    inst->r = std::move(generated->r);
    inst->p = std::move(generated->p);
    inst->cells = MakeCellIds(inst->r, inst->p);
    return inst;
  }
  server::OpenSessionBody& open = inst->open;
  open.strategy = "TD";
  open.compress = 1;
  open.r_name = generated->r.schema().relation_name();
  open.p_name = generated->p.schema().relation_name();
  open.r_csv = rel::WriteRelationCsv(generated->r);
  open.p_csv = rel::WriteRelationCsv(generated->p);
  const RelationPair parsed = ParseUpload(open);
  inst->cells = MakeCellIds(parsed.first, parsed.second);
  return inst;
}

core::SignatureIndex BuildIndex(const rel::Relation& r,
                                const rel::Relation& p) {
  auto index = core::SignatureIndex::Build(r, p);
  JINFER_CHECK(index.ok(), "index build: %s",
               index.status().ToString().c_str());
  return std::move(index).ValueOrDie();
}

core::SignatureIndex BuildIndex(const Workload::Instance& inst) {
  if (inst.open.r_csv.empty()) return BuildIndex(inst.r, inst.p);
  const RelationPair parsed = ParseUpload(inst.open);
  return BuildIndex(parsed.first, parsed.second);
}

/// The goal of a session: `max_pairs` or fewer pairs (uniformly) of the
/// signature of a seeded tuple pair, i.e. of that pair's class. The pair
/// itself satisfies the goal, so the goal is non-nullable by construction
/// at any |Ω| — unlike workload::SampleGoalsBySize, whose predicate
/// closure exceeds its limit on the |Ω| = 72 shape.
core::JoinPredicate DrawGoal(const CellIds& cells, size_t max_pairs,
                             util::Rng& rng) {
  const size_t n = cells.r_attrs;
  const size_t m = cells.p_attrs;
  const size_t pairs = 1 + rng.NextBelow(max_pairs);
  for (int attempt = 0; attempt < 100000; ++attempt) {
    const uint16_t* r = &cells.r[rng.NextBelow(cells.r.size() / n) * n];
    const uint16_t* p = &cells.p[rng.NextBelow(cells.p.size() / m) * m];
    std::vector<size_t> signature;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < m; ++j) {
        if (r[i] == p[j]) signature.push_back(i * m + j);
      }
    }
    if (signature.empty()) continue;
    core::JoinPredicate goal;
    for (size_t k = 0; k < std::min(pairs, signature.size()); ++k) {
      // Partial Fisher-Yates: k distinct pairs.
      const size_t pick = k + rng.NextBelow(signature.size() - k);
      std::swap(signature[k], signature[pick]);
      goal.Set(signature[k]);
    }
    return goal;
  }
  JINFER_CHECK(false, "no tuple pair with a non-empty signature");
  return {};
}

std::vector<std::pair<size_t, size_t>> GoalPairs(
    const core::JoinPredicate& goal, size_t num_p_attrs) {
  std::vector<std::pair<size_t, size_t>> pairs;
  goal.ForEachSetBit([&](size_t bit) {
    pairs.emplace_back(bit / num_p_attrs, bit % num_p_attrs);
  });
  return pairs;
}

/// The attribute values of a rendered question tuple ("R: A1=3, A2=7").
std::vector<std::string_view> RenderedValues(const std::string& text) {
  std::vector<std::string_view> values;
  std::string_view rest(text);
  const size_t colon = rest.find(": ");
  if (colon == std::string_view::npos) return values;
  rest.remove_prefix(colon + 2);
  while (!rest.empty()) {
    const size_t eq = rest.find('=');
    if (eq == std::string_view::npos) break;
    rest.remove_prefix(eq + 1);
    const size_t comma = rest.find(", ");
    values.push_back(rest.substr(0, comma));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 2);
  }
  return values;
}

/// The remote user: labels the rendered tuple pair it was shown, positive
/// iff every goal pair holds on the values — what a person reading the
/// question would answer. Returns nullopt on a malformed rendering.
std::optional<bool> LabelRendered(
    const std::vector<std::pair<size_t, size_t>>& goal_pairs,
    const std::string& r_text, const std::string& p_text) {
  const auto r = RenderedValues(r_text);
  const auto p = RenderedValues(p_text);
  for (const auto& [i, j] : goal_pairs) {
    if (i >= r.size() || j >= p.size()) return std::nullopt;
    if (r[i] != p[j]) return false;
  }
  return true;
}

/// Zipf(s = 1) over ranks [0, n): the rank-r instance has weight 1/(r+1).
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double sum = 0;
    for (size_t r = 0; r < n; ++r) cdf_[r] = sum += 1.0 / double(r + 1);
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(util::Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// inproc-lookahead
// ---------------------------------------------------------------------------

class InprocLookahead final : public Workload {
 public:
  InprocLookahead(uint64_t seed, std::string work_dir)
      : Workload(seed, std::move(work_dir)) {
    catalog_.resize(2 * kInprocPerShape);
    const double rss0 = ResidentMiB();
    ForEachIndex(catalog_.size(), [&](size_t i) {
      catalog_[i] = MakeInstance(i < kInprocPerShape ? kWideShape : kSmallShape,
                                 Mix(kCatalogSeed, kTagCatalog, i),
                                 /*wire=*/false);
    });
    catalog_mib_ = ResidentMiB() - rss0;
    RunPhase(Stream::kWarmUp, 0, 0, 96);
  }

  WorkloadKind kind() const override {
    return WorkloadKind::kInprocLookahead;
  }
  ObsSnapshot Snapshot() override { return SnapshotLocalRegistry(); }

 protected:
  int clients() const override { return 3; }
  bool wire() const override { return false; }

  Spec MakeSpec(Stream stream, uint64_t number) const override {
    util::Rng rng(Mix(seed_, kTagSession + static_cast<uint64_t>(stream),
                      number));
    Spec spec;
    spec.number = number;
    const bool l1s = number % 2 == 0;
    spec.strategy =
        l1s ? core::StrategyKind::kLookahead1 : core::StrategyKind::kLookahead2;
    spec.catalog_index =
        (l1s ? 0 : kInprocPerShape) + rng.NextBelow(kInprocPerShape);
    const Instance& inst = *catalog_[spec.catalog_index];
    spec.goal =
        DrawGoal(inst.cells, l1s ? kWideMaxGoalPairs : kMaxGoalPairs, rng);
    return spec;
  }

  SessionRecord RunSession(int /*client*/, const Spec& spec) override {
    const Instance& inst = *catalog_[spec.catalog_index];
    const bool l1s = spec.strategy == core::StrategyKind::kLookahead1;
    core::GoalOracle oracle(spec.goal);
    SessionRecord rec;
    Span session_span(Stage::kSession, spec.number + 1);
    const uint64_t t0 = NowNanos();

    runtime::TieredIndex tiered;
    {
      Span span(Stage::kCacheGet);
      auto got = cache_.GetOrBuildTiered(inst.r, inst.p);
      if (!got.ok()) {
        rec.error = got.status().ToString();
        return rec;
      }
      tiered = std::move(got).ValueOrDie();
      span.set_detail(static_cast<uint8_t>(tiered.tier));
    }
    std::optional<runtime::Session> session;
    {
      Span span(Stage::kSessionCreate);
      session.emplace(tiered.index, core::MakeStrategy(spec.strategy));
    }
    auto ask = [&] {
      const uint64_t informative = session->state().NumInformativeClasses();
      Span span(Stage::kNextQuestion);
      span.set_detail(static_cast<uint8_t>(spec.strategy));
      auto q = session->NextQuestion();
      if (q) {
        rec.informative_sum += informative;
        if (l1s) rec.sweep_pairs += informative * informative;
      }
      return q;
    };

    auto question = ask();
    rec.open_ms = double(NowNanos() - t0) / 1e6;
    while (question) {
      rec.classes.push_back(*question);
      const core::Label label = oracle.LabelClass(*tiered.index, *question);
      const uint64_t ta = NowNanos();
      util::Status st;
      {
        Span span(Stage::kAnswer);
        st = session->Answer(label);
      }
      if (!st.ok()) {
        rec.error = st.ToString();
        return rec;
      }
      question = ask();
      if (question) rec.question_us.push_back(double(NowNanos() - ta) / 1e3);
    }
    rec.predicate = session->CurrentPredicate();
    rec.interactions = session->num_interactions();
    rec.session_ms = double(NowNanos() - t0) / 1e6;
    rec.ok = true;
    return rec;
  }

 private:
  runtime::IndexCache cache_;
};

// ---------------------------------------------------------------------------
// Wire workloads
// ---------------------------------------------------------------------------

class WireWorkload : public Workload {
 public:
  ~WireWorkload() override {
    clients_.clear();
    if (server_ != nullptr) {
      server_->RequestStop();
      server_->Wait();
    }
    if (!store_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(store_dir_, ec);
    }
  }

  std::string store_dir() const override { return store_dir_; }

  ObsSnapshot Snapshot() override {
    ObsSnapshot snapshot;
    auto client = server::Client::Connect("127.0.0.1", server_->port());
    JINFER_CHECK(client.ok(), "stats connect: %s",
                 client.status().ToString().c_str());
    auto stats = client->ServerStats();
    JINFER_CHECK(stats.ok(), "ServerStats: %s",
                 stats.status().ToString().c_str());
    for (const auto& h : stats->histograms) {
      snapshot.histograms[h.name] = {h.count, h.sum};
    }
    auto metrics = client->ServerMetrics();
    JINFER_CHECK(metrics.ok(), "ServerMetrics: %s",
                 metrics.status().ToString().c_str());
    ParsePrometheusText(metrics->text, &snapshot);
    return snapshot;
  }

 protected:
  WireWorkload(uint64_t seed, std::string work_dir)
      : Workload(seed, std::move(work_dir)) {}

  int clients() const override { return 2; }
  bool wire() const override { return true; }

  void StartServer(server::ServerOptions options) {
    server_ = std::make_unique<server::Server>(std::move(options));
    const util::Status started = server_->Start();
    JINFER_CHECK(started.ok(), "server start: %s", started.ToString().c_str());
    clients_.resize(static_cast<size_t>(clients()));
    for (auto& c : clients_) Connect(c);
  }

  void Connect(std::optional<server::Client>& slot) {
    auto client = server::Client::Connect("127.0.0.1", server_->port());
    JINFER_CHECK(client.ok(), "connect: %s",
                 client.status().ToString().c_str());
    slot.emplace(std::move(client).ValueOrDie());
  }

  SessionRecord RunSession(int client_index, const Spec& spec) override {
    const Instance& inst =
        spec.fresh != nullptr ? *spec.fresh : *catalog_[spec.catalog_index];
    std::optional<server::Client>& slot =
        clients_[static_cast<size_t>(client_index)];
    SessionRecord rec;
    rec.upload_bytes = inst.open.r_csv.size() + inst.open.p_csv.size();
    auto fail = [&](const util::Status& status) {
      rec.error = status.ToString();
      // The server drops the hosted session with the connection.
      Connect(slot);
      return rec;
    };
    server::Client& client = *slot;

    Span session_span(Stage::kSession, spec.number + 1);
    const uint64_t t0 = NowNanos();
    {
      Span span(Stage::kWireOpen);
      auto opened = client.OpenSession(inst.open);
      if (!opened.ok()) return fail(opened.status());
      span.set_detail(opened->index_tier);
    }
    auto ask = [&]() -> util::Result<server::QuestionBody> {
      Span span(Stage::kWireQuestion);
      return client.NextQuestion();
    };
    auto question = ask();
    if (!question.ok()) return fail(question.status());
    rec.open_ms = double(NowNanos() - t0) / 1e6;
    while (!question->finished) {
      rec.classes.push_back(question->class_id);
      const auto label =
          LabelRendered(spec.goal_pairs, question->r_text, question->p_text);
      if (!label) {
        return fail(util::Status::ParseError("unparseable question rendering"));
      }
      const uint64_t ta = NowNanos();
      {
        Span span(Stage::kWireAnswer);
        auto answered = client.Answer(*label);
        if (!answered.ok()) return fail(answered.status());
      }
      question = ask();
      if (!question.ok()) return fail(question.status());
      if (!question->finished) {
        rec.question_us.push_back(double(NowNanos() - ta) / 1e3);
      }
    }
    {
      Span span(Stage::kWireClose);
      auto closed = client.CloseSession();
      if (!closed.ok()) return fail(closed.status());
      rec.predicate = server::PredicateFromWords(closed->predicate_words);
      rec.interactions = closed->num_interactions;
    }
    rec.session_ms = double(NowNanos() - t0) / 1e6;
    rec.ok = true;
    return rec;
  }

  std::unique_ptr<server::Server> server_;
  std::vector<std::optional<server::Client>> clients_;
  std::string store_dir_;
};

class WireHot final : public WireWorkload {
 public:
  WireHot(uint64_t seed, std::string work_dir)
      : WireWorkload(seed, std::move(work_dir)) {
    catalog_.resize(kHotCatalog);
    const double rss0 = ResidentMiB();
    ForEachIndex(kHotCatalog, [&](size_t i) {
      catalog_[i] = MakeInstance(kSmallShape, Mix(kCatalogSeed, kTagCatalog, i),
                                 /*wire=*/true);
    });
    catalog_mib_ = ResidentMiB() - rss0;
    StartServer(server::ServerOptions{});
    RunPhase(Stream::kWarmUp, 0, 0, 128);
  }

  WorkloadKind kind() const override { return WorkloadKind::kWireHot; }

 protected:
  Spec MakeSpec(Stream stream, uint64_t number) const override {
    util::Rng rng(Mix(seed_, kTagSession + static_cast<uint64_t>(stream),
                      number));
    Spec spec;
    spec.number = number;
    spec.catalog_index = rng.NextBelow(catalog_.size());
    const Instance& inst = *catalog_[spec.catalog_index];
    spec.goal = DrawGoal(inst.cells, kMaxGoalPairs, rng);
    spec.goal_pairs = GoalPairs(spec.goal, inst.cells.p_attrs);
    return spec;
  }
};

class WireChurn final : public WireWorkload {
 public:
  static constexpr size_t kCatalog = 512;
  static constexpr double kFreshShare = 0.1;
  /// Never-seen instances are these seeded instances, appended to the
  /// catalog but never persisted, each time under new relation names. The
  /// uploads are ready before the window, so it times the program, not the
  /// generator, and the benchmark holds no copy per session (a pool of
  /// distinct uploads for a 20 s window held ~30 MiB, more than half of
  /// peak_rss_mb). Content repeats every kFreshBases never-seen opens on
  /// average; the server shares nothing across equal content, since its
  /// cache and store key on the fingerprint, names included.
  static constexpr size_t kFreshBases = 256;

  WireChurn(uint64_t seed, std::string work_dir)
      : WireWorkload(seed, std::move(work_dir)), zipf_(kCatalog) {
    static std::atomic<int> generation{0};
    store_dir_ = work_dir_ + "/store-" + std::to_string(getpid()) + "-" +
                 std::to_string(generation++);
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
    auto opened = store::IndexStore::Open(store_dir_);
    JINFER_CHECK(opened.ok(), "store open: %s",
                 opened.status().ToString().c_str());
    auto index_store =
        std::make_shared<store::IndexStore>(std::move(opened).ValueOrDie());

    catalog_.resize(kCatalog + kFreshBases);
    const double rss0 = ResidentMiB();
    ForEachIndex(catalog_.size(), [&](size_t i) {
      catalog_[i] = MakeInstance(
          kChurnShape,
          i < kCatalog ? Mix(kCatalogSeed, kTagCatalog, i)
                       : Mix(seed_, kTagFresh, i - kCatalog),
          /*wire=*/true);
    });
    catalog_mib_ = ResidentMiB() - rss0;
    ForEachIndex(kCatalog, [&](size_t i) {
      const auto [r, p] = ParseUpload(catalog_[i]->open);
      const util::Status put = index_store->Put(
          BuildIndex(r, p), store::FingerprintInstance(r, p, true));
      JINFER_CHECK(put.ok(), "store put: %s", put.ToString().c_str());
    });

    server::ServerOptions options;
    options.runtime.cache_options.store = index_store;
    StartServer(std::move(options));
    RunPhase(Stream::kWarmUp, 0, 0, 384);
  }

  WorkloadKind kind() const override { return WorkloadKind::kWireChurn; }

 protected:
  /// One connection: with two, one connection's build + persist (about
  /// 8 ms) ran beside the other's questions, and question_us_p99 swung
  /// 3-10x with the host's load (spread over five seeds 0.58 against 0.16
  /// with one connection, on a shared 4-vCPU VM).
  int clients() const override { return 1; }
  Spec MakeSpec(Stream stream, uint64_t number) const override {
    util::Rng rng(Mix(seed_, kTagSession + static_cast<uint64_t>(stream),
                      number));
    Spec spec;
    spec.number = number;
    const bool fresh = rng.NextBool(kFreshShare);
    spec.catalog_index =
        fresh ? kCatalog + rng.NextBelow(kFreshBases) : zipf_.Draw(rng);
    const Instance& inst = *catalog_[spec.catalog_index];
    spec.goal = DrawGoal(inst.cells, kMaxGoalPairs, rng);
    spec.goal_pairs = GoalPairs(spec.goal, inst.cells.p_attrs);
    if (fresh) {
      // A relation name no other session uses: the instance fingerprint
      // digests relation names, so the server has never seen this one.
      auto upload = std::make_shared<Instance>();
      upload->open = inst.open;
      const std::string tag = "_" +
                              std::to_string(static_cast<uint64_t>(stream)) +
                              "_" + std::to_string(number);
      upload->open.r_name += tag;
      upload->open.p_name += tag;
      spec.fresh = std::move(upload);
    }
    return spec;
  }

 private:
  Zipf zipf_;
};

using Transcript = std::pair<std::vector<uint32_t>, core::JoinPredicate>;

/// Session records go to an unlinked file while a phase runs, so the
/// benchmark's own bookkeeping, which grows with throughput, stays out of
/// the resident set that peak_rss_mb reports.
class Spool {
 public:
  explicit Spool(const std::string& dir) {
    static std::atomic<int> generation{0};
    const std::string path = dir + "/spool-" + std::to_string(getpid()) +
                             "-" + std::to_string(generation++);
    file_ = std::fopen(path.c_str(), "w+b");
    JINFER_CHECK(file_ != nullptr, "cannot create %s", path.c_str());
    std::remove(path.c_str());  // the data lives until fclose
  }
  ~Spool() { std::fclose(file_); }
  Spool(const Spool&) = delete;
  Spool& operator=(const Spool&) = delete;

  void Write(const SessionRecord& rec) {
    uint64_t words[4];
    server::PredicateToWords(rec.predicate, words);
    Put(rec.number);
    Put(rec.end_ns);
    Put(rec.ok);
    Put(rec.session_ms);
    Put(rec.open_ms);
    Put(rec.interactions);
    Put(rec.upload_bytes);
    Put(rec.informative_sum);
    Put(rec.sweep_pairs);
    Put(words);
    PutVector(rec.question_us);
    PutVector(rec.classes);
    PutVector(std::vector<char>(rec.error.begin(), rec.error.end()));
  }

  /// Reads back every record written, appending to `out`.
  void ReadAll(std::vector<SessionRecord>* out) {
    JINFER_CHECK(std::fflush(file_) == 0 && std::fseek(file_, 0, SEEK_SET) == 0,
                 "spool rewind");
    SessionRecord rec;
    uint64_t words[4];
    while (Get(&rec.number)) {
      std::vector<char> error;
      const bool complete =
          Get(&rec.end_ns) && Get(&rec.ok) && Get(&rec.session_ms) &&
          Get(&rec.open_ms) && Get(&rec.interactions) &&
          Get(&rec.upload_bytes) && Get(&rec.informative_sum) &&
          Get(&rec.sweep_pairs) && Get(&words) &&
          GetVector(&rec.question_us) && GetVector(&rec.classes) &&
          GetVector(&error);
      JINFER_CHECK(complete, "truncated spool");
      rec.predicate = server::PredicateFromWords(words);
      rec.error.assign(error.begin(), error.end());
      out->push_back(std::move(rec));
      rec = SessionRecord{};
    }
  }

 private:
  template <typename T>
  void Put(const T& value) {
    JINFER_CHECK(std::fwrite(&value, sizeof(T), 1, file_) == 1, "spool write");
  }
  template <typename T>
  void PutVector(const std::vector<T>& values) {
    Put(static_cast<uint64_t>(values.size()));
    if (values.empty()) return;  // data() may be null
    JINFER_CHECK(std::fwrite(values.data(), sizeof(T), values.size(), file_) ==
                     values.size(),
                 "spool write");
  }
  template <typename T>
  bool Get(T* value) {
    return std::fread(value, sizeof(T), 1, file_) == 1;
  }
  template <typename T>
  bool GetVector(std::vector<T>* values) {
    uint64_t n = 0;
    if (!Get(&n)) return false;
    values->resize(n);
    return n == 0 || std::fread(values->data(), sizeof(T), n, file_) == n;
  }

  std::FILE* file_ = nullptr;
};

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  if (name == "inproc-lookahead") {
    *kind = WorkloadKind::kInprocLookahead;
  } else if (name == "wire-hot") {
    *kind = WorkloadKind::kWireHot;
  } else if (name == "wire-churn") {
    *kind = WorkloadKind::kWireChurn;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<Workload> Workload::SetUp(WorkloadKind kind, uint64_t seed,
                                          const std::string& work_dir) {
  switch (kind) {
    case WorkloadKind::kInprocLookahead:
      return std::make_unique<InprocLookahead>(seed, work_dir);
    case WorkloadKind::kWireHot:
      return std::make_unique<WireHot>(seed, work_dir);
    case WorkloadKind::kWireChurn:
      return std::make_unique<WireChurn>(seed, work_dir);
  }
  return nullptr;
}

PhaseResult Workload::RunPhase(Stream stream, uint64_t first, double seconds,
                               size_t min_sessions, size_t slices) {
  PhaseResult result;
  const size_t n_clients = static_cast<size_t>(clients());
  std::vector<std::unique_ptr<Spool>> spools;
  for (size_t c = 0; c < n_clients; ++c) {
    spools.push_back(std::make_unique<Spool>(work_dir_));
  }
  std::atomic<uint64_t> next{0};
  // The peak covers the window only: set-up transients (generation,
  // store pre-population, earlier set-ups) stay out of it.
  ResetPeakRss();
  result.start = {NowNanos(), ProcessCpuSeconds()};
  const uint64_t t0 = result.start.ns;
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      // Every claimed session runs to its end, so the completed numbers
      // are exactly [0, claimed): no gaps whichever client was slower.
      while (!(NowNanos() >= deadline && next.load() >= min_sessions)) {
        const uint64_t number = first + next++;
        const Spec spec = MakeSpec(stream, number);
        SessionRecord rec = RunSession(static_cast<int>(c), spec);
        rec.number = number;
        rec.end_ns = NowNanos();
        spools[c]->Write(rec);
      }
    });
  }
  for (size_t i = 1; i < slices; ++i) {
    const uint64_t end = t0 + (deadline - t0) / slices * i;
    const uint64_t now = NowNanos();
    if (end > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(end - now));
    }
    result.slice_ends.push_back({NowNanos(), ProcessCpuSeconds()});
  }
  for (auto& t : threads) t.join();

  result.slice_ends.push_back({NowNanos(), ProcessCpuSeconds()});
  result.elapsed_s = double(result.slice_ends.back().ns - t0) / 1e9;
  result.cpu_s = result.slice_ends.back().cpu_s - result.start.cpu_s;
  result.peak_rss_mib = PeakRssMiB();
  for (auto& spool : spools) spool->ReadAll(&result.sessions);
  std::sort(result.sessions.begin(), result.sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.number < b.number;
            });
  return result;
}

std::vector<std::string> Workload::Verify(Stream stream,
                                          const PhaseResult& phase,
                                          OffPathTimings* timings) {
  // Group the completed sessions by instance so each twin is resolved once
  // and each distinct (instance, goal) is replayed once.
  std::map<size_t, std::vector<const SessionRecord*>> by_instance;
  for (const SessionRecord& rec : phase.sessions) {
    if (!rec.ok) continue;
    by_instance[MakeSpec(stream, rec.number).catalog_index].push_back(&rec);
  }
  std::vector<std::vector<const SessionRecord*>> groups;
  for (auto& [index, recs] : by_instance) groups.push_back(std::move(recs));

  std::mutex mu;
  std::vector<std::string> errors;
  ForEachIndex(groups.size(), [&](size_t g) {
    OffPathTimings local;
    std::vector<std::string> local_errors;
    std::optional<core::SignatureIndex> twin_index;
    std::map<std::array<uint64_t, 4>, Transcript> replays;
    for (const SessionRecord* rec : groups[g]) {
      const Spec spec = MakeSpec(stream, rec->number);
      if (!twin_index) {
        twin_index.emplace(BuildIndex(*catalog_[spec.catalog_index]));
      }
      const core::SignatureIndex& twin = *twin_index;
      auto report = [&](const char* what) {
        local_errors.push_back("session " + std::to_string(rec->number) +
                               ": " + what + " (goal " +
                               spec.goal.ToString() + ", inferred " +
                               rec->predicate.ToString() + ")");
      };
      if (rec->interactions != rec->classes.size()) {
        report("interaction count differs from the questions asked");
      }
      if (!twin.EquivalentOnInstance(rec->predicate, spec.goal)) {
        report("inferred predicate not instance-equivalent to the goal");
      }
      if (!wire()) continue;
      std::array<uint64_t, 4> key;
      server::PredicateToWords(spec.goal, key.data());
      auto it = replays.find(key);
      if (it == replays.end()) {
        runtime::Session session(twin, core::MakeStrategy(spec.strategy));
        core::GoalOracle oracle(spec.goal);
        Transcript transcript;
        while (true) {
          uint64_t t = NowNanos();
          auto q = session.NextQuestion();
          if (timings != nullptr) {
            local.replay_question_us.push_back(double(NowNanos() - t) / 1e3);
          }
          if (!q) break;
          local.replay_informative_sum +=
              session.state().NumInformativeClasses();
          ++local.replay_picks;
          transcript.first.push_back(*q);
          const core::Label label = oracle.LabelClass(twin, *q);
          t = NowNanos();
          const util::Status st = session.Answer(label);
          if (timings != nullptr) {
            local.replay_answer_us.push_back(double(NowNanos() - t) / 1e3);
          }
          JINFER_CHECK(st.ok(), "replay answer: %s", st.ToString().c_str());
        }
        transcript.second = session.CurrentPredicate();
        it = replays.emplace(key, std::move(transcript)).first;
      }
      if (it->second.first != rec->classes) {
        report("wire transcript differs from the in-process replay");
      } else if (it->second.second != rec->predicate) {
        report("wire predicate differs from the in-process replay");
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    if (timings != nullptr) {
      auto append = [](std::vector<double>& to, const std::vector<double>& v) {
        to.insert(to.end(), v.begin(), v.end());
      };
      append(timings->replay_question_us, local.replay_question_us);
      append(timings->replay_answer_us, local.replay_answer_us);
      timings->replay_informative_sum += local.replay_informative_sum;
      timings->replay_picks += local.replay_picks;
    }
    for (auto& e : local_errors) {
      if (errors.size() < 20) errors.push_back(std::move(e));
    }
  });
  return errors;
}

void Workload::TimeIngest(Stream stream, const PhaseResult& phase,
                          size_t max_opens, OffPathTimings* timings) {
  const size_t n = std::min(max_opens, phase.sessions.size());
  for (size_t s = 0; s < n; ++s) {
    const Spec spec = MakeSpec(stream, phase.sessions[s].number);
    const Instance& inst =
        spec.fresh != nullptr ? *spec.fresh : *catalog_[spec.catalog_index];
    std::optional<RelationPair> parsed;
    if (wire()) {
      const uint64_t t = NowNanos();
      parsed.emplace(ParseUpload(inst.open));
      timings->csv_parse_us.push_back(double(NowNanos() - t) / 1e3);
    }
    const rel::Relation& r = parsed ? parsed->first : inst.r;
    const rel::Relation& p = parsed ? parsed->second : inst.p;
    const uint64_t t = NowNanos();
    const store::InstanceFingerprint fp = store::FingerprintInstance(r, p, true);
    timings->fingerprint_us.push_back(double(NowNanos() - t) / 1e3);
    JINFER_CHECK(fp.hi != 0 || fp.lo != 0, "fingerprint");
  }
}

}  // namespace perfbench
