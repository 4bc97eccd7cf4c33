#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/exposition.h"

namespace perfbench {

double ExactQuantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(samples.size() - 1,
                                static_cast<size_t>(rank) - 1);
  return samples[index];
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

/// A "Vm...:" line of /proc/self/status, in MiB.
double StatusMiB(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMiB() { return StatusMiB("VmHWM:"); }

double ResidentMiB() { return StatusMiB("VmRSS:"); }

void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

void DirectoryUsage(const std::string& dir, uint64_t* bytes,
                    uint64_t* files) {
  *bytes = 0;
  *files = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    *bytes += entry.file_size();
    ++*files;
  }
}

double ObsSnapshot::MeanUs(const std::string& name) const {
  const auto it = histograms.find(name);
  if (it == histograms.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.sum) /
         static_cast<double>(it->second.count) / 1e3;
}

uint64_t ObsSnapshot::Count(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0 : it->second.count;
}

double ObsSnapshot::Value(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

void ObsSnapshot::AddInterval(const ObsSnapshot& before,
                              const ObsSnapshot& after) {
  for (const auto& [name, h] : after.histograms) {
    const auto then = before.histograms.find(name);
    const Hist start = then == before.histograms.end() ? Hist{} : then->second;
    histograms[name].count += h.count - start.count;
    histograms[name].sum += h.sum - start.sum;
  }
  for (const auto& [name, v] : after.values) {
    values[name] += v - before.Value(name);
  }
}

void ParsePrometheusText(const std::string& text, ObsSnapshot* snapshot) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    if (name.find('{') != std::string::npos) continue;  // labelled sample
    snapshot->values[name] = std::strtod(line.c_str() + space + 1, nullptr);
  }
}

ObsSnapshot SnapshotLocalRegistry() {
  ObsSnapshot snapshot;
  for (const auto& h : jinfer::obs::SummarizeHistograms()) {
    snapshot.histograms[h.name] = {h.count, h.sum};
  }
  ParsePrometheusText(jinfer::obs::RenderPrometheusText(), &snapshot);
  return snapshot;
}

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kSession: return "session";
    case Stage::kCacheGet: return "runtime.cache_get";
    case Stage::kSessionCreate: return "core.session_create";
    case Stage::kNextQuestion: return "core.next_question";
    case Stage::kAnswer: return "core.answer";
    case Stage::kWireOpen: return "wire.open";
    case Stage::kWireQuestion: return "wire.question";
    case Stage::kWireAnswer: return "wire.answer";
    case Stage::kWireClose: return "wire.close";
    case Stage::kCount: break;
  }
  return "unknown";
}

Tracer::Buffer& Tracer::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
  }
  return *buffer;
}

std::vector<const Tracer::Buffer*> Tracer::Buffers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Buffer*> out;
  for (const auto& b : buffers_) out.push_back(b.get());
  return out;
}

Tracer& GlobalTracer() {
  static Tracer* tracer = new Tracer;
  return *tracer;
}

Span::Span(Stage stage, uint64_t session) {
  Tracer& tracer = GlobalTracer();
  if (!tracer.enabled()) return;
  buffer_ = &tracer.ThreadBuffer();
  if (stage == Stage::kSession) buffer_->session = session;
  SpanRecord record;
  record.stage = stage;
  record.session = buffer_->session;
  record.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  index_ = static_cast<int32_t>(buffer_->spans.size());
  buffer_->open.push_back(index_);
  record.start_ns = NowNanos();
  buffer_->spans.push_back(record);
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<size_t>(index_)].end_ns = NowNanos();
  buffer_->open.pop_back();
}

void Span::set_detail(uint8_t detail) {
  if (buffer_ != nullptr) {
    buffer_->spans[static_cast<size_t>(index_)].detail = detail;
  }
}

std::vector<StageTotals> AggregateSpans(const Tracer& tracer) {
  std::vector<StageTotals> totals(static_cast<size_t>(Stage::kCount));
  for (const Tracer::Buffer* buffer : tracer.Buffers()) {
    const auto& spans = buffer->spans;
    std::vector<double> child_us(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0 && s.end_ns != 0) {
        child_us[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if (s.end_ns == 0) continue;  // still open when tracing stopped
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      StageTotals& t = totals[static_cast<size_t>(s.stage)];
      ++t.count;
      t.total_us += us;
      t.self_us += us - child_us[i];
      t.durations_us.push_back(us);
      t.durations_us_by_detail[s.detail].push_back(us);
    }
  }
  return totals;
}

size_t DumpSpans(const Tracer& tracer, const std::string& path,
                 size_t max_spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return 0;
  std::fprintf(out, "thread\tindex\tparent\tsession\tstage\tdetail\t"
                    "start_ns\tend_ns\n");
  size_t written = 0;
  size_t thread = 0;
  for (const Tracer::Buffer* buffer : tracer.Buffers()) {
    for (size_t i = 0; i < buffer->spans.size() && written < max_spans;
         ++i, ++written) {
      const SpanRecord& s = buffer->spans[i];
      std::fprintf(out, "%zu\t%zu\t%d\t%llu\t%s\t%u\t%llu\t%llu\n", thread, i,
                   s.parent, static_cast<unsigned long long>(s.session),
                   StageName(s.stage), static_cast<unsigned>(s.detail),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    ++thread;
  }
  std::fclose(out);
  return written;
}

}  // namespace perfbench
