#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

double Now() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

void Report::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  info[key] = buf;
}

void Report::Fail(const std::string& why) {
  if (correct) info["failure"] = why;
  correct = false;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(f);
    if (kib >= 0.0) return kib / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

namespace {
std::size_t LatencySlices(std::size_t samples) {
  return std::clamp<std::size_t>(samples / kMinSamples, 1, 5);
}
}  // namespace

double SlicedQuantile(const std::vector<double>& values, double q) {
  const std::size_t slices = LatencySlices(values.size());
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < slices; ++s) {
    per_slice.push_back(
        Quantile({values.begin() + s * values.size() / slices,
                  values.begin() + (s + 1) * values.size() / slices},
                 q));
  }
  return Median(per_slice);
}

void AlterOneValue(std::vector<double>* values) {
  if (values->empty()) return;
  double& v = (*values)[values->size() / 2];
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= 1;
  std::memcpy(&v, &bits, sizeof(bits));
}

void SetEndToEnd(Report* report, const std::vector<double>& latencies_ms,
                 double window_seconds, const std::vector<double>& setup_s,
                 double peak_rss_mb) {
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("p50_ms", SlicedQuantile(latencies_ms, 0.5), "ms");
  report->Set("p90_ms", SlicedQuantile(latencies_ms, 0.9), "ms");
  report->Set("qps",
              window_seconds > 0.0
                  ? static_cast<double>(latencies_ms.size()) / window_seconds
                  : 0.0,
              "1/s");
  report->Set("peak_rss_mb", peak_rss_mb, "MiB");
  report->Info("samples", static_cast<double>(latencies_ms.size()));
  report->Info("samples_beyond_p90",
               std::floor(0.1 * static_cast<double>(latencies_ms.size())));
  report->Info("latency_slices",
               static_cast<double>(LatencySlices(latencies_ms.size())));
  report->Info("window_s", window_seconds);
  report->Info("setup_repeats", static_cast<double>(setup_s.size()));
}

std::size_t DeviceWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

// --- tracing ---------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

std::uint64_t Tracer::Reported(const std::string& name, std::uint64_t parent,
                               std::uint64_t request, double start,
                               double end) {
  if (!enabled()) return 0;
  SpanRecord record;
  record.id = NextId();
  record.parent = parent;
  record.request = request;
  record.name = name;
  record.start = start;
  record.end = end;
  record.reported = true;
  const std::uint64_t id = record.id;
  Record(std::move(record));
  return id;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"reported\":%s}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 s.start, s.end, s.reported ? "true" : "false");
  }
  std::fclose(f);
  return true;
}

namespace {
// The innermost open span on this thread (0 = none) and its request.
thread_local std::uint64_t tls_current = 0;
thread_local std::uint64_t tls_request = 0;
}  // namespace

Span::Span(const char* name) : name_(name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  id_ = tracer.NextId();
  parent_ = tls_current;
  request_ = parent_ == 0 ? id_ : tls_request;
  tls_current = id_;
  tls_request = request_;
  start_ = Now();
}

Span::~Span() {
  if (id_ == 0) return;
  SpanRecord record;
  record.end = Now();
  record.id = id_;
  record.parent = parent_;
  record.request = request_;
  record.name = name_;
  record.start = start_;
  Tracer::Get().Record(std::move(record));
  tls_current = parent_;
  if (parent_ == 0) tls_request = 0;
}

namespace {

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

}  // namespace

Ledger ComputeLedger(const std::vector<SpanRecord>& spans,
                     const std::string& root_name) {
  Ledger ledger;
  std::set<std::uint64_t> requests;
  double root_total = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.parent == 0 && s.name == root_name) {
      requests.insert(s.request);
      root_total += s.end - s.start;
    }
  }
  ledger.roots = requests.size();
  if (ledger.roots == 0) return ledger;

  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0 && requests.count(s.request) != 0) {
      children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self_seconds;
  for (const SpanRecord& s : spans) {
    if (requests.count(s.request) == 0) continue;
    const auto it = children.find(s.id);
    const double covered =
        it == children.end() ? 0.0 : CoveredSeconds(it->second, s.start, s.end);
    self_seconds[LayerOf(s.name)] += (s.end - s.start) - covered;
  }
  const double n = static_cast<double>(ledger.roots);
  ledger.root_ms = root_total * 1e3 / n;
  for (const auto& [layer, seconds] : self_seconds) {
    ledger.self_ms[layer] = seconds * 1e3 / n;
  }
  return ledger;
}

std::vector<double> SpanDurationsMs(const std::vector<SpanRecord>& spans,
                                    const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.name == name) out.push_back((s.end - s.start) * 1e3);
  }
  return out;
}

}  // namespace perfbench
