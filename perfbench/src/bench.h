/// \file bench.h
/// \brief Shared pieces of the repository benchmark: arguments, the result
/// report, span tracing, statistics and the bitwise oracle comparison.
///
/// The benchmark drives the library only through its public headers. Every
/// span is recorded here, in the benchmark's own code, around a call into
/// one module (the "layer" is the span name's prefix before the first dot).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary process-wide epoch (steady clock).
double Now();

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test mode: tiny inputs, asserts every metric prints and that the
  /// oracle comparison fails the run on a result with one altered value.
  bool self_test = false;
  /// Scratch directory inside the checkout for block files and the span
  /// dump.
  std::string work_dir = ".bench_build/perfbench-work";
};

/// One metric as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Free-form facts printed (as one JSON object) before the result line.
  std::map<std::string, std::string> info;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Info(const std::string& key, const std::string& value) {
    info[key] = value;
  }
  void Info(const std::string& key, double value);
  /// Marks the run incorrect and records why (first reason wins).
  void Fail(const std::string& why);
};

// --- statistics ------------------------------------------------------------

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process since the last ResetPeakRss
/// (or since start), in MiB.
double PeakRssMb();
/// Restarts the peak-RSS high-water mark, so that the benchmark's own input
/// generation and oracle stay out of `peak_rss_mb`.
void ResetPeakRss();

/// Bitwise equality of two result vectors (NaN equals NaN only when the
/// bit patterns match, which is what the determinism contract promises).
bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b);

/// Flips the lowest bit of the middle value, so that the result differs
/// from the original in exactly one bit (also when the value is NaN). The
/// self-test sends a result altered this way through each workload's oracle
/// comparison.
void AlterOneValue(std::vector<double>* values);

/// End-to-end metrics every workload reports from its timed window.
/// `latencies_ms` holds one entry per successful request, in the order the
/// requests were sent; `peak_rss_mb` is the peak over set-up and the
/// window. p50 and p90 are medians over time slices (see SlicedQuantile).
void SetEndToEnd(Report* report, const std::vector<double>& latencies_ms,
                 double window_seconds, const std::vector<double>& setup_s,
                 double peak_rss_mb);

// --- tracing ---------------------------------------------------------------

/// One recorded span. `parent` and `request` are 0 for "none".
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  /// True when the duration came from the program's own accounting
  /// (QueryStats, JoinResult phases) rather than the benchmark's clock.
  bool reported = false;
};

/// Process-wide span recorder. Spans stay in memory until Dump().
/// Disabled tracing costs one relaxed load per Span.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t NextId();
  void Record(SpanRecord record);
  /// Adds a span whose interval the program reported. Returns its id.
  std::uint64_t Reported(const std::string& name, std::uint64_t parent,
                         std::uint64_t request, double start, double end);

  std::vector<SpanRecord> Snapshot() const;
  /// Writes every span as one JSON object per line.
  bool Dump(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span around one call. Nested spans on the same thread become
/// children; a span opened with no enclosing span starts a new request.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }
  std::uint64_t request() const { return request_; }
  double start() const { return start_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  double start_ = 0.0;
};

/// Per-layer self time over every root span whose name is `root_name`:
/// a span's self time is its duration minus the part its children cover.
/// Returns the mean self milliseconds per root, by layer; the root's own
/// layer carries the time no layer span covers.
struct Ledger {
  std::size_t roots = 0;
  double root_ms = 0.0;  ///< mean root duration
  std::map<std::string, double> self_ms;
};
Ledger ComputeLedger(const std::vector<SpanRecord>& spans,
                     const std::string& root_name);

/// Durations (ms) of every span named `name`.
std::vector<double> SpanDurationsMs(const std::vector<SpanRecord>& spans,
                                    const std::string& name);

// --- load generation -------------------------------------------------------

/// Outcome of one timed window.
struct Window {
  std::vector<double> latencies_ms;  ///< successful requests only
  double seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One closed-loop client: calls `one(i)` for i = 0, 1, ... until
/// `seconds` have passed and at least `min_ok` requests succeeded (or the
/// request budget `max_requests` ran out). `one` returns the request's
/// latency in ms, or a negative value when it failed.
template <typename Fn>
Window ClosedLoop(double seconds, std::size_t min_ok, std::size_t max_requests,
                  const Fn& one) {
  Window w;
  const double t0 = Now();
  for (std::size_t i = 0; i < max_requests; ++i) {
    if (Now() - t0 >= seconds && w.latencies_ms.size() >= min_ok) break;
    ++w.attempted;
    const double latency_ms = one(i);
    if (latency_ms < 0.0) {
      ++w.failed;
    } else {
      w.latencies_ms.push_back(latency_ms);
    }
  }
  w.seconds = Now() - t0;
  return w;
}

// --- workloads -------------------------------------------------------------

int RunCountyAccurate(const Args& args, Report* report);
int RunTaxiAdhoc(const Args& args, Report* report);
int RunMapTraffic(const Args& args, Report* report);

/// Minimum successful samples per timed window, so that at least ten lie
/// beyond p90.
inline constexpr std::size_t kMinSamples = 100;

/// Quantile q of `values` (in send order) as the median of its quantiles
/// over up to five equal consecutive slices of at least kMinSamples each. A
/// stall of the shared host during one slice then moves that slice only.
double SlicedQuantile(const std::vector<double>& values, double q);

/// Threads the device may use next to the benchmark's own client thread:
/// the host's hardware threads minus one, at least one.
std::size_t DeviceWorkers();

}  // namespace perfbench
