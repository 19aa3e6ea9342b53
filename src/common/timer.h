/// \file timer.h
/// \brief Wall-clock timing utilities and named phase breakdowns.
///
/// The paper's figures 9/11/13 break query execution into phases
/// (host→device transfer, device processing, disk access). PhaseTimer
/// accumulates named durations so benches can print the same breakdown.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace rj {

/// Monotonic stopwatch with microsecond resolution.
class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates wall time into named phases; phases may repeat (out-of-core
/// batches accumulate transfer time across batches, for example).
class PhaseTimer {
 public:
  /// Adds `seconds` to phase `name`.
  void Add(const std::string& name, double seconds) {
    phases_[name] += seconds;
  }

  /// Adds every phase of `other`.
  void Add(const PhaseTimer& other) {
    for (const auto& [name, seconds] : other.phases_) phases_[name] += seconds;
  }

  /// Total seconds recorded in `name` (0 if never recorded).
  double Get(const std::string& name) const {
    auto it = phases_.find(name);
    return it == phases_.end() ? 0.0 : it->second;
  }

  /// Sum over all phases.
  double Total() const;

  void Clear() { phases_.clear(); }

  const std::map<std::string, double>& phases() const { return phases_; }

  /// "phase1=12.3ms phase2=4.5ms" rendering for bench output.
  std::string ToString() const;

 private:
  std::map<std::string, double> phases_;
};

/// RAII helper: adds the scope's elapsed time to a PhaseTimer phase.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimer* timer, std::string name)
      : timer_(timer), name_(std::move(name)) {}
  ~ScopedPhase() { timer_->Add(name_, stopwatch_.ElapsedSeconds()); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimer* timer_;
  std::string name_;
  Timer stopwatch_;
};

}  // namespace rj
