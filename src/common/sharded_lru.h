/// \file sharded_lru.h
/// \brief Byte-budgeted, sharded-lock LRU with single-flight computation:
/// the one cache core behind query::ResultCache (finalized results) and
/// query::PolygonArtifacts (polygon-side join inputs).
///
///  * **sharded-lock LRU** — keys hash across N independently-locked
///    shards; each shard is byte-accounted against capacity / N and evicts
///    from its LRU tail. An entry larger than its shard's slice is returned
///    to the caller but never stored.
///  * **single-flight** — concurrent GetOrCompute calls for one key run
///    `compute` once: the first caller leads (with no cache lock held), the
///    rest wait on the in-flight entry and share the leader's value or
///    error. Errors are never stored.
///  * **admission** — what happens to a freshly computed value
///    (LruAdmission): kAlways stores it; kSecondRequest stores it only when
///    the key was requested before (a bounded doorkeeper set remembers lone
///    first requests) or a concurrent request joined the flight, so a key
///    asked for once costs exactly one computation and retains nothing;
///    kPinned stores it outside the LRU and the byte budget until Erase /
///    EraseIf / Clear.
///
/// Values are handed out as shared_ptr<const Value>; a caller's pin keeps
/// a value alive after its entry is evicted. Thread-safe throughout.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace rj {

/// What GetOrCompute does with a value its leader computed.
enum class LruAdmission {
  kAlways,         ///< store (budget permitting)
  kSecondRequest,  ///< store only on the key's second request
  kPinned,         ///< store outside the LRU and the budget
};

/// Point-in-time counters (monotone except the entry/byte gauges).
struct CacheStats {
  std::uint64_t hits = 0;            ///< served from a stored entry
  std::uint64_t misses = 0;          ///< leader computations
  std::uint64_t inserts = 0;         ///< entries stored (LRU and pinned)
  std::uint64_t evictions = 0;       ///< LRU/capacity/Clear removals
  std::uint64_t shared_flights = 0;  ///< followers that waited on a leader
  std::size_t entries = 0;           ///< LRU entries resident
  std::size_t bytes_used = 0;        ///< estimated LRU bytes resident
  std::size_t pinned_entries = 0;    ///< kPinned entries resident
  std::size_t pinned_bytes = 0;      ///< estimated kPinned bytes resident
  std::size_t capacity_bytes = 0;
};

template <typename Key, typename Value, typename Hash>
class ShardedLru {
 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
    std::size_t bytes = 0;
  };

 public:
  using ComputeFn = std::function<Result<Value>()>;
  /// Estimated resident bytes of one entry — the unit of the budget.
  using SizeFn = std::function<std::size_t(const Key&, const Value&)>;

  /// Fixed per-entry bookkeeping (list node payload), for SizeFn estimates.
  static constexpr std::size_t kEntryOverhead = sizeof(Entry);

  ShardedLru(std::size_t capacity_bytes, std::size_t num_shards,
             SizeFn size_of)
      : capacity_bytes_(capacity_bytes), size_of_(std::move(size_of)) {
    num_shards = num_shards == 0 ? 1 : num_shards;
    per_shard_capacity_ = capacity_bytes / num_shards;
    shards_.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// The stored value (LRU-touched) or nullptr. Counts a hit or a miss;
  /// never joins or starts a computation.
  [[nodiscard]] std::shared_ptr<const Value> Lookup(const Key& key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mutex);
    std::shared_ptr<const Value> found = FindLocked(shard, key);
    if (found == nullptr) {
      ++shard.misses;
    } else {
      ++shard.hits;
    }
    return found;
  }

  /// Single-flight get-or-compute (see the file comment). `*was_hit`
  /// (optional) reports whether this caller avoided computing (stored hit
  /// or follower). `still_valid` (optional) is re-checked by the leader
  /// after computing: when false the value is returned and shared with the
  /// followers but not stored.
  [[nodiscard]] Result<std::shared_ptr<const Value>> GetOrCompute(
      const Key& key, const ComputeFn& compute, bool* was_hit = nullptr,
      const std::function<bool()>& still_valid = nullptr,
      LruAdmission admission = LruAdmission::kAlways) {
    Shard& shard = ShardFor(key);
    std::shared_ptr<InFlight> flight;
    bool leader = false;
    {
      MutexLock lock(shard.mutex);
      if (std::shared_ptr<const Value> found = FindLocked(shard, key)) {
        ++shard.hits;
        if (was_hit != nullptr) *was_hit = true;
        return found;
      }
      auto fit = shard.inflight.find(key);
      if (fit != shard.inflight.end()) {
        flight = fit->second.state;
        fit->second.requested_again = true;
        ++shard.shared_flights;
      } else {
        bool seen_before = false;
        if (admission == LruAdmission::kSecondRequest) {
          seen_before = shard.seen.erase(key) > 0;
          if (!seen_before) {
            if (shard.seen.size() >= kMaxSeenPerShard) shard.seen.clear();
            shard.seen.insert(key);
          }
        }
        flight = std::make_shared<InFlight>();
        shard.inflight.emplace(key, Flight{flight, seen_before});
        leader = true;
        ++shard.misses;
      }
    }

    if (!leader) {
      MutexLock lock(flight->mutex);
      while (!flight->done) flight->cv.Wait(lock);
      if (was_hit != nullptr) *was_hit = true;
      if (!flight->error.ok()) return flight->error;
      return flight->value;
    }

    Result<Value> computed = compute();
    std::shared_ptr<const Value> value;
    if (computed.ok()) {
      value = std::make_shared<const Value>(
          std::move(computed).MoveValueUnsafe());
    }
    const bool publishable =
        value != nullptr && (still_valid == nullptr || still_valid());
    {
      MutexLock lock(shard.mutex);
      auto fit = shard.inflight.find(key);
      const bool retain = admission != LruAdmission::kSecondRequest ||
                          fit->second.requested_again;
      shard.inflight.erase(fit);
      if (publishable && retain) {
        if (admission == LruAdmission::kSecondRequest) shard.seen.erase(key);
        InsertLocked(shard, key, value,
                     admission == LruAdmission::kPinned);
      }
    }
    {
      MutexLock lock(flight->mutex);
      flight->done = true;
      if (value != nullptr) {
        flight->value = value;
      } else {
        flight->error = computed.status();
      }
    }
    flight->cv.NotifyAll();
    if (was_hit != nullptr) *was_hit = false;
    if (value == nullptr) return computed.status();
    return value;
  }

  /// Stores `value` under `key` in the LRU (replacing any entry).
  void Insert(const Key& key, std::shared_ptr<const Value> value) {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mutex);
    InsertLocked(shard, key, std::move(value), /*pinned=*/false);
  }

  /// Drops every stored entry, pinned or not, and every doorkeeper mark
  /// whose key satisfies `pred`. Callers guarantee no computation for such
  /// a key is in flight (its leader would store after the sweep).
  template <typename Pred>
  void EraseIf(const Pred& pred) {
    for (const std::unique_ptr<Shard>& shard : shards_) {
      MutexLock lock(shard->mutex);
      for (auto it = shard->lru.begin(); it != shard->lru.end();) {
        if (!pred(it->key)) {
          ++it;
          continue;
        }
        shard->bytes -= it->bytes;
        shard->entries.erase(it->key);
        it = shard->lru.erase(it);
        ++shard->evictions;
      }
      for (auto it = shard->pinned.begin(); it != shard->pinned.end();) {
        if (pred(it->first)) {
          shard->pinned_bytes -= it->second.bytes;
          it = shard->pinned.erase(it);
          ++shard->evictions;
        } else {
          ++it;
        }
      }
      for (auto it = shard->seen.begin(); it != shard->seen.end();) {
        it = pred(*it) ? shard->seen.erase(it) : std::next(it);
      }
    }
  }

  /// Drops every stored entry (in-flight computations are unaffected).
  void Clear() {
    EraseIf([](const Key&) { return true; });
  }

  CacheStats stats() const {
    CacheStats out;
    out.capacity_bytes = capacity_bytes_;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      MutexLock lock(shard->mutex);
      out.hits += shard->hits;
      out.misses += shard->misses;
      out.inserts += shard->inserts;
      out.evictions += shard->evictions;
      out.shared_flights += shard->shared_flights;
      out.entries += shard->entries.size();
      out.bytes_used += shard->bytes;
      out.pinned_entries += shard->pinned.size();
      out.pinned_bytes += shard->pinned_bytes;
    }
    return out;
  }

  std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  /// Doorkeeper bound: a flood of one-shot keys clears the set instead of
  /// growing it (the cost is one extra computation for a forgotten key).
  static constexpr std::size_t kMaxSeenPerShard = 4096;

  /// One in-flight computation; followers block on `cv` until the leader
  /// publishes. `mutex` is strictly below the owning shard's mutex in the
  /// hierarchy — the leader publishes under it only after dropping the
  /// shard's.
  struct InFlight {
    Mutex mutex;
    CondVar cv;
    bool done RJ_GUARDED_BY(mutex) = false;
    Status error RJ_GUARDED_BY(mutex) = Status::OK();
    std::shared_ptr<const Value> value RJ_GUARDED_BY(mutex);
  };

  /// Shard-side view of a flight: whether a second request for the key
  /// arrived (before it, or while it ran) — the kSecondRequest trigger.
  struct Flight {
    std::shared_ptr<InFlight> state;
    bool requested_again = false;
  };

  struct Pinned {
    std::shared_ptr<const Value> value;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable Mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru RJ_GUARDED_BY(mutex);
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash>
        entries RJ_GUARDED_BY(mutex);
    std::unordered_map<Key, Pinned, Hash> pinned RJ_GUARDED_BY(mutex);
    std::unordered_map<Key, Flight, Hash> inflight RJ_GUARDED_BY(mutex);
    std::unordered_set<Key, Hash> seen RJ_GUARDED_BY(mutex);
    std::size_t bytes RJ_GUARDED_BY(mutex) = 0;
    std::size_t pinned_bytes RJ_GUARDED_BY(mutex) = 0;
    std::uint64_t hits RJ_GUARDED_BY(mutex) = 0;
    std::uint64_t misses RJ_GUARDED_BY(mutex) = 0;
    std::uint64_t inserts RJ_GUARDED_BY(mutex) = 0;
    std::uint64_t evictions RJ_GUARDED_BY(mutex) = 0;
    std::uint64_t shared_flights RJ_GUARDED_BY(mutex) = 0;
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[Hash{}(key) % shards_.size()];
  }

  /// Stored value (LRU-touched) or nullptr; counts nothing.
  std::shared_ptr<const Value> FindLocked(Shard& shard, const Key& key)
      RJ_REQUIRES(shard.mutex) {
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->value;
    }
    auto pit = shard.pinned.find(key);
    return pit == shard.pinned.end() ? nullptr : pit->second.value;
  }

  /// Stores under shard.mutex; an LRU insert evicts from the tail until the
  /// shard fits its capacity slice again.
  void InsertLocked(Shard& shard, const Key& key,
                    std::shared_ptr<const Value> value, bool pinned)
      RJ_REQUIRES(shard.mutex) {
    const std::size_t bytes = size_of_(key, *value);
    if (pinned) {
      Pinned& slot = shard.pinned[key];
      shard.pinned_bytes = shard.pinned_bytes - slot.bytes + bytes;
      slot = Pinned{std::move(value), bytes};
      ++shard.inserts;
      return;
    }
    if (bytes > per_shard_capacity_) return;  // would evict the whole shard
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      shard.bytes -= it->second->bytes;
      shard.lru.erase(it->second);
      shard.entries.erase(it);
    }
    shard.lru.push_front(Entry{key, std::move(value), bytes});
    shard.entries.emplace(key, shard.lru.begin());
    shard.bytes += bytes;
    ++shard.inserts;
    while (shard.bytes > per_shard_capacity_ && !shard.lru.empty()) {
      const Entry& tail = shard.lru.back();
      shard.bytes -= tail.bytes;
      shard.entries.erase(tail.key);
      shard.lru.pop_back();
      ++shard.evictions;
    }
  }

  std::size_t capacity_bytes_;
  std::size_t per_shard_capacity_ = 0;
  SizeFn size_of_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rj
