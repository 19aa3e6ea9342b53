#include "query/result_cache.h"

#include <algorithm>
#include <utility>

namespace rj::query {

bool CacheKey::operator==(const CacheKey& other) const {
  return dataset == other.dataset && version == other.version &&
         aggregate == other.aggregate && column == other.column &&
         filters == other.filters && variant == other.variant &&
         epsilon == other.epsilon && canvas_dim == other.canvas_dim &&
         with_result_ranges == other.with_result_ranges &&
         shard == other.shard;
}

std::size_t CacheKeyHash::operator()(const CacheKey& key) const {
  std::size_t seed = std::hash<std::uint64_t>{}(key.dataset);
  seed = detail::HashCombine(seed, std::hash<std::uint64_t>{}(key.version));
  seed = detail::HashCombine(
      seed, std::hash<int>{}(static_cast<int>(key.aggregate)));
  seed = detail::HashCombine(seed, std::hash<std::size_t>{}(key.column));
  for (const AttributeFilter& f : key.filters) {
    seed = detail::HashCombine(seed, std::hash<std::size_t>{}(f.column));
    seed = detail::HashCombine(seed, std::hash<int>{}(static_cast<int>(f.op)));
    seed = detail::HashCombine(seed, detail::HashFloatBits(f.value));
  }
  seed = detail::HashCombine(seed,
                             std::hash<int>{}(static_cast<int>(key.variant)));
  seed = detail::HashCombine(seed, detail::HashDoubleBits(key.epsilon));
  seed = detail::HashCombine(seed,
                             std::hash<std::int32_t>{}(key.canvas_dim));
  seed = detail::HashCombine(seed,
                             std::hash<bool>{}(key.with_result_ranges));
  seed = detail::HashCombine(seed, std::hash<std::size_t>{}(key.shard));
  return seed;
}

CacheKey MakeCacheKey(std::uint64_t dataset, std::uint64_t version,
                      const SpatialAggQuery& query,
                      JoinVariant resolved_variant) {
  CacheKey key;
  key.dataset = dataset;
  key.version = version;
  key.aggregate = query.aggregate;
  key.column = query.EffectiveAggregateColumn();
  key.filters = query.filters.Canonical();
  key.variant = resolved_variant;
  key.epsilon = query.epsilon;
  key.canvas_dim = query.accurate_canvas_dim;
  key.with_result_ranges = query.with_result_ranges;
  return key;
}

ResultCache::ResultCache(ResultCacheOptions options)
    : lru_(options.capacity_bytes, options.num_shards, &EntryBytes) {}

std::shared_ptr<const QueryResult> ResultCache::Lookup(const CacheKey& key) {
  return lru_.Lookup(key);
}

Result<std::shared_ptr<const QueryResult>> ResultCache::GetOrCompute(
    const CacheKey& key, const ComputeFn& compute, bool* was_hit,
    const std::function<bool()>& still_valid) {
  return lru_.GetOrCompute(key, compute, was_hit, still_valid);
}

void ResultCache::Insert(const CacheKey& key, QueryResult result) {
  lru_.Insert(key, std::make_shared<const QueryResult>(std::move(result)));
}

void ResultCache::Clear() { lru_.Clear(); }

std::size_t ResultCache::EntryBytes(const CacheKey& key,
                                    const QueryResult& result) {
  // Estimated resident footprint: the payload vectors dominate; fixed
  // struct/bookkeeping overhead (list node, two key copies, map slot) is
  // approximated by the sizeofs. Exactness is not required — the capacity
  // is a budget, not an allocator.
  std::size_t bytes =
      ShardedLru<CacheKey, QueryResult, CacheKeyHash>::kEntryOverhead +
      sizeof(CacheKey) + sizeof(QueryResult);
  bytes += 2 * key.filters.size() * sizeof(AttributeFilter);
  bytes += result.values.size() * sizeof(double);
  bytes += (result.arrays.count.size() + result.arrays.sum.size() +
            result.arrays.min.size() + result.arrays.max.size()) *
           sizeof(double);
  bytes += (result.ranges.loose.size() + result.ranges.expected.size()) *
           sizeof(ResultInterval);
  // Phase map nodes: name + double + red-black bookkeeping, ~64 B each.
  bytes += result.timing.phases().size() * 64;
  return bytes;
}

// ---------------------------------------------------------------------------
// PlanCache

namespace {
/// Maps stay tiny in practice (a handful of distinct variants/strides and
/// grants); the cap only guards against an adversarial grant sweep.
constexpr std::size_t kMaxPlanEntries = 1024;
}  // namespace

std::size_t PlanCache::AdmissionKeyHash::operator()(
    const AdmissionKey& k) const {
  std::size_t seed = std::hash<int>{}(static_cast<int>(k.variant));
  seed = detail::HashCombine(seed,
                             std::hash<std::size_t>{}(k.bytes_per_point));
  return detail::HashCombine(seed, std::hash<bool>{}(k.overlap));
}

std::size_t PlanCache::UploadKeyHash::operator()(const UploadKey& k) const {
  std::size_t seed = std::hash<std::size_t>{}(k.cap_bytes);
  seed = detail::HashCombine(seed,
                             std::hash<std::size_t>{}(k.bytes_per_point));
  seed = detail::HashCombine(seed, std::hash<std::size_t>{}(k.num_points));
  return detail::HashCombine(seed, std::hash<bool>{}(k.overlap));
}

Result<AdmissionPlan> PlanCache::GetAdmission(
    const AdmissionKey& key,
    const std::function<Result<AdmissionPlan>()>& compute) {
  {
    MutexLock lock(mutex_);
    auto it = admission_.find(key);
    if (it != admission_.end()) {
      ++stats_.admission_hits;
      return it->second;
    }
    ++stats_.admission_misses;
  }
  // Compute outside the lock; concurrent misses of the same key may both
  // compute, but the plan is a pure function of the key so the duplicates
  // store identical values. Errors are not cached.
  Result<AdmissionPlan> plan = compute();
  if (plan.ok()) {
    MutexLock lock(mutex_);
    if (admission_.size() >= kMaxPlanEntries) admission_.clear();
    admission_.emplace(key, plan.value());
  }
  return plan;
}

UploadPlan PlanCache::GetUpload(const UploadKey& key,
                                const std::function<UploadPlan()>& compute) {
  {
    MutexLock lock(mutex_);
    auto it = upload_.find(key);
    if (it != upload_.end()) {
      ++stats_.upload_hits;
      return it->second;
    }
    ++stats_.upload_misses;
  }
  const UploadPlan plan = compute();
  {
    MutexLock lock(mutex_);
    if (upload_.size() >= kMaxPlanEntries) upload_.clear();
    upload_.emplace(key, plan);
  }
  return plan;
}

void PlanCache::Clear() {
  MutexLock lock(mutex_);
  admission_.clear();
  upload_.clear();
}

PlanCacheStats PlanCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace rj::query
