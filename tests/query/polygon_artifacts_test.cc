/// \file polygon_artifacts_test.cc
/// \brief The polygon-side artifact cache (query::PolygonArtifacts): cold
/// and warm accurate executions are bitwise equal on every path (solo,
/// fused, sharded 1–4 shards); one-shot executors retain nothing; retained
/// bytes honor the budget; an executor's destructor releases its bytes;
/// concurrent first queries share their builds; cold builds show in the
/// phase ledger; oversize accurate canvases are rejected up front.
///
/// Executors always use PolygonArtifacts::Shared(), so executor-level
/// checks read its stats as deltas; the budget is exercised on standalone
/// caches driven directly.
#include "query/polygon_artifacts.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "data/sharded_table.h"
#include "gpu/device_pool.h"
#include "join/join_common.h"
#include "join/raster_join_accurate.h"
#include "query/executor.h"

namespace rj {
namespace {

constexpr std::int32_t kFboDim = 1024;
constexpr std::int32_t kCanvas = 256;

struct Scene {
  PolygonSet polys;
  PointTable points;
};

Scene MakeScene(std::size_t num_polys, std::size_t num_points,
                std::uint64_t seed) {
  Scene s;
  auto polys = TinyRegions(num_polys, BBox(0, 0, 1000, 1000), seed);
  EXPECT_TRUE(polys.ok());
  s.polys = polys.value();
  Rng rng(seed * 977 + 3);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    // Integer-valued weights: sums are exact under any merge order.
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return s;
}

gpu::DeviceOptions DevOptions(std::size_t workers = 1) {
  gpu::DeviceOptions options;
  options.max_fbo_dim = kFboDim;
  options.memory_budget_bytes = 32u << 20;
  options.num_workers = workers;
  return options;
}

SpatialAggQuery Accurate(AggregateKind aggregate = AggregateKind::kSum,
                         std::int32_t canvas = kCanvas) {
  SpatialAggQuery q;
  q.variant = JoinVariant::kAccurateRaster;
  q.accurate_canvas_dim = canvas;
  q.aggregate = aggregate;
  if (aggregate != AggregateKind::kCount) q.aggregate_column = 0;
  return q;
}

void ExpectArraysEqual(const raster::ResultArrays& a,
                       const raster::ResultArrays& b) {
  ASSERT_EQ(a.count.size(), b.count.size());
  for (std::size_t i = 0; i < a.count.size(); ++i) {
    EXPECT_EQ(a.count[i], b.count[i]) << "count slot " << i;
    EXPECT_EQ(a.sum[i], b.sum[i]) << "sum slot " << i;
    EXPECT_EQ(a.min[i], b.min[i]) << "min slot " << i;
    EXPECT_EQ(a.max[i], b.max[i]) << "max slot " << i;
  }
}

void ExpectBitwiseEqual(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    if (!(std::isnan(a.values[i]) && std::isnan(b.values[i]))) {
      EXPECT_EQ(a.values[i], b.values[i]) << "value slot " << i;
    }
  }
  ExpectArraysEqual(a.arrays, b.arrays);
}

query::PolygonArtifacts& Shared() { return query::PolygonArtifacts::Shared(); }

QueryResult Exec(Executor* executor, const SpatialAggQuery& q) {
  auto r = executor->ExecuteUncached(q);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).MoveValueUnsafe() : QueryResult();
}

std::vector<QueryResult> ExecFused(Executor* executor,
                                  const std::vector<SpatialAggQuery>& group) {
  auto r = executor->ExecuteFused(group);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).MoveValueUnsafe() : std::vector<QueryResult>();
}

/// A fresh executor (a fresh artifact scope) for every reference run:
/// always cold.
QueryResult ColdReference(const Scene& s, const SpatialAggQuery& q) {
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  return Exec(&executor, q);
}

/// The accurate SUM join over the polygon side `cache` hands out for
/// `scope` at canvas `dim` — the reads an Executor makes, without one.
raster::ResultArrays JoinFromCache(query::PolygonArtifacts* cache,
                                   std::uint64_t scope, gpu::Device* device,
                                   const Scene& s, const BBox& world,
                                   std::int32_t dim) {
  auto soup = cache->Triangulation(scope, s.polys, nullptr);
  auto boundary = cache->Boundary(scope, device, s.polys, world, dim, nullptr);
  auto index = cache->Index(scope, s.polys, world, kAccurateIndexResolution,
                            GridAssignMode::kMbr, nullptr);
  EXPECT_TRUE(soup.ok() && boundary.ok() && index.ok());
  if (!soup.ok() || !boundary.ok() || !index.ok()) {
    return raster::ResultArrays(0);
  }
  AccurateRasterJoinOptions options;
  options.weight_column = 0;
  auto joined =
      AccurateRasterJoin(device, s.points, s.polys, *soup.value(),
                         {boundary.value().get(), index.value().get()}, world,
                         options);
  EXPECT_TRUE(joined.ok()) << joined.status().ToString();
  return joined.ok() ? joined.value().arrays : raster::ResultArrays(0);
}

TEST(PolygonArtifactsTest, ColdAndWarmSoloAndFusedAreBitwiseEqual) {
  const Scene s = MakeScene(12, 20000, 7);
  const SpatialAggQuery sum = Accurate(AggregateKind::kSum);
  const SpatialAggQuery max = Accurate(AggregateKind::kMax);
  const QueryResult reference = ColdReference(s, sum);

  gpu::Device device(DevOptions(2));
  Executor executor(&device, &s.points, &s.polys);
  const std::size_t base_bytes = Shared().stats().bytes_used;
  // First request builds and drops, second builds and retains, third hits.
  const QueryResult first = Exec(&executor, sum);
  EXPECT_EQ(Shared().stats().bytes_used, base_bytes);
  const QueryResult second = Exec(&executor, sum);
  EXPECT_GT(Shared().stats().bytes_used, base_bytes);
  const std::uint64_t builds = Shared().stats().misses;
  const QueryResult warm = Exec(&executor, sum);
  EXPECT_EQ(Shared().stats().misses, builds) << "a warm query rebuilt";
  for (const QueryResult* r : {&first, &second, &warm}) {
    ExpectBitwiseEqual(reference, *r);
  }

  // A warm fusion group equals each member's cold solo run.
  const std::vector<QueryResult> fused = ExecFused(&executor, {sum, max});
  ASSERT_EQ(fused.size(), 2u);
  EXPECT_EQ(Shared().stats().misses, builds);
  ExpectBitwiseEqual(reference, fused[0]);
  ExpectBitwiseEqual(ColdReference(s, max), fused[1]);
}

TEST(PolygonArtifactsTest, ColdFusedGroupEqualsSoloRuns) {
  const Scene s = MakeScene(10, 15000, 8);
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  const std::size_t base_bytes = Shared().stats().bytes_used;
  const std::vector<SpatialAggQuery> group = {
      Accurate(AggregateKind::kCount), Accurate(AggregateKind::kAverage),
      Accurate(AggregateKind::kMin)};
  const std::vector<QueryResult> fused = ExecFused(&executor, group);
  ASSERT_EQ(fused.size(), group.size());
  // The group pins its artifacts once: a lone first request retains nothing.
  EXPECT_EQ(Shared().stats().bytes_used, base_bytes);
  for (std::size_t i = 0; i < group.size(); ++i) {
    ExpectBitwiseEqual(ColdReference(s, group[i]), fused[i]);
  }
}

TEST(PolygonArtifactsTest, ShardedColdAndWarmMatchSingleDevice) {
  const Scene s = MakeScene(12, 20000, 9);
  const SpatialAggQuery sum = Accurate(AggregateKind::kSum);
  const SpatialAggQuery count = Accurate(AggregateKind::kCount);
  const QueryResult sum_ref = ColdReference(s, sum);
  const QueryResult count_ref = ColdReference(s, count);

  for (const std::size_t shards : {1, 2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << shards << " shards");
    data::ShardingOptions sharding;
    sharding.num_shards = shards;
    sharding.policy = data::ShardPolicy::kHilbert;
    auto table = data::ShardedTable::Partition(s.points, sharding);
    ASSERT_TRUE(table.ok());
    gpu::DevicePoolOptions pool_options;
    pool_options.num_devices = std::min<std::size_t>(shards, 2);
    pool_options.device = DevOptions(2);
    gpu::DevicePool pool(pool_options);
    Executor executor(&pool, &table.value(), &s.polys);

    for (int round = 0; round < 3; ++round) {
      ExpectBitwiseEqual(sum_ref, Exec(&executor, sum));
    }
    // Every shard read one boundary canvas: one retained, none rebuilt.
    const std::uint64_t builds = Shared().stats().misses;
    const std::vector<QueryResult> fused = ExecFused(&executor, {sum, count});
    ASSERT_EQ(fused.size(), 2u);
    EXPECT_EQ(Shared().stats().misses, builds);
    ExpectBitwiseEqual(sum_ref, fused[0]);
    ExpectBitwiseEqual(count_ref, fused[1]);
  }
}

TEST(PolygonArtifactsTest, OneShotExecutorRetainsNoEvictableBytes) {
  const Scene s = MakeScene(8, 5000, 10);
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  const CacheStats before = Shared().stats();
  Exec(&executor, Accurate());
  const CacheStats after = Shared().stats();
  EXPECT_EQ(after.bytes_used, before.bytes_used);
  EXPECT_EQ(after.entries, before.entries);
  // Only the triangulation stays (pinned, as it always was).
  EXPECT_EQ(after.pinned_entries, before.pinned_entries + 1);
}

TEST(PolygonArtifactsTest, AccurateAndIndexDeviceShareOneMbrIndex) {
  const Scene s = MakeScene(8, 5000, 11);
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  Exec(&executor, Accurate());
  Exec(&executor, Accurate());  // retains the canvas and the MBR index
  const std::uint64_t builds = Shared().stats().misses;
  SpatialAggQuery index_device;
  index_device.variant = JoinVariant::kIndexDevice;
  Exec(&executor, index_device);
  EXPECT_EQ(Shared().stats().misses, builds);
}

TEST(PolygonArtifactsTest, TinyBudgetBoundsRetainedBytesAndKeepsResults) {
  const Scene s = MakeScene(10, 10000, 12);
  gpu::Device device(DevOptions());
  // The reference executor supplies the world and each dim's cold result.
  Executor reference_executor(&device, &s.points, &s.polys);
  const BBox& world = reference_executor.world();
  std::vector<QueryResult> references;
  for (const std::int32_t dim : {256, 128, 192}) {
    references.push_back(ColdReference(s, Accurate(AggregateKind::kSum, dim)));
  }
  const auto reference_for = [&](std::int32_t dim) -> const QueryResult& {
    return references[dim == 256 ? 0 : dim == 128 ? 1 : 2];
  };

  // Room for a 256² canvas (1 MiB) but not a second one, nor any 1024²
  // grid index (8 MiB of offsets).
  const std::size_t budget = (1u << 20) + (256u << 10);
  query::PolygonArtifacts cache(budget);
  const std::uint64_t scope = query::PolygonArtifacts::NewScope();
  const std::int32_t canvases[] = {256, 128, 256, 192, 128, 256, 192, 256};
  for (int round = 0; round < 2; ++round) {
    for (const std::int32_t dim : canvases) {
      SCOPED_TRACE(::testing::Message() << "dim " << dim);
      ExpectArraysEqual(reference_for(dim).arrays,
                        JoinFromCache(&cache, scope, &device, s, world, dim));
      EXPECT_LE(cache.stats().bytes_used, budget);
    }
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  cache.DropScope(scope);

  // A zero budget retains nothing and changes nothing.
  query::PolygonArtifacts none(0);
  const std::uint64_t none_scope = query::PolygonArtifacts::NewScope();
  for (int round = 0; round < 3; ++round) {
    ExpectArraysEqual(reference_for(256).arrays,
                      JoinFromCache(&none, none_scope, &device, s, world, 256));
  }
  EXPECT_EQ(none.stats().bytes_used, 0u);
  EXPECT_EQ(none.stats().entries, 0u);
  none.DropScope(none_scope);
}

TEST(PolygonArtifactsTest, DropScopeReleasesOnlyThatScope) {
  const Scene s = MakeScene(8, 5000, 13);
  gpu::Device device(DevOptions());
  Executor reference_executor(&device, &s.points, &s.polys);
  const BBox& world = reference_executor.world();
  query::PolygonArtifacts cache(64u << 20);
  const std::uint64_t a = query::PolygonArtifacts::NewScope();
  const std::uint64_t b = query::PolygonArtifacts::NewScope();
  for (int request = 0; request < 2; ++request) {
    JoinFromCache(&cache, a, &device, s, world, kCanvas);
    JoinFromCache(&cache, b, &device, s, world, kCanvas);
  }
  const CacheStats both = cache.stats();
  EXPECT_EQ(both.entries, 4u);  // canvas + MBR index per scope
  EXPECT_EQ(both.pinned_entries, 2u);
  cache.DropScope(a);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().pinned_entries, 1u);
  EXPECT_EQ(cache.stats().bytes_used * 2, both.bytes_used);
  cache.DropScope(b);
  EXPECT_EQ(cache.stats().bytes_used, 0u);
  EXPECT_EQ(cache.stats().pinned_bytes, 0u);
}

TEST(PolygonArtifactsTest, DestroyingAnExecutorReleasesItsBytes) {
  const Scene s = MakeScene(8, 5000, 13);
  gpu::Device device(DevOptions());
  const CacheStats before = Shared().stats();
  {
    Executor executor(&device, &s.points, &s.polys);
    Exec(&executor, Accurate());
    Exec(&executor, Accurate());
    EXPECT_GT(Shared().stats().bytes_used, before.bytes_used);
    EXPECT_GT(Shared().stats().pinned_bytes, before.pinned_bytes);
  }
  const CacheStats after = Shared().stats();
  EXPECT_EQ(after.bytes_used, before.bytes_used);
  EXPECT_EQ(after.pinned_bytes, before.pinned_bytes);
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.pinned_entries, before.pinned_entries);
}

TEST(PolygonArtifactsTest, TwoExecutorsOverOnePolygonSetShareNothing) {
  const Scene s = MakeScene(8, 5000, 14);
  gpu::Device device(DevOptions());
  Executor a(&device, &s.points, &s.polys);
  Executor b(&device, &s.points, &s.polys);
  Exec(&a, Accurate());
  Exec(&a, Accurate());
  // b's first query does b's own cold work: equal counters to a's first.
  const gpu::CountersSnapshot before = device.counters().Snapshot();
  const std::uint64_t builds = Shared().stats().misses;
  Exec(&b, Accurate());
  EXPECT_GT(device.counters().Snapshot().DeltaSince(before).fragments, 0u);
  EXPECT_EQ(Shared().stats().misses, builds + 3);  // soup, canvas, index
}

/// N threads issue their first query at once. The triangulation is built
/// once (pinned single-flight). A boundary canvas or index is built once
/// when every thread joins its flight and at most twice when a thread
/// arrives after the first build finished (that request is the key's
/// second, so it retains); either way both end up retained and the next
/// query builds nothing. The single-flight core itself is checked without
/// timing dependence in tests/common/sharded_lru_test.cc. Runs under the
/// TSan job with the rest of this suite.
TEST(PolygonArtifactsTest, ConcurrentFirstQueriesShareTheirBuilds) {
  const Scene s = MakeScene(300, 20000, 15);
  const SpatialAggQuery q = Accurate(AggregateKind::kSum, kFboDim);
  const QueryResult reference = ColdReference(s, q);
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  const CacheStats before = Shared().stats();

  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> ready{0};
  std::vector<QueryResult> results(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      results[t] = Exec(&executor, q);
    });
  }
  for (std::thread& t : threads) t.join();

  const CacheStats after = Shared().stats();
  EXPECT_EQ(after.pinned_entries, before.pinned_entries + 1);
  EXPECT_GE(after.misses - before.misses, 3u);
  EXPECT_LE(after.misses - before.misses, 5u);
  EXPECT_EQ(after.entries, before.entries + 2) << "boundary canvas, MBR index";
  for (const QueryResult& r : results) ExpectBitwiseEqual(reference, r);
  Exec(&executor, q);
  EXPECT_EQ(Shared().stats().misses, after.misses);
}

TEST(PolygonArtifactsTest, ColdBuildsShowInThePhaseLedger) {
  const Scene s = MakeScene(10, 10000, 16);
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);

  const QueryResult cold = Exec(&executor, Accurate());
  EXPECT_GT(cold.timing.Get(phase::kBoundary), 0.0);
  EXPECT_GT(cold.timing.Get(phase::kIndexBuild), 0.0);
  EXPECT_GT(cold.timing.Get(phase::kTriangulation), 0.0);
  Exec(&executor, Accurate());  // retains
  const QueryResult warm = Exec(&executor, Accurate());
  EXPECT_EQ(warm.timing.Get(phase::kBoundary), 0.0);
  EXPECT_EQ(warm.timing.Get(phase::kIndexBuild), 0.0);
  EXPECT_EQ(warm.timing.Get(phase::kTriangulation), 0.0);
}

TEST(PolygonArtifactsTest, OversizeAccurateCanvasIsRejectedBeforeAnyWork) {
  const Scene s = MakeScene(4, 1000, 17);
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  const std::uint64_t builds = Shared().stats().misses;

  const SpatialAggQuery huge = Accurate(AggregateKind::kCount, 40000);
  auto solo = executor.Execute(huge);
  ASSERT_FALSE(solo.ok());
  EXPECT_EQ(solo.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(solo.status().ToString().find("max_fbo_dim"), std::string::npos)
      << solo.status().ToString();
  // A fusion group is checked whole — every member's canvas bound and the
  // members' shared canvas — before its first member pins anything.
  const SpatialAggQuery fine = Accurate(AggregateKind::kCount, kCanvas);
  const std::vector<std::vector<SpatialAggQuery>> bad_groups = {
      {huge, huge},
      {fine, huge},
      {fine, Accurate(AggregateKind::kSum, 2 * kCanvas)},
  };
  for (const std::vector<SpatialAggQuery>& group : bad_groups) {
    auto fused = executor.ExecuteFused(group);
    ASSERT_FALSE(fused.ok());
    EXPECT_EQ(fused.status().code(), StatusCode::kInvalidArgument);
  }
  // Nothing was drawn, built or keyed.
  EXPECT_EQ(device.counters().Snapshot().fragments, 0u);
  EXPECT_EQ(Shared().stats().misses, builds);

  // The device limit itself is fine.
  EXPECT_TRUE(executor.Execute(Accurate(AggregateKind::kCount, kFboDim)).ok());
}

TEST(PolygonArtifactsTest, OversizeCanvasIsRejectedOnShardedExecutors) {
  const Scene s = MakeScene(4, 1000, 18);
  data::ShardingOptions sharding;
  sharding.num_shards = 2;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 2;
  pool_options.device = DevOptions();
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);
  auto r = executor.Execute(Accurate(AggregateKind::kCount, 40000));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rj
