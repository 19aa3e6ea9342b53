#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "agg/merge_partials.h"
#include "join/fused_join.h"
#include "join/index_join.h"
#include "join/raster_join_accurate.h"
#include "join/raster_join_bounded.h"
#include "query/polygon_artifacts.h"
#include "query/result_cache.h"
#include "raster/viewport.h"

namespace rj {

namespace {

/// Batch size + effective overlap that keep the upload pipeline's
/// in-flight VBOs (two when transfers overlap the draw) within `cap` —
/// the query's admission grant. A cap too small to double-buffer
/// downgrades to the serialized path instead of overshooting the grant.
/// batch_size 0 = no cap requested (the join derives its own plan).
UploadPlan CappedBatch(std::size_t cap_bytes, std::size_t bytes_per_point,
                       std::size_t num_points, bool overlap_transfers) {
  if (cap_bytes == 0 || bytes_per_point == 0) {
    return UploadPlan{0, overlap_transfers};
  }
  return PlanUpload(cap_bytes, bytes_per_point, num_points,
                    overlap_transfers);
}

/// Pixel-wise accumulation of one shard's point FBO into the gather
/// canvas, channel-appropriately: count/sum add, min/max blend. Because
/// every channel's per-shard partial is exactly representable in the
/// integer-weight regime, the accumulated FBO is bitwise identical to the
/// one a single device would have produced from the whole point stream.
void AccumulateFbo(raster::Fbo* dst, const raster::Fbo& src) {
  std::vector<float>& d = dst->mutable_data();
  const std::vector<float>& s = src.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    switch (static_cast<int>(i % raster::kChannels)) {
      case raster::kChannelMin:
        d[i] = std::min(d[i], s[i]);
        break;
      case raster::kChannelMax:
        d[i] = std::max(d[i], s[i]);
        break;
      default:  // kChannelCount, kChannelSum
        d[i] += s[i];
        break;
    }
  }
}

/// Per-member half of a fusion group, derived from the queries. The §5
/// range request is honored for the bounded variant only — the same wiring
/// as RunVariant, where only BoundedRasterJoin takes ranges_out.
std::vector<FusedMemberSpec> FusedMembers(
    const std::vector<SpatialAggQuery>& queries, JoinVariant variant) {
  std::vector<FusedMemberSpec> members(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    members[i].weight_column = queries[i].EffectiveAggregateColumn();
    members[i].filters = queries[i].filters;
    members[i].compute_result_ranges =
        queries[i].with_result_ranges &&
        variant == JoinVariant::kBoundedRaster;
  }
  return members;
}

}  // namespace

void AssignSequentialIds(PolygonSet* polys) {
  for (std::size_t i = 0; i < polys->size(); ++i) {
    (*polys)[i].set_id(static_cast<std::int64_t>(i));
  }
}

void Executor::InitWorldAndCosts(const BBox& points_extent,
                                 std::size_t num_points) {
  world_ = ComputeExtent(*polys_);
  world_.Expand(points_extent);
  // Inflate a hair so max-coordinate points land inside the last pixel
  // rather than exactly on the canvas edge.
  const double pad =
      1e-9 * std::max(1.0, std::max(world_.Width(), world_.Height()));
  world_ = world_.Inflated(pad);

  // Cost-model inputs depend only on the (immutable) datasets and device,
  // so the O(total vertices) scan runs once here instead of per kAuto
  // query — ResolveVariant is on the per-query dispatch path twice
  // (admission planning and execution).
  cost_inputs_.num_points = num_points;
  cost_inputs_.num_polygons = polys_->size();
  cost_inputs_.total_polygon_vertices = TotalVertices(*polys_);
  cost_inputs_.world = world_;
  for (const Polygon& poly : *polys_) {
    cost_inputs_.total_perimeter += poly.OuterPerimeter();
  }
  cost_inputs_.max_fbo_dim = device_->options().max_fbo_dim;
}

Executor::Executor(gpu::Device* device, const PointTable* points,
                   const PolygonSet* polys)
    : device_(device), points_(points), polys_(polys),
      plan_cache_(std::make_unique<query::PlanCache>()),
      artifact_scope_(query::PolygonArtifacts::NewScope()) {
  InitWorldAndCosts(points->Extent(), points->size());
}

Executor::Executor(gpu::Device* device, const data::PointBlockSource* source,
                   const PolygonSet* polys)
    : device_(device), points_(nullptr), source_(source), polys_(polys),
      plan_cache_(std::make_unique<query::PlanCache>()),
      artifact_scope_(query::PolygonArtifacts::NewScope()) {
  // The source's extent is part of its header/metadata (O(1)), so the
  // registration-time cost here is the polygon scan only — no block reads.
  InitWorldAndCosts(source->extent(),
                    static_cast<std::size_t>(source->num_rows()));
}

Executor::Executor(gpu::DevicePool* pool, const data::ShardedTable* shards,
                   const PolygonSet* polys)
    : device_(pool->primary()), pool_(pool), shards_(shards),
      points_(nullptr), polys_(polys),
      plan_cache_(std::make_unique<query::PlanCache>()),
      artifact_scope_(query::PolygonArtifacts::NewScope()) {
  // The sharded world must equal the single-device world for the same
  // dataset — shards_->extent() is the *whole* dataset's extent, so the
  // canvas (and every rasterized pixel) lines up bitwise with an unsharded
  // run.
  InitWorldAndCosts(shards->extent(), shards->total_points());
}

Executor::~Executor() {
  query::PolygonArtifacts::Shared().DropScope(artifact_scope_);
}

query::PlanCacheStats Executor::plan_cache_stats() const {
  return plan_cache_->stats();
}

void Executor::BumpDatasetVersion() {
  dataset_version_.fetch_add(1, std::memory_order_acq_rel);
  // The dataset changed, so memoized plans may be stale too: full_bytes
  // derives from the point count, and serving an old full-working-set
  // figure would mis-size grants for every future query of that shape.
  plan_cache_->Clear();
}

std::vector<std::size_t> Executor::ShardsPerDevice() const {
  if (!sharded()) return {1};
  std::vector<std::size_t> hosted(pool_->size(), 0);
  for (std::size_t s = 0; s < shards_->num_shards(); ++s) {
    ++hosted[s % pool_->size()];
  }
  return hosted;
}

Result<const TriangleSoup*> Executor::GetTriangulation() {
  RJ_ASSIGN_OR_RETURN(std::shared_ptr<const TriangleSoup> soup,
                      query::PolygonArtifacts::Shared().Triangulation(
                          artifact_scope_, *polys_, /*timing=*/nullptr));
  // Pinned in the cache until this executor's destructor drops its scope.
  return soup.get();
}

Status Executor::WarmArtifacts(const SpatialAggQuery& query) {
  // Evictable artifacts are retained on their key's second request.
  for (int request = 0; request < 2; ++request) {
    RJ_RETURN_NOT_OK(PrepareQuery(query).status());
  }
  return Status::OK();
}

void Executor::SetShardReplicas(std::vector<std::vector<std::size_t>> replicas) {
  MutexLock lock(replica_mutex_);
  shard_replicas_ = std::move(replicas);
}

std::vector<std::vector<std::size_t>> Executor::shard_replicas() const {
  MutexLock lock(replica_mutex_);
  return shard_replicas_;
}

JoinVariant Executor::ResolveVariant(const SpatialAggQuery& query) const {
  if (query.variant != JoinVariant::kAuto) return query.variant;
  return ChooseRasterVariant(cost_params_, cost_inputs_, query.epsilon);
}

Result<AdmissionPlan> Executor::PlanAdmission(const SpatialAggQuery& query) {
  const JoinVariant variant = ResolveVariant(query);
  if (variant == JoinVariant::kIndexCpu) {
    return AdmissionPlan{};  // never touches device memory
  }
  const std::size_t weight_column = query.EffectiveAggregateColumn();
  const std::size_t bytes_per_point =
      UploadBytesPerPoint(query.filters, weight_column);
  // Everything below is a pure function of (variant, stride, overlap) for
  // this dataset — the triangle-VBO term depends only on the immutable
  // polygon set — so repeats skip the triangulation-cache mutex entirely.
  query::PlanCache::AdmissionKey key;
  key.variant = variant;
  key.bytes_per_point = bytes_per_point;
  key.overlap = query.overlap_transfers;
  return plan_cache_->GetAdmission(key, [&]() -> Result<AdmissionPlan> {
    AdmissionPlan plan;
    plan.bytes_per_point = bytes_per_point;
    if (variant == JoinVariant::kBoundedRaster) {
      RJ_ASSIGN_OR_RETURN(const TriangleSoup* soup, GetTriangulation());
      plan.fixed_bytes = TriangleVboBytes(soup->size());
    }
    // The triangle VBO is uploaded and freed before the point pipeline
    // starts, so the peak is the max of the fixed upload and the point
    // buffers in flight — 2× the stride when transfers overlap the draw
    // (BatchPipeline keeps batches b and b+1 resident), 1× serialized. A
    // single full-set batch never double-buffers, so full_bytes stays 1×.
    const std::size_t in_flight = query.overlap_transfers ? 2 : 1;
    if (source_backed()) {
      // Block-source scans upload whole blocks: the batch size IS the
      // block capacity (not grant-tunable), so the floor is in_flight
      // blocks, not in_flight points. It is also the peak — the pipeline
      // keeps at most in_flight block VBOs resident (disk-staged loading
      // slots hold host rows, no VBO), so full_bytes never grows to the
      // whole point set the way a fully-resident table batch would.
      const std::size_t block_points = std::max<std::size_t>(
          std::min<std::size_t>(source_->block_capacity(),
                                PlanningPointCount()),
          1);
      plan.min_bytes = std::max(plan.fixed_bytes,
                                in_flight * block_points *
                                    plan.bytes_per_point);
      plan.full_bytes = plan.min_bytes;
      return plan;
    }
    plan.min_bytes =
        std::max(plan.fixed_bytes, in_flight * plan.bytes_per_point);
    plan.full_bytes = std::max(
        {plan.fixed_bytes, PlanningPointCount() * plan.bytes_per_point,
         plan.min_bytes});
    return plan;
  });
}

Result<JoinResult> Executor::RunVariant(
    gpu::Device* device, const PointTable* points,
    const data::PointBlockSource* source, const SpatialAggQuery& query,
    const QuerySetup& setup, const UploadPlan& capped,
    ResultRanges* ranges_out, std::optional<raster::Fbo>* point_fbo_out) {
  const std::size_t weight_column = setup.weight_column;
  const TriangleSoup* soup = setup.soup.get();
  switch (setup.variant) {
    case JoinVariant::kBoundedRaster: {
      BoundedRasterJoinOptions options;
      options.epsilon = query.epsilon;
      options.weight_column = weight_column;
      options.filters = query.filters;
      options.batch_size = capped.batch_size;
      options.overlap_transfers = capped.overlap_transfers;
      options.compute_result_ranges = ranges_out != nullptr;
      if (source != nullptr) {
        options.enable_block_pruning = query.enable_block_pruning;
        return BoundedRasterJoin(device, *source, *polys_, *soup, world_,
                                 options, nullptr, ranges_out,
                                 point_fbo_out);
      }
      return BoundedRasterJoin(device, *points, *polys_, *soup, world_,
                               options, nullptr, ranges_out, point_fbo_out);
    }
    case JoinVariant::kAccurateRaster: {
      AccurateRasterJoinOptions options;
      options.weight_column = weight_column;
      options.filters = query.filters;
      options.batch_size = capped.batch_size;
      options.overlap_transfers = capped.overlap_transfers;
      if (source != nullptr) {
        options.enable_block_pruning = query.enable_block_pruning;
        return AccurateRasterJoin(device, *source, *polys_, *soup,
                                  setup.accurate_side(), world_, options);
      }
      return AccurateRasterJoin(device, *points, *polys_, *soup,
                                setup.accurate_side(), world_, options);
    }
    case JoinVariant::kIndexDevice: {
      IndexJoinOptions options;
      options.weight_column = weight_column;
      options.filters = query.filters;
      options.batch_size = capped.batch_size;
      options.overlap_transfers = capped.overlap_transfers;
      options.prebuilt_index = setup.index.get();
      if (source != nullptr) {
        options.enable_block_pruning = query.enable_block_pruning;
        return IndexJoinDevice(device, *source, *polys_, world_, options);
      }
      return IndexJoinDevice(device, *points, *polys_, world_, options);
    }
    case JoinVariant::kIndexCpu: {
      IndexJoinOptions options;
      options.weight_column = weight_column;
      options.filters = query.filters;
      options.assign_mode = GridAssignMode::kExactGeometry;
      if (source != nullptr) {
        options.enable_block_pruning = query.enable_block_pruning;
        return IndexJoinCpu(*source, *polys_, *setup.index, options,
                            query.cpu_threads);
      }
      return IndexJoinCpu(*points, *polys_, *setup.index, options,
                          query.cpu_threads);
    }
    case JoinVariant::kAuto:
      break;
  }
  return Status::Internal("kAuto should have been resolved");
}

Result<Executor::QuerySetup> Executor::PrepareQuery(
    const SpatialAggQuery& query) {
  RJ_ASSIGN_OR_RETURN(QuerySetup setup, CheckQuery(query));
  RJ_RETURN_NOT_OK(PinArtifacts(&setup));
  return setup;
}

Result<Executor::QuerySetup> Executor::CheckQuery(
    const SpatialAggQuery& query) const {
  QuerySetup setup;
  setup.weight_column = query.EffectiveAggregateColumn();
  if (query.aggregate != AggregateKind::kCount &&
      setup.weight_column == PointTable::npos) {
    return Status::InvalidArgument(
        "non-COUNT aggregates require aggregate_column");
  }
  setup.variant = ResolveVariant(query);
  setup.bytes_per_point =
      UploadBytesPerPoint(query.filters, setup.weight_column);
  if (sharded() && !pool_->UniformFboLimit()) {
    // Shards must rasterize on one pixel grid; a pool with mixed FBO
    // limits would tile the canvas differently per shard.
    return Status::InvalidArgument(
        "sharded execution requires a uniform max_fbo_dim across the pool");
  }
  if (setup.variant == JoinVariant::kAccurateRaster) {
    // Bound the canvas before any canvas is leased or artifact keyed: a
    // dim above the device's FBO limit is a bad request (400), not an
    // allocation of dim² × 16 bytes, and the canvas-dim key space of the
    // artifact cache stays bounded.
    RJ_ASSIGN_OR_RETURN(
        setup.canvas_dim,
        ResolveAccurateCanvasDim(query.accurate_canvas_dim,
                                 device_->options().max_fbo_dim));
  }
  return setup;
}

Status Executor::PinArtifacts(QuerySetup* out) {
  QuerySetup& setup = *out;
  query::PolygonArtifacts& cache = query::PolygonArtifacts::Shared();
  PhaseTimer* timing = &setup.timing;
  const gpu::CountersSnapshot before = device_->counters().Snapshot();
  if (setup.variant == JoinVariant::kBoundedRaster ||
      setup.variant == JoinVariant::kAccurateRaster) {
    RJ_ASSIGN_OR_RETURN(setup.soup, cache.Triangulation(artifact_scope_,
                                                        *polys_, timing));
  }
  if (setup.variant == JoinVariant::kAccurateRaster) {
    // Drawn on the primary device once; every shard reads the same canvas
    // (the marks are worker-count independent, see DrawBoundaries).
    RJ_ASSIGN_OR_RETURN(setup.boundary,
                        cache.Boundary(artifact_scope_, device_, *polys_,
                                       world_, setup.canvas_dim, timing));
  }
  if (setup.variant != JoinVariant::kBoundedRaster) {
    // The accurate join and the device index join share one MBR index at
    // the same resolution; the CPU join reads the exact-geometry one.
    const bool accurate = setup.variant == JoinVariant::kAccurateRaster;
    RJ_ASSIGN_OR_RETURN(
        setup.index,
        cache.Index(artifact_scope_, *polys_, world_,
                    accurate ? kAccurateIndexResolution
                             : IndexJoinOptions{}.index_resolution,
                    setup.variant == JoinVariant::kIndexCpu
                        ? GridAssignMode::kExactGeometry
                        : GridAssignMode::kMbr,
                    timing));
  }
  setup.counters = device_->counters().Snapshot().DeltaSince(before);
  return Status::OK();
}

Result<QueryResult> Executor::Execute(const QuerySpec& spec,
                                      const ExecPolicy& policy) {
  RJ_RETURN_NOT_OK(ValidateSpecColumns(spec, num_attribute_columns()));
  return Execute(spec.ToQuery(policy));
}

Result<QueryResult> Executor::Execute(const SpatialAggQuery& query) {
  if (result_cache_ == nullptr || query.bypass_result_cache) {
    return ExecuteUncached(query);
  }

  // Cached path: key on semantics only (execution knobs excluded — results
  // are bitwise identical across them), single-flight on misses.
  Timer fetch;
  const query::CacheKey key = query::MakeCacheKey(
      dataset_cache_key_, dataset_version(), query, ResolveVariant(query));
  bool hit = false;
  RJ_ASSIGN_OR_RETURN(
      std::shared_ptr<const QueryResult> shared,
      result_cache_->GetOrCompute(
          key, [&] { return ExecuteUncached(query); }, &hit,
          // Publish guard: never cache a result whose key version was
          // outrun by a concurrent dataset bump (streaming append,
          // re-registration) while the flight computed.
          [&] { return dataset_version() == key.version; }));
  QueryResult out = *shared;
  if (hit) {
    // A hit performed no device work: scrub the miss's diagnostics so the
    // caller never mistakes replayed stats for this call's execution.
    out.cache_hit = true;
    out.timing = PhaseTimer();
    out.counters = gpu::CountersSnapshot();
    out.total_seconds = fetch.ElapsedSeconds();
  }
  return out;
}

Result<QueryResult> Executor::ExecuteUncached(const SpatialAggQuery& query) {
  return ExecuteUncached(query, nullptr);
}

Result<QueryResult> Executor::ExecuteUncached(
    const SpatialAggQuery& query, const ShardPlacement* placement) {
  if (sharded()) return ExecuteSharded(query, placement);

  Timer total;
  QueryResult out;

  RJ_ASSIGN_OR_RETURN(QuerySetup setup, PrepareQuery(query));
  UploadPlan capped{0, query.overlap_transfers};
  if (source_backed()) {
    // Block scans ignore batch_size — the block capacity is the batch. The
    // only grant-sensitive knob left is double-buffering: a grant too
    // small for two in-flight blocks downgrades to the serialized path
    // instead of overshooting, mirroring CappedBatch's downgrade rule.
    const std::size_t block_bytes =
        std::min<std::size_t>(source_->block_capacity(),
                              PlanningPointCount()) *
        setup.bytes_per_point;
    if (capped.overlap_transfers && query.device_memory_cap_bytes != 0 &&
        2 * block_bytes > query.device_memory_cap_bytes) {
      capped.overlap_transfers = false;
    }
  } else {
    capped = plan_cache_->GetUpload(
        {query.device_memory_cap_bytes, setup.bytes_per_point,
         points_->size(), query.overlap_transfers},
        [&] {
          return CappedBatch(query.device_memory_cap_bytes,
                             setup.bytes_per_point, points_->size(),
                             query.overlap_transfers);
        });
  }

  JoinResult join;
  RJ_ASSIGN_OR_RETURN(
      join, RunVariant(device_, points_, source_, query, setup, capped,
                       query.with_result_ranges ? &out.ranges : nullptr,
                       nullptr));

  out.values = join.Finalize(query.aggregate);
  out.arrays = std::move(join.arrays);
  out.timing = join.timing;
  out.timing.Add(setup.timing);
  out.total_seconds = total.ElapsedSeconds();
  return out;
}

Result<std::vector<QueryResult>> Executor::ExecuteFused(
    const std::vector<SpatialAggQuery>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("fusion group is empty");
  }
  if (source_backed()) {
    // The fused pipelines share one resident upload scan over a
    // PointTable; the block path streams from disk instead. QueryService
    // never forms fusion groups over disk-resident datasets, but keep the
    // API total: run the members individually — by the fusion contract
    // each result is bitwise identical either way.
    std::vector<QueryResult> out;
    out.reserve(queries.size());
    for (const SpatialAggQuery& q : queries) {
      RJ_ASSIGN_OR_RETURN(QueryResult r, ExecuteUncached(q));
      out.push_back(std::move(r));
    }
    return out;
  }
  if (queries.size() == 1) {
    RJ_ASSIGN_OR_RETURN(QueryResult only, ExecuteUncached(queries[0]));
    std::vector<QueryResult> out;
    out.push_back(std::move(only));
    return out;
  }

  Timer total;
  // Per-member checks (aggregates, columns, the canvas bound) and the
  // group's compatibility come first; only then are the polygon-side
  // artifacts pinned, once, for the whole group — members share the canvas.
  std::vector<QuerySetup> setups;
  setups.reserve(queries.size());
  for (const SpatialAggQuery& q : queries) {
    RJ_ASSIGN_OR_RETURN(QuerySetup setup, CheckQuery(q));
    setups.push_back(std::move(setup));
  }
  QuerySetup& group = setups[0];
  const JoinVariant variant = group.variant;
  if (variant != JoinVariant::kBoundedRaster &&
      variant != JoinVariant::kAccurateRaster) {
    return Status::InvalidArgument(
        "fusion requires a raster variant (bounded or accurate)");
  }
  // Re-check structural compatibility here even though the service's
  // grouping predicate enforces it — the invariant that every member
  // shares one canvas must hold locally for the shared scan to be valid.
  for (std::size_t i = 1; i < queries.size(); ++i) {
    const bool same_canvas =
        variant == JoinVariant::kBoundedRaster
            ? queries[i].epsilon == queries[0].epsilon
            : queries[i].accurate_canvas_dim ==
                  queries[0].accurate_canvas_dim;
    if (setups[i].variant != variant || !same_canvas) {
      return Status::InvalidArgument(
          "incompatible fusion group: members must share the resolved "
          "variant and canvas");
    }
  }
  RJ_RETURN_NOT_OK(PinArtifacts(&group));

  const std::vector<FusedMemberSpec> members = FusedMembers(queries, variant);
  if (sharded()) return ExecuteFusedSharded(queries, members, group);

  const std::size_t stride = UploadStrideBytes(FusedUploadColumns(members));
  const UploadPlan capped = plan_cache_->GetUpload(
      {queries[0].device_memory_cap_bytes, stride, points_->size(),
       queries[0].overlap_transfers},
      [&] {
        return CappedBatch(queries[0].device_memory_cap_bytes, stride,
                           points_->size(), queries[0].overlap_transfers);
      });

  FusedJoinOptions options;
  options.epsilon = queries[0].epsilon;
  options.batch_size = capped.batch_size;
  options.overlap_transfers = capped.overlap_transfers;

  Result<FusedJoinOutput> fused_result =
      variant == JoinVariant::kBoundedRaster
          ? FusedBoundedRasterJoin(device_, *points_, *polys_, *group.soup,
                                   world_, options, members)
          : FusedAccurateRasterJoin(device_, *points_, *polys_, *group.soup,
                                    group.accurate_side(), world_, options,
                                    members);
  if (!fused_result.ok()) return fused_result.status();
  FusedJoinOutput fused = std::move(fused_result).MoveValueUnsafe();
  fused.timing.Add(group.timing);

  // Demultiplex: per-member payloads, group-level diagnostics replicated.
  std::vector<QueryResult> out(queries.size());
  const double seconds = total.ElapsedSeconds();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out[i].arrays = std::move(fused.arrays[i]);
    out[i].values = FinalizeAggregate(queries[i].aggregate, out[i].arrays);
    out[i].ranges = std::move(fused.ranges[i]);
    out[i].timing = fused.timing;
    out[i].total_seconds = seconds;
  }
  return out;
}

Result<AdmissionPlan> Executor::PlanFusedAdmission(
    const std::vector<SpatialAggQuery>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("fusion group is empty");
  }
  if (queries.size() == 1) return PlanAdmission(queries[0]);
  const JoinVariant variant = ResolveVariant(queries[0]);
  if (variant == JoinVariant::kIndexCpu) {
    return AdmissionPlan{};  // never fused in practice, but keep the shape
  }
  // Union stride through the same definition the fused pipelines use
  // (FusedUploadColumns) — the grant must cover exactly what ships. Group
  // shapes vary too much for the admission memo, and the arithmetic is
  // cheap; no PlanCache entry.
  AdmissionPlan plan;
  plan.bytes_per_point =
      UploadStrideBytes(FusedUploadColumns(FusedMembers(queries, variant)));
  if (variant == JoinVariant::kBoundedRaster) {
    RJ_ASSIGN_OR_RETURN(const TriangleSoup* soup, GetTriangulation());
    plan.fixed_bytes = TriangleVboBytes(soup->size());
  }
  const std::size_t in_flight = queries[0].overlap_transfers ? 2 : 1;
  plan.min_bytes =
      std::max(plan.fixed_bytes, in_flight * plan.bytes_per_point);
  plan.full_bytes = std::max(
      {plan.fixed_bytes, PlanningPointCount() * plan.bytes_per_point,
       plan.min_bytes});
  return plan;
}

Result<std::vector<QueryResult>> Executor::ExecuteFusedSharded(
    const std::vector<SpatialAggQuery>& queries,
    const std::vector<FusedMemberSpec>& members, const QuerySetup& setup) {
  Timer total;
  const JoinVariant variant = setup.variant;
  const TriangleSoup* soup = setup.soup.get();
  const std::size_t m = queries.size();

  // §5 ranges recompute on the gathered point FBO, exactly as in
  // ExecuteSharded — shards export FBOs instead of computing intervals.
  std::vector<FusedMemberSpec> shard_members = members;
  bool any_ranges = false;
  for (std::size_t i = 0; i < m; ++i) {
    shard_members[i].export_point_fbo = members[i].compute_result_ranges;
    shard_members[i].compute_result_ranges = false;
    any_ranges = any_ranges || shard_members[i].export_point_fbo;
  }

  const std::size_t stride = UploadStrideBytes(FusedUploadColumns(members));
  const std::size_t num_shards = shards_->num_shards();
  std::vector<FusedJoinOutput> shard_out(num_shards);
  std::vector<Status> shard_status(num_shards, Status::OK());

  const auto run_shard = [&](std::size_t s) {
    gpu::Device* dev = shard_device(s);
    const PointTable& shard_points = shards_->shard(s);
    const UploadPlan capped = plan_cache_->GetUpload(
        {queries[0].device_memory_cap_bytes, stride, shard_points.size(),
         queries[0].overlap_transfers},
        [&] {
          return CappedBatch(queries[0].device_memory_cap_bytes, stride,
                             shard_points.size(),
                             queries[0].overlap_transfers);
        });
    FusedJoinOptions options;
    options.epsilon = queries[0].epsilon;
    options.batch_size = capped.batch_size;
    options.overlap_transfers = capped.overlap_transfers;
    Result<FusedJoinOutput> join =
        variant == JoinVariant::kBoundedRaster
            ? FusedBoundedRasterJoin(dev, shard_points, *polys_, *soup,
                                     world_, options, shard_members)
            : FusedAccurateRasterJoin(dev, shard_points, *polys_, *soup,
                                      setup.accurate_side(), world_, options,
                                      shard_members);
    if (!join.ok()) {
      shard_status[s] = join.status();
      return;
    }
    shard_out[s] = std::move(join).MoveValueUnsafe();
  };

  // Device-window counter attribution, as in ExecuteSharded: shard d's
  // window carries device d's whole delta.
  const std::size_t devices_used = std::min(num_shards, pool_->size());
  std::vector<gpu::CountersSnapshot> before(devices_used);
  for (std::size_t d = 0; d < devices_used; ++d) {
    before[d] = pool_->device(d)->counters().Snapshot();
  }
  {
    std::vector<std::thread> threads;
    threads.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      threads.emplace_back(run_shard, s);
    }
    for (std::thread& t : threads) t.join();
  }
  gpu::CountersSnapshot group_counters;
  for (std::size_t d = 0; d < devices_used; ++d) {
    group_counters = group_counters.Plus(
        pool_->device(d)->counters().Snapshot().DeltaSince(before[d]));
  }
  for (const Status& st : shard_status) RJ_RETURN_NOT_OK(st);

  // Per-member gather in ascending shard order — each member's merge is
  // exactly what its solo ExecuteSharded would perform on these (bitwise
  // identical) per-shard partials. Shard timings ride member 0's merge
  // once; the group total is not multiplied per member.
  std::vector<QueryResult> out(m);
  PhaseTimer group_timing;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<agg::ShardPartial> partials(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      partials[s].arrays = std::move(shard_out[s].arrays[i]);
      if (i == 0) partials[s].timing = shard_out[s].timing;
    }
    RJ_ASSIGN_OR_RETURN(agg::MergedPartials merged,
                        agg::MergePartials(partials));
    out[i].arrays = std::move(merged.arrays);
    out[i].values = FinalizeAggregate(queries[i].aggregate, out[i].arrays);
    if (i == 0) group_timing = merged.timing;
  }
  group_timing.Add(setup.timing);
  group_counters = group_counters.Plus(setup.counters);

  if (any_ranges) {
    RJ_ASSIGN_OR_RETURN(
        std::vector<raster::CanvasTile> tiles,
        raster::PlanCanvas(world_, queries[0].epsilon,
                           device_->options().max_fbo_dim));
    raster::Viewport vp(tiles[0].world, tiles[0].width, tiles[0].height);
    for (std::size_t i = 0; i < m; ++i) {
      if (!shard_members[i].export_point_fbo) continue;
      raster::Fbo gathered = std::move(*shard_out[0].point_fbos[i]);
      shard_out[0].point_fbos[i].reset();
      for (std::size_t s = 1; s < num_shards; ++s) {
        AccumulateFbo(&gathered, *shard_out[s].point_fbos[i]);
        shard_out[s].point_fbos[i].reset();
      }
      ScopedPhase sp(&group_timing, phase::kProcessing);
      const gpu::CountersSnapshot gather_before =
          device_->counters().Snapshot();
      RJ_ASSIGN_OR_RETURN(
          out[i].ranges,
          ComputeResultRanges(vp, *polys_, *soup, gathered,
                              FinalizeAggregate(AggregateKind::kCount,
                                                out[i].arrays),
                              &device_->counters(), &device_->pool()));
      group_counters = group_counters.Plus(
          device_->counters().Snapshot().DeltaSince(gather_before));
    }
  }

  const double seconds = total.ElapsedSeconds();
  for (std::size_t i = 0; i < m; ++i) {
    out[i].timing = group_timing;
    out[i].counters = group_counters;
    out[i].total_seconds = seconds;
  }
  return out;
}

Result<BBox> Executor::RoutingRegion(JoinVariant variant,
                                     const SpatialAggQuery& query) {
  BBox region = ComputeExtent(*polys_);
  double pad = 0.0;
  if (variant == JoinVariant::kBoundedRaster) {
    // One canvas pixel, from the very canvas plan the shards will render
    // on (the widest pixel across tiles, applied on both axes — strictly
    // conservative).
    RJ_ASSIGN_OR_RETURN(
        std::vector<raster::CanvasTile> tiles,
        raster::PlanCanvas(world_, query.epsilon,
                           device_->options().max_fbo_dim));
    for (const raster::CanvasTile& t : tiles) {
      pad = std::max({pad, t.world.Width() / t.width,
                      t.world.Height() / t.height});
    }
  } else if (variant == JoinVariant::kAccurateRaster) {
    // One pixel of the accurate canvas, over-approximated with the longer
    // world side (the canvas is square over the world extent).
    RJ_ASSIGN_OR_RETURN(
        const std::int32_t dim,
        ResolveAccurateCanvasDim(query.accurate_canvas_dim,
                                 device_->options().max_fbo_dim));
    pad = std::max(world_.Width(), world_.Height()) / static_cast<double>(dim);
  }
  // Index variants are PIP-exact: a contributing point lies inside a
  // polygon, hence inside the unpadded extent (Intersects is closed).
  return region.Inflated(pad);
}

Result<Executor::ShardPlacement> Executor::PlanPlacement(
    const SpatialAggQuery& query) {
  ShardPlacement p;
  if (!sharded()) {
    // Trivial single-device placement, so callers (QueryService) can plan
    // uniformly; matches ShardsPerDevice()'s {1}.
    p.device_of_shard.assign(1, 0);
    p.cached.resize(1);
    p.hosted.assign(1, 1);
    p.executed = 1;
    return p;
  }

  const std::size_t num_shards = shards_->num_shards();
  const std::size_t pool_size = pool_->size();
  p.device_of_shard.assign(num_shards, 0);
  p.cached.resize(num_shards);
  p.hosted.assign(pool_size, 0);

  const JoinVariant variant = ResolveVariant(query);
  const bool want_ranges = query.with_result_ranges &&
                           variant == JoinVariant::kBoundedRaster;

  std::optional<BBox> region;
  if (query.enable_shard_routing) {
    RJ_ASSIGN_OR_RETURN(BBox r, RoutingRegion(variant, query));
    region = r;
  }

  // Per-shard partials are cacheable only when the whole pipeline is: a
  // §5-ranges query needs the shard FBOs (not stored), and a bypass must
  // not read stale entries either.
  const bool use_cache = query.enable_shard_cache &&
                         !query.bypass_result_cache &&
                         result_cache_ != nullptr && !want_ranges;
  query::CacheKey base_key;
  if (use_cache) {
    base_key = query::MakeCacheKey(dataset_cache_key_, dataset_version(),
                                   query, variant);
  }

  std::vector<std::vector<std::size_t>> replicas = shard_replicas();

  // Placement-local load: executing shards assigned so far per device. The
  // tie-break (lowest device index) keeps placement deterministic for a
  // fixed replica map.
  std::vector<std::size_t> load(pool_size, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (region.has_value() &&
        !ZoneMapCanMatch(shards_->shard_zone(s), query.filters, &*region)) {
      p.device_of_shard[s] = ShardPlacement::kSkipped;
      ++p.skipped;
      continue;
    }
    if (use_cache) {
      query::CacheKey key = base_key;
      key.shard = s;
      if (std::shared_ptr<const QueryResult> hit =
              result_cache_->Lookup(key)) {
        p.device_of_shard[s] = ShardPlacement::kCached;
        p.cached[s] = std::move(hit);
        ++p.cache_hits;
        continue;
      }
    }
    std::size_t best = s % pool_size;
    if (s < replicas.size()) {
      for (const std::size_t d : replicas[s]) {
        if (d >= pool_size) continue;  // stale map from a smaller pool
        if (load[d] < load[best] || (load[d] == load[best] && d < best)) {
          best = d;
        }
      }
    }
    p.device_of_shard[s] = best;
    ++load[best];
    ++p.hosted[best];
    ++p.executed;
  }

  if (p.executed == 0 && p.cache_hits == 0) {
    // Forced keep: every shard was routed away, but the merge (and a
    // ranges gather) still needs one correctly-shaped partial. Shard 0 on
    // its home device joins zero-contributing rows — the result is the
    // same all-zero aggregate, bitwise.
    p.device_of_shard[0] = 0;
    --p.skipped;
    ++p.hosted[0];
    ++p.executed;
  }
  return p;
}

Result<QueryResult> Executor::ExecuteSharded(const SpatialAggQuery& query,
                                             const ShardPlacement* placement) {
  Timer total;
  QueryResult out;

  // Same preamble as the single-device path: PrepareQuery pins the
  // polygon-side artifacts once and every shard reads them — the polygon
  // side of the join is identical across shards. A cold build draws on the
  // primary device before the per-device counter windows open; its delta
  // rides in setup.counters.
  RJ_ASSIGN_OR_RETURN(QuerySetup setup, PrepareQuery(query));

  // Ranges gather (bounded variant only): shards export their point FBOs
  // and the §5 classification runs once over the pixel-wise sum, which is
  // bitwise identical to the single-device FBO — merging per-shard
  // *intervals* instead would regroup the per-pixel area×count products
  // and drift by FP rounding (see merge_partials.h).
  const bool want_ranges = query.with_result_ranges &&
                           setup.variant == JoinVariant::kBoundedRaster;

  // Routing/cache/replica placement — planned here unless the caller
  // (QueryService) already planned it to size the admission grant.
  ShardPlacement local_placement;
  if (placement == nullptr) {
    RJ_ASSIGN_OR_RETURN(local_placement, PlanPlacement(query));
    placement = &local_placement;
  }
  const ShardPlacement& place = *placement;

  const std::size_t num_shards = shards_->num_shards();
  std::vector<agg::ShardPartial> partials(num_shards);
  std::vector<Status> shard_status(num_shards, Status::OK());
  std::vector<std::optional<raster::Fbo>> shard_fbos(num_shards);

  // Cached shards contribute their stored arrays as-is (bitwise identical
  // to re-executing them); skipped shards stay default — zero-size arrays
  // the merge skips by contract (merge_partials.h).
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (place.device_of_shard[s] == ShardPlacement::kCached) {
      partials[s].arrays = place.cached[s]->arrays;
    }
  }

  // --- Scatter: every placed shard joins on its device in parallel. ------
  const auto run_shard = [&](std::size_t s) {
    gpu::Device* dev = pool_->device(place.device_of_shard[s]);
    const PointTable& shard_points = shards_->shard(s);
    // The admission grant is per shard: each shard batches within its own
    // device_memory_cap_bytes slice, independent of sibling shard sizes.
    const UploadPlan capped = plan_cache_->GetUpload(
        {query.device_memory_cap_bytes, setup.bytes_per_point,
         shard_points.size(), query.overlap_transfers},
        [&] {
          return CappedBatch(query.device_memory_cap_bytes,
                             setup.bytes_per_point, shard_points.size(),
                             query.overlap_transfers);
        });

    Result<JoinResult> join =
        RunVariant(dev, &shard_points, /*source=*/nullptr, query, setup,
                   capped, /*ranges_out=*/nullptr,
                   want_ranges ? &shard_fbos[s] : nullptr);
    if (!join.ok()) {
      shard_status[s] = join.status();
      return;
    }
    JoinResult shard_result = std::move(join).MoveValueUnsafe();
    partials[s].arrays = std::move(shard_result.arrays);
    partials[s].timing = shard_result.timing;
  };

  // Routing metering lands on the primary device *before* the delta
  // windows open, so the per-shard deltas below don't re-report it (the
  // merged total then carries it exactly once via the explicit add after
  // the merge).
  device_->counters().AddShardsRouted(place.executed);
  device_->counters().AddShardsSkipped(place.skipped);

  // Counter attribution is per *device*, not per shard: sibling shards on
  // one device would have overlapping delta windows (double-counting the
  // shared work). The first *executing* shard on device d carries device
  // d's whole delta — the merged total is the true pool delta (exact when
  // no other query overlapped, the same contract as QueryStats). Devices
  // with no executing shard get no window (nothing ran there).
  const std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> first_shard_on_device(pool_->size(), npos);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t d = place.device_of_shard[s];
    if (d >= pool_->size()) continue;  // skipped or cached
    if (first_shard_on_device[d] == npos) first_shard_on_device[d] = s;
  }
  std::vector<gpu::CountersSnapshot> before(pool_->size());
  for (std::size_t d = 0; d < pool_->size(); ++d) {
    if (first_shard_on_device[d] != npos) {
      before[d] = pool_->device(d)->counters().Snapshot();
    }
  }
  {
    std::vector<std::thread> threads;
    threads.reserve(place.executed);
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (place.device_of_shard[s] < pool_->size()) {
        threads.emplace_back(run_shard, s);
      }
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t d = 0; d < pool_->size(); ++d) {
    if (first_shard_on_device[d] != npos) {
      partials[first_shard_on_device[d]].counters =
          pool_->device(d)->counters().Snapshot().DeltaSince(before[d]);
    }
  }

  // First failure in shard order: error reporting stays deterministic no
  // matter which shard thread lost the race.
  for (const Status& st : shard_status) RJ_RETURN_NOT_OK(st);

  // --- Gather: deterministic merge in ascending shard order. -------------
  RJ_ASSIGN_OR_RETURN(agg::MergedPartials merged, agg::MergePartials(partials));
  out.arrays = std::move(merged.arrays);
  out.values = FinalizeAggregate(query.aggregate, out.arrays);
  out.timing = merged.timing;
  out.timing.Add(setup.timing);
  out.counters = merged.counters.Plus(setup.counters);
  out.counters.shards_routed += place.executed;
  out.counters.shards_skipped += place.skipped;

  // Store fresh per-shard partials for pans that re-cover these shards.
  // Unconditional on success; the version stamp in the key keeps entries
  // from outliving a dataset bump (mirrors the service's publish guard).
  if (query.enable_shard_cache && !query.bypass_result_cache &&
      result_cache_ != nullptr && !want_ranges) {
    const query::CacheKey base_key = query::MakeCacheKey(
        dataset_cache_key_, dataset_version(), query, setup.variant);
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (place.device_of_shard[s] >= pool_->size()) continue;
      query::CacheKey key = base_key;
      key.shard = s;
      QueryResult partial;
      partial.arrays = partials[s].arrays;
      result_cache_->Insert(key, std::move(partial));
    }
  }

  if (want_ranges) {
    // The gather seed is the first executing shard's FBO — always present:
    // the shard cache is disabled under want_ranges and forced keep
    // guarantees at least one executing shard.
    std::size_t first_fbo = npos;
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (shard_fbos[s].has_value()) {
        first_fbo = s;
        break;
      }
    }
    if (first_fbo == npos) {
      return Status::Internal("ranges gather found no shard FBO");
    }
    raster::Fbo gathered = std::move(*shard_fbos[first_fbo]);
    shard_fbos[first_fbo].reset();
    for (std::size_t s = first_fbo + 1; s < num_shards; ++s) {
      // Accumulate and free shard by shard: canvases are multi-megabyte,
      // so holding all S copies through the range pass would multiply the
      // gather's transient footprint for nothing. Skipped shards exported
      // no FBO — and an all-default FBO accumulates as the identity, so
      // the gathered canvas equals the all-shard one bitwise.
      if (!shard_fbos[s].has_value()) continue;
      AccumulateFbo(&gathered, *shard_fbos[s]);
      shard_fbos[s].reset();
    }
    // Re-derive the (single-tile — the per-shard joins validated that)
    // canvas the shards rendered on.
    RJ_ASSIGN_OR_RETURN(
        std::vector<raster::CanvasTile> tiles,
        raster::PlanCanvas(world_, query.epsilon,
                           device_->options().max_fbo_dim));
    raster::Viewport vp(tiles[0].world, tiles[0].width, tiles[0].height);
    ScopedPhase sp(&out.timing, phase::kProcessing);
    // The range pass is part of this query's device work too: meter its
    // primary-device delta into the attributed counters, keeping the
    // "exact when no other query overlapped" contract (result.h).
    const gpu::CountersSnapshot gather_before =
        device_->counters().Snapshot();
    RJ_ASSIGN_OR_RETURN(
        out.ranges,
        ComputeResultRanges(vp, *polys_, *setup.soup, gathered,
                            FinalizeAggregate(AggregateKind::kCount,
                                              out.arrays),
                            &device_->counters(), &device_->pool()));
    out.counters = out.counters.Plus(
        device_->counters().Snapshot().DeltaSince(gather_before));
  }

  out.total_seconds = total.ElapsedSeconds();
  return out;
}

std::string JoinVariantName(JoinVariant variant) {
  switch (variant) {
    case JoinVariant::kBoundedRaster: return "BoundedRaster";
    case JoinVariant::kAccurateRaster: return "AccurateRaster";
    case JoinVariant::kIndexDevice: return "IndexDevice";
    case JoinVariant::kIndexCpu: return "IndexCpu";
    case JoinVariant::kAuto: return "Auto";
  }
  return "?";
}

}  // namespace rj
