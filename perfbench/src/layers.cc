#include "layers.h"

#include <algorithm>
#include <utility>

#include "agg/aggregate.h"
#include "agg/merge_partials.h"
#include "index/grid_index.h"
#include "join/batch_pipeline.h"
#include "join/join_common.h"
#include "raster/fbo_pool.h"
#include "raster/pipeline.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace perfbench {

using rj::Status;

namespace {

/// Devices whose counters an execution pass reads (one for a single-device
/// executor, every pool device for a sharded one).
std::vector<rj::gpu::Device*> ExecutorDevices(const rj::Executor& executor) {
  std::vector<rj::gpu::Device*> devices;
  if (executor.sharded()) {
    for (std::size_t i = 0; i < executor.device_pool()->size(); ++i) {
      devices.push_back(executor.device_pool()->device(i));
    }
  } else {
    devices.push_back(executor.device());
  }
  return devices;
}

rj::gpu::CountersSnapshot SumCounters(
    const std::vector<rj::gpu::Device*>& devices) {
  rj::gpu::CountersSnapshot sum;
  for (const rj::gpu::Device* d : devices) {
    sum = sum.Plus(d->counters().Snapshot());
  }
  return sum;
}

std::uint64_t RowsOf(const rj::Executor& executor) {
  if (executor.sharded()) return executor.shards()->total_points();
  if (executor.source_backed()) return executor.block_source()->num_rows();
  return executor.points()->size();
}

}  // namespace

Status ExecutePass(const std::vector<ExecJob>& jobs,
                   std::vector<ExecSample>* out) {
  Tracer& tracer = Tracer::Get();
  for (const ExecJob& job : jobs) {
    rj::Executor* executor = job.executor;
    const std::vector<rj::gpu::Device*> devices = ExecutorDevices(*executor);
    ExecSample sample;
    sample.rows = RowsOf(*executor);
    sample.shards = executor->num_shards();
    const rj::gpu::CountersSnapshot before = SumCounters(devices);
    const std::uint64_t read_before =
        executor->source_backed() ? executor->block_source()->bytes_read() : 0;

    Span root("loadgen.execute");
    rj::Executor::ShardPlacement placement;
    {
      Span span("query.plan");
      const double t0 = Now();
      auto planned = executor->PlanPlacement(job.query);
      if (!planned.ok()) return planned.status();
      placement = std::move(planned).MoveValueUnsafe();
      auto admission = executor->PlanAdmission(job.query);
      if (!admission.ok()) return admission.status();
      sample.plan_ms = (Now() - t0) * 1e3;
    }
    sample.shards_skipped = placement.skipped;
    {
      Span span("query.execute");
      auto result = executor->ExecuteUncached(job.query, &placement);
      const double end = Now();
      if (!result.ok()) return result.status();
      const rj::QueryResult& r = result.value();
      sample.values = r.values;
      sample.wall_ms = r.total_seconds * 1e3;
      // The program's own phase ledger, laid out from the span's start.
      double cursor = span.start();
      for (const auto& [phase, seconds] : r.timing.phases()) {
        sample.phases_ms += seconds * 1e3;
        const double stop = std::min(cursor + seconds, end);
        tracer.Reported("join." + phase, span.id(), span.request(), cursor,
                        stop);
        cursor = stop;
      }
      sample.processing_ms = r.timing.Get(rj::phase::kProcessing) * 1e3;
      sample.transfer_ms = r.timing.Get(rj::phase::kTransfer) * 1e3;
      sample.index_build_ms = r.timing.Get(rj::phase::kIndexBuild) * 1e3;
      sample.disk_read_ms = r.timing.Get(rj::phase::kDiskRead) * 1e3;
    }
    sample.counters = SumCounters(devices).DeltaSince(before);
    if (executor->source_backed()) {
      sample.bytes_read = executor->block_source()->bytes_read() - read_before;
    }
    auto soup = executor->GetTriangulation();
    if (!soup.ok()) return soup.status();
    sample.triangles = soup.value()->size();
    out->push_back(std::move(sample));
  }
  return Status::OK();
}

rj::service::ServiceResponse SubmitAndWait(rj::service::QueryService* service,
                                           std::size_t dataset,
                                           const rj::QuerySpec& spec,
                                           const rj::ExecPolicy& policy) {
  Span span("service.submit");
  rj::service::ServiceResponse r = service->Submit(dataset, spec, policy).get();
  Tracer& tracer = Tracer::Get();
  if (r.result.ok() && tracer.enabled()) {
    const double queue_end = span.start() + r.stats.queue_seconds;
    tracer.Reported("service.queue", span.id(), span.request(), span.start(),
                    queue_end);
    const double exec_end = queue_end + r.stats.execute_seconds;
    const std::uint64_t exec = tracer.Reported(
        "query.execute", span.id(), span.request(), queue_end, exec_end);
    // Phases laid end to end; overlapped phases (transfers prefetched
    // during processing) are clipped at the execution's end.
    double cursor = queue_end;
    for (const auto& [phase, seconds] : r.result.value().timing.phases()) {
      const double stop = std::min(cursor + seconds, exec_end);
      tracer.Reported("join." + phase, exec, span.request(), cursor, stop);
      cursor = stop;
    }
  }
  return r;
}

Status ReplayLayers(const ReplayJob& job) {
  const rj::SpatialAggQuery& q = job.query;
  rj::Executor* executor = job.executor;
  const rj::PolygonSet& polys = *executor->polys();
  const rj::BBox& world = executor->world();
  rj::gpu::Device* device = job.device;
  rj::gpu::Counters* counters = &device->counters();
  rj::ThreadPool* pool = &device->pool();
  const std::size_t weight = q.EffectiveAggregateColumn();
  const bool accurate = executor->ResolveVariant(q) ==
                        rj::JoinVariant::kAccurateRaster;

  Span root("loadgen.replay");
  {
    Span span("query.plan");
    auto planned = executor->PlanPlacement(q);
    if (!planned.ok()) return planned.status();
    auto admission = executor->PlanAdmission(q);
    if (!admission.ok()) return admission.status();
  }
  rj::TriangleSoup soup;
  {
    Span span("triangulate.run");
    auto triangulated = rj::TriangulatePolygonSet(polys);
    if (!triangulated.ok()) return triangulated.status();
    soup = std::move(triangulated).MoveValueUnsafe();
  }
  if (job.source != nullptr) {
    Span span("data.read");
    const rj::BlockSelection selection =
        rj::SelectBlocks(*job.source, q.filters, &world, true);
    rj::PointTable scratch;
    double touched = 0.0;
    for (const std::size_t b : selection.blocks) {
      auto view = job.source->ViewBlock(b, &scratch);
      if (!view.ok()) return view.status();
      touched += view.value().xs[0];
    }
    if (touched == 0.123456789) return Status::Internal("unreachable");
  }
  const std::vector<std::size_t> columns =
      rj::UploadColumns(q.filters, weight);
  {
    // Every batch through the program's own upload pipeline, with no draw
    // between Acquire and Release.
    Span span("gpu.upload");
    for (const rj::PointTable* rows : job.shards) {
      rj::join::BatchPipeline pipeline(
          device, rows, columns, std::max<std::size_t>(job.batch_points, 1),
          {q.overlap_transfers});
      for (;;) {
        auto view = pipeline.Acquire();
        if (!view.ok()) return view.status();
        if (!view.value().has_value()) break;
        pipeline.Release(*view.value());
      }
      if (Status st = pipeline.Drain(nullptr); !st.ok()) return st;
    }
  }

  std::vector<rj::raster::CanvasTile> tiles;
  if (accurate) {
    const std::int32_t dim = q.accurate_canvas_dim > 0
                                 ? q.accurate_canvas_dim
                                 : device->options().max_fbo_dim;
    tiles.push_back(rj::raster::SingleCanvas(world, dim, dim));
  } else {
    auto planned = rj::raster::PlanCanvas(world, q.epsilon,
                                          device->options().max_fbo_dim);
    if (!planned.ok()) return planned.status();
    tiles = std::move(planned).MoveValueUnsafe();
  }

  std::vector<rj::agg::ShardPartial> partials(job.shards.size());
  for (auto& p : partials) p.arrays.Resize(polys.size());
  for (const rj::raster::CanvasTile& tile : tiles) {
    rj::raster::Viewport vp(tile.world, tile.width, tile.height);
    rj::raster::FboLease boundary;
    if (accurate) {
      boundary = rj::raster::FboPool::Shared().Acquire(tile.width,
                                                       tile.height);
      Span span("raster.boundary");
      rj::raster::DrawBoundaries(vp, polys, /*conservative=*/true,
                                 boundary.get(), counters, pool);
    }
    if (accurate) {
      Span span("index.build");
      auto index = rj::GridIndex::Build(polys, world, 1024,
                                        rj::GridAssignMode::kMbr);
      if (!index.ok()) return index.status();
    }
    for (std::size_t s = 0; s < job.shards.size(); ++s) {
      rj::raster::FboLease point_fbo =
          rj::raster::FboPool::Shared().Acquire(tile.width, tile.height);
      {
        Span span("raster.points");
        rj::raster::DrawPoints(vp, *job.shards[s], q.filters, weight,
                               point_fbo.get(), counters, pool);
      }
      Span span("raster.polygons");
      rj::raster::ResultArrays tile_arrays(polys.size());
      rj::raster::DrawPolygons(vp, soup, *point_fbo,
                               accurate ? boundary.get() : nullptr,
                               &tile_arrays, counters, pool);
      partials[s].arrays.AddFrom(tile_arrays);
    }
  }
  rj::raster::ResultArrays merged(polys.size());
  if (partials.size() > 1) {
    Span span("agg.merge");
    auto m = rj::agg::MergePartials(partials);
    if (!m.ok()) return m.status();
    merged = std::move(m.value().arrays);
  } else {
    merged = std::move(partials[0].arrays);
  }
  {
    Span span("agg.finalize");
    const std::vector<double> values =
        rj::FinalizeAggregate(q.aggregate, merged);
    if (values.size() != polys.size()) {
      return Status::Internal("finalize returned the wrong arity");
    }
  }
  return Status::OK();
}

void SetExecMetrics(Report* report, const std::vector<ExecSample>& samples) {
  if (samples.empty()) return;
  std::vector<double> wall, plan, unattributed, share, processing, transfer,
      index_build, disk_read;
  double n = 0.0, fragments = 0.0, pips = 0.0, rows = 0.0, bytes = 0.0,
         passes = 0.0, batches = 0.0, read = 0.0, triangles = 0.0,
         scanned = 0.0, pruned = 0.0, shards = 0.0, skipped = 0.0;
  for (const ExecSample& s : samples) {
    wall.push_back(s.wall_ms);
    plan.push_back(s.plan_ms);
    unattributed.push_back(s.wall_ms - s.phases_ms);
    share.push_back(s.wall_ms > 0.0 ? (s.wall_ms - s.phases_ms) / s.wall_ms
                                    : 0.0);
    processing.push_back(s.processing_ms);
    transfer.push_back(s.transfer_ms);
    index_build.push_back(s.index_build_ms);
    disk_read.push_back(s.disk_read_ms);
    n += 1.0;
    fragments += static_cast<double>(s.counters.fragments);
    pips += static_cast<double>(s.counters.pip_tests);
    rows += static_cast<double>(s.rows);
    bytes += static_cast<double>(s.counters.bytes_transferred);
    passes += static_cast<double>(s.counters.render_passes);
    batches += static_cast<double>(s.counters.batches);
    read += static_cast<double>(s.bytes_read);
    triangles += static_cast<double>(s.triangles);
    scanned += static_cast<double>(s.counters.blocks_scanned);
    pruned += static_cast<double>(s.counters.blocks_pruned);
    shards += static_cast<double>(s.shards);
    skipped += static_cast<double>(s.shards_skipped);
  }
  report->Set("query.execute_ms", Median(wall), "ms");
  report->Set("query.plan_ms", Median(plan), "ms");
  report->Set("query.unattributed_ms", Median(unattributed), "ms");
  report->Set("query.unattributed_share", Median(share), "ratio");
  report->Set("query.shards_skipped_ratio", skipped / shards, "ratio");
  report->Set("join.processing_ms", Median(processing), "ms");
  report->Set("join.transfer_ms", Median(transfer), "ms");
  report->Set("join.index_build_ms", Median(index_build), "ms");
  report->Set("join.disk_read_ms", Median(disk_read), "ms");
  report->Set("join.batches", batches / n, "count");
  report->Set("join.pip_tests", pips / n, "count");
  report->Set("join.pip_per_point", rows > 0.0 ? pips / rows : 0.0, "ratio");
  report->Set("raster.fragments", fragments / n, "count");
  report->Set("gpu.bytes_transferred", bytes / n, "B");
  report->Set("gpu.render_passes", passes / n, "count");
  report->Set("data.bytes_read", read / n, "B");
  report->Set("data.blocks_pruned_ratio",
              scanned + pruned > 0.0 ? pruned / (scanned + pruned) : 0.0,
              "ratio");
  report->Set("triangulate.triangles", triangles / n, "count");
  report->Info("exec_samples", n);
}

void SetReplayMetrics(Report* report, const std::vector<SpanRecord>& spans) {
  const auto median_of = [&](const char* name) {
    return Median(SpanDurationsMs(spans, name));
  };
  report->Set("triangulate.ms", median_of("triangulate.run"), "ms");
  report->Set("index.build_ms", median_of("index.build"), "ms");
  report->Set("raster.boundary_ms", median_of("raster.boundary"), "ms");
  report->Set("raster.points_ms", median_of("raster.points"), "ms");
  report->Set("raster.polygons_ms", median_of("raster.polygons"), "ms");
  report->Set("agg.merge_ms", median_of("agg.merge"), "ms");
  report->Set("agg.finalize_ms", median_of("agg.finalize"), "ms");

  const Ledger ledger = ComputeLedger(spans, "loadgen.replay");
  for (const char* layer :
       {"triangulate", "data", "gpu", "raster", "index", "agg"}) {
    const auto it = ledger.self_ms.find(layer);
    report->Set(std::string(layer) + ".self_ms",
                it == ledger.self_ms.end() ? 0.0 : it->second, "ms");
  }
  const auto glue = ledger.self_ms.find("loadgen");
  report->Set("trace.replay_uncovered_share",
              ledger.root_ms > 0.0 && glue != ledger.self_ms.end()
                  ? glue->second / ledger.root_ms
                  : 0.0,
              "ratio");
  report->Info("replay_roots", static_cast<double>(ledger.roots));
}

void SetRequestLedger(Report* report, const std::vector<SpanRecord>& spans) {
  const Ledger ledger = ComputeLedger(spans, "loadgen.request");
  for (const char* layer : {"loadgen", "net", "service", "query", "join"}) {
    const auto it = ledger.self_ms.find(layer);
    report->Set(std::string(layer) + ".self_ms",
                it == ledger.self_ms.end() ? 0.0 : it->second, "ms");
  }
  const auto glue = ledger.self_ms.find("loadgen");
  report->Set("trace.uncovered_share",
              ledger.root_ms > 0.0 && glue != ledger.self_ms.end()
                  ? glue->second / ledger.root_ms
                  : 0.0,
              "ratio");
  report->Info("traced_requests", static_cast<double>(ledger.roots));
}

void CheckCountersRepeat(Report* report, const std::vector<ExecSample>& a,
                         const std::vector<ExecSample>& b) {
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    const rj::gpu::CountersSnapshot& x = a[i].counters;
    const rj::gpu::CountersSnapshot& y = b[i].counters;
    same = x.fragments == y.fragments && x.pip_tests == y.pip_tests &&
           x.bytes_transferred == y.bytes_transferred &&
           x.batches == y.batches && a[i].bytes_read == b[i].bytes_read &&
           a[i].triangles == b[i].triangles &&
           BitwiseEqual(a[i].values, b[i].values);
  }
  report->Info("counters_repeat", same ? "exact" : "MISMATCH");
  if (!same) report->Fail("work counters differ between two seeded passes");
}

void SetLayerDefaults(Report* report) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"net.overhead_p50_ms", "ms"},
      {"net.encode_ms", "ms"},
      {"net.decode_ms", "ms"},
      {"net.response_bytes", "B"},
      {"net.refused_ratio", "ratio"},
      {"service.queue_p50_ms", "ms"},
      {"service.queue_p90_ms", "ms"},
      {"service.execute_p50_ms", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_evictions", "count"},
      {"service.register_ms", "ms"},
      {"gpu.vertices_per_execution", "count"},
      {"gpu.peak_bytes_allocated", "B"},
      {"loadgen.late_p90_ms", "ms"},
      {"loadgen.error_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  for (const auto& [name, unit] : kLayerMetrics) report->Set(name, 0.0, unit);
}

}  // namespace perfbench
