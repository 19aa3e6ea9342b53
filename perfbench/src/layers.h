/// \file layers.h
/// \brief The traced decomposition shared by the workloads: a direct
/// execution pass over a sample of a workload's queries (whole-query
/// numbers, the program's own phase ledger, exact work counters) and a
/// layer-by-layer replay of the same queries through each module's public
/// functions, in the order the Executor calls them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "data/point_block_source.h"
#include "data/point_table.h"
#include "geometry/polygon.h"
#include "gpu/counters.h"
#include "gpu/device.h"
#include "query/executor.h"
#include "query/query.h"
#include "query/query_spec.h"
#include "service/query_service.h"

namespace perfbench {

/// What one direct execution of a sampled query did.
struct ExecSample {
  std::vector<double> values;
  rj::gpu::CountersSnapshot counters;  ///< exact: one query at a time
  std::uint64_t bytes_read = 0;        ///< block-source bytes (disk tier)
  std::uint64_t triangles = 0;
  std::uint64_t rows = 0;              ///< rows the dataset holds
  double wall_ms = 0.0;
  double plan_ms = 0.0;
  double phases_ms = 0.0;              ///< sum of JoinResult.timing phases
  double processing_ms = 0.0;
  double transfer_ms = 0.0;
  double index_build_ms = 0.0;
  double disk_read_ms = 0.0;
  std::size_t shards = 1;
  std::size_t shards_skipped = 0;
};

/// Runs each (executor, query) pair once through PlanPlacement +
/// PlanAdmission + ExecuteUncached, one at a time. With tracing on, each
/// query is a "loadgen.execute" root with "query.plan" and "query.execute"
/// children; the program's phase timings become reported children of
/// "query.execute". Fails on the first non-OK status.
struct ExecJob {
  rj::Executor* executor = nullptr;
  rj::SpatialAggQuery query;
};
rj::Status ExecutePass(const std::vector<ExecJob>& jobs,
                       std::vector<ExecSample>* out);

/// Submits `spec` to the in-process service and waits, under a
/// "service.submit" span. With tracing on, the response's own accounting
/// becomes reported children: "service.queue", then "query.execute" with
/// the join's phases beneath it.
rj::service::ServiceResponse SubmitAndWait(rj::service::QueryService* service,
                                           std::size_t dataset,
                                           const rj::QuerySpec& spec,
                                           const rj::ExecPolicy& policy);

/// Inputs of the layer-by-layer replay of one query.
struct ReplayJob {
  rj::Executor* executor = nullptr;
  /// Rows the point pass draws, one table per shard.
  std::vector<const rj::PointTable*> shards;
  /// Disk tier, when the dataset is block-file resident.
  const rj::data::PointBlockSource* source = nullptr;
  /// Device whose pool and counters the replayed draw calls use.
  rj::gpu::Device* device = nullptr;
  /// Points per host→device batch (the device budget's batch size).
  std::size_t batch_points = 0;
  rj::SpatialAggQuery query;
};

/// Replays one query layer by layer under a "loadgen.replay" root span:
/// query.plan, triangulate.run, data.read, gpu.upload, raster.boundary,
/// index.build, raster.points, raster.polygons, agg.merge, agg.finalize.
rj::Status ReplayLayers(const ReplayJob& job);

/// Per-layer metrics from the execution pass (query.*, join.*, raster
/// fragments, gpu counters per execution, data.*, triangulate.triangles).
void SetExecMetrics(Report* report, const std::vector<ExecSample>& samples);

/// Per-layer metrics from the replay spans (triangulate.ms, index.build_ms,
/// raster.*_ms, agg.*_ms) and the replay ledger's self times.
void SetReplayMetrics(Report* report, const std::vector<SpanRecord>& spans);

/// The request ledger: self time per layer over "loadgen.request" roots
/// and the share of root time no layer span covers.
void SetRequestLedger(Report* report, const std::vector<SpanRecord>& spans);

/// Compares two execution passes over the same seeded inputs: every exact
/// work counter must repeat. Records the verdict in the report's info and
/// fails the run on a mismatch.
void CheckCountersRepeat(Report* report, const std::vector<ExecSample>& a,
                         const std::vector<ExecSample>& b);

/// Sets every per-layer metric to 0 with its unit, so that layers a
/// workload never reaches still print (the workload then overwrites the
/// ones it measures).
void SetLayerDefaults(Report* report);

}  // namespace perfbench
