/// \file raster_join_accurate.h
/// \brief Accurate Raster Join (§4.3): exact spatial aggregation that
/// performs point-in-polygon tests only for points on boundary pixels.
///
/// Three steps (per canvas tile, per point batch):
///   1. Draw all polygon outlines into a boundary FBO with conservative
///      rasterization (no partially-covered pixel may be missed). This step
///      and the grid index of step 2 form the join's polygon side
///      (AccuratePolygonSide): the caller builds them — once per polygon set
///      in the Executor's artifact cache — and the join only reads them.
///   2. Draw points: a point landing on a boundary pixel is resolved with
///      exact PIP tests against the grid-index candidates (Procedure
///      JoinPoint); every other point is blended into the point FBO.
///   3. Render polygons, skipping fragments on boundary pixels (those
///      points were already handled in step 2).
#pragma once

#include "gpu/device.h"
#include "index/grid_index.h"
#include "join/join_common.h"
#include "raster/fbo.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj {

/// Grid-index resolution for Procedure JoinPoint (paper: 1024²).
inline constexpr std::int32_t kAccurateIndexResolution = 1024;

/// The accurate join's polygon side: the conservative boundary canvas
/// (step 1) and the MBR grid index Procedure JoinPoint probes. Both depend
/// only on the polygons, the world and the canvas / index resolution —
/// never on the points or the query — so one pair serves every query,
/// fused member and shard over the same polygon set. Non-owning.
struct AccuratePolygonSide {
  /// raster::DrawBoundaryCanvas output; its (square) size is the join's
  /// canvas.
  const raster::Fbo* boundary = nullptr;
  /// GridAssignMode::kMbr index over the same world.
  const GridIndex* index = nullptr;
};

/// Checks that `side` is complete and its canvas square and non-empty;
/// returns the canvas dim.
Result<std::int32_t> AccurateCanvasDim(const AccuratePolygonSide& side);

/// The canvas dim an accurate query runs at: `requested` when > 0, else the
/// device's `max_fbo_dim`. A dim above `max_fbo_dim` is InvalidArgument —
/// the one place that bound is resolved and checked.
Result<std::int32_t> ResolveAccurateCanvasDim(std::int32_t requested,
                                              std::int32_t max_fbo_dim);

struct AccurateRasterJoinOptions {
  std::size_t weight_column = PointTable::npos;
  FilterSet filters;

  /// Maximum points per device batch (0 = derive from memory budget).
  std::size_t batch_size = 0;

  /// Prefetch batch b+1 while batch b draws (join::BatchPipeline; two
  /// point VBOs in flight). See BoundedRasterJoinOptions.
  bool overlap_transfers = true;

  /// Block-source executions only: zone-map pruning (see
  /// BoundedRasterJoinOptions::enable_block_pruning).
  bool enable_block_pruning = true;
};

struct AccurateRasterJoinStats {
  std::uint64_t boundary_points = 0;  ///< points that needed PIP resolution
  std::uint64_t interior_points = 0;  ///< points on the fast raster path
  std::uint64_t pip_tests = 0;        ///< exact tests actually executed
  std::size_t num_batches = 0;
  std::size_t blocks_pruned = 0;      ///< block-source executions only
};

/// Executes the accurate raster join over the canvas and index of `side`
/// (built over the same `world`); results are exact (equal to
/// ReferenceJoin) for any canvas resolution.
Result<JoinResult> AccurateRasterJoin(gpu::Device* device,
                                      const PointTable& points,
                                      const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const AccuratePolygonSide& side,
                                      const BBox& world,
                                      const AccurateRasterJoinOptions& options,
                                      AccurateRasterJoinStats* stats = nullptr);

/// Block-source execution (see the BoundedRasterJoin overload): streams
/// the zone-map-selected blocks; bitwise identical to the in-memory
/// overload on the materialized source.
Result<JoinResult> AccurateRasterJoin(gpu::Device* device,
                                      const data::PointBlockSource& source,
                                      const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const AccuratePolygonSide& side,
                                      const BBox& world,
                                      const AccurateRasterJoinOptions& options,
                                      AccurateRasterJoinStats* stats = nullptr);

}  // namespace rj
