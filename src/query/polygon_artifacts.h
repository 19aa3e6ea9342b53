/// \file polygon_artifacts.h
/// \brief Polygon-side artifact cache: the triangulation, the grid indexes
/// and the accurate join's boundary canvases, built once per polygon set
/// instead of once per query.
///
/// The paper's polygon pass depends only on the polygon set, the world and
/// the canvas / index resolution — never on the points, the aggregate or
/// the filters (§4; Table 1 measures it on its own). One cache, one
/// ShardedLru (common/sharded_lru.h), holds every such artifact:
///
///  * **key** — (executor scope, kind, resolution or canvas dim). The scope
///    is a per-Executor id (NewScope), never the polygon set's content or
///    address: two executors over the same polygons build their own
///    artifacts, so their per-query work is identical, and an executor's
///    destructor drops its scope (DropScope).
///  * **second touch** — an index or boundary canvas is retained only on
///    its key's second request (or when a concurrent request joined its
///    build). A polygon set queried once costs exactly one per-query build
///    and retains nothing. The triangulation is pinned on first build
///    (outside the budget): Executor::GetTriangulation hands out a raw
///    pointer valid for the executor's lifetime.
///  * **budget** — retained index and canvas bytes stay under one byte
///    budget (process-wide for Shared()), evicted LRU. Queries pin what
///    they read with shared_ptr, so an eviction never frees an artifact a
///    query is using.
///
/// Thread-safe. Concurrent first requests build each artifact once
/// (single-flight). docs/SERVICE.md "Polygon artifact cache".
#pragma once

#include <cstdint>
#include <memory>
#include <variant>

#include "common/sharded_lru.h"
#include "common/status.h"
#include "common/timer.h"
#include "geometry/bbox.h"
#include "geometry/polygon.h"
#include "gpu/device.h"
#include "index/grid_index.h"
#include "raster/fbo.h"
#include "raster/fbo_pool.h"
#include "triangulate/triangulation.h"

namespace rj::query {

enum class ArtifactKind : std::uint8_t {
  kTriangulation,  ///< pinned
  kExactIndex,     ///< GridAssignMode::kExactGeometry (IndexJoinCpu)
  kMbrIndex,       ///< GridAssignMode::kMbr (accurate join, IndexJoinDevice)
  kBoundary,       ///< conservative outline canvas (accurate join step 1)
};

struct ArtifactKey {
  std::uint64_t scope = 0;
  ArtifactKind kind = ArtifactKind::kTriangulation;
  /// Grid resolution or canvas dim; 0 for the triangulation.
  std::int32_t param = 0;

  bool operator==(const ArtifactKey& o) const {
    return scope == o.scope && kind == o.kind && param == o.param;
  }
};

struct ArtifactKeyHash {
  std::size_t operator()(const ArtifactKey& key) const;
};

/// One cached artifact. The boundary canvas stays a pooled raster::Fbo:
/// dropping a one-shot canvas parks it in FboPool::Shared() for the next
/// query's lease, exactly like the per-query canvas it replaces.
using PolygonArtifact = std::variant<TriangleSoup, GridIndex, raster::FboLease>;

class PolygonArtifacts {
 public:
  /// Retains at most `budget_bytes` of indexes and canvases. Executors
  /// all use Shared(); a standalone cache is for exercising the budget.
  explicit PolygonArtifacts(std::size_t budget_bytes);

  PolygonArtifacts(const PolygonArtifacts&) = delete;
  PolygonArtifacts& operator=(const PolygonArtifacts&) = delete;

  /// The process-wide cache every Executor uses. Its budget, 256 MiB, has
  /// room for several 2048² boundary canvases (64 MiB each) plus their
  /// indexes.
  static PolygonArtifacts& Shared();

  /// A fresh scope id (one per Executor instance; never reused).
  static std::uint64_t NewScope();

  /// The triangulation of `polys` (pinned until DropScope). A cold build
  /// adds its time to `timing`'s triangulation phase (when non-null).
  [[nodiscard]] Result<std::shared_ptr<const TriangleSoup>> Triangulation(
      std::uint64_t scope, const PolygonSet& polys, PhaseTimer* timing);

  /// The `mode` grid index at `resolution` over `world`. A cold build adds
  /// its time to `timing`'s index_build phase.
  [[nodiscard]] Result<std::shared_ptr<const GridIndex>> Index(
      std::uint64_t scope, const PolygonSet& polys, const BBox& world,
      std::int32_t resolution, GridAssignMode mode, PhaseTimer* timing);

  /// The conservative boundary canvas (dim × dim over `world`), drawn on
  /// `device` when cold (its counters and worker pool). A cold build adds
  /// its time to `timing`'s boundary phase.
  [[nodiscard]] Result<std::shared_ptr<const raster::Fbo>> Boundary(
      std::uint64_t scope, gpu::Device* device, const PolygonSet& polys,
      const BBox& world, std::int32_t dim, PhaseTimer* timing);

  /// Drops every artifact of `scope`. No request for it may be in flight.
  void DropScope(std::uint64_t scope);

  /// builds = misses; bytes_used = retained index/canvas bytes (≤ budget);
  /// pinned_bytes = triangulations.
  CacheStats stats() const { return lru_.stats(); }

 private:
  static std::size_t ArtifactBytes(const ArtifactKey& key,
                                   const PolygonArtifact& artifact);

  ShardedLru<ArtifactKey, PolygonArtifact, ArtifactKeyHash> lru_;
};

}  // namespace rj::query
