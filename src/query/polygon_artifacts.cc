#include "query/polygon_artifacts.h"

#include <atomic>
#include <utility>

#include "join/join_common.h"
#include "raster/pipeline.h"
#include "raster/viewport.h"
#include "query/filter.h"

namespace rj::query {

namespace {

/// Runs `build` and adds its wall time to `timing`'s `phase_name`.
template <typename Fn>
auto Timed(PhaseTimer* timing, const char* phase_name, const Fn& build) {
  Timer t;
  auto built = build();
  if (timing != nullptr) timing->Add(phase_name, t.ElapsedSeconds());
  return built;
}

/// Typed view into a cached artifact that shares the entry's ownership.
template <typename T>
Result<std::shared_ptr<const T>> Typed(
    Result<std::shared_ptr<const PolygonArtifact>> artifact) {
  if (!artifact.ok()) return artifact.status();
  std::shared_ptr<const PolygonArtifact> owner =
      std::move(artifact).MoveValueUnsafe();
  const T* view = &std::get<T>(*owner);
  return std::shared_ptr<const T>(std::move(owner), view);
}

}  // namespace

std::size_t ArtifactKeyHash::operator()(const ArtifactKey& key) const {
  std::size_t seed = std::hash<std::uint64_t>{}(key.scope);
  seed = detail::HashCombine(seed,
                             std::hash<int>{}(static_cast<int>(key.kind)));
  return detail::HashCombine(seed, std::hash<std::int32_t>{}(key.param));
}

PolygonArtifacts::PolygonArtifacts(std::size_t budget_bytes)
    // One lock shard: artifacts are few and large (a per-shard slice of
    // the budget could be smaller than one canvas), builds run outside the
    // lock, and each query takes the lock a handful of times.
    : lru_(budget_bytes, /*num_shards=*/1, &ArtifactBytes) {}

PolygonArtifacts& PolygonArtifacts::Shared() {
  // Cached canvases return to FboPool::Shared() when dropped, so the pool
  // must be constructed first: statics are destroyed in reverse order.
  raster::FboPool::Shared();
  static PolygonArtifacts cache(256ull << 20);
  return cache;
}

std::uint64_t PolygonArtifacts::NewScope() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::size_t PolygonArtifacts::ArtifactBytes(const ArtifactKey&,
                                            const PolygonArtifact& artifact) {
  std::size_t bytes = decltype(lru_)::kEntryOverhead + sizeof(PolygonArtifact);
  if (const auto* soup = std::get_if<TriangleSoup>(&artifact)) {
    bytes += soup->size() * sizeof(Triangle);
  } else if (const auto* index = std::get_if<GridIndex>(&artifact)) {
    bytes += index->SizeBytes();
  } else {
    bytes += std::get<raster::FboLease>(artifact)->size_bytes();
  }
  return bytes;
}

Result<std::shared_ptr<const TriangleSoup>> PolygonArtifacts::Triangulation(
    std::uint64_t scope, const PolygonSet& polys, PhaseTimer* timing) {
  return Typed<TriangleSoup>(lru_.GetOrCompute(
      {scope, ArtifactKind::kTriangulation, 0},
      [&]() -> Result<PolygonArtifact> {
        RJ_ASSIGN_OR_RETURN(
            TriangleSoup soup, Timed(timing, phase::kTriangulation, [&] {
              return TriangulatePolygonSet(polys);
            }));
        return PolygonArtifact(std::move(soup));
      },
      nullptr, nullptr, LruAdmission::kPinned));
}

Result<std::shared_ptr<const GridIndex>> PolygonArtifacts::Index(
    std::uint64_t scope, const PolygonSet& polys, const BBox& world,
    std::int32_t resolution, GridAssignMode mode, PhaseTimer* timing) {
  const ArtifactKind kind = mode == GridAssignMode::kMbr
                                ? ArtifactKind::kMbrIndex
                                : ArtifactKind::kExactIndex;
  return Typed<GridIndex>(lru_.GetOrCompute(
      {scope, kind, resolution},
      [&]() -> Result<PolygonArtifact> {
        RJ_ASSIGN_OR_RETURN(
            GridIndex index, Timed(timing, phase::kIndexBuild, [&] {
              return GridIndex::Build(polys, world, resolution, mode);
            }));
        return PolygonArtifact(std::move(index));
      },
      nullptr, nullptr, LruAdmission::kSecondRequest));
}

Result<std::shared_ptr<const raster::Fbo>> PolygonArtifacts::Boundary(
    std::uint64_t scope, gpu::Device* device, const PolygonSet& polys,
    const BBox& world, std::int32_t dim, PhaseTimer* timing) {
  if (dim <= 0) return Status::InvalidArgument("canvas dimension must be > 0");
  if (world.IsEmpty() || world.Width() <= 0 || world.Height() <= 0) {
    return Status::InvalidArgument("world extent is empty");
  }
  RJ_ASSIGN_OR_RETURN(
      std::shared_ptr<const raster::FboLease> lease,
      Typed<raster::FboLease>(lru_.GetOrCompute(
          {scope, ArtifactKind::kBoundary, dim},
          [&]() -> Result<PolygonArtifact> {
            return PolygonArtifact(Timed(timing, phase::kBoundary, [&] {
              return raster::DrawBoundaryCanvas(
                  raster::Viewport(world, dim, dim), polys,
                  &device->counters(), &device->pool());
            }));
          },
          nullptr, nullptr, LruAdmission::kSecondRequest)));
  const raster::Fbo* canvas = &**lease;
  return std::shared_ptr<const raster::Fbo>(std::move(lease), canvas);
}

void PolygonArtifacts::DropScope(std::uint64_t scope) {
  lru_.EraseIf([scope](const ArtifactKey& key) { return key.scope == scope; });
}

}  // namespace rj::query
