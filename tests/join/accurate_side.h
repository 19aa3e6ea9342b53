/// \file accurate_side.h
/// \brief Test helper: builds the accurate join's polygon side (boundary
/// canvas + MBR grid index) the way the Executor's artifact cache does.
#pragma once

#include <gtest/gtest.h>

#include <optional>

#include "gpu/device.h"
#include "index/grid_index.h"
#include "join/raster_join_accurate.h"
#include "raster/pipeline.h"
#include "raster/viewport.h"

namespace rj::testutil {

struct OwnedAccurateSide {
  raster::FboLease boundary;
  std::optional<GridIndex> index;

  AccuratePolygonSide get() const { return {&*boundary, &*index}; }
};

/// `dim` = 0 takes the device's max_fbo_dim (the Executor's default).
inline OwnedAccurateSide BuildAccurateSide(gpu::Device* device,
                                           const PolygonSet& polys,
                                           const BBox& world,
                                           std::int32_t dim = 0) {
  auto resolved = ResolveAccurateCanvasDim(dim, device->options().max_fbo_dim);
  EXPECT_TRUE(resolved.ok()) << resolved.status().ToString();
  if (resolved.ok()) dim = resolved.value();
  OwnedAccurateSide side;
  side.boundary = raster::DrawBoundaryCanvas(raster::Viewport(world, dim, dim),
                                             polys, &device->counters(),
                                             &device->pool());
  auto index = GridIndex::Build(polys, world, kAccurateIndexResolution,
                                GridAssignMode::kMbr);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  side.index.emplace(std::move(index).MoveValueUnsafe());
  return side;
}

}  // namespace rj::testutil
