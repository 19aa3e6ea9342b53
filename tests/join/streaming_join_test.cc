#include "join/streaming_join.h"

#include <gtest/gtest.h>

#include "accurate_side.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "triangulate/triangulation.h"

namespace rj {
namespace {

struct StreamSetup {
  PolygonSet polys;
  TriangleSoup soup;
  PointTable points;
  BBox world;
};

StreamSetup MakeStreamSetup(std::uint64_t seed) {
  StreamSetup s;
  s.world = BBox(0, 0, 1000, 1000);
  auto polys = TinyRegions(8, s.world, seed);
  EXPECT_TRUE(polys.ok());
  s.polys = polys.value();
  auto soup = TriangulatePolygonSet(s.polys);
  EXPECT_TRUE(soup.ok());
  s.soup = soup.value();
  Rng rng(seed + 1);
  s.points.AddAttribute("w");
  for (int i = 0; i < 9000; ++i) {
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return s;
}

gpu::Device StreamDevice() {
  gpu::DeviceOptions options;
  options.max_fbo_dim = 256;
  options.num_workers = 1;
  return gpu::Device(options);
}

TEST(StreamingBoundedJoinTest, MatchesOneShotJoin) {
  StreamSetup s = MakeStreamSetup(81);
  BoundedRasterJoinOptions options;
  options.epsilon = 12.0;

  gpu::Device d1 = StreamDevice();
  auto whole = BoundedRasterJoin(&d1, s.points, s.polys, s.soup, s.world,
                                 options);
  ASSERT_TRUE(whole.ok());

  gpu::Device d2 = StreamDevice();
  StreamingBoundedJoin streaming(&d2, &s.polys, &s.soup, s.world, options);
  ASSERT_TRUE(streaming.Init().ok());
  for (std::size_t b = 0; b < s.points.size(); b += 1234) {
    const PointTable batch =
        s.points.Slice(b, std::min(s.points.size(), b + 1234));
    ASSERT_TRUE(streaming.AddBatch(batch).ok());
  }
  auto result = streaming.Finish();
  ASSERT_TRUE(result.ok());

  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i],
                     whole.value().arrays.count[i]);
  }
}

TEST(StreamingBoundedJoinTest, MultiTileStreaming) {
  StreamSetup s = MakeStreamSetup(82);
  BoundedRasterJoinOptions options;
  options.epsilon = 3.0;  // canvas ~472 px > 256 limit → 4 tiles

  gpu::Device d1 = StreamDevice();
  auto whole = BoundedRasterJoin(&d1, s.points, s.polys, s.soup, s.world,
                                 options);
  ASSERT_TRUE(whole.ok());

  gpu::Device d2 = StreamDevice();
  StreamingBoundedJoin streaming(&d2, &s.polys, &s.soup, s.world, options);
  ASSERT_TRUE(streaming.Init().ok());
  EXPECT_GT(streaming.num_tiles(), 1u);
  for (std::size_t b = 0; b < s.points.size(); b += 2000) {
    ASSERT_TRUE(
        streaming
            .AddBatch(s.points.Slice(b, std::min(s.points.size(), b + 2000)))
            .ok());
  }
  auto result = streaming.Finish();
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i],
                     whole.value().arrays.count[i]);
  }
}

TEST(StreamingAccurateJoinTest, MatchesReferenceExactly) {
  StreamSetup s = MakeStreamSetup(83);
  AccurateRasterJoinOptions options;
  options.weight_column = 0;

  gpu::Device device = StreamDevice();
  const testutil::OwnedAccurateSide side =
      testutil::BuildAccurateSide(&device, s.polys, s.world);
  StreamingAccurateJoin streaming(&device, &s.polys, &s.soup, side.get(),
                                  s.world, options);
  ASSERT_TRUE(streaming.Init().ok());
  for (std::size_t b = 0; b < s.points.size(); b += 777) {
    ASSERT_TRUE(
        streaming
            .AddBatch(s.points.Slice(b, std::min(s.points.size(), b + 777)))
            .ok());
  }
  auto result = streaming.Finish();
  ASSERT_TRUE(result.ok());

  const JoinResult exact = ReferenceJoin(s.points, s.polys, FilterSet(), 0);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i], exact.arrays.count[i]);
    if (exact.arrays.count[i] > 0) {
      EXPECT_DOUBLE_EQ(result.value().arrays.min[i], exact.arrays.min[i]);
      EXPECT_DOUBLE_EQ(result.value().arrays.max[i], exact.arrays.max[i]);
    }
  }
  EXPECT_EQ(streaming.boundary_points() + streaming.interior_points(),
            s.points.size());
}

TEST(StreamingJoinTest, LifecycleErrors) {
  StreamSetup s = MakeStreamSetup(84);
  BoundedRasterJoinOptions options;
  options.epsilon = 10.0;
  gpu::Device device = StreamDevice();
  StreamingBoundedJoin join(&device, &s.polys, &s.soup, s.world, options);
  // AddBatch before Init fails.
  EXPECT_FALSE(join.AddBatch(s.points).ok());
  ASSERT_TRUE(join.Init().ok());
  EXPECT_FALSE(join.Init().ok());  // double Init
  ASSERT_TRUE(join.AddBatch(s.points).ok());
  auto result = join.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(join.AddBatch(s.points).ok());  // after Finish
  EXPECT_FALSE(join.Finish().ok());            // double Finish
}

TEST(StreamingBoundedJoinTest, FiltersApplied) {
  StreamSetup s = MakeStreamSetup(85);
  BoundedRasterJoinOptions options;
  options.epsilon = 10.0;
  ASSERT_TRUE(options.filters.Add({0, FilterOp::kLess, 30.0f}).ok());

  gpu::Device device = StreamDevice();
  StreamingBoundedJoin join(&device, &s.polys, &s.soup, s.world, options);
  ASSERT_TRUE(join.Init().ok());
  ASSERT_TRUE(join.AddBatch(s.points).ok());
  auto result = join.Finish();
  ASSERT_TRUE(result.ok());

  double total = 0;
  for (const double c : result.value().arrays.count) total += c;
  std::size_t expected = 0;
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    expected += s.points.attribute(0)[i] < 30.0f;
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(expected));
}

}  // namespace
}  // namespace rj
