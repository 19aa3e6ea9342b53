/// \file county_accurate.cc
/// \brief Workload `county_accurate`: 3,945 US counties × Twitter points,
/// registered from a Hilbert-clustered v2 block file, queried by one
/// closed-loop client through the in-process QueryService with the result
/// cache off. Mostly accurate 2048² joins plus a share of bounded ε = 4 km.
/// The polygon pass (boundary draw, grid-index rebuild, polygon draw) is
/// most of every query.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>

#include "bench.h"
#include "common/rng.h"
#include "data/block_file.h"
#include "data/datasets.h"
#include "data/twitter_generator.h"
#include "layers.h"
#include "query/query_spec.h"
#include "service/query_service.h"

namespace perfbench {
namespace {

using namespace rj;

constexpr std::size_t kPoints = 100'000;
constexpr std::size_t kBlockCapacity = 8192;
constexpr std::int32_t kCanvas = 2048;
constexpr double kBoundedEpsilon = 4000.0;  // meters
constexpr std::size_t kCatalog = 16;
constexpr std::size_t kBoundedEvery = 4;  // one catalog entry in four
constexpr std::size_t kSetupRepeats = 9;

gpu::DeviceOptions CountyDevice() {
  gpu::DeviceOptions d;
  d.memory_budget_bytes = 64ull << 20;
  d.max_fbo_dim = 4096;
  d.num_workers = DeviceWorkers();
  return d;
}

/// Distinct aggregate/filter specs; entry k is bounded when
/// k % kBoundedEvery == kBoundedEvery - 1, accurate otherwise.
std::vector<QuerySpec> Catalog(std::uint64_t seed) {
  Rng rng(seed * 7919 + 11);
  std::vector<QuerySpec> out;
  for (std::size_t k = 0; k < kCatalog; ++k) {
    QuerySpecBuilder b;
    b.Dataset("county");
    switch (k % 4) {
      case 0: b.Count(); break;
      case 1: b.Sum(kTweetFavorites); break;
      case 2: b.Average(kTweetRetweets); break;
      default: b.Max(kTweetFavorites); break;
    }
    // An hour-of-day window on three specs in four.
    if (k % 4 != 0) {
      const float lo = static_cast<float>(rng.UniformInt(18));
      const float width = static_cast<float>(3 + rng.UniformInt(6));
      b.Filter(kTweetHour, FilterOp::kGreaterEqual, lo)
          .Filter(kTweetHour, FilterOp::kLess, lo + width);
    }
    if (k % kBoundedEvery == kBoundedEvery - 1) {
      b.Variant(JoinVariant::kBoundedRaster).Epsilon(kBoundedEpsilon);
    } else {
      b.Variant(JoinVariant::kAccurateRaster).CanvasDim(kCanvas);
    }
    out.push_back(b.Build().value());
  }
  return out;
}

/// The system under test after set-up.
struct Stack {
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<service::QueryService> service;
  std::size_t dataset = 0;
};

}  // namespace

int RunCountyAccurate(const Args& args, Report* report) {
  const double polygons_t0 = Now();
  auto counties = args.self_test
                      ? TinyRegions(200, UsExtentMeters(), 3945)
                      : UsCounties();
  if (!counties.ok()) {
    report->Fail("polygon generation: " + counties.status().ToString());
    return 1;
  }
  const PolygonSet polys = std::move(counties).MoveValueUnsafe();
  report->Info("polygons", static_cast<double>(polys.size()));
  report->Info("polygon_generation_s", Now() - polygons_t0);

  const std::size_t num_points = args.self_test ? 20'000 : kPoints;
  const std::string path = args.work_dir + "/county-" +
                           std::to_string(args.seed) + ".rjb";
  // The block file is deleted when the run ends, however it ends.
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() { std::remove(path.c_str()); }
  } remove_block_file{path};
  const std::vector<QuerySpec> catalog = Catalog(args.seed);
  ExecPolicy policy;
  policy.use_result_cache = false;

  // --- set-up: generate, write the block file, register, warm up. --------
  Stack stack;
  std::vector<double> setup_s, register_ms;
  PointTable points;
  ResetPeakRss();
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    stack = Stack();
    const double t0 = Now();
    TwitterGeneratorOptions gen;
    gen.seed = args.seed;
    points = GenerateTwitterPoints(num_points, gen);
    data::BlockFileOptions file;
    file.block_capacity = kBlockCapacity;
    if (Status st = data::BlockFileWriter(file).Write(path, points);
        !st.ok()) {
      report->Fail("block file write: " + st.ToString());
      return 1;
    }
    stack.device = std::make_unique<gpu::Device>(CountyDevice());
    service::ServiceOptions options;
    options.num_dispatchers = 1;
    stack.service = std::make_unique<service::QueryService>(
        stack.device.get(), options);
    const double reg_t0 = Now();
    auto id = stack.service->RegisterDatasetFromFile(path, &polys, "county");
    register_ms.push_back((Now() - reg_t0) * 1e3);
    if (!id.ok()) {
      report->Fail("register: " + id.status().ToString());
      return 1;
    }
    stack.dataset = id.value();
    // Warm-up: one query of each variant (builds the triangulation).
    for (const std::size_t k : {std::size_t{0}, kBoundedEvery - 1}) {
      service::ServiceResponse r =
          stack.service->Submit(stack.dataset, catalog[k], policy).get();
      if (!r.result.ok()) {
        report->Fail("warm-up: " + r.result.status().ToString());
        return 1;
      }
    }
    setup_s.push_back(Now() - t0);
  }

  const double setup_rss_mb = PeakRssMb();

  // --- oracle: direct single-device execution over in-memory rows. -------
  auto reader = data::BlockFileReader::Open(path);
  if (!reader.ok()) {
    report->Fail("reopen: " + reader.status().ToString());
    return 1;
  }
  auto rows = data::MaterializeBlocks(*reader.value());
  if (!rows.ok()) {
    report->Fail("materialize: " + rows.status().ToString());
    return 1;
  }
  const PointTable memory_rows = std::move(rows).MoveValueUnsafe();
  std::vector<std::vector<double>> expected;
  {
    gpu::Device oracle_device(CountyDevice());
    Executor oracle(&oracle_device, &memory_rows, &polys);
    for (const QuerySpec& spec : catalog) {
      auto r = oracle.ExecuteUncached(spec.ToQuery());
      if (!r.ok()) {
        report->Fail("oracle: " + r.status().ToString());
        return 1;
      }
      expected.push_back(r.value().values);
    }
  }
  // The request order: the catalog cycled in a seeded permutation.
  std::vector<std::size_t> order(catalog.size());
  std::iota(order.begin(), order.end(), 0);
  {
    Rng rng(args.seed * 31 + 7);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformInt(i)]);
    }
  }

  // An oracle mismatch fails the run through `verdict`. The self-test points
  // it at a scratch report and sets `alter`, which changes one value of the
  // next result before the comparison.
  Report* verdict = report;
  bool alter = false;
  std::vector<double> queue_ms, execute_ms;
  const auto one = [&](std::size_t i) -> double {
    const std::size_t k = order[i % order.size()];
    Span root("loadgen.request");
    const double t0 = Now();
    service::ServiceResponse r =
        SubmitAndWait(stack.service.get(), stack.dataset, catalog[k], policy);
    const double latency_ms = (Now() - t0) * 1e3;
    if (!r.result.ok()) return -1.0;
    if (alter) AlterOneValue(&r.result.value().values);
    if (!BitwiseEqual(r.result.value().values, expected[k])) {
      verdict->Fail("results differ from the oracle");
      return -1.0;
    }
    queue_ms.push_back(r.stats.queue_seconds * 1e3);
    execute_ms.push_back(r.stats.execute_seconds * 1e3);
    return latency_ms;
  };

  if (args.self_test) {
    Report probe;
    verdict = &probe;
    alter = true;
    const bool rejected = one(0) < 0.0 && !probe.correct;
    verdict = report;
    alter = false;
    report->Info("oracle_rejects_altered", rejected ? "yes" : "no");
    if (!rejected) report->Fail("oracle accepted an altered result");
  }

  if (!args.trace) {
    ResetPeakRss();
    const Window w = ClosedLoop(args.seconds, kMinSamples, SIZE_MAX, one);
    report->attempted = w.attempted;
    report->failed = w.failed;
    SetEndToEnd(report, w.latencies_ms, w.seconds, setup_s,
                std::max(setup_rss_mb, PeakRssMb()));
    return 0;
  }

  // --- traced run --------------------------------------------------------
  SetLayerDefaults(report);
  const std::size_t min_half = args.self_test ? 4 : kMinSamples / 2;
  const Window plain = ClosedLoop(args.seconds / 2, min_half, SIZE_MAX, one);
  queue_ms.clear();
  execute_ms.clear();
  const gpu::CountersSnapshot before = stack.device->counters().Snapshot();
  Tracer::Get().set_enabled(true);
  const Window traced = ClosedLoop(args.seconds / 2, min_half, SIZE_MAX, one);
  const std::vector<SpanRecord> request_spans = Tracer::Get().Snapshot();
  const gpu::CountersSnapshot during =
      stack.device->counters().Snapshot().DeltaSince(before);
  report->attempted = plain.attempted + traced.attempted;
  report->failed = plain.failed + traced.failed;

  report->Set("trace.overhead_ratio",
              Median(traced.latencies_ms) / Median(plain.latencies_ms) - 1.0,
              "ratio");
  report->Set("loadgen.error_ratio",
              static_cast<double>(report->failed) /
                  static_cast<double>(report->attempted),
              "ratio");
  report->Set("service.queue_p50_ms", Quantile(queue_ms, 0.5), "ms");
  report->Set("service.queue_p90_ms", Quantile(queue_ms, 0.9), "ms");
  report->Set("service.execute_p50_ms", Quantile(execute_ms, 0.5), "ms");
  report->Set("service.register_ms", Median(register_ms), "ms");
  report->Set("gpu.vertices_per_execution",
              static_cast<double>(during.vertices) /
                  static_cast<double>(std::max<std::size_t>(
                      traced.latencies_ms.size(), 1)),
              "count");
  SetRequestLedger(report, request_spans);

  report->Set("gpu.peak_bytes_allocated",
              static_cast<double>(stack.device->peak_bytes_allocated()), "B");

  // Decomposition: a seeded sample of catalog entries, executed directly
  // (twice, on fresh stacks, for the counter-repeat check) and replayed
  // layer by layer.
  // The sample keeps the catalog's mix: the first three accurate and the
  // first bounded entry in request order.
  std::vector<std::size_t> sample_k;
  std::size_t accurate = 0, bounded = 0;
  for (const std::size_t k : order) {
    const bool is_bounded = catalog[k].variant == JoinVariant::kBoundedRaster;
    if (is_bounded ? bounded++ < 1 : accurate++ < 3) sample_k.push_back(k);
  }
  std::vector<SpatialAggQuery> sample;
  for (const std::size_t k : sample_k) {
    sample.push_back(catalog[k].ToQuery(policy));
  }
  std::vector<ExecSample> first, second;
  for (std::vector<ExecSample>* pass : {&first, &second}) {
    auto source = data::BlockFileReader::Open(path);
    if (!source.ok()) {
      report->Fail("reopen: " + source.status().ToString());
      return 1;
    }
    gpu::Device device(CountyDevice());
    Executor executor(&device, source.value().get(), &polys);
    if (auto soup = executor.GetTriangulation(); !soup.ok()) {
      report->Fail("triangulate: " + soup.status().ToString());
      return 1;
    }
    std::vector<ExecJob> jobs;
    for (const SpatialAggQuery& q : sample) jobs.push_back({&executor, q});
    Tracer::Get().set_enabled(pass == &first);
    if (Status st = ExecutePass(jobs, pass); !st.ok()) {
      report->Fail("execute pass: " + st.ToString());
      return 1;
    }
    if (pass == &first) {
      for (const SpatialAggQuery& q : sample) {
        ReplayJob job;
        job.executor = &executor;
        job.shards = {&memory_rows};
        job.source = source.value().get();
        job.device = &device;
        job.batch_points = kBlockCapacity;
        job.query = q;
        if (Status st = ReplayLayers(job); !st.ok()) {
          report->Fail("replay: " + st.ToString());
          return 1;
        }
      }
    }
  }
  Tracer::Get().set_enabled(false);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (!BitwiseEqual(first[i].values, expected[sample_k[i]])) {
      report->Fail("direct execution differs from the oracle");
    }
  }
  CheckCountersRepeat(report, first, second);
  SetExecMetrics(report, first);
  SetReplayMetrics(report, Tracer::Get().Snapshot());
  return 0;
}

}  // namespace perfbench
