/// \file taxi_adhoc.cc
/// \brief Workload `taxi_adhoc`: user-drawn regions over in-memory taxi
/// points. Every request brings a fresh polygon set (seeded sizes and
/// sub-extents), registered with RegisterDataset just before Submit, so no
/// polygon artifact is ever reused. The device budget is below the point
/// set, so batches stream through the batch pipeline. One closed-loop
/// client; mostly bounded ε 20–80 m with hour filters, some accurate 1024².
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "join/join_common.h"
#include "layers.h"
#include "query/query_spec.h"
#include "service/query_service.h"

namespace perfbench {
namespace {

using namespace rj;

constexpr std::size_t kPoints = 1'500'000;
constexpr std::size_t kDeviceBudget = 8ull << 20;  // below the point set
constexpr std::size_t kSetupRepeats = 9;
/// Requests prepared per run; the timed window stops early if it runs out.
constexpr std::size_t kRequestBudget = 601;

gpu::DeviceOptions TaxiDevice(std::size_t budget) {
  gpu::DeviceOptions d;
  d.memory_budget_bytes = budget;
  d.max_fbo_dim = 4096;
  d.num_workers = DeviceWorkers();
  return d;
}

/// One user-drawn request: its polygon set and what it asks.
struct AdhocRequest {
  PolygonSet polys;
  QuerySpec spec;
};

/// Requests come in blocks of kBlock whose composition is fixed: 4
/// accurate 1024² and 16 bounded (4 each at ε = 20, 40, 60, 80 m), region
/// counts cycling through 8–96, sub-extents through 20–60% of the city per
/// side and anchored over a grid. The seed shuffles each block and draws
/// the geometry, the position jitter and the filter windows, so every seed
/// asks the same mix of work over different inputs.
constexpr std::size_t kBlock = 20;

Result<AdhocRequest> MakeRequest(Rng* rng, std::size_t slot, bool small) {
  static const std::size_t kRegions[] = {8, 16, 32, 64, 96};
  static const double kSide[] = {0.2, 0.3, 0.4, 0.5, 0.6};
  const BBox nyc = NycExtentMeters();
  AdhocRequest req;
  const std::size_t q = slot / 5, r = slot % 5;
  const std::size_t n = small ? 4 : kRegions[(q + r) % 5];
  const double side = kSide[(2 * q + r) % 5];
  const double w = nyc.Width() * side;
  const double h = nyc.Height() * side;
  // Each slot anchors its sub-extent at its own point of a 4 × 5 grid over
  // the city (taxi pickups are heavily skewed, so where a region lands sets
  // its cost); the seed jitters it.
  const double ax = std::clamp(static_cast<double>(slot % 4) / 3.0 +
                                   rng->Uniform(-0.1, 0.1),
                               0.0, 1.0);
  const double ay = std::clamp(static_cast<double>(slot / 4) / 4.0 +
                                   rng->Uniform(-0.1, 0.1),
                               0.0, 1.0);
  const double x0 = nyc.min_x + ax * (nyc.Width() - w);
  const double y0 = nyc.min_y + ay * (nyc.Height() - h);
  RegionGeneratorOptions gen;
  gen.seed = rng->Next();
  RJ_ASSIGN_OR_RETURN(req.polys,
                      GenerateRegions(n, BBox(x0, y0, x0 + w, y0 + h), gen));

  QuerySpecBuilder b;
  if (r != 4) {  // 16 of 20: bounded
    switch (slot % 3) {
      case 0: b.Sum(kTaxiFare); break;
      case 1: b.Average(kTaxiTip); break;
      default: b.Sum(kTaxiPassengers); break;
    }
    const float lo = static_cast<float>(rng->UniformInt(20));
    b.Filter(kTaxiHour, FilterOp::kGreaterEqual, lo)
        .Filter(kTaxiHour, FilterOp::kLess,
                lo + static_cast<float>(2 + rng->UniformInt(5)));
    b.Variant(JoinVariant::kBoundedRaster)
        .Epsilon(20.0 * static_cast<double>(1 + q));
  } else {
    if (slot % 2 == 0) {
      b.Count();
    } else {
      b.Sum(kTaxiFare);
    }
    b.Variant(JoinVariant::kAccurateRaster).CanvasDim(1024);
  }
  RJ_ASSIGN_OR_RETURN(req.spec, b.Build());
  return req;
}

struct Stack {
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<service::QueryService> service;
};

}  // namespace

int RunTaxiAdhoc(const Args& args, Report* report) {
  const std::size_t num_points = args.self_test ? 50'000 : kPoints;
  const std::size_t budget = args.self_test ? 256u << 10 : kDeviceBudget;

  // --- query inputs: the user-drawn region sets, from the seed. ----------
  const double inputs_t0 = Now();
  std::vector<AdhocRequest> requests;
  {
    Rng rng(args.seed * 104729 + 3);
    const std::size_t count = args.self_test ? 40 : kRequestBudget;
    std::vector<std::size_t> block(kBlock);
    for (std::size_t i = 0; i < count; ++i) {
      if (i % kBlock == 0) {
        for (std::size_t k = 0; k < kBlock; ++k) block[k] = k;
        for (std::size_t k = kBlock; k > 1; --k) {
          std::swap(block[k - 1], block[rng.UniformInt(k)]);
        }
      }
      auto req = MakeRequest(&rng, block[i % kBlock], args.self_test);
      if (!req.ok()) {
        report->Fail("region generation: " + req.status().ToString());
        return 1;
      }
      requests.push_back(std::move(req).MoveValueUnsafe());
    }
  }
  report->Info("query_input_generation_s", Now() - inputs_t0);
  // The traced run times the same requests with and without tracing: its
  // second half holds copies (fresh polygon-set objects, so nothing is
  // reused) of the first half's requests.
  const std::size_t half_budget = (requests.size() - 1) / 2;
  if (args.trace) {
    for (std::size_t j = 0; j < half_budget; ++j) {
      requests[1 + half_budget + j] = requests[1 + j];
    }
  }
  PolygonSet warm_polys;
  {
    auto warm = TinyRegions(16, NycExtentMeters(), args.seed + 1);
    if (!warm.ok()) {
      report->Fail("warm-up regions: " + warm.status().ToString());
      return 1;
    }
    warm_polys = std::move(warm).MoveValueUnsafe();
  }
  ExecPolicy policy;
  policy.use_result_cache = false;

  // --- set-up: generate points, start the service, warm up. --------------
  Stack stack;
  PointTable points;
  std::vector<double> setup_s;
  ResetPeakRss();
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    stack = Stack();
    const double t0 = Now();
    TaxiGeneratorOptions gen;
    gen.seed = args.seed;
    points = GenerateTaxiPoints(num_points, gen);
    points.CacheExtent();
    stack.device = std::make_unique<gpu::Device>(TaxiDevice(budget));
    service::ServiceOptions options;
    options.num_dispatchers = 1;
    stack.service = std::make_unique<service::QueryService>(
        stack.device.get(), options);
    const std::size_t id = stack.service->RegisterDataset(
        static_cast<const PointTable*>(&points), &warm_polys);
    service::ServiceResponse r =
        stack.service->Submit(id, requests[0].spec, policy).get();
    if (!r.result.ok()) {
      report->Fail("warm-up: " + r.result.status().ToString());
      return 1;
    }
    setup_s.push_back(Now() - t0);
  }

  std::vector<std::vector<double>> got(requests.size());
  std::vector<double> queue_ms, execute_ms, register_ms;
  const auto one = [&](std::size_t i) -> double {
    AdhocRequest& req = requests[i];
    Span root("loadgen.request");
    const double t0 = Now();
    std::size_t id = 0;
    {
      Span span("service.register");
      id = stack.service->RegisterDataset(
          static_cast<const PointTable*>(&points), &req.polys);
    }
    const double registered = Now();
    const service::ServiceResponse r =
        SubmitAndWait(stack.service.get(), id, req.spec, policy);
    const double latency_ms = (Now() - t0) * 1e3;
    if (!r.result.ok()) return -1.0;
    got[i] = r.result.value().values;
    register_ms.push_back((registered - t0) * 1e3);
    queue_ms.push_back(r.stats.queue_seconds * 1e3);
    execute_ms.push_back(r.stats.execute_seconds * 1e3);
    return latency_ms;
  };

  // Oracle, outside the timed window: every executed request against a
  // direct single-device executor over the same in-memory rows. Requests
  // are checked in parallel, one single-worker device per thread (results
  // do not depend on the worker count). A mismatch counts as failed and
  // fails the run recorded in `into`.
  const auto check = [&](std::size_t begin, std::size_t end, Report* into) {
    std::atomic<std::size_t> next{begin};
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < DeviceWorkers() + 1; ++t) {
      threads.emplace_back([&] {
        gpu::DeviceOptions options = TaxiDevice(512ull << 20);
        options.num_workers = 1;
        gpu::Device device(options);
        for (std::size_t i = next++; i < end; i = next++) {
          if (got[i].empty()) continue;  // failed request, counted already
          Executor oracle(&device, &points, &requests[i].polys);
          auto r = oracle.ExecuteUncached(requests[i].spec.ToQuery());
          if (!r.ok() || !BitwiseEqual(r.value().values, got[i])) {
            ++mismatches;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    into->failed += mismatches.load();
    if (mismatches.load() != 0) into->Fail("results differ from the oracle");
  };
  if (args.self_test) {
    // One real request, one value altered, through the same comparison.
    Report probe;
    const bool served = one(0) >= 0.0;
    AlterOneValue(&got[0]);
    check(0, 1, &probe);
    got[0].clear();
    const bool rejected = served && !probe.correct;
    report->Info("oracle_rejects_altered", rejected ? "yes" : "no");
    if (!rejected) report->Fail("oracle accepted an altered result");
  }

  if (!args.trace) {
    const Window w =
        ClosedLoop(args.seconds, kMinSamples, requests.size() - 1,
                   [&](std::size_t i) { return one(i + 1); });
    const double rss_mb = PeakRssMb();
    report->attempted = w.attempted;
    report->failed = w.failed;
    check(1, 1 + w.attempted, report);
    SetEndToEnd(report, w.latencies_ms, w.seconds, setup_s, rss_mb);
    report->Info("request_budget", static_cast<double>(requests.size() - 1));
    return 0;
  }

  // --- traced run --------------------------------------------------------
  SetLayerDefaults(report);
  const std::size_t min_half = args.self_test ? 4 : kMinSamples / 2;
  const Window plain = ClosedLoop(args.seconds / 2, min_half, half_budget,
                                  [&](std::size_t j) { return one(1 + j); });
  queue_ms.clear();
  execute_ms.clear();
  register_ms.clear();
  const gpu::CountersSnapshot before = stack.device->counters().Snapshot();
  Tracer::Get().set_enabled(true);
  const Window traced =
      ClosedLoop(args.seconds / 2, min_half, half_budget,
                 [&](std::size_t j) { return one(1 + half_budget + j); });
  Tracer::Get().set_enabled(false);
  const std::vector<SpanRecord> request_spans = Tracer::Get().Snapshot();
  const gpu::CountersSnapshot during =
      stack.device->counters().Snapshot().DeltaSince(before);
  report->attempted = plain.attempted + traced.attempted;
  report->failed = plain.failed + traced.failed;
  check(1, requests.size(), report);

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
  report->Set("gpu.peak_bytes_allocated",
              static_cast<double>(stack.device->peak_bytes_allocated()), "B");
  SetRequestLedger(report, request_spans);

  // Decomposition over the first requests of the stream: direct execution
  // twice (fresh devices and executors) and one layer-by-layer replay.
  // The sample keeps the stream's mix: its first five bounded and first
  // accurate request.
  std::vector<std::size_t> sample;
  std::size_t accurate = 0, bounded = 0;
  for (std::size_t i = 1; i < requests.size() && sample.size() < 6; ++i) {
    const bool is_bounded =
        requests[i].spec.variant == JoinVariant::kBoundedRaster;
    if (is_bounded ? bounded++ < 5 : accurate++ < 1) sample.push_back(i);
  }
  std::vector<ExecSample> first, second;
  for (std::vector<ExecSample>* pass : {&first, &second}) {
    gpu::Device device(TaxiDevice(budget));
    std::vector<std::unique_ptr<Executor>> executors;
    std::vector<ExecJob> jobs;
    for (const std::size_t i : sample) {
      executors.push_back(
          std::make_unique<Executor>(&device, &points, &requests[i].polys));
      SpatialAggQuery q = requests[i].spec.ToQuery(policy);
      q.device_memory_cap_bytes = budget / 2;  // the service's grant share
      jobs.push_back({executors.back().get(), q});
    }
    Tracer::Get().set_enabled(pass == &first);
    if (Status st = ExecutePass(jobs, pass); !st.ok()) {
      report->Fail("execute pass: " + st.ToString());
      return 1;
    }
    if (pass == &first) {
      for (const ExecJob& job : jobs) {
        ReplayJob replay;
        replay.executor = job.executor;
        replay.shards = {&points};
        replay.device = &device;
        replay.batch_points = PlanPointBatch(
            job.query.device_memory_cap_bytes,
            UploadBytesPerPoint(job.query.filters,
                                job.query.EffectiveAggregateColumn()),
            points.size(), job.query.overlap_transfers);
        replay.query = job.query;
        if (Status st = ReplayLayers(replay); !st.ok()) {
          report->Fail("replay: " + st.ToString());
          return 1;
        }
      }
    }
  }
  Tracer::Get().set_enabled(false);
  CheckCountersRepeat(report, first, second);
  SetExecMetrics(report, first);
  SetReplayMetrics(report, Tracer::Get().Snapshot());
  return 0;
}

}  // namespace perfbench
