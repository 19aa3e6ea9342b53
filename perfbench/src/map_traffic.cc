/// \file map_traffic.cc
/// \brief Workload `map_traffic`: the HTTP front end under independent map
/// users. Open-loop Poisson arrivals at one fixed rate (about half of the
/// host's measured capacity) from at most `nproc` sender threads and
/// connections; Zipf(1.1) popularity over a pan/zoom view catalog larger
/// than the result cache, plus a share of cache-bypass requests. Fusion is
/// on. Taxi points are Hilbert-sharded over a 2-device pool with routing
/// on; a second dataset's polygons cover a sub-extent so routing skips
/// shards. Latency runs from each request's scheduled arrival.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "data/region_generator.h"
#include "data/sharded_table.h"
#include "data/taxi_generator.h"
#include "gpu/device_pool.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "query/query_spec.h"
#include "service/query_service.h"

namespace perfbench {
namespace {

using namespace rj;

constexpr std::size_t kPoints = 200'000;
constexpr std::size_t kShards = 4;
constexpr std::size_t kDevices = 2;
/// Distinct views (of 1,152 possible); the result cache holds far fewer.
constexpr std::size_t kViews = 600;
/// Offered load. On a 4-hardware-thread host, goodput kept pace with the
/// offered rate up to 1,200 requests/s over this blend; at 1,600 the queues
/// grew without bound (p50 0.4 s), and offered loads of 2,400 and 3,200
/// gave 1,700–1,900 requests/s. At 600 and 800 requests/s, about half of
/// that, p50 and p90 moved by 25–38% from seed to seed, because requests
/// wait for one of the four connections behind cache misses. At 400, p90
/// still rose by 26% between two sets of ten runs; at 200 it moves least.
constexpr double kRateQps = 200.0;
constexpr std::size_t kBypassEvery = 10;  // every tenth request
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kResultCacheBytes = 4u << 20;
constexpr std::size_t kSetupRepeats = 15;
constexpr double kPrerollSeconds = 2.0;
constexpr double kPrerollQps = 1600.0;
constexpr std::size_t kExecSamples = 6;

gpu::DeviceOptions MapDevice() {
  gpu::DeviceOptions d;
  d.memory_budget_bytes = 64ull << 20;
  d.max_fbo_dim = 4096;
  d.num_workers = 1;
  return d;
}

/// Zipf(s) over ranks [0, n) by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t Sample(Rng* rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng->Uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The pan/zoom view catalog: sessions alternate sliding an hour window
/// (pan) and stepping down an ε ladder (zoom); every fifth session targets
/// the sub-extent dataset. Each session shows every zoom level twice, from
/// a start level that cycles with the session, so every seed asks the same
/// mix of canvas sizes; the seed draws the hour windows and aggregates.
/// Aggregates read integer-valued columns or MIN/MAX, whose sharded merge
/// is exact.
std::vector<QuerySpec> Catalog(std::uint64_t seed) {
  const double kZoom[] = {400.0, 250.0, 160.0, 120.0};
  Rng rng(seed * 6151 + 5);
  std::vector<QuerySpec> out;
  std::set<std::size_t> seen;
  for (std::size_t session = 0; out.size() < kViews; ++session) {
    std::size_t zoom = session % 4;
    double lo = static_cast<double>(rng.UniformInt(18));
    const double width = session % 2 == 0 ? 4.0 : 6.0;
    const bool sub = session % 5 == 4;
    for (std::size_t step = 0; step < 8 && out.size() < kViews; ++step) {
      QuerySpecBuilder b;
      b.Dataset(sub ? "taxi_sub" : "taxi")
          .Variant(JoinVariant::kBoundedRaster)
          .Epsilon(kZoom[zoom])
          .Filter(kTaxiHour, FilterOp::kGreaterEqual, static_cast<float>(lo))
          .Filter(kTaxiHour, FilterOp::kLess, static_cast<float>(lo + width));
      switch (rng.UniformInt(4)) {
        case 0: b.Count(); break;
        case 1: b.Sum(kTaxiPassengers); break;
        case 2: b.Average(kTaxiPassengers); break;
        default: b.Max(kTaxiFare); break;
      }
      QuerySpec spec = b.Build().value();
      if (seen.insert(HashSpec(spec)).second) out.push_back(spec);
      if (step % 2 == 0) {
        lo = std::fmod(lo + 1.0, 18.0);
      } else {
        zoom = (zoom + 1) % 4;
      }
    }
  }
  return out;
}

struct Stack {
  std::unique_ptr<gpu::DevicePool> pool;
  std::unique_ptr<data::ShardedTable> shards;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<net::QueryServer> server;
};

/// One scheduled request of the open loop.
struct Arrival {
  double at = 0.0;  ///< seconds after the window starts
  std::size_t view = 0;
  bool bypass = false;
};

/// What a sender saw for one request.
struct Outcome {
  double latency_ms = -1.0;  ///< from scheduled arrival; < 0 = not served
  double late_ms = 0.0;      ///< send time minus scheduled time
  int status = 0;
  double post_ms = 0.0;
  double queue_ms = 0.0;
  double execute_ms = 0.0;
  double decode_ms = 0.0;
  std::size_t bytes = 0;
  bool cache_hit = false;
  std::vector<double> values;
};

}  // namespace

int RunMapTraffic(const Args& args, Report* report) {
  const std::size_t num_points = args.self_test ? 40'000 : kPoints;
  const std::size_t senders =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   4, std::thread::hardware_concurrency()));
  report->Info("rate_qps", kRateQps);
  report->Info("senders", static_cast<double>(senders));

  PolygonSet full_polys, sub_polys;
  {
    auto full = TinyRegions(48, NycExtentMeters(), args.seed);
    const BBox nyc = NycExtentMeters();
    RegionGeneratorOptions gen;
    gen.seed = args.seed + 17;
    auto sub = GenerateRegions(
        16,
        BBox(nyc.min_x + 0.25 * nyc.Width(), nyc.min_y + 0.45 * nyc.Height(),
             nyc.min_x + 0.55 * nyc.Width(), nyc.min_y + 0.8 * nyc.Height()),
        gen);
    if (!full.ok() || !sub.ok()) {
      report->Fail("region generation failed");
      return 1;
    }
    full_polys = std::move(full).MoveValueUnsafe();
    sub_polys = std::move(sub).MoveValueUnsafe();
  }
  const std::vector<QuerySpec> catalog = Catalog(args.seed);

  // --- set-up: points, shards, pool, service, server, registration. ------
  Stack stack;
  PointTable points;
  std::vector<double> setup_s, register_ms;
  ResetPeakRss();
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    if (stack.server) stack.server->Shutdown();
    stack = Stack();
    const double t0 = Now();
    TaxiGeneratorOptions gen;
    gen.seed = args.seed;
    points = GenerateTaxiPoints(num_points, gen);
    data::ShardingOptions sharding;
    sharding.num_shards = kShards;
    sharding.policy = data::ShardPolicy::kHilbert;
    auto table = data::ShardedTable::Partition(points, sharding);
    if (!table.ok()) {
      report->Fail("partition: " + table.status().ToString());
      return 1;
    }
    stack.shards = std::make_unique<data::ShardedTable>(
        std::move(table).MoveValueUnsafe());
    gpu::DevicePoolOptions pool;
    pool.num_devices = kDevices;
    pool.device = MapDevice();
    stack.pool = std::make_unique<gpu::DevicePool>(pool);
    service::ServiceOptions options;
    options.num_dispatchers = kDevices;
    options.max_fusion_group_size = 4;
    options.result_cache_bytes = kResultCacheBytes;
    stack.service =
        std::make_unique<service::QueryService>(stack.pool.get(), options);
    const double reg_t0 = Now();
    stack.service->RegisterShardedDataset(stack.shards.get(), &full_polys,
                                          "taxi");
    stack.service->RegisterShardedDataset(stack.shards.get(), &sub_polys,
                                          "taxi_sub");
    register_ms.push_back((Now() - reg_t0) * 1e3 / 2.0);
    net::QueryServerOptions server;
    server.http.num_workers = senders + 2;
    stack.server =
        std::make_unique<net::QueryServer>(stack.service.get(), server);
    if (Status st = stack.server->Start(); !st.ok()) {
      report->Fail("server start: " + st.ToString());
      return 1;
    }
    // Warm-up: one request per dataset over the wire.
    net::HttpClient client("127.0.0.1", stack.server->port());
    for (const char* name : {"taxi", "taxi_sub"}) {
      QueryRequest request;
      request.spec = catalog[0];
      request.spec.dataset = name;
      request.policy.use_result_cache = false;
      auto r = client.Post("/v1/query", QueryRequestToJson(request));
      if (!r.ok() || r.value().status != 200) {
        report->Fail("warm-up request failed");
        return 1;
      }
    }
    setup_s.push_back(Now() - t0);
  }

  // Request bodies, as a map client would send them.
  std::vector<std::string> bodies, bypass_bodies;
  for (const QuerySpec& spec : catalog) {
    QueryRequest request;
    request.spec = spec;
    bodies.push_back(QueryRequestToJson(request));
    request.policy.use_result_cache = false;
    bypass_bodies.push_back(QueryRequestToJson(request));
  }

  // A Poisson arrival schedule at `qps` for a window of `seconds`.
  const Zipf zipf(catalog.size(), kZipfExponent);
  Rng schedule_rng(args.seed * 2654435761ull + 9);
  const auto schedule = [&](double seconds, double qps) {
    std::vector<Arrival> out;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - schedule_rng.Uniform()) / qps;
      if (t >= seconds) break;
      // A bypass is a view opened fresh (uniform over the catalog); the
      // rest follow Zipf popularity.
      const bool bypass = out.size() % kBypassEvery == kBypassEvery - 1;
      out.push_back({t,
                     bypass ? schedule_rng.UniformInt(catalog.size())
                            : zipf.Sample(&schedule_rng),
                     bypass});
    }
    return out;
  };

  // Runs one open-loop window; spans are recorded when tracing is on.
  const auto open_loop = [&](const std::vector<Arrival>& arrivals,
                             std::vector<Outcome>* outcomes) {
    outcomes->assign(arrivals.size(), Outcome());
    std::atomic<std::size_t> next{0};
    const double t0 = Now();
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < senders; ++s) {
      threads.emplace_back([&] {
        net::HttpClient client("127.0.0.1", stack.server->port(), 30.0);
        client.set_replay_safe_posts(true);  // /v1/query is read-only
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= arrivals.size()) return;
          const Arrival& a = arrivals[i];
          const double wait = t0 + a.at - Now();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          Outcome& o = (*outcomes)[i];
          Span root("loadgen.request");
          const double sent = Now();
          o.late_ms = (sent - (t0 + a.at)) * 1e3;
          Result<net::HttpClientResponse> response = Status::Internal("unset");
          std::uint64_t post_id = 0;
          {
            Span post("net.post");
            post_id = post.id();
            response = client.Post(
                "/v1/query", (a.bypass ? bypass_bodies : bodies)[a.view]);
            o.post_ms = (Now() - post.start()) * 1e3;
          }
          if (!response.ok()) continue;
          o.status = response.value().status;
          if (o.status != 200) continue;
          o.bytes = response.value().body.size();
          Result<net::DecodedQueryResponse> decoded = Status::Internal("unset");
          {
            Span span("net.decode");
            const double d0 = Now();
            decoded = net::ParseQueryResponse(response.value().body);
            o.decode_ms = (Now() - d0) * 1e3;
          }
          o.latency_ms = (Now() - (t0 + a.at)) * 1e3;
          if (!decoded.ok()) {
            o.latency_ms = -1.0;
            continue;
          }
          const net::DecodedQueryResponse& d = decoded.value();
          o.queue_ms = d.queue_seconds * 1e3;
          o.execute_ms = d.execute_seconds * 1e3;
          o.cache_hit = d.cache_hit;
          o.values = d.values;
          if (Tracer::Get().enabled()) {
            // Server-side time, as the response reports it, at the end of
            // the round trip.
            const double post_end = sent + o.post_ms / 1e3;
            const double exec_start = post_end - d.execute_seconds;
            const double queue_start = exec_start - d.queue_seconds;
            Tracer::Get().Reported("service.queue", post_id, root.request(),
                                   queue_start, exec_start);
            Tracer::Get().Reported("query.execute", post_id, root.request(),
                                   exec_start, post_end);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return Now() - t0;
  };

  // Oracle, outside the timed window: each requested view against a direct
  // single-device executor over the unsharded in-memory rows.
  gpu::DeviceOptions oracle_options = MapDevice();
  oracle_options.num_workers = DeviceWorkers();
  gpu::Device oracle_device(oracle_options);
  Executor oracle_full(&oracle_device, &points, &full_polys);
  Executor oracle_sub(&oracle_device, &points, &sub_polys);
  std::map<std::size_t, std::vector<double>> expected;
  const auto expected_for = [&](std::size_t view) -> const std::vector<double>* {
    auto it = expected.find(view);
    if (it == expected.end()) {
      Executor& oracle =
          catalog[view].dataset == "taxi" ? oracle_full : oracle_sub;
      auto r = oracle.ExecuteUncached(catalog[view].ToQuery());
      if (!r.ok()) return nullptr;
      it = expected.emplace(view, r.value().values).first;
    }
    return &it->second;
  };
  // Returns the requests that were not served or differ from the oracle; a
  // difference also fails the run recorded in `into`.
  const auto check = [&](const std::vector<Arrival>& arrivals,
                         std::vector<Outcome>* outcomes, Report* into) {
    std::size_t failed = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      Outcome& o = (*outcomes)[i];
      if (o.latency_ms < 0.0) {
        ++failed;
        continue;
      }
      const std::vector<double>* want = expected_for(arrivals[i].view);
      if (want == nullptr || !BitwiseEqual(*want, o.values)) {
        into->Fail("results differ from the oracle");
        o.latency_ms = -1.0;
        ++failed;
      }
    }
    return failed;
  };
  const auto latencies = [](const std::vector<Outcome>& outcomes) {
    std::vector<double> out;
    for (const Outcome& o : outcomes) {
      if (o.latency_ms >= 0.0) out.push_back(o.latency_ms);
    }
    return out;
  };

  if (args.self_test) {
    // One request over the wire, one value altered, through the same
    // comparison.
    const std::vector<Arrival> one{{0.0, 0, false}};
    std::vector<Outcome> outcomes;
    open_loop(one, &outcomes);
    const bool served = outcomes[0].latency_ms >= 0.0;
    AlterOneValue(&outcomes[0].values);
    Report probe;
    check(one, &outcomes, &probe);
    const bool rejected = served && !probe.correct;
    report->Info("oracle_rejects_altered", rejected ? "yes" : "no");
    if (!rejected) report->Fail("oracle accepted an altered result");
  }

  // Pre-roll, untimed: the same traffic mix offered at about capacity, so the
  // result cache is at steady state and every canvas size has been used at
  // the service's full concurrency (the pooled canvases, and with them the
  // resident memory, reach their plateau) before the window opens.
  {
    std::vector<Outcome> ignored;
    open_loop(schedule(kPrerollSeconds, kPrerollQps), &ignored);
  }

  if (!args.trace) {
    // The window holds at least kMinSamples scheduled requests.
    const double seconds =
        std::max(args.seconds, static_cast<double>(kMinSamples) / kRateQps);
    const std::vector<Arrival> arrivals = schedule(seconds, kRateQps);
    std::vector<Outcome> outcomes;
    const double window = open_loop(arrivals, &outcomes);
    const double rss_mb = PeakRssMb();
    report->attempted = arrivals.size();
    report->failed = check(arrivals, &outcomes, report);
    SetEndToEnd(report, latencies(outcomes), window, setup_s, rss_mb);
    // Where the hit/miss latency boundary lies, next to p50 and p90.
    std::vector<double> hit_ms, miss_ms;
    for (const Outcome& o : outcomes) {
      if (o.latency_ms >= 0.0) {
        (o.cache_hit ? hit_ms : miss_ms).push_back(o.latency_ms);
      }
    }
    report->Info("cache_hit_share",
                 static_cast<double>(hit_ms.size()) /
                     static_cast<double>(arrivals.size()));
    report->Info("hit_p99_ms", Quantile(hit_ms, 0.99));
    report->Info("miss_p10_ms", Quantile(miss_ms, 0.1));
    report->Info("miss_p50_ms", Quantile(miss_ms, 0.5));
  } else {
    SetLayerDefaults(report);
    const double half = std::max(args.seconds / 2,
                                 static_cast<double>(kMinSamples) / kRateQps);
    const std::vector<Arrival> plain_arrivals = schedule(half, kRateQps);
    std::vector<Outcome> plain;
    open_loop(plain_arrivals, &plain);

    const std::vector<Arrival> arrivals = schedule(half, kRateQps);
    std::vector<Outcome> outcomes;
    const service::ServiceStats stats_before = stack.service->stats();
    const gpu::CountersSnapshot counters_before =
        stack.pool->TotalCounters();
    Tracer::Get().set_enabled(true);
    open_loop(arrivals, &outcomes);
    Tracer::Get().set_enabled(false);
    const gpu::CountersSnapshot during =
        stack.pool->TotalCounters().DeltaSince(counters_before);
    const service::ServiceStats stats_after = stack.service->stats();
    const std::vector<SpanRecord> spans = Tracer::Get().Snapshot();

    report->attempted = plain_arrivals.size() + arrivals.size();
    report->failed = check(plain_arrivals, &plain, report) +
                     check(arrivals, &outcomes, report);
    report->Set("trace.overhead_ratio",
                Median(latencies(outcomes)) / Median(latencies(plain)) - 1.0,
                "ratio");
    report->Set("loadgen.error_ratio",
                static_cast<double>(report->failed) /
                    static_cast<double>(report->attempted),
                "ratio");

    std::vector<double> overhead, queue, execute, decode, late, bytes;
    std::size_t refused = 0, executed = 0;
    for (const Outcome& o : outcomes) {
      late.push_back(o.late_ms);
      if (o.status == 429 || o.status == 503) ++refused;
      if (o.latency_ms < 0.0) continue;
      overhead.push_back(o.post_ms - o.queue_ms - o.execute_ms);
      queue.push_back(o.queue_ms);
      execute.push_back(o.execute_ms);
      decode.push_back(o.decode_ms);
      bytes.push_back(static_cast<double>(o.bytes));
      executed += o.cache_hit ? 0 : 1;
    }
    report->Set("net.overhead_p50_ms", Quantile(overhead, 0.5), "ms");
    report->Set("net.decode_ms", Median(decode), "ms");
    report->Set("net.response_bytes", Mean(bytes), "B");
    report->Set("net.refused_ratio",
                static_cast<double>(refused) /
                    static_cast<double>(std::max<std::size_t>(
                        arrivals.size(), 1)),
                "ratio");
    report->Set("service.queue_p50_ms", Quantile(queue, 0.5), "ms");
    report->Set("service.queue_p90_ms", Quantile(queue, 0.9), "ms");
    report->Set("service.execute_p50_ms", Quantile(execute, 0.5), "ms");
    const double hits = static_cast<double>(stats_after.cache.hits -
                                            stats_before.cache.hits);
    const double misses = static_cast<double>(stats_after.cache.misses -
                                              stats_before.cache.misses);
    report->Set("service.cache_hit_ratio",
                hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
    report->Set("service.cache_evictions",
                static_cast<double>(stats_after.cache.evictions -
                                    stats_before.cache.evictions),
                "count");
    report->Set("service.register_ms", Median(register_ms), "ms");
    report->Set("gpu.vertices_per_execution",
                static_cast<double>(during.vertices) /
                    static_cast<double>(std::max<std::size_t>(executed, 1)),
                "count");
    std::size_t peak = 0;
    for (std::size_t d = 0; d < stack.pool->size(); ++d) {
      peak = std::max(peak, stack.pool->device(d)->peak_bytes_allocated());
    }
    report->Set("gpu.peak_bytes_allocated", static_cast<double>(peak), "B");
    report->Set("loadgen.late_p90_ms", Quantile(late, 0.9), "ms");
    SetRequestLedger(report, spans);

    // Decomposition over a seeded sample of views (both datasets): direct
    // sharded execution twice on fresh pools, one layer-by-layer replay.
    std::vector<std::size_t> sample_views;
    for (std::size_t v = 0; v < catalog.size() &&
                            sample_views.size() < kExecSamples;
         ++v) {
      const bool want_sub = sample_views.size() % 2 == 1;
      if ((catalog[v].dataset == "taxi_sub") == want_sub) {
        sample_views.push_back(v);
      }
    }
    std::vector<ExecSample> first, second;
    for (std::vector<ExecSample>* pass : {&first, &second}) {
      gpu::DevicePoolOptions pool_options;
      pool_options.num_devices = kDevices;
      pool_options.device = MapDevice();
      gpu::DevicePool pool(pool_options);
      Executor full(&pool, stack.shards.get(), &full_polys);
      Executor sub(&pool, stack.shards.get(), &sub_polys);
      std::vector<ExecJob> jobs;
      for (const std::size_t v : sample_views) {
        SpatialAggQuery q = catalog[v].ToQuery();
        q.enable_shard_cache = false;  // repeatable: no partial reuse
        jobs.push_back({catalog[v].dataset == "taxi" ? &full : &sub, q});
      }
      Tracer::Get().set_enabled(pass == &first);
      if (Status st = ExecutePass(jobs, pass); !st.ok()) {
        report->Fail("execute pass: " + st.ToString());
        return 1;
      }
      if (pass != &first) continue;
      std::vector<const PointTable*> shard_rows;
      for (std::size_t s = 0; s < stack.shards->num_shards(); ++s) {
        shard_rows.push_back(&stack.shards->shard(s));
      }
      std::size_t encoded_bytes = 0;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        ReplayJob replay;
        replay.executor = jobs[j].executor;
        replay.shards = shard_rows;
        replay.device = pool.device(0);
        replay.batch_points = stack.shards->max_shard_points();
        replay.query = jobs[j].query;
        if (Status st = ReplayLayers(replay); !st.ok()) {
          report->Fail("replay: " + st.ToString());
          return 1;
        }
        // The wire encoding of this result, as the server would send it.
        QueryResult encoded;
        encoded.values = first[j].values;
        const service::ServiceResponse response{encoded, {}};
        Span span("net.encode");
        encoded_bytes += net::QueryResponseJson(response).size();
      }
      report->Info("replay_encoded_bytes", static_cast<double>(encoded_bytes));
    }
    Tracer::Get().set_enabled(false);
    for (std::size_t j = 0; j < sample_views.size(); ++j) {
      const std::vector<double>* want = expected_for(sample_views[j]);
      if (want == nullptr || !BitwiseEqual(*want, first[j].values)) {
        report->Fail("direct sharded execution differs from the oracle");
      }
    }
    CheckCountersRepeat(report, first, second);
    SetExecMetrics(report, first);
    const std::vector<SpanRecord> all = Tracer::Get().Snapshot();
    SetReplayMetrics(report, all);
    report->Set("net.encode_ms", Median(SpanDurationsMs(all, "net.encode")),
                "ms");
  }

  stack.server->Shutdown();
  stack.service->Shutdown();
  return 0;
}

}  // namespace perfbench
