/// \file main.cc
/// \brief Entry point of the repository benchmark.
///
///   perfbench --workload <county_accurate|taxi_adhoc|map_traffic>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--self-test] [--work-dir <dir>]
///
/// Prints one JSON line of run facts (host, build, seed, sample counts),
/// then, as the last line, the result object
/// {"correct":..., "attempted":..., "failed":..., "metrics":{...}}.
/// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
/// per-layer ones. Exits 1 when the run could not complete.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args->trace = std::atoi(argv[++i]) != 0;
    } else if (flag == "--work-dir" && has_value) {
      args->work_dir = argv[++i];
    } else if (flag == "--self-test") {
      args->self_test = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--self-test] [--work-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  ::mkdir(args.work_dir.c_str(), 0755);

  Report report;
  report.Info("workload", args.workload);
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("trace", args.trace ? "1" : "0");
  report.Info("nproc",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("device_workers", static_cast<double>(DeviceWorkers()));
  report.Info("compiler", __VERSION__);
  report.Info("build_type", PERFBENCH_BUILD_TYPE);

  int rc = 1;
  if (args.workload == "county_accurate") {
    rc = RunCountyAccurate(args, &report);
  } else if (args.workload == "taxi_adhoc") {
    rc = RunTaxiAdhoc(args, &report);
  } else if (args.workload == "map_traffic") {
    rc = RunMapTraffic(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    const std::string spans = args.work_dir + "/spans-" + args.workload +
                              "-" + std::to_string(args.seed) + ".jsonl";
    Tracer::Get().Dump(spans);
    report.Info("spans_file", spans);
  }
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) report.Fail("non-finite " + name);
  }

  std::string info = "{";
  for (const auto& [key, value] : report.info) {
    if (info.size() > 1) info += ",";
    info += "\"" + Escape(key) + "\":\"" + Escape(value) + "\"";
  }
  std::printf("%s}\n", info.c_str());
  if (rc != 0) {
    std::fflush(stdout);
    std::fprintf(stderr, "run failed: %s\n",
                 report.info.count("failure") != 0
                     ? report.info["failure"].c_str()
                     : "unknown");
    return rc;
  }

  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + Escape(name) + "\": {\"value\": " +
           Number(std::isfinite(metric.value) ? metric.value : 0.0) +
           ", \"unit\": \"" + Escape(metric.unit) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
