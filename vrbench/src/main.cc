/// vr_bench: one seeded end-to-end benchmark of vretrieve's query and
/// ingest paths over the wire. Usually run through vrbench/run.py, which
/// builds this binary first; see vrbench/README.md.
///
///   vr_bench --workload <cold_query|archive_by_id|ingest_with_queries>
///            --seed N --seconds S --trace 0|1 --workdir DIR [--smoke]
///            [--git-sha SHA] [--source-digest D]
///            [--rate QPS] [--two-stage 0|1] [--workers N]
///
/// Prints the run stamp, the operation counts, a metric table, and as
/// the last line one JSON object {correct, attempted, failed, metrics}:
/// the end-to-end metrics with --trace 0, the per-layer ones with
/// --trace 1. Exits 1 without a result when the run cannot complete.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

std::string Value(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) vrbench::Fail(std::string("missing value for ") + argv[*i]);
  return argv[++*i];
}

vrbench::Args Parse(int argc, char** argv) {
  vrbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      args.workload = Value(argc, argv, &i);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(Value(argc, argv, &i).c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(Value(argc, argv, &i).c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = Value(argc, argv, &i) == "1";
    } else if (flag == "--workdir") {
      args.workdir = Value(argc, argv, &i);
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--git-sha") {
      args.git_sha = Value(argc, argv, &i);
    } else if (flag == "--source-digest") {
      args.source_digest = Value(argc, argv, &i);
    } else if (flag == "--rate") {
      args.rate = std::strtod(Value(argc, argv, &i).c_str(), nullptr);
    } else if (flag == "--two-stage") {
      args.two_stage = Value(argc, argv, &i) != "0";
    } else if (flag == "--workers") {
      args.workers = std::strtoul(Value(argc, argv, &i).c_str(), nullptr, 10);
    } else {
      vrbench::Fail("unknown flag " + flag);
    }
  }
  if (args.workdir.empty()) vrbench::Fail("--workdir is required");
  if (!(args.seconds > 0)) vrbench::Fail("--seconds must be positive");
  if (args.workers == 0) vrbench::Fail("--workers must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const vrbench::Args args = Parse(argc, argv);
  std::printf("stamp %s\n", vrbench::StampJson(args).c_str());
  std::fflush(stdout);

  vrbench::Ops ops;
  vrbench::WorkloadResult result;
  if (args.workload == "cold_query") {
    vrbench::RunColdQuery(args, &ops, &result);
  } else if (args.workload == "archive_by_id") {
    vrbench::RunArchiveById(args, &ops, &result);
  } else if (args.workload == "ingest_with_queries") {
    vrbench::RunIngestWithQueries(args, &ops, &result);
  } else {
    vrbench::Fail("unknown workload '" + args.workload + "'");
  }
  result.e2e.Set("peak_rss_mb", vrbench::PeakRssMb(), "MiB");

  std::printf("ops %s\n", ops.ToJson().c_str());
  result.e2e.Print("e2e");
  if (args.trace) result.layers.Print("layer");
  const vrbench::Metrics& metrics = args.trace ? result.layers : result.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()),
              metrics.ToJson().c_str());
  return 0;
}
