// wpred end-to-end benchmark: argument parsing, dispatch and the report.
//
//   wpred_e2ebench --workload simulate|fit|serve|rank --seed N
//                  --seconds S --trace 0|1 [--out-dir DIR]
//
// Untraced (--trace 0) runs report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and write the span file. The
// last stdout line is one JSON object: correct, attempted, failed, metrics.
// See README.md for the workloads and every metric's definition.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "harness.h"
#include "layers.h"
#include "obs/metrics.h"

namespace wbench {
namespace {

// Order and names match BENCHMARK.json.
const char* const kEndToEnd[] = {"setup_s",   "round_s_p50", "op_us_p50",
                                 "op_us_p99", "ok_share",    "output_match",
                                 "peak_rss_mb"};
const char* const kPerLayer[] = {
    "sim.run_ms_p50",
    "sim.events",
    "sim.ns_per_event",
    "telemetry.gate_ms",
    "telemetry.aggregate_ms",
    "featsel.score_ms.rfe_logreg",
    "featsel.score_ms.fw_sfs_logreg",
    "ml.logreg_fit_us",
    "ml.mlp_fit_ms",
    "ml.svr_fit_ms",
    "ml.gb_fit_ms",
    "predict.pairwise_fit_ms.svm",
    "predict.pairwise_fit_ms.gb",
    "predict.pairwise_fit_ms.nnet",
    "predict.transition_us",
    "similarity.representation_us",
    "similarity.build_ms",
    "similarity.topk_us",
    "similarity.distances_us",
    "similarity.dtw.cells_in_band",
    "similarity.sketch.pruned",
    "similarity.lb.pruned",
    "similarity.query.exact",
    "similarity.prune_share",
    "core.fit_s",
    "core.predict_us",
    "core.prediction_nrmse",
    "serve.service_us",
    "serve.queue_wait_us",
    "serve.refit_duty_share",
    "serve.generator_lag_us_p99",
    "serve.swap_us",
    "serve.shed",
    "serve.publishes",
    "serve.refit_failures",
    "stream.observe_us_p50",
    "stream.observe_us_p99",
    "stream.change_points",
    "stream.refits_requested",
    "stream.appends",
    "obs.trace_overhead_share",
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: wpred_e2ebench --workload "
               "simulate|fit|serve|rank --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               why);
  std::exit(64);
}

Options ParseArgs(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opts.seconds > 0.0) || opts.seconds > 120.0) {
        Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      opts.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return opts;
}

const Metric* Find(const Report& report, const char* name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

int Main(int argc, char** argv) {
  const Options opts = ParseArgs(argc, argv);
  // Pinned parallelism: WPRED_THREADS and hardware_concurrency never apply.
  // simulate/fit use the caller + one pool worker; serve runs a client, a
  // stream thread and the refit supervisor with no pool; rank is serial.
  const bool pooled = opts.workload == "simulate" || opts.workload == "fit";
  wpred::SetDefaultNumThreads(pooled ? kFitThreads : 1);
  // Untraced runs never collect obs metrics, whatever WPRED_METRICS says.
  wpred::obs::SetMetricsEnabled(opts.trace);

  Tracer tracer;
  Tracer* trace = opts.trace ? &tracer : nullptr;
  Report report;
  if (opts.workload == "simulate") {
    RunSimulate(opts, trace, report);
  } else if (opts.workload == "fit") {
    RunFit(opts, trace, report);
  } else if (opts.workload == "serve") {
    RunServe(opts, trace, report);
  } else if (opts.workload == "rank") {
    RunRank(opts, trace, report);
  } else {
    Usage(("unknown workload " + opts.workload).c_str());
  }
  if (opts.trace) {
    RunLayerSweep(opts.workload, opts.seed, trace, report);
    const std::string path = opts.out_dir + "/e2ebench-spans-" +
                             opts.workload + "-" + std::to_string(opts.seed) +
                             ".json";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
  }

  const double ok_share =
      report.attempted == 0
          ? 0.0
          : static_cast<double>(report.attempted - report.failed) /
                static_cast<double>(report.attempted);
  report.Add("ok_share", ok_share, "share", report.attempted);
  report.Add("output_match",
             report.checked == 0 ? 0.0
                                 : static_cast<double>(report.matched) /
                                       static_cast<double>(report.checked),
             "share", report.checked);
  report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);

  for (const std::string& m : report.mismatches) {
    std::fprintf(stderr, "e2ebench: output check failed: %s\n", m.c_str());
  }
  std::printf("%-34s %16.6f %-6s samples=%zu (timings = raw x scale)\n",
              "speed_scale", report.speed_scale, "ratio",
              report.speed_samples);
  // Human-readable table (name, value, unit, sample count), then the JSON
  // line. A metric the run could not measure is a benchmark bug: fail.
  std::vector<const char*> names;
  if (opts.trace) {
    names.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    names.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::string metrics;
  for (const char* name : names) {
    const Metric* m = Find(report, name);
    if (m == nullptr || !std::isfinite(m->value)) {
      std::fprintf(stderr, "e2ebench: metric %s was not measured\n", name);
      return 1;
    }
    std::printf("%-34s %16.6f %-6s samples=%zu\n", name, m->value,
                m->unit.c_str(), m->samples);
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, m->value,
                  m->unit.c_str());
    metrics += entry;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace wbench

int main(int argc, char** argv) { return wbench::Main(argc, argv); }
