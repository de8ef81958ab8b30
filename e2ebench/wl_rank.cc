// rank: one closed-loop client calling Pipeline::NearestReferences top-k
// under Dependent- and Independent-DTW over an MTS reference corpus. It
// exists to measure the sketch -> LB_Kim -> LB_Keogh -> wavefront-DTW
// cascade and the SIMD kernels, which no other workload reaches.
#include <utility>

#include "layers.h"
#include "sim/hardware.h"
#include "similarity/query.h"
#include "telemetry/quality.h"

namespace wbench {
namespace {

/// Rounds take ~20 ms; probe the machine speed about once a second.
constexpr int kRoundsPerProbe = 50;
constexpr const char* kMeasures[] = {"Dependent-DTW", "Independent-DTW"};

wpred::SimConfig RankSim() {
  wpred::SimConfig sim;
  sim.duration_s = 30.0;
  sim.sample_period_s = 0.5;
  return sim;
}

struct RankInputs {
  ExperimentCorpus corpus;
  std::vector<Experiment> queries;
  std::vector<wpred::Pipeline> pipelines;  // one per kMeasures entry
};

// 112 references: 3 concurrent workloads x 4 SKUs x {4, 8} terminals x 4
// runs, plus serial TPC-H x 4 SKUs x 4 runs.
RankInputs MakeRankInputs(uint64_t seed) {
  RankInputs inputs;
  wpred::WorkbenchConfig grid;
  grid.workloads = {"TPC-C", "Twitter", "YCSB", "TPC-H"};
  grid.skus = {wpred::MakeCpuSku(2), wpred::MakeCpuSku(4),
               wpred::MakeCpuSku(8), wpred::MakeCpuSku(16)};
  grid.terminals = {4, 8};
  grid.runs = 4;
  grid.sim = RankSim();
  grid.base_seed = seed;
  inputs.corpus = RequireOk(wpred::GenerateCorpus(grid), "rank corpus");
  // Four runs each of near queries (workloads among the references, so
  // pruning bites) and far ones (TPC-DS and the production workload, where
  // it is weak). Run ids outside the grid make every query a fresh run;
  // 24 queries average out how much one seed's data helps pruning.
  for (const char* workload : {"TPC-C", "Twitter", "YCSB", "TPC-H", "TPC-DS",
                               "PW"}) {
    for (int run = 50; run < 54; ++run) {
      inputs.queries.push_back(RequireOk(
          wpred::RunOne(workload, wpred::MakeCpuSku(4), 8, run, RankSim(),
                        seed),
          "rank query"));
    }
  }
  for (const char* measure : kMeasures) {
    inputs.pipelines.emplace_back(RankConfig(measure));
    Require(inputs.pipelines.back().Fit(inputs.corpus), "rank Pipeline::Fit");
  }
  return inputs;
}

}  // namespace

void RunRank(const Options& opts, Tracer* tracer, Report& report) {
  SpeedProbe probe;
  RankInputs inputs;
  const std::vector<double> setup_s = TimedSetups(
      opts, probe, [&](int) { inputs = MakeRankInputs(opts.seed); });
  if (tracer != nullptr) {
    RankSection(inputs.corpus, inputs.queries, tracer, report);
  }

  // Timed phase: a round is one pass of every query under both measures;
  // round 0 fixes the answers later rounds must repeat. A SpeedTick before
  // each query scales it (see wl_serve.cc), and a round's time is the sum
  // of its scaled queries.
  const size_t n_measures = inputs.pipelines.size();
  std::vector<std::vector<wpred::Neighbor>> first(n_measures *
                                                  inputs.queries.size());
  std::vector<double> query_s, round_s;
  SpeedTick tick;
  uint64_t repeated = 0, diverged = 0;
  const Rounds rounds = RunRounds(
      opts, tracer, probe, "rank.round", kRoundsPerProbe,
      [&](int round, Tracer* traced) {
        double round_total_s = 0.0;
        for (size_t q = 0; q < inputs.queries.size(); ++q) {
          for (size_t m = 0; m < n_measures; ++m) {
            ++report.attempted;
            tick.Sample();
            const Clock::time_point call = Clock::now();
            wpred::Result<std::vector<wpred::Neighbor>> top = [&] {
              SpanScope query_span(traced, "core.nearest", q * n_measures + m);
              return inputs.pipelines[m].NearestReferences(inputs.queries[q],
                                                           kRankTopK);
            }();
            const double elapsed = SecondsSince(call) * tick.Scale();
            round_total_s += elapsed;
            if (round > 0) query_s.push_back(elapsed);
            if (!top.ok()) {
              ++report.failed;
              continue;
            }
            std::vector<wpred::Neighbor>& expected = first[q * n_measures + m];
            if (round == 0) {
              expected = std::move(*top);
            } else if (*top == expected) {
              ++repeated;
            } else {
              ++diverged;
            }
          }
        }
        if (round > 0) round_s.push_back(round_total_s);
      });
  report.Check(diverged == 0 && repeated > 0,
               "a repeated query returned a different top-k");

  // Every top-k must equal the exhaustive Distances order by (distance,
  // index) over the gated reference corpus.
  const ExperimentCorpus gated = RequireOk(
      wpred::GateCorpus(inputs.corpus, wpred::QualityPolicy{}, nullptr),
      "gate");
  for (size_t m = 0; m < n_measures; ++m) {
    const wpred::Pipeline& pipeline = inputs.pipelines[m];
    const wpred::SimilarityQueryEngine engine = BuildRankEngine(
        gated, pipeline, kMeasures[m], nullptr, nullptr, nullptr);
    for (size_t q = 0; q < inputs.queries.size(); ++q) {
      const wpred::Vector distances = RequireOk(
          engine.Distances(RankQuery(inputs.queries[q], pipeline), 1),
          "Distances");
      report.Check(first[q * n_measures + m] ==
                       ExhaustiveTopK(distances, kRankTopK),
                   std::string("top-k != exhaustive order (") + kMeasures[m] +
                       ", " + inputs.queries[q].Label() + ")");
    }
  }

  AddTimings(report, probe, setup_s, round_s, query_s);
  if (tracer != nullptr) {
    AddTraceOverhead(report, rounds.traced, rounds.untraced);
  }
}

}  // namespace wbench
