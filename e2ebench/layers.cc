#include "layers.h"

#include <algorithm>
#include <memory>
#include <tuple>

#include "featsel/registry.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "predict/scaling_model.h"
#include "predict/strategies.h"
#include "sim/hardware.h"
#include "sim/workload_spec.h"
#include "similarity/query.h"
#include "similarity/representation.h"
#include "telemetry/quality.h"

namespace wbench {

using wpred::Matrix;
using wpred::PipelineConfig;
using wpred::Vector;

namespace {

/// Short runs for every corpus except simulate's grid: 60 simulated
/// seconds keep setup cheap while leaving 120 samples per series.
wpred::SimConfig ShortSim() {
  wpred::SimConfig sim;
  sim.duration_s = 60.0;
  sim.sample_period_s = 0.5;
  return sim;
}

void AddMs(Report& report, const char* name, const std::vector<double>& s) {
  report.Add(name, Median(s) * 1e3, "ms", s.size());
}
void AddUs(Report& report, const char* name, const std::vector<double>& s) {
  report.Add(name, Median(s) * 1e6, "us", s.size());
}

}  // namespace

std::vector<Coord> GridCoords(const wpred::WorkbenchConfig& config) {
  std::vector<Coord> coords;
  for (const std::string& workload : config.workloads) {
    const wpred::WorkloadSpec spec =
        RequireOk(wpred::WorkloadByName(workload), "workload spec");
    const std::vector<int> terminal_list =
        spec.serial_only ? std::vector<int>{1} : config.terminals;
    for (const wpred::Sku& sku : config.skus) {
      for (int terminals : terminal_list) {
        for (int run = 0; run < config.runs; ++run) {
          coords.push_back({workload, sku, terminals, run});
        }
      }
    }
  }
  return coords;
}

std::vector<wpred::WorkbenchConfig> FitGrids(uint64_t seed) {
  // The second grid adds classes (and LogReg work) to feature selection at
  // half the scaling points per workload (one run), so it adds fewer MLP
  // fit steps: this keeps LogReg-driven selection and NNet training each
  // near a third or more of a fit round. Every workload needs >= 2 SKUs,
  // or a query whose nearest reference it is would have no scaling model.
  wpred::WorkbenchConfig scaled;
  scaled.workloads = {"TPC-C", "YCSB", "TPC-H"};
  scaled.skus = {wpred::MakeCpuSku(2), wpred::MakeCpuSku(8)};
  scaled.terminals = {8};
  scaled.runs = 2;
  scaled.sim = ShortSim();
  scaled.base_seed = seed;
  wpred::WorkbenchConfig classes = scaled;
  classes.workloads = {"Twitter", "TPC-DS", "PW"};
  classes.runs = 1;
  return {scaled, classes};
}

ExperimentCorpus MakeFitCorpus(uint64_t seed) {
  ExperimentCorpus corpus;
  for (const wpred::WorkbenchConfig& grid : FitGrids(seed)) {
    ExperimentCorpus part = RequireOk(wpred::GenerateCorpus(grid), "corpus");
    for (const Experiment& e : part.experiments()) corpus.Add(e);
  }
  return corpus;
}

FitInputs MakeFitInputs(uint64_t seed) {
  FitInputs inputs;
  inputs.corpus = MakeFitCorpus(seed);
  AddHeldOut(seed, inputs);
  return inputs;
}

void AddHeldOut(uint64_t seed, FitInputs& inputs) {
  // Held-out YCSB runs: run ids outside the corpus grid, same seed stream.
  for (int run = 100; run < 106; ++run) {
    inputs.observed.push_back(RequireOk(
        wpred::RunOne("YCSB", wpred::MakeCpuSku(2), 8, run, ShortSim(), seed),
        "held-out observation"));
    const Experiment truth = RequireOk(
        wpred::RunOne("YCSB", wpred::MakeCpuSku(inputs.target_cpus), 8, run,
                      ShortSim(), seed),
        "held-out truth");
    inputs.truth.push_back(truth.perf.throughput_tps);
  }
}

std::vector<PipelineConfig> FitConfigs(int num_threads) {
  std::vector<PipelineConfig> configs(3);
  configs[1].selector = "Fw SFS LogReg";
  configs[1].strategy = "GB";
  configs[2].selector = "fANOVA";
  configs[2].strategy = "NNet";
  for (PipelineConfig& c : configs) c.num_threads = num_threads;
  return configs;
}

std::vector<Experiment> SimSection(const std::vector<Coord>& coords,
                                   const wpred::SimConfig& sim,
                                   uint64_t base_seed, Tracer* tracer,
                                   Report& report,
                                   std::vector<double>* run_s_out) {
  std::vector<Experiment> out;
  std::vector<double> run_s;
  const uint64_t events_before = CounterValue("sim.events_processed");
  for (const Coord& c : coords) {
    out.push_back(RequireOk(Timed(tracer, "sim.run_one", run_s,
                                  [&] {
                                    return wpred::RunOne(c.workload, c.sku,
                                                         c.terminals, c.run,
                                                         sim, base_seed);
                                  }),
                            "RunOne"));
  }
  const uint64_t events = CounterValue("sim.events_processed") - events_before;
  double total_s = 0.0;
  for (double s : run_s) total_s += s;
  if (run_s_out != nullptr) {
    run_s_out->insert(run_s_out->end(), run_s.begin(), run_s.end());
  }
  AddMs(report, "sim.run_ms_p50", run_s);
  report.Add("sim.events", static_cast<double>(events), "count", run_s.size());
  report.Add("sim.ns_per_event", total_s * 1e9 / static_cast<double>(events),
             "ns", run_s.size());
  return out;
}

void FitSection(const FitInputs& inputs, Tracer* tracer, Report& report) {
  SpanScope section(tracer, "section.fit");
  std::vector<double> gate_s, aggregate_s;
  const ExperimentCorpus gated = RequireOk(
      Timed(tracer, "telemetry.gate", gate_s,
            [&] {
              return wpred::GateCorpus(inputs.corpus, wpred::QualityPolicy{},
                                       nullptr);
            }),
      "GateCorpus");
  const wpred::AggregateObservations agg = RequireOk(
      Timed(tracer, "telemetry.aggregate", aggregate_s,
            [&] { return wpred::BuildAggregateObservations(gated, 10); }),
      "BuildAggregateObservations");
  AddMs(report, "telemetry.gate_ms", gate_s);
  AddMs(report, "telemetry.aggregate_ms", aggregate_s);

  for (const auto& [selector, metric] :
       {std::pair<const char*, const char*>{"RFE LogReg",
                                            "featsel.score_ms.rfe_logreg"},
        {"Fw SFS LogReg", "featsel.score_ms.fw_sfs_logreg"}}) {
    std::unique_ptr<wpred::FeatureSelector> sel =
        RequireOk(wpred::CreateSelector(selector), "CreateSelector");
    sel->set_num_threads(kFitThreads);
    std::vector<double> score_s;
    RequireOk(Timed(tracer, metric, score_s,
                    [&] { return sel->ScoreFeatures(agg.x, agg.labels); }),
              "ScoreFeatures");
    AddMs(report, metric, score_s);
  }

  std::vector<double> logreg_s;
  for (int rep = 0; rep < 5; ++rep) {
    wpred::LogisticRegression model;
    Require(Timed(tracer, "ml.logreg_fit", logreg_s,
                  [&] { return model.Fit(agg.x, agg.labels); }),
            "LogisticRegression::Fit");
  }
  AddUs(report, "ml.logreg_fit_us", logreg_s);

  // Scaling layers on the YCSB 2 -> 8 CPU pairs, as the pipeline fits them.
  const std::vector<wpred::SkuPerfPoint> points = RequireOk(
      wpred::CollectScalingPoints(gated, "YCSB", 8, 10), "scaling points");
  std::vector<Vector> rows;
  Vector targets;
  for (const wpred::MatchedPair& m : wpred::MatchAcrossSkus(points, 2, 8)) {
    rows.push_back({m.perf_from});
    targets.push_back(m.perf_to);
  }
  const Matrix design = Matrix::FromRows(rows);
  for (const auto& [strategy, ml_metric, predict_metric] :
       {std::tuple<const char*, const char*, const char*>{
            "SVM", "ml.svr_fit_ms", "predict.pairwise_fit_ms.svm"},
        {"GB", "ml.gb_fit_ms", "predict.pairwise_fit_ms.gb"},
        {"NNet", "ml.mlp_fit_ms", "predict.pairwise_fit_ms.nnet"}}) {
    std::vector<double> fit_s;
    for (int rep = 0; rep < 3; ++rep) {
      std::unique_ptr<wpred::Regressor> model = RequireOk(
          wpred::CreateScalingRegressor(strategy, 0), "scaling regressor");
      Require(Timed(tracer, ml_metric, fit_s,
                    [&] { return model->Fit(design, targets); }),
              "Regressor::Fit");
    }
    AddMs(report, ml_metric, fit_s);
    std::vector<double> pairwise_s;
    wpred::PairwiseScalingModel pairwise;
    Require(Timed(tracer, predict_metric, pairwise_s,
                  [&] { return pairwise.Fit(strategy, points); }),
            "PairwiseScalingModel::Fit");
    AddMs(report, predict_metric, pairwise_s);
    if (std::string(strategy) == "SVM") {
      std::vector<double> transition_s;
      for (const Experiment& obs : inputs.observed) {
        for (int rep = 0; rep < 20; ++rep) {
          RequireOk(Timed(tracer, "predict.transition", transition_s,
                          [&] {
                            return pairwise.PredictTransitionScaled(
                                2, 8, obs.perf.throughput_tps,
                                obs.data_group);
                          }),
                    "PredictTransitionScaled");
        }
      }
      AddUs(report, "predict.transition_us", transition_s);
    }
  }

  // Whole-pipeline fits and single-thread predictions, all three configs.
  std::vector<double> fit_s, predict_s, representation_s, build_s;
  Vector truth, predicted;
  for (const PipelineConfig& config : FitConfigs(kFitThreads)) {
    wpred::Pipeline pipeline(config);
    Require(Timed(tracer, "core.fit", fit_s,
                  [&] { return pipeline.Fit(inputs.corpus); }),
            "Pipeline::Fit");
    pipeline.set_num_threads(1);
    for (size_t i = 0; i < inputs.observed.size(); ++i) {
      for (int rep = 0; rep < 5; ++rep) {
        const wpred::Pipeline::Prediction prediction = RequireOk(
            Timed(tracer, "core.predict", predict_s,
                  [&] {
                    return pipeline.PredictThroughput(inputs.observed[i],
                                                      inputs.target_cpus);
                  }),
            "PredictThroughput");
        if (rep == 0) {
          truth.push_back(inputs.truth[i]);
          predicted.push_back(prediction.throughput_tps);
        }
      }
    }
    if (config.selector != "RFE LogReg") continue;
    // Hist-FP representations and the L2,1 engine of the paper default.
    std::vector<Matrix> reps;
    for (const Experiment& e : gated.experiments()) {
      reps.push_back(RequireOk(
          Timed(tracer, "similarity.representation", representation_s,
                [&] {
                  return wpred::BuildRepresentation(
                      config.representation, e, pipeline.selected_features(),
                      pipeline.normalization());
                }),
          "BuildRepresentation"));
    }
    for (int rep = 0; rep < 5; ++rep) {
      RequireOk(Timed(tracer, "similarity.build", build_s,
                      [&] {
                        return wpred::SimilarityQueryEngine::Build(
                            reps, config.measure, 0, 1);
                      }),
                "SimilarityQueryEngine::Build");
    }
  }
  report.Add("core.fit_s", Median(fit_s), "s", fit_s.size());
  report.Add("core.prediction_nrmse", wpred::Nrmse(truth, predicted), "ratio",
             predicted.size());
  AddUs(report, "core.predict_us", predict_s);
  AddUs(report, "similarity.representation_us", representation_s);
  AddMs(report, "similarity.build_ms", build_s);
}

PipelineConfig RankConfig(const std::string& measure) {
  PipelineConfig config;
  config.selector = "Variance";
  config.strategy = "Regression";
  config.representation = wpred::Representation::kMts;
  config.measure = measure;
  config.num_threads = 1;
  return config;
}

wpred::SimilarityQueryEngine BuildRankEngine(
    const ExperimentCorpus& gated, const wpred::Pipeline& pipeline,
    const std::string& measure, Tracer* tracer,
    std::vector<double>* representation_s, std::vector<double>* build_s) {
  std::vector<double> unused;
  std::vector<Matrix> reps;
  for (const Experiment& e : gated.experiments()) {
    reps.push_back(RequireOk(
        Timed(tracer, "similarity.representation",
              representation_s != nullptr ? *representation_s : unused,
              [&] {
                return wpred::BuildMts(e, pipeline.selected_features(),
                                       pipeline.normalization());
              }),
        "BuildMts"));
  }
  return RequireOk(
      Timed(tracer, "similarity.build", build_s != nullptr ? *build_s : unused,
            [&] {
              return wpred::SimilarityQueryEngine::Build(std::move(reps),
                                                         measure, 0, 1);
            }),
      "SimilarityQueryEngine::Build");
}

Matrix RankQuery(const Experiment& query, const wpred::Pipeline& pipeline) {
  Experiment repaired = query;
  RequireOk(wpred::RepairExperiment(repaired), "RepairExperiment");
  return RequireOk(wpred::BuildMts(repaired, pipeline.selected_features(),
                                   pipeline.normalization()),
                   "query representation");
}

std::vector<wpred::Neighbor> ExhaustiveTopK(const Vector& distances,
                                            size_t k) {
  std::vector<wpred::Neighbor> all;
  for (size_t i = 0; i < distances.size(); ++i) {
    all.push_back({i, distances[i]});
  }
  std::sort(all.begin(), all.end(),
            [](const wpred::Neighbor& a, const wpred::Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.index < b.index;
            });
  all.resize(std::min(k, all.size()));
  return all;
}

void RankSection(const ExperimentCorpus& corpus,
                 const std::vector<Experiment>& queries, Tracer* tracer,
                 Report& report) {
  SpanScope section(tracer, "section.rank");
  const ExperimentCorpus gated = RequireOk(
      wpred::GateCorpus(corpus, wpred::QualityPolicy{}, nullptr), "gate");
  std::vector<double> representation_s, build_s, topk_s, distances_s;
  uint64_t cells = 0, sketch_pruned = 0, lb_pruned = 0, exact = 0,
           candidates = 0;
  for (const char* measure : {"Dependent-DTW", "Independent-DTW"}) {
    wpred::Pipeline pipeline(RankConfig(measure));
    Require(pipeline.Fit(corpus), "rank Pipeline::Fit");
    const wpred::SimilarityQueryEngine engine = BuildRankEngine(
        gated, pipeline, measure, tracer, &representation_s, &build_s);
    for (const Experiment& query : queries) {
      const Matrix q = RankQuery(query, pipeline);
      const uint64_t c0 = CounterValue("similarity.dtw.cells_in_band");
      const uint64_t s0 = CounterValue("similarity.sketch.pruned");
      const uint64_t l0 = CounterValue("similarity.lb.pruned");
      const uint64_t e0 = CounterValue("similarity.query.exact");
      const uint64_t n0 = CounterValue("similarity.query.candidates");
      const std::vector<wpred::Neighbor> top = RequireOk(
          Timed(tracer, "similarity.topk", topk_s,
                [&] { return engine.RankNeighbors(q, kRankTopK); }),
          "RankNeighbors");
      cells += CounterValue("similarity.dtw.cells_in_band") - c0;
      sketch_pruned += CounterValue("similarity.sketch.pruned") - s0;
      lb_pruned += CounterValue("similarity.lb.pruned") - l0;
      exact += CounterValue("similarity.query.exact") - e0;
      candidates += CounterValue("similarity.query.candidates") - n0;
      const Vector distances = RequireOk(
          Timed(tracer, "similarity.distances", distances_s,
                [&] { return engine.Distances(q, 1); }),
          "Distances");
      report.Check(top == ExhaustiveTopK(distances, kRankTopK),
                   std::string("layer sweep top-k != exhaustive order (") +
                       measure + ", " + query.Label() + ")");
    }
  }
  AddUs(report, "similarity.representation_us", representation_s);
  AddMs(report, "similarity.build_ms", build_s);
  AddUs(report, "similarity.topk_us", topk_s);
  AddUs(report, "similarity.distances_us", distances_s);
  const size_t n = topk_s.size();
  report.Add("similarity.dtw.cells_in_band", static_cast<double>(cells),
             "count", n);
  report.Add("similarity.sketch.pruned", static_cast<double>(sketch_pruned),
             "count", n);
  report.Add("similarity.lb.pruned", static_cast<double>(lb_pruned), "count",
             n);
  report.Add("similarity.query.exact", static_cast<double>(exact), "count", n);
  report.Add("similarity.prune_share",
             candidates == 0 ? 0.0
                             : 1.0 - static_cast<double>(exact) /
                                         static_cast<double>(candidates),
             "share", n);
}

void RunLayerSweep(const std::string& skip, uint64_t seed, Tracer* tracer,
                   Report& report) {
  SpanScope sweep(tracer, "layer_sweep");
  // The layer corpus is FitInputs of this seed; outside simulate its
  // generation through RunOne is also the sim section.
  FitInputs inputs;
  if (skip == "simulate") {
    inputs = MakeFitInputs(seed);
  } else {
    SpanScope section(tracer, "section.sim");
    for (const wpred::WorkbenchConfig& grid : FitGrids(seed)) {
      for (Experiment& e :
           SimSection(GridCoords(grid), grid.sim, seed, tracer, report)) {
        inputs.corpus.Add(std::move(e));
      }
    }
    AddHeldOut(seed, inputs);
  }
  // The fit workload's layers are this section on its own corpus.
  FitSection(inputs, tracer, report);
  if (skip != "rank") RankSection(inputs.corpus, inputs.observed, tracer, report);
  if (skip != "serve") ServeSection(inputs.corpus, seed, tracer, report);
}

}  // namespace wbench
