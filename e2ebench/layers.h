// Workload inputs shared by several workloads, and the per-layer sections
// of a traced run.
//
// A traced run reports every per-layer metric. The workload's own layers
// are measured on its own inputs; the remaining layers are measured by a
// fixed-work sweep over the fit corpus (the "layer corpus"), so that every
// traced run covers every layer and its exact counters repeat per seed.
#ifndef WPRED_E2EBENCH_LAYERS_H_
#define WPRED_E2EBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/workbench.h"
#include "similarity/query.h"
#include "harness.h"

namespace wbench {

/// One grid coordinate of a WorkbenchConfig, in GenerateCorpus order.
struct Coord {
  std::string workload;
  wpred::Sku sku;
  int terminals = 1;
  int run = 0;
};
std::vector<Coord> GridCoords(const wpred::WorkbenchConfig& config);

/// Reference corpus + held-out observations of the fit workload, also the
/// base corpus of the serve workload and the layer corpus of the sweep.
struct FitInputs {
  ExperimentCorpus corpus;
  /// Held-out YCSB runs observed on 2 CPUs ...
  std::vector<Experiment> observed;
  /// ... and their simulated throughput on `target_cpus`.
  std::vector<double> truth;
  int target_cpus = 8;
};

/// The corpus grids behind FitInputs (seeded by `seed`).
std::vector<wpred::WorkbenchConfig> FitGrids(uint64_t seed);
/// The reference corpus of FitInputs: one GenerateCorpus call per grid.
ExperimentCorpus MakeFitCorpus(uint64_t seed);
/// MakeFitCorpus plus the held-out runs (AddHeldOut).
FitInputs MakeFitInputs(uint64_t seed);
/// Simulates the held-out observations and their truth into `inputs`.
void AddHeldOut(uint64_t seed, FitInputs& inputs);

/// The three fit configurations, at `num_threads` pool threads:
/// the paper default, Fw SFS LogReg + GB, and fANOVA + NNet.
std::vector<wpred::PipelineConfig> FitConfigs(int num_threads);

/// Pool threads of the simulate and fit workloads (caller + 1 worker).
inline constexpr int kFitThreads = 2;

/// The rank workload's pipeline: MTS + `measure`, cheap selector and
/// scaling strategy (rank never predicts), serial queries.
wpred::PipelineConfig RankConfig(const std::string& measure);
inline constexpr size_t kRankTopK = 3;
/// The rank checks' reference: the MTS engine of `pipeline` (fitted with
/// RankConfig(measure)) over the gated `corpus`. Representation and build
/// times go to the given vectors, under spans, when they are not null.
wpred::SimilarityQueryEngine BuildRankEngine(
    const ExperimentCorpus& gated, const wpred::Pipeline& pipeline,
    const std::string& measure, Tracer* tracer,
    std::vector<double>* representation_s, std::vector<double>* build_s);
/// The MTS of a query as the pipeline builds it (repaired first).
wpred::Matrix RankQuery(const Experiment& query,
                        const wpred::Pipeline& pipeline);
/// The top-k of an exhaustive distance vector by (distance, index).
std::vector<wpred::Neighbor> ExhaustiveTopK(const wpred::Vector& distances,
                                            size_t k);

/// Times `fn` into `out` (seconds) under a span named `name`.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, std::vector<double>& out,
           Fn&& fn) {
  SpanScope span(tracer, name);
  const Clock::time_point start = Clock::now();
  auto result = fn();
  out.push_back(SecondsSince(start));
  return result;
}

// --- per-layer sections (traced runs; obs metrics enabled) ----------------

/// sim.*: serial RunOne over `coords`; returns the experiments in order
/// and appends each call's wall time to `run_s` when given.
std::vector<Experiment> SimSection(const std::vector<Coord>& coords,
                                   const wpred::SimConfig& sim,
                                   uint64_t base_seed, Tracer* tracer,
                                   Report& report,
                                   std::vector<double>* run_s = nullptr);
/// telemetry.*, featsel.*, ml.*, predict.*, core.*, and the Hist-FP
/// similarity.representation_us / similarity.build_ms.
void FitSection(const FitInputs& inputs, Tracer* tracer, Report& report);
/// similarity.* query metrics and exact counters: one pass of `queries`
/// under both DTW measures over an MTS engine of `corpus`.
void RankSection(const ExperimentCorpus& corpus,
                 const std::vector<Experiment>& queries, Tracer* tracer,
                 Report& report);
/// serve.* and stream.*: a short serve session on `corpus`.
void ServeSection(const ExperimentCorpus& corpus, uint64_t seed,
                  Tracer* tracer, Report& report);

/// Runs every section over the layer corpus of `seed`, except the sim,
/// rank or serve section when `skip` names that workload (it measured its
/// own layers on its own inputs). The fit section always runs: the layer
/// corpus is the fit workload's corpus.
void RunLayerSweep(const std::string& skip, uint64_t seed, Tracer* tracer,
                   Report& report);

// --- workloads (main.cc dispatches on --workload) --------------------------

void RunSimulate(const Options& opts, Tracer* tracer, Report& report);
void RunFit(const Options& opts, Tracer* tracer, Report& report);
void RunServe(const Options& opts, Tracer* tracer, Report& report);
void RunRank(const Options& opts, Tracer* tracer, Report& report);

}  // namespace wbench

#endif  // WPRED_E2EBENCH_LAYERS_H_
