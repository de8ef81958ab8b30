// fit: repeated Pipeline::Fit of three configurations over a corpus built
// in setup, each followed by held-out predictions. LogReg fits inside
// wrapper selection and MLP training dominate; the DES runs only in setup.
// The round is the fits; the operation is one held-out prediction, the
// call a fitted model serves (one Pipeline::Fit per sample would leave
// nine samples of three different costs, whose median is one config's).
#include <optional>

#include "layers.h"
#include "ml/metrics.h"

namespace wbench {
namespace {

/// Each held-out run is predicted this many times per fit, so a run has
/// over a thousand prediction latencies. Every repeat must return the
/// same prediction.
constexpr int kPredictRepeats = 20;

/// What one configuration produced in one round.
struct FitOutcome {
  std::vector<size_t> features;
  std::vector<uint64_t> predictions;  // HashPrediction per held-out run
};

/// Fits `config` and predicts every held-out run kPredictRepeats times;
/// each prediction's latency, scaled by a SpeedTick sampled before it,
/// goes to `predict_s` when given, statuses to `report`. Returns nothing
/// on a failed fit.
std::optional<FitOutcome> FitAndPredict(const wpred::PipelineConfig& config,
                                        const FitInputs& inputs,
                                        Tracer* tracer, Report& report,
                                        std::vector<double>* predict_s,
                                        wpred::Vector* predicted) {
  wpred::Pipeline pipeline(config);
  ++report.attempted;
  wpred::Status fit = [&] {
    SpanScope span(tracer, "core.fit");
    return pipeline.Fit(inputs.corpus);
  }();
  if (!fit.ok()) {
    ++report.failed;
    return std::nullopt;
  }
  FitOutcome outcome;
  outcome.features = pipeline.selected_features();
  SpeedTick tick;
  for (const Experiment& obs : inputs.observed) {
    uint64_t first = 0;
    for (int rep = 0; rep < kPredictRepeats; ++rep) {
      ++report.attempted;
      tick.Sample();
      const Clock::time_point start = Clock::now();
      wpred::Result<wpred::Pipeline::Prediction> prediction = [&] {
        SpanScope span(tracer, "core.predict");
        return pipeline.PredictThroughput(obs, inputs.target_cpus);
      }();
      if (predict_s != nullptr) {
        predict_s->push_back(SecondsSince(start) * tick.Scale());
      }
      if (!prediction.ok()) {
        ++report.failed;
        continue;
      }
      const uint64_t hash = HashPrediction(*prediction);
      if (rep == 0) {
        first = hash;
        if (predicted != nullptr) {
          predicted->push_back(prediction->throughput_tps);
        }
      } else {
        report.Check(hash == first, "a repeated prediction differs for " +
                                        config.selector);
      }
    }
    outcome.predictions.push_back(first);
  }
  return outcome;
}

}  // namespace

void RunFit(const Options& opts, Tracer* tracer, Report& report) {
  SpeedProbe probe;
  FitInputs inputs;
  const std::vector<double> setup_s = TimedSetups(
      opts, probe, [&](int) { inputs = MakeFitInputs(opts.seed); });
  const std::vector<wpred::PipelineConfig> configs = FitConfigs(kFitThreads);

  // Timed phase: a round fits all three configurations and predicts the
  // held-out runs. Round 0 fixes the outputs every later round must
  // reproduce bit for bit.
  std::vector<double> predict_s;
  std::vector<std::optional<FitOutcome>> first(configs.size());
  wpred::Vector truth, predicted;
  const Rounds rounds = RunRounds(
      opts, tracer, probe, "fit.round", 1, [&](int round, Tracer* traced) {
        for (size_t c = 0; c < configs.size(); ++c) {
          std::optional<FitOutcome> outcome =
              FitAndPredict(configs[c], inputs, traced, report,
                            round == 0 ? nullptr : &predict_s,
                            round == 0 ? &predicted : nullptr);
          if (round == 0) {
            first[c] = std::move(outcome);
            continue;
          }
          report.Check(outcome.has_value() && first[c].has_value() &&
                           outcome->features == first[c]->features &&
                           outcome->predictions == first[c]->predictions,
                       "round output differs from round 0 for " +
                           configs[c].selector);
        }
      });

  // The pinned thread count must give the num_threads = 1 outputs.
  for (size_t c = 0; c < configs.size(); ++c) {
    wpred::PipelineConfig serial = configs[c];
    serial.num_threads = 1;
    Report scratch;
    const std::optional<FitOutcome> reference =
        FitAndPredict(serial, inputs, nullptr, scratch, nullptr, nullptr);
    report.Check(reference.has_value() && first[c].has_value() &&
                     reference->features == first[c]->features &&
                     reference->predictions == first[c]->predictions,
                 "pinned-thread fit differs from num_threads = 1 for " +
                     configs[c].selector);
  }

  for (size_t c = 0; c < configs.size(); ++c) {
    truth.insert(truth.end(), inputs.truth.begin(), inputs.truth.end());
  }
  AddTimings(report, probe, setup_s, rounds.all, predict_s);
  if (truth.size() == predicted.size()) {
    report.Add("core.prediction_nrmse", wpred::Nrmse(truth, predicted), "ratio",
               predicted.size());
  }
  if (tracer != nullptr) {
    AddTraceOverhead(report, rounds.traced, rounds.untraced);
  }
}

}  // namespace wbench
