// serve: a PredictionService on the paper-default config. One client thread
// issues Predict reads open loop on a fixed-rate schedule while one stream
// thread feeds regime-shifting telemetry through IncrementalIngest, whose
// change points trigger background refits that publish snapshots while the
// reads run. The only workload with writes beside reads.
#include <algorithm>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/rng.h"
#include "layers.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "sim/hardware.h"
#include "similarity/query.h"
#include "similarity/representation.h"
#include "stream/ingest.h"

namespace wbench {
namespace {

/// Offered read rate: ~20 % of one reader's capacity at ~200 us per read.
constexpr double kReadsPerSecond = 1000.0;
/// Stream rate. The ingest requests a refit at most every 64 samples, and
/// at this rate the four regimes give about one refit a second. Measured
/// on the reference VM (serve.refit_duty_share), refits then run 10-20 %
/// of the time: every 1000-read window of the read p99 holds reads that
/// overlap a refit, so the p99 covers them in every window.
constexpr double kSamplesPerSecond = 125.0;
/// A read slower than this from its due time counts as failed. Latency is
/// what op_us_* report; this catches a wedged service, so it is loose.
constexpr double kReadDeadlineS = 1.0;
/// Generator validity: above this lag p99 (WindowedP99) the client, not the
/// service, set the latencies, and the run is reported invalid.
constexpr double kMaxGeneratorLagP99S = 0.005;
/// Before every this many reads the schedule leaves a gap for one
/// SpeedProbe sample on the client thread (the run's speed_scale and
/// setup_s). A probe that outlasts its gap pushes the rest of the schedule
/// back, so no read's latency includes probe time. Reads themselves are
/// scaled by SpeedTick, which the client samples before each read when
/// the read is due in more than kTickLeadS.
constexpr size_t kReadsPerProbe = 1000;
constexpr double kProbeGapS = 0.040;
constexpr double kTickLeadS = 0.0002;
/// The refit hook samples this many probe passes (after one warm-up pass)
/// on the supervisor thread before each fit attempt, and that refit is scaled by this sample rather
/// than by the run's: the supervisor's vCPU alone ran ~1.5x slower for
/// seconds at a time, which made the run's median refit flip between two
/// modes. The refit cycle excludes the probe's time.
constexpr int kRefitProbePasses = 5;

using Service = wpred::serve::PredictionService;

/// The reads' observations: six held-out YCSB runs on 2 CPUs, 120
/// simulated seconds sampled every 0.125 s. A 960-row window makes one
/// read ~200 us of representation and scaling work. With 120-row windows
/// (~20 us reads) the read p99 was mostly host interference of a few tens
/// of microseconds and moved by half between runs of the same binary.
std::vector<Experiment> ServeQueries(uint64_t seed) {
  wpred::SimConfig sim;
  sim.duration_s = 120.0;
  sim.sample_period_s = 0.125;
  std::vector<Experiment> queries;
  for (int run = 100; run < 106; ++run) {
    queries.push_back(RequireOk(
        wpred::RunOne("YCSB", wpred::MakeCpuSku(2), 8, run, sim, seed),
        "serve query"));
  }
  return queries;
}

struct ServeState {
  std::vector<Experiment> queries;
  int target_cpus = 8;
  std::unique_ptr<wpred::SimilarityQueryEngine> engine;
  std::unique_ptr<Service> service;
  std::unique_ptr<wpred::IncrementalIngest> ingest;
  /// Concatenated TPC-C / TPC-H / Twitter / YCSB resource rows.
  std::vector<wpred::Vector> stream;
  /// Every distinct corpus the service was handed, the initial one first,
  /// by HashCorpus. A later session may start on an earlier one's refit.
  std::vector<ExperimentCorpus> corpora;
  std::set<uint64_t> corpus_hashes;
};

wpred::PipelineConfig ServePipeline() {
  wpred::PipelineConfig config;  // the paper default
  config.num_threads = 1;  // client + stream + supervisor stay within 4 CPUs
  return config;
}

std::unique_ptr<ServeState> SetUp(const ExperimentCorpus& corpus,
                                  uint64_t seed) {
  auto state = std::make_unique<ServeState>();
  state->queries = ServeQueries(seed);
  wpred::Pipeline pipeline(ServePipeline());
  Require(pipeline.Fit(corpus), "serve Pipeline::Fit");
  const std::vector<size_t> features = pipeline.selected_features();
  const wpred::NormalizationContext ctx = pipeline.normalization();

  std::vector<wpred::Matrix> reps;
  for (const Experiment& e : corpus.experiments()) {
    reps.push_back(
        RequireOk(wpred::BuildHistFp(e, features, ctx), "Hist-FP"));
  }
  state->engine = std::make_unique<wpred::SimilarityQueryEngine>(RequireOk(
      wpred::SimilarityQueryEngine::Build(std::move(reps), "L2,1-Norm", 0, 1),
      "stream engine"));

  wpred::serve::ServiceConfig config;
  config.pipeline = ServePipeline();
  config.jitter_seed = seed;
  state->service = std::make_unique<Service>(config);
  Require(state->service->Start(corpus), "PredictionService::Start");

  wpred::IngestConfig ingest_config;
  ingest_config.window_samples = wpred::kDefaultStreamWindowSamples;
  ingest_config.num_threads = 1;
  state->ingest = std::make_unique<wpred::IncrementalIngest>(
      RequireOk(wpred::IncrementalIngest::Create(ingest_config, features, ctx,
                                                 corpus[0]),
                "IncrementalIngest::Create"));
  state->ingest->set_base_corpus(corpus);
  state->corpora.push_back(corpus);
  state->corpus_hashes.insert(HashCorpus(corpus));
  state->ingest->set_reference_engine(state->engine.get());

  for (const char* workload : {"TPC-C", "TPC-H", "Twitter", "YCSB"}) {
    const std::vector<size_t> idx = corpus.IndicesOf(workload);
    if (idx.empty()) continue;
    const wpred::Matrix& rows = corpus[idx.front()].resource.values;
    for (size_t r = 0; r < rows.rows(); ++r) {
      wpred::Vector row(rows.cols());
      for (size_t c = 0; c < rows.cols(); ++c) row[c] = rows(r, c);
      state->stream.push_back(std::move(row));
    }
  }
  return state;
}

/// Everything one session measured.
struct Session {
  /// Read latency from due time, raw and scaled by the client's SpeedTick.
  std::vector<double> read_s, scaled_read_s;
  std::vector<double> service_s, lag_s, observe_s;
  /// Per refit request: to the first read that saw a covering epoch
  /// (scaled by the supervisor's probe, probe time excluded), and to the
  /// start of the fit attempt that covers it.
  std::vector<double> scaled_refit_s, refit_wait_s;
  /// Fit attempt start -> epoch seen, summed, and the session's length.
  double refit_busy_s = 0.0, seconds = 0.0;
  uint64_t reads = 0, read_errors = 0, late_reads = 0;
  uint64_t refit_requests = 0, unattributed_publishes = 0;
  /// (query index, HashPrediction) of every successful read.
  std::vector<std::pair<size_t, uint64_t>> answers;
  /// Ingest counter deltas over the session.
  uint64_t change_points = 0, refits = 0, appends = 0;
};

/// Runs the client (this thread) and the stream thread for `seconds`,
/// sampling `probe` in the schedule's gaps.
Session RunSession(ServeState& state, double seconds, uint64_t seed,
                   Tracer* tracer, SpeedProbe& probe) {
  Session out;
  Service& service = *state.service;
  wpred::IncrementalIngest& ingest = *state.ingest;
  const uint64_t change_points0 = ingest.change_points_detected();
  const uint64_t refits0 = ingest.refits_requested();
  const uint64_t appends0 = ingest.reference_appends();

  // Refit bookkeeping. The sink stands in for serve::ConnectIngest (it makes
  // the same RequestRefit call) and also records each request and corpus;
  // the refit hook runs when the supervisor starts a fit attempt on the
  // newest queued corpus, probes the supervisor's speed, and records which
  // requests that attempt covers.
  struct Attempt {
    Clock::time_point called, start;  // hook called; fit starts (post-probe)
    double scale = 1.0;
    size_t covers = 0;
  };
  std::mutex mu;
  std::vector<Clock::time_point> requests;  // by request sequence
  std::vector<Attempt> attempts;
  SpeedProbe refit_probe;  // used by the supervisor thread only
  service.set_refit_fault_hook([&]() -> wpred::Status {
    Attempt attempt;
    attempt.called = Clock::now();
    attempt.scale = refit_probe.Sample(kRefitProbePasses);
    attempt.start = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    attempt.covers = requests.size();
    attempts.push_back(attempt);
    return wpred::Status::OK();
  });
  // Time the sink spends hashing and keeping the corpus is the benchmark's,
  // not the ingest's: it is subtracted from the Observe that fired the
  // sink, and the refit request is timed from after it. Only distinct
  // corpora are kept, so the benchmark's copies stay out of peak RSS.
  double bookkeeping_s = 0.0;
  ingest.set_refit_sink([&](ExperimentCorpus corpus) {
    const Clock::time_point start = Clock::now();
    if (state.corpus_hashes.insert(HashCorpus(corpus)).second) {
      state.corpora.push_back(corpus);
    }
    const Clock::time_point request = Clock::now();
    bookkeeping_s += std::chrono::duration<double>(request - start).count();
    {
      std::lock_guard<std::mutex> lock(mu);
      requests.push_back(request);
    }
    service.RequestRefit(std::move(corpus));
  });
  const uint64_t first_epoch = service.snapshot_epoch();
  std::vector<std::pair<uint64_t, Clock::time_point>> epochs_seen;

  const size_t n_reads = static_cast<size_t>(seconds * kReadsPerSecond);
  const size_t n_samples = static_cast<size_t>(seconds * kSamplesPerSecond);
  // The seed drives the arrival schedule (uniform jitter of +-25 % around
  // the fixed rate) and which query each read asks about.
  wpred::Rng rng(seed ^ 0x5eed5e7e);
  std::vector<double> due_offset(n_reads);
  std::vector<size_t> query(n_reads);
  double t = 0.0;
  for (size_t i = 0; i < n_reads; ++i) {
    if (i % kReadsPerProbe == 0) t += kProbeGapS;
    t += rng.Uniform(0.75, 1.25) / kReadsPerSecond;
    due_offset[i] = t;
    query[i] = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(state.queries.size()) - 1));
  }
  const size_t stream_offset = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int>(state.stream.size()) - 1));

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto at = [t0](double offset_s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
  };

  std::thread stream_thread([&] {
    for (size_t i = 0; i < n_samples; ++i) {
      std::this_thread::sleep_until(at(static_cast<double>(i) /
                                       kSamplesPerSecond));
      const wpred::Vector& row =
          state.stream[(stream_offset + i) % state.stream.size()];
      bookkeeping_s = 0.0;
      const Clock::time_point start = Clock::now();
      wpred::Result<wpred::IngestUpdate> update = [&] {
        SpanScope span(tracer, "stream.observe", i);
        return ingest.Observe(row);
      }();
      out.observe_s.push_back(SecondsSince(start) - bookkeeping_s);
      Require(update.status(), "IncrementalIngest::Observe");
    }
  });

  // The client spins between reads instead of sleeping: a read issued from
  // an idle vCPU would time the host's wake-up and cold caches, which
  // swing with other tenants' load, not the read path.
  uint64_t last_epoch = first_epoch;
  double probe_delay_s = 0.0;
  SpeedTick tick;
  for (size_t i = 0; i < n_reads; ++i) {
    if (i % kReadsPerProbe == 0) {
      probe.Sample();
      probe_delay_s = std::max(
          probe_delay_s,
          std::chrono::duration<double>(Clock::now() - at(due_offset[i]))
              .count());
    }
    const Clock::time_point due = at(due_offset[i] + probe_delay_s);
    if (due - Clock::now() > std::chrono::duration<double>(kTickLeadS)) {
      tick.Sample();
    }
    while (Clock::now() < due) {
    }
    const Clock::time_point start = Clock::now();
    wpred::Result<wpred::Pipeline::Prediction> prediction = [&] {
      SpanScope span(tracer, "serve.predict", i);
      return service.Predict(state.queries[query[i]], state.target_cpus);
    }();
    const Clock::time_point end = Clock::now();
    const double latency = std::chrono::duration<double>(end - due).count();
    out.read_s.push_back(latency);
    out.scaled_read_s.push_back(latency * tick.Scale());
    out.service_s.push_back(std::chrono::duration<double>(end - start).count());
    out.lag_s.push_back(std::chrono::duration<double>(start - due).count());
    ++out.reads;
    if (!prediction.ok()) {
      ++out.read_errors;
    } else {
      if (latency > kReadDeadlineS) ++out.late_reads;
      out.answers.push_back({query[i], HashPrediction(*prediction)});
    }
    const uint64_t epoch = service.snapshot_epoch();
    if (epoch != last_epoch) {
      epochs_seen.push_back({epoch, end});
      last_epoch = epoch;
    }
  }
  stream_thread.join();
  service.WaitForRefits();
  const Clock::time_point finished = Clock::now();
  const uint64_t final_epoch = service.snapshot_epoch();
  if (final_epoch != last_epoch) epochs_seen.push_back({final_epoch, finished});
  out.seconds = std::chrono::duration<double>(finished - t0).count();
  service.set_refit_fault_hook(nullptr);
  ingest.set_refit_sink(nullptr);
  out.change_points = ingest.change_points_detected() - change_points0;
  out.refits = ingest.refits_requested() - refits0;
  out.appends = ingest.reference_appends() - appends0;
  std::lock_guard<std::mutex> lock(mu);

  // Epoch first_epoch + 1 + a is published by attempt a (no failed attempt
  // in between). It covers every request made before that attempt began.
  out.refit_requests = requests.size();
  size_t next_request = 0;
  for (size_t a = 0; a < attempts.size(); ++a) {
    const Attempt& attempt = attempts[a];
    const uint64_t epoch = first_epoch + 1 + a;
    auto seen = std::find_if(epochs_seen.begin(), epochs_seen.end(),
                             [epoch](const auto& e) { return e.first >= epoch; });
    if (seen == epochs_seen.end()) {
      ++out.unattributed_publishes;
      continue;
    }
    const double probe_s =
        std::chrono::duration<double>(attempt.start - attempt.called).count();
    out.refit_busy_s +=
        std::chrono::duration<double>(seen->second - attempt.start).count();
    for (; next_request < attempt.covers; ++next_request) {
      const Clock::time_point request = requests[next_request];
      out.scaled_refit_s.push_back(
          (std::chrono::duration<double>(seen->second - request).count() -
           probe_s) *
          attempt.scale);
      out.refit_wait_s.push_back(
          std::chrono::duration<double>(attempt.called - request).count());
    }
  }
  return out;
}

/// Every successful read of `sessions` must equal PredictThroughput of a
/// pipeline fitted on one of the corpora the service was handed.
void CheckAnswers(const ServeState& state,
                  std::initializer_list<const Session*> sessions,
                  Report& report) {
  std::vector<std::set<uint64_t>> valid(state.queries.size());
  for (const ExperimentCorpus& corpus : state.corpora) {
    wpred::Pipeline pipeline(ServePipeline());
    if (!pipeline.Fit(corpus).ok()) continue;
    for (size_t q = 0; q < state.queries.size(); ++q) {
      wpred::Result<wpred::Pipeline::Prediction> p =
          pipeline.PredictThroughput(state.queries[q], state.target_cpus);
      if (p.ok()) valid[q].insert(HashPrediction(*p));
    }
  }
  uint64_t answers = 0, bad = 0;
  for (const Session* session : sessions) {
    answers += session->answers.size();
    for (const auto& [q, hash] : session->answers) {
      bad += valid[q].count(hash) == 0;
    }
  }
  report.checked += answers;
  report.matched += answers - bad;
  if (bad > 0) {
    report.mismatches.push_back(std::to_string(bad) +
                                " reads match no corpus the service was handed");
  }
}

double HistogramMeanUs(const char* name) {
  const wpred::obs::Histogram& h =
      wpred::obs::MetricsRegistry::Global().GetHistogram(name);
  return h.count() == 0 ? 0.0 : h.sum() / static_cast<double>(h.count()) * 1e6;
}

/// serve.* and stream.* from one traced session.
void AddLayerMetrics(const Session& s, uint64_t publishes, uint64_t failures,
                     uint64_t shed, Report& report) {
  const size_t n = s.reads;
  report.Add("serve.service_us", Median(s.service_s) * 1e6, "us", n);
  report.Add("serve.queue_wait_us", Median(s.refit_wait_s) * 1e6, "us",
             s.refit_wait_s.size());
  report.Add("serve.refit_duty_share", s.refit_busy_s / s.seconds, "share",
             s.refit_wait_s.size());
  report.Add("serve.generator_lag_us_p99", WindowedP99(s.lag_s) * 1e6, "us",
             n);
  report.Add("serve.swap_us", HistogramMeanUs("serve.swap.latency_s"), "us",
             publishes);
  report.Add("serve.shed", static_cast<double>(shed), "count", n);
  report.Add("serve.publishes", static_cast<double>(publishes), "count",
             s.refit_requests);
  report.Add("serve.refit_failures", static_cast<double>(failures), "count",
             s.refit_requests);
  const size_t m = s.observe_s.size();
  report.Add("stream.observe_us_p50", Quantile(s.observe_s, 0.50) * 1e6, "us",
             m);
  report.Add("stream.observe_us_p99", Quantile(s.observe_s, 0.99) * 1e6, "us",
             m);
  report.Add("stream.change_points", static_cast<double>(s.change_points),
             "count", m);
  report.Add("stream.refits_requested", static_cast<double>(s.refits), "count",
             m);
  report.Add("stream.appends", static_cast<double>(s.appends), "count", m);
}

/// Attempts and failures of one session into `report`. Shed reads return
/// Unavailable, so they are among the read errors.
void Account(const Session& s, Report& report) {
  report.attempted += s.reads;
  report.failed += s.read_errors + s.late_reads + s.unattributed_publishes;
}

/// The serve workload's latencies are only valid if the client kept to its
/// schedule. (The layer sweep's short session reports its lag as a metric
/// instead: it produces no end-to-end latency.)
void CheckGenerator(const Session& s, Report& report) {
  if (WindowedP99(s.lag_s) > kMaxGeneratorLagP99S) {
    report.mismatches.push_back(
        "invalid run: client generator lag p99 above its limit");
  }
}

}  // namespace

void ServeSection(const ExperimentCorpus& corpus, uint64_t seed,
                  Tracer* tracer, Report& report) {
  SpanScope section(tracer, "section.serve");
  std::unique_ptr<ServeState> state = SetUp(corpus, seed);
  wpred::obs::MetricsRegistry::Global().GetHistogram("serve.swap.latency_s").Reset();
  const uint64_t publishes0 = state->service->publish_count();
  SpeedProbe unused;
  const Session session = RunSession(*state, 3.0, seed, tracer, unused);
  Account(session, report);
  AddLayerMetrics(session, state->service->publish_count() - publishes0,
                  state->service->refit_failures(),
                  state->service->shed_count(), report);
  CheckAnswers(*state, {&session}, report);
}

void RunServe(const Options& opts, Tracer* tracer, Report& report) {
  SpeedProbe probe;
  std::unique_ptr<ServeState> state;
  const std::vector<double> setup_s = TimedSetups(opts, probe, [&](int) {
    state.reset();
    state = SetUp(MakeFitCorpus(opts.seed), opts.seed);
  });

  if (tracer == nullptr) {
    const Session s =
        RunSession(*state, opts.seconds, opts.seed, nullptr, probe);
    Account(s, report);
    CheckGenerator(s, report);
    AddTimings(report, probe, setup_s, s.scaled_refit_s, s.scaled_read_s);
    CheckAnswers(*state, {&s}, report);
    return;
  }
  // Traced: an untraced half, then a traced half with obs metrics on; the
  // read p50 of the two halves gives the tracing overhead.
  wpred::obs::SetMetricsEnabled(false);
  const Session plain =
      RunSession(*state, opts.seconds / 2, opts.seed, nullptr, probe);
  wpred::obs::SetMetricsEnabled(true);
  wpred::obs::MetricsRegistry::Global().GetHistogram("serve.swap.latency_s").Reset();
  const uint64_t publishes0 = state->service->publish_count();
  const Session traced =
      RunSession(*state, opts.seconds / 2, opts.seed + 1, tracer, probe);
  for (const Session* s : {&plain, &traced}) {
    Account(*s, report);
    CheckGenerator(*s, report);
  }
  AddLayerMetrics(traced, state->service->publish_count() - publishes0,
                  state->service->refit_failures(),
                  state->service->shed_count(), report);
  AddTraceOverhead(report, traced.scaled_read_s, plain.scaled_read_s);
  CheckAnswers(*state, {&plain, &traced}, report);
}

}  // namespace wbench
