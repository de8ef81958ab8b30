// Shared harness of the end-to-end benchmark: options, order statistics,
// the span tracer, the result report and the output-identity hashes.
//
// Spans are recorded only in the benchmark's own files, around calls into
// the library's public functions; the library itself is not instrumented
// beyond its existing obs counters.
#ifndef WPRED_E2EBENCH_HARNESS_H_
#define WPRED_E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "telemetry/experiment.h"

namespace wbench {

using wpred::Experiment;
using wpred::ExperimentCorpus;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// Linear-interpolated quantile, q in [0, 1]; NaN for an empty sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

struct Options {
  /// Process start: the first setup is timed from here.
  Clock::time_point start = Clock::now();
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span file of a traced run.
  std::string out_dir = ".bench_build";
};

/// In-memory span recorder (name, start, end, parent, request id). Spans
/// nest per thread; a span's self time is its duration minus the part of
/// its interval its direct children cover.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int64_t id = 0;
    int64_t parent = -1;
    uint64_t request = 0;
    double self_s = 0.0;
  };

  int64_t Begin(const char* name, uint64_t request);
  void End(int64_t id);

  /// Computes self times and writes every span as JSON to `path`.
  bool Write(const std::string& path);
  size_t size() const;

 private:
  double Now() const;

  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer (untraced run) makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, request) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// What one run produced: operation counts, output checks, metrics.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checked = 0;
  uint64_t matched = 0;
  std::vector<std::string> mismatches;
  std::vector<Metric> metrics;
  /// The run's SpeedProbe::Scale() (setup_s is scaled by it) and samples.
  double speed_scale = 1.0;
  size_t speed_samples = 0;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples);
  /// Records one output check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  bool correct() const { return mismatches.empty() && checked > 0; }
};

/// Machine-speed probe. The box these numbers come from is a VM whose host
/// load changed the speed of identical code by up to 2x within minutes,
/// and the speed of one vCPU by ~1.5x for seconds at a time while the
/// others ran at full speed. The probe times a fixed kernel that does not
/// use the library (a 1 MiB pointer chase, small allocations, a small
/// matrix-vector product); it slows with the host as the workloads do.
/// End-to-end timings are reported in reference-speed units: raw x
/// kReferenceSeconds / probe time, so a busy host cancels out and a slower
/// library does not. The probe time is the sample right after a setup for
/// that setup, the mean of the samples around a round for the round, and a
/// sample on the supervisor thread for a serve refit; short operations use
/// SpeedTick. The run's median sample is printed as its speed_scale.
class SpeedProbe {
 public:
  /// Median probe time on the idle 4-vCPU Xeon VM at 2.0 GHz (GCC 12,
  /// Release, -march=native) the bounds in BENCHMARK.json were set on.
  static constexpr double kReferenceSeconds = 0.034;
  /// Passes of the kernel in a full sample.
  static constexpr int kPasses = 10;

  /// Runs one warm-up pass and `passes` timed passes of the kernel on the
  /// calling thread, and records the median timed pass times kPasses.
  /// Returns this sample's scale, kReferenceSeconds / that time.
  double Sample(int passes = kPasses);
  /// kReferenceSeconds / median sample (1 before any sample).
  double Scale() const;
  size_t samples() const { return seconds_.size(); }

 private:
  std::vector<double> seconds_;
};

/// A ~30 us slice of machine speed, sampled before each short operation
/// (serve read, rank query, fit prediction) on its thread: a pointer chase
/// over 64 KiB, a few small allocations and a few 64x64 matrix-vector
/// products. Host interference on this VM came in episodes of 0.1 s to
/// seconds that slowed reads by 1.3-1.5x; a run-wide probe median cannot
/// follow them, a tick before every operation can.
class SpeedTick {
 public:
  /// Median tick time on the reference VM (see SpeedProbe).
  static constexpr double kReferenceSeconds = 32e-6;
  /// Ticks in the rolling median that gives the current speed.
  static constexpr size_t kWindow = 15;

  /// Times one tick on the calling thread.
  void Sample();
  /// kReferenceSeconds / median of the last kWindow ticks (1 before any).
  double Scale() const;

 private:
  std::vector<double> recent_;  // ring of the last kWindow tick times
  size_t next_ = 0;
};

/// p99 of `samples` (in the order they were taken). With >= 2000 samples it
/// is the median of the p99s of consecutive 1000-sample windows: each
/// window still has 10 samples beyond its p99, and one stall of the whole
/// VM moves one window, not the result. With fewer than 1000 samples the
/// p99 would rest on less than 10 samples, so it is the highest quantile
/// that has 10 beyond it (p84 of 63 samples), and the median below 20.
double WindowedP99(const std::vector<double>& samples);

/// Setups per run; setup_s is their median.
inline constexpr int kSetups = 3;

/// Runs `setup(rep)` kSetups times and returns the wall time of each,
/// scaled by the probe sample taken right after it; the first is timed
/// from process start. Those scales go to `scales` when it is given.
template <typename Fn>
std::vector<double> TimedSetups(const Options& opts, SpeedProbe& probe,
                                Fn&& setup,
                                std::vector<double>* scales = nullptr) {
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point start = rep == 0 ? opts.start : Clock::now();
    setup(rep);
    const double elapsed = SecondsSince(start);
    const double scale = probe.Sample();
    setup_s.push_back(elapsed * scale);
    if (scales != nullptr) scales->push_back(scale);
  }
  return setup_s;
}

/// Wall times of the timed rounds of a run in reference-speed units, the
/// warm-up round excluded.
struct Rounds {
  std::vector<double> all, traced, untraced;
};

/// The timed phase of a round-based workload: calls `round(index, tracer)`
/// at least three times and until opts.seconds have passed. Round 0 is the
/// warm-up and is not in the result. A traced run traces the odd rounds
/// (under a span `name`, with obs metrics on) and passes the even ones a
/// null tracer, so traced and untraced rounds give the tracing overhead.
/// `probe` is sampled before every `rounds_per_probe`-th round and after
/// the last; each round is scaled by the mean of the samples around it.
Rounds RunRounds(const Options& opts, Tracer* tracer, SpeedProbe& probe,
                 const char* name, int rounds_per_probe,
                 const std::function<void(int, Tracer*)>& round);

/// The end-to-end timings setup_s, round_s_p50, op_us_p50 and op_us_p99
/// (WindowedP99), from samples in seconds in reference-speed units; `op_s`
/// holds per-operation latencies in run order. probe.Scale() is recorded
/// as the run's speed_scale.
void AddTimings(Report& report, const SpeedProbe& probe,
                const std::vector<double>& setup_s,
                const std::vector<double>& round_s,
                const std::vector<double>& op_s);

/// obs.trace_overhead_share: median traced / median untraced - 1.
void AddTraceOverhead(Report& report, const std::vector<double>& traced,
                      const std::vector<double>& untraced);

/// Order-sensitive FNV-1a over every field of an experiment, doubles by
/// bit pattern: equal hashes mean byte-identical outputs.
uint64_t HashExperiment(const Experiment& experiment, uint64_t h = 0);
uint64_t HashCorpus(const ExperimentCorpus& corpus);

/// Hash of every field of a prediction, doubles by bit pattern.
uint64_t HashPrediction(const wpred::Pipeline::Prediction& prediction);

/// Peak resident set of this process in MB.
double PeakRssMb();

/// Counter value in the obs registry (0 when never touched).
uint64_t CounterValue(const char* name);

/// Fails the process with a message on a non-OK status. Setup and checks
/// use it: a benchmark whose inputs cannot be built has no result.
void Require(const wpred::Status& status, const char* what);
template <typename T>
T RequireOk(wpred::Result<T> result, const char* what) {
  Require(result.status(), what);
  return std::move(result).value();
}

}  // namespace wbench

#endif  // WPRED_E2EBENCH_HARNESS_H_
