#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "obs/metrics.h"

namespace wbench {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t HashBytes(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

uint64_t HashString(const std::string& s, uint64_t h) {
  const uint64_t n = s.size();
  return HashBytes(s.data(), s.size(), HashBytes(&n, sizeof(n), h));
}

uint64_t HashInt(int64_t v, uint64_t h) { return HashBytes(&v, sizeof(v), h); }

uint64_t HashDouble(double value, uint64_t h) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return HashBytes(&bits, sizeof(bits), h);
}

uint64_t HashMatrix(const wpred::Matrix& m, uint64_t h) {
  h = HashInt(static_cast<int64_t>(m.rows()), h);
  h = HashInt(static_cast<int64_t>(m.cols()), h);
  for (double v : m.data()) h = HashDouble(v, h);
  return h;
}

uint64_t HashMap(const std::map<std::string, double>& m, uint64_t h) {
  h = HashInt(static_cast<int64_t>(m.size()), h);
  for (const auto& [k, v] : m) h = HashDouble(v, HashString(k, h));
  return h;
}

// thread-local span stack: the innermost open span is a new span's parent.
thread_local std::vector<int64_t> tl_open_spans;

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - lo);
}

double Tracer::Now() const { return SecondsSince(origin_); }

int64_t Tracer::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = tl_open_spans.empty() ? -1 : tl_open_spans.back();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    span.id = id;
    span.start_s = Now();
    spans_.push_back(std::move(span));
  }
  tl_open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  const double end = Now();
  if (!tl_open_spans.empty() && tl_open_spans.back() == id) {
    tl_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = end;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  // Self time: duration minus the union of the direct children's intervals
  // (children of one parent may overlap when they ran on other threads).
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_s, s.end_s});
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo, hi] : c) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    spans_[i].self_s = (spans_[i].end_s - spans_[i].start_s) - covered;
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %lld, \"parent\": %lld, \"request\": %llu, "
                  "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"self_s\": %.9f}%s\n",
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name.c_str(),
                  s.start_s, s.end_s, s.self_s,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  // First wins: a workload measures its own layers before the sweep does.
  for (const Metric& m : metrics) {
    if (m.name == name) return;
  }
  metrics.push_back({name, value, unit, samples});
}

void Report::Check(bool ok, const std::string& what) {
  ++checked;
  if (ok) {
    ++matched;
  } else if (mismatches.size() < 20) {
    mismatches.push_back(what);
  } else {
    mismatches.back() = "(further mismatches elided) " + what;
  }
}

double SpeedProbe::Sample(int passes) {
  // A random cyclic permutation of 256 Ki slots (1 MiB): every load misses
  // L1/L2, like the corpus walks of the DES and the similarity layer.
  constexpr uint32_t kSlots = 1u << 18;
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> order(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    uint64_t x = 88172645463325252ULL;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<uint32_t> link(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      link[order[i]] = order[(i + 1) % kSlots];
    }
    return link;
  }();
  // A 64x64 matrix-vector product, vectorised like the ML and distance
  // kernels: it slows when a neighbour contends for the FP units.
  constexpr size_t kDim = 64;
  std::vector<double> matrix(kDim * kDim), vec(kDim, 1.0), out(kDim);
  for (size_t i = 0; i < matrix.size(); ++i) matrix[i] = 1e-3 * (i % 17);
  uint32_t at = 0;
  double acc = 0.0;
  std::vector<double> pass_s;
  // Pass 0 warms the caches of this core and is not counted.
  for (int pass = 0; pass <= passes; ++pass) {
    const Clock::time_point start = Clock::now();
    for (uint32_t i = 0; i < kSlots; ++i) at = next[at];
    for (int k = 0; k < 2000; ++k) {
      std::vector<double> block(static_cast<size_t>(64 + k % 64), k);
      acc += block.back() * 1.0000001;
    }
    for (int rep = 0; rep < 600; ++rep) {
      for (size_t r = 0; r < kDim; ++r) {
        double dot = 0.0;
        for (size_t c = 0; c < kDim; ++c) dot += matrix[r * kDim + c] * vec[c];
        out[r] = dot;
      }
      vec.swap(out);
      vec[rep % kDim] = 1.0;
    }
    if (pass > 0) pass_s.push_back(SecondsSince(start));
  }
  volatile double sink = acc + at + vec[0];
  (void)sink;
  // The median pass: an interrupt or a descheduling inside one pass is a
  // hiccup the timed work either has or has not, not a change of speed.
  seconds_.push_back(Median(pass_s) * kPasses);
  return kReferenceSeconds / seconds_.back();
}

double SpeedProbe::Scale() const {
  return seconds_.empty() ? 1.0 : kReferenceSeconds / Median(seconds_);
}

void SpeedTick::Sample() {
  constexpr uint32_t kSlots = 1u << 14;  // 64 KiB: stays in L2
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> link(kSlots);
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    std::vector<uint32_t> order(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (uint32_t i = 0; i < kSlots; ++i) {
      link[order[i]] = order[(i + 1) % kSlots];
    }
    return link;
  }();
  constexpr size_t kDim = 64;
  static const std::vector<double> matrix = [] {
    std::vector<double> m(kDim * kDim);
    for (size_t i = 0; i < m.size(); ++i) m[i] = 1e-3 * (i % 17);
    return m;
  }();
  std::vector<double> vec(kDim, 1.0), out(kDim);
  const Clock::time_point start = Clock::now();
  uint32_t at = 0;
  for (uint32_t i = 0; i < 4096; ++i) at = next[at];
  double acc = 0.0;
  for (int k = 0; k < 32; ++k) {
    std::vector<double> block(static_cast<size_t>(64 + k), k);
    acc += block.back();
  }
  for (int rep = 0; rep < 8; ++rep) {
    for (size_t r = 0; r < kDim; ++r) {
      double dot = 0.0;
      for (size_t c = 0; c < kDim; ++c) dot += matrix[r * kDim + c] * vec[c];
      out[r] = dot;
    }
    vec.swap(out);
  }
  volatile double sink = acc + at + vec[0];
  (void)sink;
  const double elapsed = SecondsSince(start);
  if (recent_.size() < kWindow) {
    recent_.push_back(elapsed);
  } else {
    recent_[next_] = elapsed;
    next_ = (next_ + 1) % kWindow;
  }
}

double SpeedTick::Scale() const {
  return recent_.empty() ? 1.0 : kReferenceSeconds / Median(recent_);
}

double WindowedP99(const std::vector<double>& samples) {
  constexpr size_t kWindow = 1000;
  if (samples.size() < 2 * kWindow) {
    const double n = static_cast<double>(samples.size());
    return Quantile(samples, std::clamp(1.0 - 10.0 / n, 0.5, 0.99));
  }
  std::vector<double> window_p99;
  for (size_t lo = 0; lo + kWindow <= samples.size(); lo += kWindow) {
    window_p99.push_back(Quantile(
        std::vector<double>(samples.begin() + lo, samples.begin() + lo + kWindow),
        0.99));
  }
  return Median(window_p99);
}

Rounds RunRounds(const Options& opts, Tracer* tracer, SpeedProbe& probe,
                 const char* name, int rounds_per_probe,
                 const std::function<void(int, Tracer*)>& round) {
  Rounds out;
  std::vector<double> raw_s, scale_before;  // per timed round
  std::vector<bool> traced_round;
  double scale = 1.0;
  const Clock::time_point phase = Clock::now();
  for (int i = 0; i < 3 || SecondsSince(phase) < opts.seconds; ++i) {
    if (i % rounds_per_probe == 0) scale = probe.Sample();
    const bool traced = tracer != nullptr && i % 2 == 1;
    wpred::obs::SetMetricsEnabled(traced);
    SpanScope span(traced ? tracer : nullptr, name, static_cast<uint64_t>(i));
    const Clock::time_point start = Clock::now();
    round(i, traced ? tracer : nullptr);
    const double elapsed = SecondsSince(start);
    if (i == 0) continue;
    raw_s.push_back(elapsed);
    scale_before.push_back(scale);
    traced_round.push_back(traced);
  }
  wpred::obs::SetMetricsEnabled(tracer != nullptr);
  // Each round is scaled by the mean of the samples just before and just
  // after it: rounds of seconds see the host change under them.
  scale_before.push_back(probe.Sample());
  for (size_t r = 0; r < raw_s.size(); ++r) {
    const double scaled =
        raw_s[r] * 0.5 * (scale_before[r] + scale_before[r + 1]);
    out.all.push_back(scaled);
    (traced_round[r] ? out.traced : out.untraced).push_back(scaled);
  }
  return out;
}

void AddTimings(Report& report, const SpeedProbe& probe,
                const std::vector<double>& setup_s,
                const std::vector<double>& round_s,
                const std::vector<double>& op_s) {
  report.speed_scale = probe.Scale();
  report.speed_samples = probe.samples();
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("round_s_p50", Median(round_s), "s", round_s.size());
  report.Add("op_us_p50", Quantile(op_s, 0.50) * 1e6, "us", op_s.size());
  report.Add("op_us_p99", WindowedP99(op_s) * 1e6, "us", op_s.size());
}

void AddTraceOverhead(Report& report, const std::vector<double>& traced,
                      const std::vector<double>& untraced) {
  report.Add("obs.trace_overhead_share",
             Median(traced) / Median(untraced) - 1.0, "share",
             traced.size() + untraced.size());
}

uint64_t HashExperiment(const Experiment& e, uint64_t h) {
  if (h == 0) h = kFnvOffset;
  h = HashString(e.workload, h);
  h = HashInt(static_cast<int64_t>(e.type), h);
  h = HashString(e.sku, h);
  h = HashInt(e.cpus, h);
  h = HashDouble(e.memory_gb, h);
  h = HashInt(e.terminals, h);
  h = HashInt(e.run_id, h);
  h = HashInt(e.data_group, h);
  h = HashInt(e.subsample_id, h);
  h = HashMatrix(e.resource.values, h);
  h = HashDouble(e.resource.sample_period_s, h);
  h = HashMatrix(e.plans.values, h);
  for (const std::string& q : e.plans.query_names) h = HashString(q, h);
  h = HashDouble(e.perf.throughput_tps, h);
  h = HashDouble(e.perf.mean_latency_ms, h);
  h = HashMap(e.perf.latency_ms_by_type, h);
  h = HashMap(e.perf.throughput_tps_by_type, h);
  return h;
}

uint64_t HashCorpus(const ExperimentCorpus& corpus) {
  uint64_t h = kFnvOffset;
  for (const Experiment& e : corpus.experiments()) h = HashExperiment(e, h);
  return h;
}

uint64_t HashPrediction(const wpred::Pipeline::Prediction& prediction) {
  uint64_t h = HashDouble(prediction.throughput_tps, kFnvOffset);
  h = HashDouble(prediction.similarity_distance, h);
  h = HashString(prediction.reference_workload, h);
  h = HashInt(prediction.degraded ? 1 : 0, h);
  for (size_t f : prediction.effective_features) {
    h = HashInt(static_cast<int64_t>(f), h);
  }
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t CounterValue(const char* name) {
  return wpred::obs::MetricsRegistry::Global().GetCounter(name).value();
}

void Require(const wpred::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "e2ebench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace wbench
