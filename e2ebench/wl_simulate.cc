// simulate: repeated GenerateCorpus rounds over a fixed grid. The DES does
// nearly all the work and the ML layers none, so a faster event calendar
// or parallel corpus generation shows here and nowhere else.
#include "layers.h"
#include "sim/hardware.h"

namespace wbench {
namespace {

// 4 workloads x 3 SKUs x {8, 32} terminals (TPC-H runs serially, so its
// terminal axis collapses): 21 experiments of 120 simulated seconds.
// 8 vs 32 terminals varies lock contention and event density.
wpred::WorkbenchConfig SimulateGrid(uint64_t seed) {
  wpred::WorkbenchConfig grid;
  grid.workloads = {"TPC-C", "Twitter", "TPC-H", "YCSB"};
  grid.skus = {wpred::MakeCpuSku(2), wpred::MakeCpuSku(4),
               wpred::MakeCpuSku(8)};
  grid.terminals = {8, 32};
  grid.runs = 1;
  grid.sim.duration_s = 120.0;
  grid.sim.sample_period_s = 0.5;
  grid.base_seed = seed;
  return grid;
}

}  // namespace

void RunSimulate(const Options& opts, Tracer* tracer, Report& report) {
  const wpred::WorkbenchConfig grid = SimulateGrid(opts.seed);
  const std::vector<Coord> coords = GridCoords(grid);

  // Setup: the reference outputs, one serial RunOne per grid coordinate.
  // Each RunOne is also one timed operation (op_us_*), scaled like its
  // setup pass.
  SpeedProbe probe;
  std::vector<double> run_s, setup_scales;
  std::vector<uint64_t> expected;
  const std::vector<double> setup_s = TimedSetups(opts, probe, [&](int rep) {
    // sim.* layer metrics: Report::Add keeps the first pass's.
    std::vector<uint64_t> hashes;
    for (const Experiment& e : SimSection(coords, grid.sim, grid.base_seed,
                                          tracer, report, &run_s)) {
      hashes.push_back(HashExperiment(e));
    }
    if (rep > 0) {
      report.Check(hashes == expected, "serial RunOne is not deterministic");
    }
    expected = std::move(hashes);
  }, &setup_scales);
  for (size_t i = 0; i < run_s.size(); ++i) {
    run_s[i] *= setup_scales[i / coords.size()];
  }

  // Timed phase: every round's corpus must equal the serial reference.
  const Rounds rounds = RunRounds(
      opts, tracer, probe, "simulate.round", 1, [&](int, Tracer*) {
        wpred::Result<ExperimentCorpus> corpus = wpred::GenerateCorpus(grid);
        ++report.attempted;
        if (!corpus.ok()) {
          ++report.failed;
          return;
        }
        report.Check(corpus->size() == expected.size(),
                     "GenerateCorpus returned a different grid size");
        for (size_t i = 0; i < corpus->size() && i < expected.size(); ++i) {
          report.Check(HashExperiment((*corpus)[i]) == expected[i],
                       "GenerateCorpus output differs from serial RunOne at " +
                           (*corpus)[i].Label());
        }
      });

  AddTimings(report, probe, setup_s, rounds.all, run_s);
  if (tracer != nullptr) {
    AddTraceOverhead(report, rounds.traced, rounds.untraced);
  }
}

}  // namespace wbench
