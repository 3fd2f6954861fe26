#pragma once

#include <cstdint>
#include <vector>

#include "eval/benchmarks.h"
#include "gnn/trainer.h"
#include "graphx/backtrace.h"
#include "sim/failure_log.h"

namespace m3dfl::eval {

/// Fault-injection mode of the data-generation flow (paper Fig. 4).
enum class FaultMode : std::uint8_t {
  kSingleSite,    ///< One TDF at a uniformly random fault site.
  kSingleMiv,     ///< One TDF at a uniformly random MIV (MIV-targeted set).
  kMultiSameTier, ///< 2-5 TDFs in one tier (tier-systematic defects,
                  ///< paper Sec. VII-A).
};

/// One generated diagnosis sample: the injected defect(s), the tester
/// failure log, and the back-traced labeled sub-graph.
struct Sample {
  sim::FailureLog log;
  std::vector<sim::InjectedFault> faults;
  std::vector<netlist::SiteId> truth_sites;  ///< Sites of `faults`.
  int fault_tier = -1;     ///< Tier label (all faults share it by design).
  bool truth_is_miv = false;
  graphx::SubGraph sub;    ///< Back-traced sub-graph with labels filled.
};

struct Dataset {
  std::vector<Sample> samples;

  std::size_t size() const { return samples.size(); }
};

struct DatagenOptions {
  std::size_t num_samples = 100;
  FaultMode mode = FaultMode::kSingleSite;
  bool compacted = false;
  std::uint64_t seed = 1;
  /// Retries per sample until the injected fault is detected by the
  /// pattern set AND (in compacted mode) survives XOR aliasing. Undetected
  /// draws and fully aliased compacted responses both charge this budget;
  /// a sample whose budget is exhausted is skipped, never retried forever.
  int max_retries = 64;
  /// Worker threads for the sample shards (0 = hardware concurrency).
  /// The output is bit-identical at every thread count — see the RNG
  /// contract below.
  std::size_t num_threads = 0;
};

/// Runs the Fig.-4 flow on a built design: inject -> simulate -> failure
/// log -> back-trace -> labeled sub-graph.
///
/// Determinism contract: sample i draws every random decision from its own
/// stream seeded with derive_seed(opts.seed, i). Samples are therefore
/// independent of each other, of num_samples (a longer run extends, never
/// perturbs, a shorter one), and of the thread count — the parallel shards
/// produce a Dataset bit-identical to the sequential flow.
Dataset generate_dataset(const Design& design, const DatagenOptions& opts);

/// Labeled views used by the GNN trainers.
std::vector<gnn::LabeledGraph> tier_labeled(const Dataset& ds);
std::vector<const graphx::SubGraph*> graphs_of(const Dataset& ds);

}  // namespace m3dfl::eval
