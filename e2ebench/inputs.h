#pragma once

// Workload definitions and the input files that e2e_gen writes and e2e_run
// reads. The measured process receives nothing else: the design is rebuilt
// from its spec inside the process, cold.

#include <cstdint>
#include <string>
#include <vector>

#include "eval/benchmarks.h"
#include "sim/fault_sim.h"

namespace e2ebench {

/// One benchmark workload. All run the Syn-2 configuration with single-fault
/// injection; README.md says why each exists and what it should move.
struct Workload {
  const char* name;
  bool paper_scale;      ///< m3d100k_spec() instead of tiny_spec().
  bool compacted;        ///< EDT-style 20x XOR-compacted failure logs.
  std::size_t distinct;  ///< Distinct logs in one round.
  std::size_t repeat;    ///< Occurrences of each distinct log in one round.
  std::size_t windows;   ///< Equal windows per round that throughput and
                         ///< CPU are taken over (median over the run's).
  /// The logs come from kFixedPoolSeed whatever the workload seed, which
  /// then only orders the round and trains the framework. Used where a few
  /// logs cost many times the median, so that which logs a seed draws would
  /// move the figures more than the program does, and where some logs fail.
  bool fixed_pool;
  /// Requests may fail the re-simulation check; they are counted as failed,
  /// not as wrong. On m3d100k the Diagnoser's max_suspects cap makes some
  /// logs lose every perfectly matching candidate. Only a fixed pool fails
  /// the same share of requests on every run.
  bool may_fail;
};

/// DatagenOptions::seed of fixed pools; generate_dataset is prefix-stable,
/// so the first 16 logs are those of DatagenOptions{num_samples=16, seed=7}.
inline constexpr std::uint64_t kFixedPoolSeed = 7;

/// Requests in flight: one per core of the 4-core reference host, into a
/// service with its default 4 workers.
inline constexpr std::size_t kInFlight = 4;

const Workload* find_workload(const std::string& name);
m3dfl::eval::BenchmarkSpec spec_of(const Workload& w);
inline constexpr m3dfl::eval::Config kConfig = m3dfl::eval::Config::kSyn2;

/// Ground truth of one generated log (read only after the timed phase).
struct Truth {
  m3dfl::sim::InjectedFault fault;
  int tier = -1;
  bool is_miv = false;
};

/// One workload's generated inputs.
struct Inputs {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<std::string> log_texts;  ///< Distinct logs, tester text format.
  std::vector<Truth> truth;            ///< Parallel to log_texts.
  std::vector<std::uint32_t> round;    ///< One round's request order.
  std::vector<std::uint32_t> warmup;   ///< Logs the warm-up cycles through.
};

/// Files: plan.txt (workload, seed, round, warm-up), logs.txt (log texts),
/// truth.txt, framework.m3dfl (written by e2e_gen itself).
void write_inputs(const std::string& dir, const Inputs& in);
bool read_inputs(const std::string& dir, Inputs& in, std::string* error);
std::string framework_path(const std::string& dir);

}  // namespace e2ebench
