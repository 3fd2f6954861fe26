#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/logic_sim.h"

namespace m3dfl::sim {

/// A tester failure log: the list of miscompares observed when a defective
/// chip is tested. Two shapes exist, mirroring the paper's two evaluation
/// modes:
///  * uncompacted (bypass) — each entry pinpoints the failing observation
///    point (scan cell) directly;
///  * compacted — each entry names only the failing (output channel, shift
///    cycle) of the 20x XOR spatial compactor, so up to 20 scan cells could
///    be responsible.
struct FailureLog {
  struct Obs {
    std::uint32_t pattern;
    std::uint32_t output;  ///< Observation-point index.
    bool operator==(const Obs&) const = default;
  };
  struct CObs {
    std::uint32_t pattern;
    std::uint32_t channel;
    std::uint32_t cycle;  ///< Shift-cycle == chain position.
    bool operator==(const CObs&) const = default;
  };

  bool compacted = false;
  std::vector<Obs> fails;    ///< Populated when !compacted.
  std::vector<CObs> cfails;  ///< Populated when compacted.
  bool operator==(const FailureLog&) const = default;

  bool empty() const { return fails.empty() && cfails.empty(); }
  std::size_t size() const {
    return compacted ? cfails.size() : fails.size();
  }
  /// Number of distinct failing patterns.
  std::size_t num_failing_patterns() const;
};

/// Builds an uncompacted failure log from per-output diff masks
/// (diff[o * W + w], as produced by FaultSimulator::observed_diff).
FailureLog failure_log_from_diff(std::span<const Word> diff,
                                 std::size_t num_outputs,
                                 std::size_t num_patterns);

/// Text interchange for tester failure logs — the datalog format a tester
/// (or this library's simulator) hands to the diagnosis flow:
///
/// ```
/// m3dfl-faillog v1 bypass          # or: m3dfl-faillog v1 compacted
/// fail <pattern> <output>          # bypass entries
/// fail <pattern> <channel> <cycle> # compacted entries
/// ```
std::string to_text(const FailureLog& log);

/// Parses the format above. Returns an empty optional-like pair on error:
/// ok == false and message describes the first problem.
struct FailureLogParseResult {
  bool ok = true;
  std::string message;
  FailureLog log;
};
FailureLogParseResult failure_log_from_text(const std::string& text);

}  // namespace m3dfl::sim
