#pragma once

// Output checks of the benchmark. Each is computed apart from the program
// under test or states a property the method must have; e2e_run's self-test
// feeds each a corrupted response to show that none passes vacuously.

#include <cstdint>
#include <string>

#include "core/policy.h"
#include "diagnosis/report.h"
#include "eval/benchmarks.h"
#include "sim/failure_log.h"

namespace e2ebench {

/// Independent re-simulation: the best-scoring ATPG candidate, simulated on
/// `sim` (a private clone of the design's bound simulator) and folded
/// through the design's compactor for compacted logs, reproduces `log`
/// exactly. An injected fault explains its own log, so an uncapped
/// effect-cause search always finds such a candidate.
bool resim_reproduces(const m3dfl::eval::Design& d, m3dfl::sim::FaultSimulator& sim,
                      const m3dfl::sim::FailureLog& log,
                      const m3dfl::diag::DiagnosisReport& atpg);

/// Policy conservation: report + backup is a permutation of the ATPG
/// candidates, every backup candidate lies off the predicted tier, a
/// non-empty ATPG report yields a non-empty final report, and the confidence
/// lies in [0.5, 1]. Returns "" when all hold, else the first violation.
std::string policy_violation(const m3dfl::diag::DiagnosisReport& atpg,
                             const m3dfl::core::PolicyOutcome& out);

/// 64-bit FNV-1a fingerprint of a response's ATPG report and policy outcome,
/// every field except the wall-clock ones, with scores bit for bit. Served
/// responses are compared with the direct composition through it.
std::uint64_t response_fingerprint(const m3dfl::diag::DiagnosisReport& atpg,
                                   const m3dfl::core::PolicyOutcome& out);

}  // namespace e2ebench
