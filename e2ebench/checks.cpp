#include "checks.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "compress/compactor.h"

namespace e2ebench {

using m3dfl::core::PolicyOutcome;
using m3dfl::diag::Candidate;
using m3dfl::diag::DiagnosisReport;
using m3dfl::sim::FailureLog;

namespace {

bool same_candidate(const Candidate& a, const Candidate& b) {
  return a.site == b.site && a.polarity == b.polarity && a.tier == b.tier &&
         a.is_miv == b.is_miv &&
         std::bit_cast<std::uint64_t>(a.score) ==
             std::bit_cast<std::uint64_t>(b.score) &&
         a.matched == b.matched && a.mispredicted == b.mispredicted &&
         a.missed == b.missed;
}

bool same_candidates(const std::vector<Candidate>& a,
                     const std::vector<Candidate>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), same_candidate);
}

auto candidate_key(const Candidate& c) {
  return std::make_tuple(c.site, c.polarity, c.tier, c.is_miv,
                         std::bit_cast<std::uint64_t>(c.score), c.matched,
                         c.mispredicted, c.missed);
}

bool candidate_less(const Candidate& a, const Candidate& b) {
  return candidate_key(a) < candidate_key(b);
}

bool same_log(FailureLog a, FailureLog b) {
  if (a.compacted != b.compacted) return false;
  auto obs_key = [](const FailureLog::Obs& o) {
    return std::make_tuple(o.pattern, o.output);
  };
  auto cobs_key = [](const FailureLog::CObs& o) {
    return std::make_tuple(o.pattern, o.channel, o.cycle);
  };
  std::sort(a.fails.begin(), a.fails.end(),
            [&](const auto& x, const auto& y) { return obs_key(x) < obs_key(y); });
  std::sort(b.fails.begin(), b.fails.end(),
            [&](const auto& x, const auto& y) { return obs_key(x) < obs_key(y); });
  std::sort(a.cfails.begin(), a.cfails.end(), [&](const auto& x, const auto& y) {
    return cobs_key(x) < cobs_key(y);
  });
  std::sort(b.cfails.begin(), b.cfails.end(), [&](const auto& x, const auto& y) {
    return cobs_key(x) < cobs_key(y);
  });
  return a.fails == b.fails && a.cfails == b.cfails;
}

}  // namespace

bool resim_reproduces(const m3dfl::eval::Design& d,
                      m3dfl::sim::FaultSimulator& sim, const FailureLog& log,
                      const DiagnosisReport& atpg) {
  if (atpg.candidates.empty()) return false;
  const Candidate& best = *std::max_element(
      atpg.candidates.begin(), atpg.candidates.end(),
      [](const Candidate& a, const Candidate& b) { return a.score < b.score; });
  std::vector<m3dfl::sim::Word> diff;
  sim.observed_diff(m3dfl::sim::InjectedFault{best.site, best.polarity}, diff);
  const FailureLog predicted =
      log.compacted
          ? m3dfl::compress::ResponseCompactor(d.scan).failure_log_from_diff(
                diff, sim.num_words(), sim.num_patterns())
          : m3dfl::sim::failure_log_from_diff(diff, d.nl.num_outputs(),
                                              sim.num_patterns());
  return same_log(predicted, log);
}

std::string policy_violation(const DiagnosisReport& atpg,
                             const PolicyOutcome& out) {
  std::vector<Candidate> kept = out.report.candidates;
  kept.insert(kept.end(), out.backup.begin(), out.backup.end());
  std::vector<Candidate> original = atpg.candidates;
  std::sort(kept.begin(), kept.end(), candidate_less);
  std::sort(original.begin(), original.end(), candidate_less);
  if (!same_candidates(kept, original)) {
    return "report + backup is not a permutation of the ATPG candidates";
  }
  for (const Candidate& c : out.backup) {
    if (c.tier == out.predicted_tier) {
      return "a backup candidate lies on the predicted tier";
    }
  }
  if (!atpg.candidates.empty() && out.report.candidates.empty()) {
    return "a non-empty ATPG report became an empty final report";
  }
  if (!(out.confidence >= 0.5 && out.confidence <= 1.0)) {
    return "policy confidence outside [0.5, 1]";
  }
  return "";
}

std::uint64_t response_fingerprint(const DiagnosisReport& atpg,
                                   const PolicyOutcome& out) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  auto mix_list = [&](const std::vector<Candidate>& list) {
    mix(list.size());
    for (const Candidate& c : list) {
      mix(c.site);
      mix(static_cast<std::uint64_t>(c.polarity));
      mix(static_cast<std::uint64_t>(c.tier));
      mix(c.is_miv);
      mix(std::bit_cast<std::uint64_t>(c.score));
      mix(c.matched);
      mix(c.mispredicted);
      mix(c.missed);
    }
  };
  mix_list(atpg.candidates);
  mix_list(out.report.candidates);
  mix_list(out.backup);
  mix(out.pruned);
  mix(out.high_confidence);
  mix(static_cast<std::uint64_t>(out.predicted_tier));
  mix(std::bit_cast<std::uint64_t>(out.confidence));
  mix(out.predicted_mivs.size());
  for (m3dfl::netlist::SiteId s : out.predicted_mivs) mix(s);
  return h;
}

}  // namespace e2ebench
