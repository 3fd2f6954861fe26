// Tests of the SCOAP testability measures, SCOAP-guided test-point
// insertion, and the fault-dictionary diagnosis engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>

#include "common/rng.h"
#include "diagnosis/dictionary.h"
#include "netlist/generators.h"
#include "netlist/scoap.h"

namespace m3dfl {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::ScoapMeasures;

// --- SCOAP ------------------------------------------------------------------

TEST(Scoap, TextbookValuesOnTinyCircuit) {
  // c = AND(a, b); observed: c.
  Netlist nl;
  const GateId a = nl.add_input();
  const GateId b = nl.add_input();
  const GateId c = nl.add_gate(GateType::kAnd, {a, b});
  nl.add_output(c);
  nl.set_num_scan_cells(1);
  const ScoapMeasures m = netlist::compute_scoap(nl);
  EXPECT_EQ(m.cc0[a], 1u);
  EXPECT_EQ(m.cc1[a], 1u);
  // AND: CC1 = CC1(a) + CC1(b) + 1 = 3; CC0 = min(CC0) + 1 = 2.
  EXPECT_EQ(m.cc1[c], 3u);
  EXPECT_EQ(m.cc0[c], 2u);
  // c is observed directly.
  EXPECT_EQ(m.co[c], 0u);
  // Observing a requires b = 1 through the AND: CO(a) = CO(c)+CC1(b)+1 = 2.
  EXPECT_EQ(m.co[a], 2u);
  EXPECT_EQ(m.co[b], 2u);
}

TEST(Scoap, InverterSwapsControllability) {
  Netlist nl;
  const GateId a = nl.add_input();
  const GateId inv = nl.add_gate(GateType::kInv, {a});
  nl.add_output(inv);
  nl.set_num_scan_cells(1);
  const ScoapMeasures m = netlist::compute_scoap(nl);
  EXPECT_EQ(m.cc0[inv], m.cc1[a] + 1);
  EXPECT_EQ(m.cc1[inv], m.cc0[a] + 1);
}

TEST(Scoap, XorParityControllability) {
  Netlist nl;
  const GateId a = nl.add_input();
  const GateId b = nl.add_input();
  const GateId x = nl.add_gate(GateType::kXor, {a, b});
  nl.add_output(x);
  nl.set_num_scan_cells(1);
  const ScoapMeasures m = netlist::compute_scoap(nl);
  // XOR=1 needs odd parity: min(1+1, 1+1)+1 = 3; XOR=0 likewise.
  EXPECT_EQ(m.cc1[x], 3u);
  EXPECT_EQ(m.cc0[x], 3u);
}

class ScoapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScoapProperty, AllMeasuresFiniteOnGeneratedCircuits) {
  netlist::GeneratorParams p;
  p.num_logic_gates = 300;
  p.num_scan_cells = 24;
  p.seed = GetParam();
  const Netlist nl = netlist::generate_netlist(p);
  const ScoapMeasures m = netlist::compute_scoap(nl);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    EXPECT_GT(m.cc0[g], 0u);
    EXPECT_GT(m.cc1[g], 0u);
    // Full observability: every gate has a finite CO.
    EXPECT_LT(m.co[g], 0xffffffu) << "gate " << g << " unobservable";
  }
  // Depth correlates with controllability cost.
  const auto& lv = nl.levels();
  double shallow = 0, deep = 0;
  std::size_t ns = 0, nd = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const double c = 0.5 * (m.cc0[g] + m.cc1[g]);
    if (lv[g] <= 2) {
      shallow += c;
      ++ns;
    } else if (lv[g] >= nl.depth() - 2) {
      deep += c;
      ++nd;
    }
  }
  ASSERT_GT(ns, 0u);
  ASSERT_GT(nd, 0u);
  EXPECT_LT(shallow / ns, deep / nd);
}

TEST_P(ScoapProperty, ScoapTpiTargetsWorstObservability) {
  netlist::GeneratorParams p;
  p.num_logic_gates = 250;
  p.num_scan_cells = 20;
  p.seed = GetParam() + 5;
  const Netlist base = netlist::generate_netlist(p);
  const ScoapMeasures before = netlist::compute_scoap(base);
  const Netlist tpi = netlist::insert_test_points_scoap(base, 0.03);
  EXPECT_GT(tpi.num_outputs(), base.num_outputs());
  EXPECT_TRUE(tpi.validate().empty());
  // Observability of the worst gates improves.
  const ScoapMeasures after = netlist::compute_scoap(tpi);
  std::uint32_t worst_before = 0, worst_after = 0;
  for (GateId g = 0; g < base.num_gates(); ++g) {
    worst_before = std::max(worst_before, before.co[g]);
  }
  for (GateId g = 0; g < tpi.num_gates(); ++g) {
    worst_after = std::max(worst_after, after.co[g]);
  }
  EXPECT_LE(worst_after, worst_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoapProperty, ::testing::Values(61, 62));

// --- Fault dictionary --------------------------------------------------------------

struct DictFixture {
  Netlist nl;
  netlist::SiteTable sites;
  sim::FaultSimulator fsim;

  explicit DictFixture(std::uint64_t seed)
      : nl(make(seed)), sites(nl), fsim(nl, sites) {
    Rng rng(seed + 1);
    auto v1 = sim::PatternSet::random(nl.num_inputs(), 96, rng);
    auto v2 = sim::PatternSet::random(nl.num_inputs(), 96, rng);
    fsim.bind(v1, v2);
  }

  static Netlist make(std::uint64_t seed) {
    netlist::GeneratorParams p;
    p.num_logic_gates = 150;
    p.num_scan_cells = 12;
    p.seed = seed;
    return netlist::generate_netlist(p);
  }
};

TEST(FaultDictionary, ExactLookupFindsInjectedFault) {
  DictFixture fx(71);
  const diag::FaultDictionary dict(fx.nl, fx.sites, fx.fsim);
  EXPECT_GT(dict.num_entries(), fx.sites.size());  // Most faults detectable.
  EXPECT_GT(dict.signature_bytes(), 0u);

  Rng rng(72);
  std::vector<sim::Word> diff;
  int tested = 0;
  while (tested < 15) {
    const auto site =
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size()));
    const sim::InjectedFault f{site, rng.bernoulli(0.5)
                                         ? sim::FaultPolarity::kSlowToRise
                                         : sim::FaultPolarity::kSlowToFall};
    if (!fx.fsim.observed_diff(f, diff)) continue;
    ++tested;
    const auto log = sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                                fx.fsim.num_patterns());
    const diag::DiagnosisReport report = dict.diagnose(log);
    ASSERT_FALSE(report.candidates.empty());
    // Exact lookup: every candidate has a perfect score and the injected
    // site is among them.
    for (const auto& c : report.candidates) {
      EXPECT_DOUBLE_EQ(c.score, 1.0);
    }
    EXPECT_TRUE(report.hits_any({&site, 1}));
  }
}

TEST(FaultDictionary, NearestSignatureFallback) {
  DictFixture fx(73);
  const diag::FaultDictionary dict(fx.nl, fx.sites, fx.fsim);
  // A corrupted log (one observation dropped) no longer matches exactly;
  // the nearest-signature path must still rank the true fault highly.
  Rng rng(74);
  std::vector<sim::Word> diff;
  int tested = 0, hits = 0;
  while (tested < 10) {
    const auto site =
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size()));
    const sim::InjectedFault f{site, sim::FaultPolarity::kSlow};
    if (!fx.fsim.observed_diff(f, diff)) continue;
    auto log = sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                          fx.fsim.num_patterns());
    if (log.fails.size() < 3) continue;
    ++tested;
    log.fails.pop_back();  // Corrupt: drop the last miscompare.
    const diag::DiagnosisReport report = dict.diagnose(log);
    ASSERT_FALSE(report.candidates.empty());
    hits += report.hits_any({&site, 1});
  }
  EXPECT_GE(hits, tested - 2);
}

TEST(FaultDictionary, RejectsCompactedLogs) {
  DictFixture fx(75);
  const diag::FaultDictionary dict(fx.nl, fx.sites, fx.fsim);
  sim::FailureLog log;
  log.compacted = true;
  log.cfails = {{0, 0, 0}};
  EXPECT_TRUE(dict.diagnose(log).candidates.empty());
}

/// Independently reconstructed dictionary entry: the (site, polarity, keys)
/// sequence the sequential campaign produces, rebuilt without going through
/// FaultDictionary.
struct RefEntry {
  netlist::SiteId site;
  sim::FaultPolarity polarity;
  std::vector<std::uint64_t> keys;
};

std::vector<RefEntry> reference_entries(DictFixture& fx) {
  std::vector<RefEntry> refs;
  std::vector<sim::Word> diff;
  const std::size_t W = fx.fsim.num_words();
  for (netlist::SiteId s = 0; s < fx.sites.size(); ++s) {
    for (sim::FaultPolarity pol : {sim::FaultPolarity::kSlowToRise,
                                   sim::FaultPolarity::kSlowToFall}) {
      if (!fx.fsim.observed_diff({s, pol}, diff)) continue;
      RefEntry e{s, pol, {}};
      for (std::uint32_t o = 0; o < fx.nl.num_outputs(); ++o) {
        for (std::size_t w = 0; w < W; ++w) {
          sim::Word m = diff[static_cast<std::size_t>(o) * W + w];
          while (m) {
            const auto bit = static_cast<std::size_t>(std::countr_zero(m));
            m &= m - 1;
            const std::size_t p = w * sim::kWordBits + bit;
            if (p < fx.fsim.num_patterns()) {
              e.keys.push_back((static_cast<std::uint64_t>(o) << 32) | p);
            }
          }
        }
      }
      refs.push_back(std::move(e));
    }
  }
  return refs;
}

// Regression for the bounded-heap nearest-signature short-circuit: the
// selection (and order) must be identical to the old score-everything-then-
// sort scan, reconstructed here from first principles.
TEST(FaultDictionary, FallbackShortCircuitMatchesFullScan) {
  DictFixture fx(76);
  diag::FaultDictionaryOptions opts;
  const diag::FaultDictionary dict(fx.nl, fx.sites, fx.fsim, opts);
  const std::vector<RefEntry> refs = reference_entries(fx);
  ASSERT_EQ(refs.size(), dict.num_entries());

  Rng rng(77);
  std::vector<sim::Word> diff;
  int tested = 0;
  while (tested < 8) {
    const auto site =
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size()));
    if (!fx.fsim.observed_diff({site, sim::FaultPolarity::kSlow}, diff)) {
      continue;
    }
    auto log = sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                          fx.fsim.num_patterns());
    if (log.fails.size() < 3) continue;
    log.fails.pop_back();  // Corrupt so the exact-match path misses.

    std::vector<std::uint64_t> query;
    for (const auto& f : log.fails) {
      query.push_back((static_cast<std::uint64_t>(f.output) << 32) |
                      f.pattern);
    }
    std::sort(query.begin(), query.end());
    query.erase(std::unique(query.begin(), query.end()), query.end());
    const bool exact_exists =
        std::any_of(refs.begin(), refs.end(),
                    [&](const RefEntry& e) { return e.keys == query; });
    if (exact_exists) continue;  // Different (exact) code path; not under test.
    ++tested;

    // Full scan: Jaccard against every entry, stable (score desc, idx asc)
    // order, truncated to max_candidates — the pre-short-circuit behavior.
    struct Scored {
      double score;
      std::size_t idx;
    };
    std::vector<Scored> full;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      std::vector<std::uint64_t> inter;
      std::set_intersection(query.begin(), query.end(), refs[i].keys.begin(),
                            refs[i].keys.end(), std::back_inserter(inter));
      if (inter.empty()) continue;
      const double uni = static_cast<double>(query.size()) +
                         static_cast<double>(refs[i].keys.size()) -
                         static_cast<double>(inter.size());
      full.push_back({static_cast<double>(inter.size()) / uni, i});
    }
    std::sort(full.begin(), full.end(), [](const Scored& a, const Scored& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.idx < b.idx;
    });
    if (full.size() > opts.max_candidates) full.resize(opts.max_candidates);

    const diag::DiagnosisReport report = dict.diagnose(log);
    ASSERT_EQ(report.candidates.size(), full.size());
    for (std::size_t r = 0; r < full.size(); ++r) {
      const auto& c = report.candidates[r];
      const auto& e = refs[full[r].idx];
      EXPECT_EQ(c.site, e.site) << "rank " << r;
      EXPECT_EQ(c.polarity, e.polarity) << "rank " << r;
      EXPECT_DOUBLE_EQ(c.score, full[r].score) << "rank " << r;
    }
  }
}

TEST(FaultDictionary, PartitionedAndSpilledBuildsShareFingerprint) {
  DictFixture fx(78);
  const diag::FaultDictionary base(fx.nl, fx.sites, fx.fsim);
  const auto base_fp = base.footprint();
  EXPECT_GT(base_fp.resident_bytes, 0u);
  EXPECT_EQ(base_fp.disk_bytes, 0u);
  EXPECT_EQ(base_fp.resident_bytes, base_fp.logical_bytes);

  struct Variant {
    const char* name;
    std::size_t threads;
    std::size_t partition;
    const char* spill;
  };
  const Variant variants[] = {
      {"event-part", 1, 32, ""},
      {"event-part-t4-spill", 4, 32, "dict_fx78_ev.sig"},
  };
  for (const Variant& v : variants) {
    diag::FaultDictionaryOptions opts;
    opts.num_threads = v.threads;
    opts.partition_max_gates = v.partition;
    opts.spill_path = v.spill;
    const diag::FaultDictionary dict(fx.nl, fx.sites, fx.fsim, opts);
    EXPECT_EQ(dict.fingerprint(), base.fingerprint()) << v.name;
    EXPECT_EQ(dict.num_entries(), base.num_entries()) << v.name;
    const auto fp = dict.footprint();
    EXPECT_EQ(fp.logical_bytes, base_fp.logical_bytes) << v.name;
    if (*v.spill) {
      EXPECT_EQ(fp.resident_bytes, 0u) << v.name;
      EXPECT_GT(fp.disk_bytes, 0u) << v.name;
      EXPECT_LT(fp.disk_bytes, fp.logical_bytes) << v.name;
      EXPECT_EQ(dict.signature_bytes(), 0u) << v.name;
    } else {
      EXPECT_EQ(fp.resident_bytes, base_fp.resident_bytes) << v.name;
    }
  }
}

// Out-of-core lookups must be observationally identical to in-memory ones —
// on the exact-match path and on the nearest-signature fallback.
TEST(FaultDictionary, SpilledDiagnosisMatchesInMemory) {
  DictFixture fx(79);
  const diag::FaultDictionary base(fx.nl, fx.sites, fx.fsim);
  diag::FaultDictionaryOptions opts;
  opts.spill_path = "dict_fx79.sig";
  const diag::FaultDictionary spilled(fx.nl, fx.sites, fx.fsim, opts);
  ASSERT_EQ(spilled.fingerprint(), base.fingerprint());

  auto expect_same = [](const diag::DiagnosisReport& a,
                        const diag::DiagnosisReport& b) {
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t r = 0; r < a.candidates.size(); ++r) {
      EXPECT_EQ(a.candidates[r].site, b.candidates[r].site) << "rank " << r;
      EXPECT_EQ(a.candidates[r].polarity, b.candidates[r].polarity)
          << "rank " << r;
      EXPECT_DOUBLE_EQ(a.candidates[r].score, b.candidates[r].score)
          << "rank " << r;
      EXPECT_EQ(a.candidates[r].matched, b.candidates[r].matched)
          << "rank " << r;
    }
  };

  Rng rng(80);
  std::vector<sim::Word> diff;
  int tested = 0;
  while (tested < 10) {
    const auto site =
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size()));
    if (!fx.fsim.observed_diff({site, sim::FaultPolarity::kSlow}, diff)) {
      continue;
    }
    auto log = sim::failure_log_from_diff(diff, fx.nl.num_outputs(),
                                          fx.fsim.num_patterns());
    if (log.fails.size() < 3) continue;
    ++tested;
    expect_same(base.diagnose(log), spilled.diagnose(log));  // Exact path.
    log.fails.pop_back();
    expect_same(base.diagnose(log), spilled.diagnose(log));  // Fallback path.
  }
}

}  // namespace
}  // namespace m3dfl
