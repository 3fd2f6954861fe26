// Tests of tier partitioning and MIV insertion.

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "common/rng.h"
#include "m3d/miv.h"
#include "m3d/partition.h"
#include "netlist/generators.h"
#include "sim/logic_sim.h"

namespace m3dfl::part {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::GeneratorParams;
using netlist::Tier;

Netlist make_benchmark(std::uint64_t seed, std::uint32_t gates = 400) {
  GeneratorParams p;
  p.num_logic_gates = gates;
  p.num_scan_cells = 32;
  p.num_levels = 9;
  p.seed = seed;
  return netlist::generate_netlist(p);
}

// gtest names each case after a byte dump of the parameter and copies it
// member-wise, so implicit padding would print whatever the heap held and
// the case names would change from run to run. The padding is a zeroed
// member instead, which keeps every byte, and so every name, fixed.
struct AlgoCase {
  AlgoCase(PartitionAlgo a, std::uint64_t s) : algo(a), seed(s) {}
  PartitionAlgo algo;
  std::uint8_t pad[7] = {};
  std::uint64_t seed;
};
static_assert(sizeof(AlgoCase) == 16 &&
              std::has_unique_object_representations_v<AlgoCase>);

class PartitionProperty : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(PartitionProperty, BalancedAndConsistent) {
  const Netlist nl = make_benchmark(GetParam().seed);
  PartitionOptions opts;
  opts.algo = GetParam().algo;
  opts.seed = GetParam().seed;
  const PartitionResult r = partition_netlist(nl, opts);
  ASSERT_EQ(r.tier_of_gate.size(), nl.num_gates());
  // Balance: both tiers populated, top share within a generous band.
  EXPECT_GT(r.top_fraction, 0.30);
  EXPECT_LT(r.top_fraction, 0.70);
  EXPECT_GT(r.cut_nets, 0u);
  EXPECT_GE(r.cut_connections, r.cut_nets);
}

TEST_P(PartitionProperty, CutStatsMatchManualCount) {
  const Netlist nl = make_benchmark(GetParam().seed + 7);
  PartitionOptions opts;
  opts.algo = GetParam().algo;
  opts.seed = GetParam().seed;
  const PartitionResult r = partition_netlist(nl, opts);
  std::size_t conns = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    for (GateId d : nl.gate(g).fanin) {
      if (r.tier_of_gate[d] != r.tier_of_gate[g]) ++conns;
    }
  }
  EXPECT_EQ(conns, r.cut_connections);
}

INSTANTIATE_TEST_SUITE_P(
    Algos, PartitionProperty,
    ::testing::Values(AlgoCase{PartitionAlgo::kMinCut, 1},
                      AlgoCase{PartitionAlgo::kGreedyGain, 2},
                      AlgoCase{PartitionAlgo::kLevelDriven, 3},
                      AlgoCase{PartitionAlgo::kRandom, 4},
                      AlgoCase{PartitionAlgo::kMinCut, 5},
                      AlgoCase{PartitionAlgo::kRandom, 6}));

TEST(Partition, MinCutBeatsRandomCut) {
  const Netlist nl = make_benchmark(11, 600);
  PartitionOptions opts;
  opts.seed = 11;
  opts.algo = PartitionAlgo::kMinCut;
  const auto mincut = partition_netlist(nl, opts);
  opts.algo = PartitionAlgo::kRandom;
  const auto random = partition_netlist(nl, opts);
  EXPECT_LT(mincut.cut_connections, random.cut_connections);
}

TEST(Partition, PlacementSeedGivesSpatiallyCoherentCut) {
  const Netlist nl = make_benchmark(12, 600);
  PartitionOptions opts;
  opts.algo = PartitionAlgo::kMinCut;
  opts.seed = 12;
  const auto r = partition_netlist(nl, opts);
  // Gates near the left edge should be dominantly one tier, near the right
  // edge dominantly the other.
  std::size_t left_top = 0, left_n = 0, right_top = 0, right_n = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const float x = nl.gate(g).pos;
    if (x < 0.25f) {
      ++left_n;
      left_top += r.tier_of_gate[g] == Tier::kTop;
    } else if (x > 0.75f) {
      ++right_n;
      right_top += r.tier_of_gate[g] == Tier::kTop;
    }
  }
  const double left_frac = static_cast<double>(left_top) / left_n;
  const double right_frac = static_cast<double>(right_top) / right_n;
  EXPECT_GT(std::abs(left_frac - right_frac), 0.8);
}

TEST(Partition, DeterministicUnderSeed) {
  const Netlist nl = make_benchmark(13);
  PartitionOptions opts;
  opts.algo = PartitionAlgo::kMinCut;
  opts.seed = 99;
  const auto a = partition_netlist(nl, opts);
  const auto b = partition_netlist(nl, opts);
  EXPECT_EQ(a.tier_of_gate, b.tier_of_gate);
}

// --- MIV insertion -------------------------------------------------------------

class MivProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MivProperty, OneMivPerCutNet) {
  const Netlist nl = make_benchmark(GetParam());
  PartitionOptions opts;
  opts.algo = PartitionAlgo::kMinCut;
  opts.seed = GetParam();
  const PartitionResult part = partition_netlist(nl, opts);
  const MivInsertionResult r = insert_mivs(nl, part);
  EXPECT_EQ(r.num_mivs, part.cut_nets);
  EXPECT_EQ(r.netlist.num_mivs(), part.cut_nets);
  EXPECT_TRUE(r.netlist.validate().empty());
}

TEST_P(MivProperty, EveryConnectionIsTierLegal) {
  const Netlist nl = make_benchmark(GetParam() + 50);
  PartitionOptions opts;
  opts.seed = GetParam();
  const PartitionResult part = partition_netlist(nl, opts);
  const MivInsertionResult r = insert_mivs(nl, part);
  const Netlist& m3d = r.netlist;
  // After insertion, a non-MIV gate may only read same-tier signals; only
  // MIV gates cross tiers.
  for (GateId g = 0; g < m3d.num_gates(); ++g) {
    const auto& gate = m3d.gate(g);
    for (GateId d : gate.fanin) {
      if (gate.type == GateType::kMiv) continue;
      EXPECT_EQ(m3d.gate(d).tier, gate.tier)
          << "non-MIV gate " << g << " reads across tiers";
    }
  }
}

TEST_P(MivProperty, PreservesFunction) {
  const Netlist nl = make_benchmark(GetParam() + 99, 250);
  PartitionOptions opts;
  opts.seed = GetParam();
  const PartitionResult part = partition_netlist(nl, opts);
  const MivInsertionResult r = insert_mivs(nl, part);
  // MIVs are buffers: outputs must compute identical functions.
  Rng rng(GetParam());
  const sim::PatternSet inputs =
      sim::PatternSet::random(nl.num_inputs(), 128, rng);
  const auto va = sim::LogicSimulator(nl).run(inputs);
  const auto vb = sim::LogicSimulator(r.netlist).run(inputs);
  const std::size_t W = inputs.num_words();
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    for (std::size_t w = 0; w < W; ++w) {
      const sim::Word mask = inputs.valid_mask(w);
      EXPECT_EQ(va[nl.outputs()[o] * W + w] & mask,
                vb[r.netlist.outputs()[o] * W + w] & mask);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MivProperty, ::testing::Values(1, 2, 3, 42));

TEST(Miv, NoMivsWhenSingleTier) {
  const Netlist nl = make_benchmark(7, 150);
  PartitionResult part;
  part.tier_of_gate.assign(nl.num_gates(), Tier::kBottom);
  update_cut_stats(nl, part);
  EXPECT_EQ(part.cut_nets, 0u);
  const MivInsertionResult r = insert_mivs(nl, part);
  EXPECT_EQ(r.num_mivs, 0u);
  EXPECT_EQ(r.netlist.num_gates(), nl.num_gates());
}

}  // namespace
}  // namespace m3dfl::part
