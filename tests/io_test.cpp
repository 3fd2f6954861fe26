// Tests of the interchange formats: structural Verilog (netlists), the
// failure-log text format, model serialization, and framework files.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "eval/benchmarks.h"
#include "eval/framework_io.h"
#include "gnn/serialize.h"
#include "m3d/miv.h"
#include "m3d/partition.h"
#include "netlist/generators.h"
#include "netlist/verilog.h"
#include "sim/failure_log.h"
#include "sim/logic_sim.h"

namespace m3dfl {
namespace {

using netlist::GateId;
using netlist::GeneratorParams;
using netlist::Netlist;

// --- Verilog ----------------------------------------------------------------

Netlist make_m3d(std::uint64_t seed, std::uint32_t gates = 200) {
  GeneratorParams p;
  p.num_logic_gates = gates;
  p.num_scan_cells = 16;
  p.seed = seed;
  const Netlist flat = netlist::generate_netlist(p);
  part::PartitionOptions opts;
  opts.seed = seed;
  const auto partition = part::partition_netlist(flat, opts);
  return part::insert_mivs(flat, partition).netlist;
}

class VerilogRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerilogRoundTrip, PreservesStructureAndMetadata) {
  const Netlist original = make_m3d(GetParam());
  netlist::VerilogParseError error;
  const Netlist reparsed =
      netlist::verilog_from_string(netlist::to_verilog(original), &error);
  ASSERT_TRUE(error.ok) << error.message << " at line " << error.line;

  ASSERT_EQ(reparsed.num_gates(), original.num_gates());
  ASSERT_EQ(reparsed.num_inputs(), original.num_inputs());
  ASSERT_EQ(reparsed.num_outputs(), original.num_outputs());
  EXPECT_EQ(reparsed.num_scan_cells(), original.num_scan_cells());
  EXPECT_EQ(reparsed.num_mivs(), original.num_mivs());
  // Tier and placement metadata survive for every gate. Gate ids may be
  // renumbered; compare via the type histogram plus per-tier counts.
  EXPECT_EQ(reparsed.type_histogram(), original.type_histogram());
  std::size_t top_orig = 0, top_new = 0;
  for (GateId g = 0; g < original.num_gates(); ++g) {
    top_orig += original.gate(g).tier == netlist::Tier::kTop;
    top_new += reparsed.gate(g).tier == netlist::Tier::kTop;
  }
  EXPECT_EQ(top_new, top_orig);
}

TEST_P(VerilogRoundTrip, PreservesFunction) {
  const Netlist original = make_m3d(GetParam() + 10, 120);
  netlist::VerilogParseError error;
  const Netlist reparsed =
      netlist::verilog_from_string(netlist::to_verilog(original), &error);
  ASSERT_TRUE(error.ok) << error.message;

  Rng rng(GetParam());
  const sim::PatternSet inputs =
      sim::PatternSet::random(original.num_inputs(), 128, rng);
  const auto va = sim::LogicSimulator(original).run(inputs);
  const auto vb = sim::LogicSimulator(reparsed).run(inputs);
  const std::size_t W = inputs.num_words();
  for (std::size_t o = 0; o < original.num_outputs(); ++o) {
    for (std::size_t w = 0; w < W; ++w) {
      const sim::Word mask = inputs.valid_mask(w);
      ASSERT_EQ(va[original.outputs()[o] * W + w] & mask,
                vb[reparsed.outputs()[o] * W + w] & mask)
          << "output " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerilogRoundTrip,
                         ::testing::Values(1, 2, 3));

TEST(Verilog, RejectsUnknownCell) {
  const std::string text =
      "module t (pi_0, po_0);\n  input pi_0;\n  output po_0;\n"
      "  FOO g1 (.Y(n1), .A(pi_0));\n  assign po_0 = n1;\nendmodule\n";
  netlist::VerilogParseError error;
  netlist::verilog_from_string(text, &error);
  EXPECT_FALSE(error.ok);
  EXPECT_NE(error.message.find("unknown cell"), std::string::npos);
}

TEST(Verilog, RejectsUndrivenNet) {
  const std::string text =
      "module t (pi_0, po_0);\n  input pi_0;\n  output po_0;\n"
      "  BUF g1 (.Y(n1), .A(n_missing));\n  assign po_0 = n1;\nendmodule\n";
  netlist::VerilogParseError error;
  netlist::verilog_from_string(text, &error);
  EXPECT_FALSE(error.ok);
}

TEST(Verilog, AcceptsInstancesInAnyOrder) {
  // g2 consumes g1's net but appears first.
  const std::string text =
      "module t (pi_0, po_0);\n  input pi_0;\n  output po_0;\n"
      "  INV g2 (.Y(n2), .A(n1));\n"
      "  BUF g1 (.Y(n1), .A(pi_0));\n"
      "  assign po_0 = n2;\nendmodule\n";
  netlist::VerilogParseError error;
  const Netlist nl = netlist::verilog_from_string(text, &error);
  ASSERT_TRUE(error.ok) << error.message;
  EXPECT_EQ(nl.num_gates(), 3u);
  EXPECT_TRUE(nl.validate().empty());
}

// --- Failure log text ------------------------------------------------------------

TEST(FailureLogText, BypassRoundTrip) {
  sim::FailureLog log;
  log.fails = {{0, 3}, {17, 5}, {200, 0}};
  const auto parsed = sim::failure_log_from_text(sim::to_text(log));
  ASSERT_TRUE(parsed.ok) << parsed.message;
  EXPECT_FALSE(parsed.log.compacted);
  EXPECT_EQ(parsed.log.fails, log.fails);
}

TEST(FailureLogText, CompactedRoundTrip) {
  sim::FailureLog log;
  log.compacted = true;
  log.cfails = {{4, 1, 9}, {77, 0, 2}};
  const auto parsed = sim::failure_log_from_text(sim::to_text(log));
  ASSERT_TRUE(parsed.ok) << parsed.message;
  EXPECT_TRUE(parsed.log.compacted);
  EXPECT_EQ(parsed.log.cfails, log.cfails);
}

TEST(FailureLogText, RejectsBadHeaderAndBody) {
  EXPECT_FALSE(sim::failure_log_from_text("nonsense v1 bypass").ok);
  EXPECT_FALSE(
      sim::failure_log_from_text("m3dfl-faillog v2 bypass").ok);
  EXPECT_FALSE(
      sim::failure_log_from_text("m3dfl-faillog v1 bypass\nfial 1 2").ok);
  EXPECT_FALSE(
      sim::failure_log_from_text("m3dfl-faillog v1 compacted\nfail 1 2").ok);
}

// Regression: channel/cycle used to be uint16_t, so paper-scale scan chains
// (positions beyond 65535) either wrapped or were rejected. They are uint32_t
// now: wide entries must round-trip exactly, and logs written by older
// versions (all values <= 65535) must keep parsing unchanged.
TEST(FailureLogText, CompactedEntriesBeyondUint16RoundTrip) {
  sim::FailureLog log;
  log.compacted = true;
  log.cfails = {{3, 65536, 0}, {3, 0, 70000}, {9, 1u << 20, 338000}};
  const auto parsed = sim::failure_log_from_text(sim::to_text(log));
  ASSERT_TRUE(parsed.ok) << parsed.message;
  EXPECT_EQ(parsed.log.cfails, log.cfails);

  // Old-format logs (fits-in-uint16 values) still parse to the same entries.
  const auto legacy = sim::failure_log_from_text(
      "m3dfl-faillog v1 compacted\nfail 3 65535 65535");
  ASSERT_TRUE(legacy.ok) << legacy.message;
  ASSERT_EQ(legacy.log.cfails.size(), 1u);
  EXPECT_EQ(legacy.log.cfails[0].channel, 65535u);
  EXPECT_EQ(legacy.log.cfails[0].cycle, 65535u);
}

// Every served failure log goes through failure_log_from_text, so mutated
// text must either be rejected with a message or parse to a log that
// round-trips through to_text — never crash (ASan/UBSan legs run this too).
void expect_rejected_or_round_trips(const std::string& text) {
  const sim::FailureLogParseResult parsed = sim::failure_log_from_text(text);
  if (!parsed.ok) {
    EXPECT_FALSE(parsed.message.empty());
    return;
  }
  EXPECT_TRUE(parsed.log.compacted ? parsed.log.fails.empty()
                                   : parsed.log.cfails.empty());
  const sim::FailureLogParseResult again =
      sim::failure_log_from_text(sim::to_text(parsed.log));
  ASSERT_TRUE(again.ok) << again.message;
  EXPECT_TRUE(again.log == parsed.log) << text;
}

TEST(CorruptionFuzz, MutatedFailureLogTextFailsOrRoundTrips) {
  sim::FailureLog bypass;
  bypass.fails = {{0, 3}, {17, 5}, {200, 0}, {4294967295u, 12}};
  sim::FailureLog compacted;
  compacted.compacted = true;
  compacted.cfails = {{4, 1, 9}, {77, 0, 2}, {3, 65536, 70000}};
  const std::string texts[2] = {sim::to_text(bypass), sim::to_text(compacted)};
  for (const std::string& text : texts) {
    expect_rejected_or_round_trips(text);
    for (std::size_t len = 0; len < text.size(); ++len) {
      expect_rejected_or_round_trips(text.substr(0, len));
    }
  }

  Rng rng(2026);
  // Mostly bytes the format is made of, so mutants often stay parseable.
  const std::string alphabet = "0123456789 \n\t-+xfailbypasscompacted";
  const auto random_byte = [&]() -> char {
    return rng.bernoulli(0.75)
               ? alphabet[rng.next_below(alphabet.size())]
               : static_cast<char>(rng.next_below(256));
  };
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string& base = texts[rng.next_below(2)];
    std::string mutant = base;
    switch (trial % 3) {
      case 0:  // Byte flips.
        for (std::uint64_t k = 1 + rng.next_below(3); k > 0; --k) {
          mutant[rng.next_below(mutant.size())] = random_byte();
        }
        break;
      case 1:  // Truncation, then a few stray bytes.
        mutant.resize(rng.next_below(mutant.size()));
        for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
          mutant.push_back(random_byte());
        }
        break;
      default: {  // Splice: a prefix of one text onto a suffix of either.
        const std::string& other = texts[rng.next_below(2)];
        mutant = base.substr(0, rng.next_below(base.size() + 1)) +
                 other.substr(rng.next_below(other.size() + 1));
        break;
      }
    }
    expect_rejected_or_round_trips(mutant);
    accepted += sim::failure_log_from_text(mutant).ok;
  }
  // Both outcomes must be exercised, or the fuzz checks nothing.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 3000);
}

/// A mutant is either rejected with a message, or read into a netlist that
/// survives to_verilog: its text reads back to a netlist of the same shape,
/// and — once reading has renumbered the gates in file order — writing and
/// reading again reproduces the text exactly.
void expect_verilog_rejected_or_round_trips(const std::string& text) {
  netlist::VerilogParseError error;
  const Netlist parsed = netlist::verilog_from_string(text, &error);
  if (!error.ok) {
    EXPECT_FALSE(error.message.empty());
    return;
  }
  const auto read_back = [](const std::string& v) {
    netlist::VerilogParseError e;
    Netlist nl = netlist::verilog_from_string(v, &e);
    EXPECT_TRUE(e.ok) << "line " << e.line << ": " << e.message;
    return nl;
  };
  const Netlist back = read_back(netlist::to_verilog(parsed));
  EXPECT_EQ(back.num_gates(), parsed.num_gates());
  EXPECT_EQ(back.num_inputs(), parsed.num_inputs());
  EXPECT_EQ(back.num_outputs(), parsed.num_outputs());
  EXPECT_EQ(back.num_scan_cells(), parsed.num_scan_cells());
  const std::string settled = netlist::to_verilog(back);
  EXPECT_EQ(netlist::to_verilog(read_back(settled)), settled);
}

TEST(CorruptionFuzz, MutatedVerilogFailsOrRoundTrips) {
  const std::string text = netlist::to_verilog(
      eval::cached_design(eval::tiny_spec(), eval::Config::kSyn2).nl);
  expect_verilog_rejected_or_round_trips(text);

  Rng rng(2027);
  // Mostly bytes the dialect is made of, so mutants often stay parseable.
  const std::string alphabet = "0123456789_ \n(),.;ABCDYgnpio@";
  const auto random_byte = [&]() -> char {
    return rng.bernoulli(0.75)
               ? alphabet[rng.next_below(alphabet.size())]
               : static_cast<char>(rng.next_below(256));
  };
  int accepted = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string mutant = text;
    switch (trial % 3) {
      case 0:  // Byte flips.
        for (std::uint64_t k = 1 + rng.next_below(3); k > 0; --k) {
          mutant[rng.next_below(mutant.size())] = random_byte();
        }
        break;
      case 1:  // Truncation, then a few stray bytes.
        mutant.resize(rng.next_below(mutant.size()));
        for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
          mutant.push_back(random_byte());
        }
        break;
      default: {  // Splice: a prefix onto a suffix from elsewhere.
        mutant = text.substr(0, rng.next_below(text.size() + 1)) +
                 text.substr(rng.next_below(text.size() + 1));
        break;
      }
    }
    expect_verilog_rejected_or_round_trips(mutant);
    netlist::VerilogParseError error;
    netlist::verilog_from_string(mutant, &error);
    accepted += error.ok;
  }
  // Both outcomes must be exercised, or the fuzz checks nothing.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kTrials);
}

// --- Model serialization -----------------------------------------------------------

TEST(ModelSerialize, GraphClassifierRoundTripIsBitExact) {
  gnn::GraphClassifier model(graphx::kNumSubgraphFeatures, {16, 8}, 2, 7);
  const std::string text = gnn::graph_classifier_to_string(model);
  gnn::GraphClassifier loaded;
  std::string error;
  ASSERT_TRUE(gnn::graph_classifier_from_string(loaded, text, &error))
      << error;
  ASSERT_EQ(loaded.stack.layers.size(), model.stack.layers.size());
  for (std::size_t l = 0; l < model.stack.layers.size(); ++l) {
    const auto& a = model.stack.layers[l];
    const auto& b = loaded.stack.layers[l];
    for (std::size_t i = 0; i < a.W.size(); ++i) {
      ASSERT_EQ(a.W.data()[i], b.W.data()[i]);
    }
    EXPECT_EQ(a.b, b.b);
  }
  // Identical predictions on a random graph.
  Rng rng(8);
  graphx::SubGraph g;
  g.nodes = {0, 1, 2};
  g.row_ptr = {0, 1, 2, 2};
  g.col_idx = {1, 0};
  g.features.resize(3 * graphx::kNumSubgraphFeatures);
  for (auto& f : g.features) f = static_cast<float>(rng.uniform());
  const auto pa = model.predict(g);
  const auto pb = loaded.predict(g);
  EXPECT_DOUBLE_EQ(pa[0], pb[0]);
  EXPECT_DOUBLE_EQ(pa[1], pb[1]);
}

TEST(ModelSerialize, HiddenHeadAndFreezeSurvive) {
  gnn::GraphClassifier base(graphx::kNumSubgraphFeatures, {8}, 2, 9);
  gnn::GraphClassifier transfer =
      gnn::GraphClassifier::transfer_from(base.stack, 2, 4, 10);
  gnn::GraphClassifier loaded;
  std::string error;
  ASSERT_TRUE(gnn::graph_classifier_from_string(
      loaded, gnn::graph_classifier_to_string(transfer), &error))
      << error;
  EXPECT_TRUE(loaded.freeze_stack);
  EXPECT_TRUE(loaded.has_hidden_head);
  EXPECT_EQ(loaded.Wh.cols(), 4u);
}

TEST(ModelSerialize, NodeScorerRoundTrip) {
  gnn::NodeScorer model(graphx::kNumSubgraphFeatures, {12}, 11);
  gnn::NodeScorer loaded;
  std::string error;
  ASSERT_TRUE(gnn::node_scorer_from_string(
      loaded, gnn::node_scorer_to_string(model), &error))
      << error;
  Rng rng(12);
  graphx::SubGraph g;
  g.nodes = {0, 1};
  g.row_ptr = {0, 1, 2};
  g.col_idx = {1, 0};
  g.features.resize(2 * graphx::kNumSubgraphFeatures);
  for (auto& f : g.features) f = static_cast<float>(rng.uniform());
  g.miv_local = {0, 1};
  g.miv_label = {0.0f, 0.0f};
  const auto sa = model.predict_miv(g);
  const auto sb = loaded.predict_miv(g);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i], sb[i]);
  }
}

TEST(ModelSerialize, RejectsCorruptPayload) {
  gnn::GraphClassifier model(graphx::kNumSubgraphFeatures, {8}, 2, 13);
  std::string text = gnn::graph_classifier_to_string(model);
  text.resize(text.size() / 2);  // Truncate.
  gnn::GraphClassifier loaded;
  std::string error;
  EXPECT_FALSE(gnn::graph_classifier_from_string(loaded, text, &error));
  EXPECT_FALSE(error.empty());
}

// --- Framework files ---------------------------------------------------------------

TEST(FrameworkIo, RoundTripPreservesPolicyAndPredictions) {
  const eval::RunScale scale = eval::RunScale::tiny();
  const eval::TrainingBundle bundle =
      eval::build_training_bundle(eval::tiny_spec(), false, scale);
  const eval::TrainedFramework fw = eval::train_framework(bundle, scale);

  eval::TrainedFramework loaded;
  std::string error;
  ASSERT_TRUE(eval::framework_from_string(
      loaded, eval::framework_to_string(fw), &error))
      << error;
  EXPECT_DOUBLE_EQ(loaded.policy.t_p, fw.policy.t_p);
  EXPECT_DOUBLE_EQ(loaded.policy.miv_threshold, fw.policy.miv_threshold);

  // Identical behaviour on real sub-graphs.
  eval::DatagenOptions o;
  o.num_samples = 5;
  o.seed = 14;
  const eval::Dataset ds = eval::generate_dataset(*bundle.syn1, o);
  for (const eval::Sample& s : ds.samples) {
    const auto a = fw.tier.predict(s.sub);
    const auto b = loaded.tier.predict(s.sub);
    EXPECT_DOUBLE_EQ(a.p_top, b.p_top);
    EXPECT_DOUBLE_EQ(a.p_bottom, b.p_bottom);
    EXPECT_EQ(fw.miv.scores(s.sub), loaded.miv.scores(s.sub));
    EXPECT_DOUBLE_EQ(fw.classifier.prune_probability(s.sub),
                     loaded.classifier.prune_probability(s.sub));
  }
}

TEST(FrameworkIo, RejectsBadHeader) {
  eval::TrainedFramework fw;
  std::string error;
  EXPECT_FALSE(eval::framework_from_string(fw, "garbage", &error));
  EXPECT_FALSE(error.empty());
}

// --- Corruption fuzzing ------------------------------------------------------
//
// The loaders are fed bytes from tester floors and from the serving layer's
// publish_stream, so hostile input must fail cleanly: no crash, no
// multi-gigabyte allocation, no partially-applied model.

/// Replaces the first whitespace-separated token after `tag` with `repl`.
std::string mutate_token_after(const std::string& text, const std::string& tag,
                               const std::string& repl) {
  const std::size_t at = text.find(tag);
  EXPECT_NE(at, std::string::npos) << tag;
  const std::size_t start = at + tag.size();
  const std::size_t end = text.find_first_of(" \n", start);
  return text.substr(0, start) + repl + text.substr(end);
}

/// A loaded-successfully model must be fully finite (fuzz postcondition).
void expect_finite(const gnn::GraphClassifier& m) {
  for (const auto& l : m.stack.layers) {
    for (std::size_t i = 0; i < l.W.size(); ++i) {
      ASSERT_TRUE(std::isfinite(l.W.data()[i]));
    }
    for (const float b : l.b) ASSERT_TRUE(std::isfinite(b));
  }
  for (std::size_t i = 0; i < m.Wo.size(); ++i) {
    ASSERT_TRUE(std::isfinite(m.Wo.data()[i]));
  }
}

TEST(CorruptionFuzz, TruncatedGraphClassifierAlwaysFailsCleanly) {
  gnn::GraphClassifier model(graphx::kNumSubgraphFeatures, {8, 4}, 2, 21);
  const std::string text = gnn::graph_classifier_to_string(model);
  // Up to the start of the final token every truncation removes at least
  // one required field, so the load must *fail* (not just not-crash).
  const std::size_t last_token = text.find_last_of(' ');
  ASSERT_NE(last_token, std::string::npos);
  for (std::size_t len = 0; len <= last_token; len += 7) {
    gnn::GraphClassifier loaded;
    std::string error;
    ASSERT_FALSE(gnn::graph_classifier_from_string(
        loaded, text.substr(0, len), &error))
        << "truncation at " << len << " of " << text.size() << " accepted";
    EXPECT_FALSE(error.empty()) << "no error message at length " << len;
  }
  // Every length (including mid-final-token, which may parse): no crash,
  // and anything accepted is fully finite.
  for (std::size_t len = last_token; len <= text.size(); ++len) {
    gnn::GraphClassifier loaded;
    if (gnn::graph_classifier_from_string(loaded, text.substr(0, len),
                                          nullptr)) {
      expect_finite(loaded);
    }
  }
}

TEST(CorruptionFuzz, MutatedBytesNeverCrashOrGoNonFinite) {
  gnn::GraphClassifier model(graphx::kNumSubgraphFeatures, {8}, 2, 22);
  const std::string text = gnn::graph_classifier_to_string(model);
  Rng rng(99);
  const char garbage[] = "0129.eE+-naif xz\n";
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = text;
    const auto pos =
        static_cast<std::size_t>(rng.uniform() * (text.size() - 1));
    const auto pick =
        static_cast<std::size_t>(rng.uniform() * (sizeof(garbage) - 2));
    mutated[pos] = garbage[pick];
    gnn::GraphClassifier loaded;
    std::string error;
    if (gnn::graph_classifier_from_string(loaded, mutated, &error)) {
      expect_finite(loaded);  // Accepted mutants must still be sane.
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(CorruptionFuzz, OversizedShapeHeadersAreRejectedWithoutAllocating) {
  gnn::GraphClassifier loaded;
  std::string error;

  EXPECT_FALSE(gnn::graph_classifier_from_string(
      loaded, "m3dfl-model v1 graph-classifier\nstack 999999999\n", &error));
  EXPECT_NE(error.find("implausible stack depth"), std::string::npos);

  EXPECT_FALSE(gnn::graph_classifier_from_string(
      loaded,
      "m3dfl-model v1 graph-classifier\nstack 1\n"
      "layer 4000000000 4000000000\n",
      &error));
  EXPECT_NE(error.find("implausible layer shape"), std::string::npos);

  gnn::NodeScorer scorer;
  EXPECT_FALSE(gnn::node_scorer_from_string(
      scorer,
      "m3dfl-model v1 node-scorer\nstack 1\nlayer 999999 16\n", &error));
  EXPECT_NE(error.find("implausible"), std::string::npos);

  // Inflated output-head and hidden-head widths on an otherwise valid file.
  gnn::GraphClassifier model(graphx::kNumSubgraphFeatures, {8}, 2, 23);
  const std::string text = gnn::graph_classifier_to_string(model);
  EXPECT_FALSE(gnn::graph_classifier_from_string(
      loaded, mutate_token_after(text, "out ", "4000000000"), &error));
  EXPECT_NE(error.find("implausible"), std::string::npos);

  gnn::GraphClassifier transfer =
      gnn::GraphClassifier::transfer_from(model.stack, 2, 4, 24);
  EXPECT_FALSE(gnn::graph_classifier_from_string(
      loaded,
      mutate_token_after(gnn::graph_classifier_to_string(transfer),
                         "head hidden ", "4000000000"),
      &error));
  EXPECT_NE(error.find("implausible"), std::string::npos);
}

TEST(CorruptionFuzz, NonFiniteWeightsAreRejected) {
  gnn::GraphClassifier model(graphx::kNumSubgraphFeatures, {8}, 2, 25);
  const std::string text = gnn::graph_classifier_to_string(model);
  gnn::GraphClassifier loaded;
  std::string error;
  // libstdc++ refuses "inf"/"nan" at extraction (so the load fails with a
  // short-payload error); the isfinite() check stays as defense in depth
  // for platforms whose num_get does accept them. Either way: rejected.
  for (const char* bad : {"nan", "inf", "-inf", "1e999999"}) {
    EXPECT_FALSE(gnn::graph_classifier_from_string(
        loaded, mutate_token_after(text, "\nW ", bad), &error))
        << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(CorruptionFuzz, TruncatedFrameworkAlwaysFailsAndLeavesTargetUntouched) {
  const eval::RunScale scale = eval::RunScale::tiny();
  const eval::TrainedFramework fw = eval::train_framework(
      eval::build_training_bundle(eval::tiny_spec(), false, scale), scale);
  const std::string text = eval::framework_to_string(fw);
  const std::size_t last_token = text.find_last_of(' ');
  ASSERT_NE(last_token, std::string::npos);
  for (std::size_t len = 0; len <= last_token; len += 257) {
    eval::TrainedFramework target;
    target.policy.t_p = 0.123;  // Sentinel: must survive a failed load.
    std::string error;
    ASSERT_FALSE(eval::framework_from_string(target, text.substr(0, len),
                                             &error))
        << "truncation at " << len << " of " << text.size() << " accepted";
    EXPECT_FALSE(error.empty());
    EXPECT_DOUBLE_EQ(target.policy.t_p, 0.123)
        << "failed load modified the target framework";
  }
}

TEST(CorruptionFuzz, PolicyValuesOutsideUnitIntervalAreRejected) {
  const eval::RunScale scale = eval::RunScale::tiny();
  const eval::TrainedFramework fw = eval::train_framework(
      eval::build_training_bundle(eval::tiny_spec(), false, scale), scale);
  const std::string text = eval::framework_to_string(fw);
  eval::TrainedFramework loaded;
  std::string error;
  // In-range-but-wrong values hit the [0, 1] validator (whose message names
  // the key); "nan"/"inf" already fail at extraction. All must be rejected.
  for (const char* bad : {"1.5", "-0.25"}) {
    EXPECT_FALSE(eval::framework_from_string(
        loaded, mutate_token_after(text, "policy t_p ", bad), &error))
        << bad;
    EXPECT_NE(error.find("t_p"), std::string::npos) << bad;
  }
  for (const char* bad : {"nan", "inf"}) {
    EXPECT_FALSE(eval::framework_from_string(
        loaded, mutate_token_after(text, "policy t_p ", bad), &error))
        << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FrameworkIo, LoadFileRejectsMissingAndOversizedFiles) {
  eval::TrainedFramework fw;
  std::string error;
  EXPECT_FALSE(
      eval::load_framework_file(fw, "does_not_exist.m3dfl", &error));
  EXPECT_NE(error.find("cannot read"), std::string::npos);

  // A sparse file one byte past the ceiling: rejected on size alone,
  // before any parsing.
  const char* path = "io_test_oversized.tmp";
  {
    std::ofstream os(path, std::ios::binary);
    os.seekp(static_cast<std::streamoff>(eval::kMaxFrameworkFileBytes));
    os.put('x');
  }
  EXPECT_FALSE(eval::load_framework_file(fw, path, &error));
  EXPECT_NE(error.find("implausibly large"), std::string::npos);
  std::remove(path);
}

}  // namespace
}  // namespace m3dfl
