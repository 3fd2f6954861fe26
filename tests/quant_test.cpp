// Tests of the calibrated int8 inference path: quantization primitives,
// calibration determinism across thread counts, byte-stable serialization
// with the hostile-input contract, cross-SIMD-tier bit-identity of the
// quantized forward, fp32-vs-int8 score-delta bounds, the framework file's
// optional quant section, and int8 serving (mode routing + fp32 fallback).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "eval/datagen.h"
#include "eval/experiments.h"
#include "eval/framework_io.h"
#include "eval/quantize.h"
#include "gnn/model.h"
#include "gnn/quant.h"
#include "gnn/serialize.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace m3dfl {
namespace {

/// Restores the unforced SIMD resolution on scope exit.
struct TierGuard {
  explicit TierGuard(simd::SimdTier t) { simd::force_tier(t); }
  ~TierGuard() { simd::force_tier(std::nullopt); }
};

/// Path graph 0-1-...-(n-1) with random features (same construction as the
/// gnn_test fixture); optionally marks two MIV nodes.
graphx::SubGraph path_graph(std::size_t n, Rng& rng, bool with_mivs) {
  graphx::SubGraph g;
  g.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.nodes[i] = static_cast<std::uint32_t>(i);
  }
  g.row_ptr.assign(n + 1, 0);
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    adj[i].push_back(static_cast<std::uint32_t>(i + 1));
    adj[i + 1].push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    g.row_ptr[i + 1] = g.row_ptr[i] + adj[i].size();
    for (auto v : adj[i]) g.col_idx.push_back(v);
  }
  g.features.resize(n * graphx::kNumSubgraphFeatures);
  for (auto& f : g.features) f = static_cast<float>(rng.uniform());
  if (with_mivs && n >= 4) {
    g.miv_local = {1, static_cast<std::uint32_t>(n - 2)};
    g.miv_label = {1.0f, 0.0f};
  }
  return g;
}

std::vector<graphx::SubGraph> make_graphs(std::size_t count, std::uint64_t seed,
                                          bool with_mivs = false) {
  Rng rng(seed);
  std::vector<graphx::SubGraph> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(path_graph(5 + i % 4, rng, with_mivs));
  }
  return out;
}

std::vector<const graphx::SubGraph*> ptrs_of(
    const std::vector<graphx::SubGraph>& graphs) {
  std::vector<const graphx::SubGraph*> out;
  for (const auto& g : graphs) out.push_back(&g);
  return out;
}

// --- Quantization primitives -------------------------------------------------

TEST(QuantizeValue, RoundsToNearestAndSaturates) {
  EXPECT_EQ(gnn::quantize_value(0.0f, 0.5f), 0);
  EXPECT_EQ(gnn::quantize_value(1.0f, 0.5f), 2);
  EXPECT_EQ(gnn::quantize_value(-1.0f, 0.5f), -2);
  EXPECT_EQ(gnn::quantize_value(0.26f, 0.1f), 3);  // 2.6 rounds up.
  EXPECT_EQ(gnn::quantize_value(1000.0f, 0.5f), 127);
  EXPECT_EQ(gnn::quantize_value(-1000.0f, 0.5f), -127);
}

TEST(QuantizedLinear, ForwardTracksFloatAffineWithinQuantError) {
  Rng rng(21);
  const std::size_t in = 13, out = 8, rows = 5;
  gnn::Matrix w = gnn::Matrix::xavier(in, out, rng);
  std::vector<float> bias(out);
  for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));
  gnn::Matrix x(rows, in);
  float absmax = 0.0f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    absmax = std::max(absmax, std::abs(x.data()[i]));
  }

  const gnn::QuantizedLinear ql = gnn::quantize_linear(w, bias, absmax);
  EXPECT_EQ(ql.in_dim(), in);
  EXPECT_EQ(ql.out_dim(), out);
  const gnn::Matrix got = ql.forward(x);

  const gnn::Matrix want = gnn::matmul(x, w);
  ASSERT_EQ(got.rows(), rows);
  ASSERT_EQ(got.cols(), out);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < out; ++j) {
      // int8 on both operands over 13 terms: generous but non-vacuous.
      EXPECT_NEAR(got.at(i, j), want.at(i, j) + bias[j], 0.15);
    }
  }
}

// --- Calibration determinism -------------------------------------------------

TEST(Calibration, ScalesBitIdenticalAcrossThreadCounts) {
  const auto graphs = make_graphs(9, 31, /*with_mivs=*/true);
  const auto calib = ptrs_of(graphs);
  const gnn::GraphClassifier cls(graphx::kNumSubgraphFeatures, {8, 8}, 2, 7);
  const gnn::NodeScorer scorer(graphx::kNumSubgraphFeatures, {8}, 9);

  std::vector<std::string> cls_blobs, scorer_blobs;
  for (std::size_t threads : {1u, 2u, 8u}) {
    gnn::QuantCalibrationOptions opts;
    opts.num_threads = threads;
    const auto qc = gnn::quantize_graph_classifier(cls, calib, opts);
    const auto qs = gnn::quantize_node_scorer(scorer, calib, opts);
    EXPECT_EQ(qc.provenance.calib_graphs, graphs.size());
    cls_blobs.push_back(gnn::quantized_graph_classifier_to_string(qc));
    scorer_blobs.push_back(gnn::quantized_node_scorer_to_string(qs));
  }
  EXPECT_EQ(cls_blobs[0], cls_blobs[1]);
  EXPECT_EQ(cls_blobs[0], cls_blobs[2]);
  EXPECT_EQ(scorer_blobs[0], scorer_blobs[1]);
  EXPECT_EQ(scorer_blobs[0], scorer_blobs[2]);
}

// --- Serialization -----------------------------------------------------------

TEST(QuantSerialize, ClassifierRoundTripIsByteStable) {
  const auto graphs = make_graphs(6, 41);
  const auto q = gnn::quantize_graph_classifier(
      gnn::GraphClassifier(graphx::kNumSubgraphFeatures, {8}, 2, 11),
      ptrs_of(graphs));
  const std::string s1 = gnn::quantized_graph_classifier_to_string(q);

  gnn::QuantizedGraphClassifier loaded;
  std::string error;
  ASSERT_TRUE(gnn::quantized_graph_classifier_from_string(loaded, s1, &error))
      << error;
  EXPECT_EQ(gnn::quantized_graph_classifier_to_string(loaded), s1);
  EXPECT_EQ(loaded.provenance.scale_fingerprint,
            q.provenance.scale_fingerprint);

  // A reloaded model is the same model: bit-identical probabilities.
  Rng rng(42);
  const graphx::SubGraph g = path_graph(7, rng, false);
  const std::vector<float> a = q.predict_probs(g);
  const std::vector<float> b = loaded.predict_probs(g);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(QuantSerialize, ScorerRoundTripIsByteStable) {
  const auto graphs = make_graphs(6, 43, /*with_mivs=*/true);
  const auto q = gnn::quantize_node_scorer(
      gnn::NodeScorer(graphx::kNumSubgraphFeatures, {8}, 13),
      ptrs_of(graphs));
  const std::string s1 = gnn::quantized_node_scorer_to_string(q);

  gnn::QuantizedNodeScorer loaded;
  std::string error;
  ASSERT_TRUE(gnn::quantized_node_scorer_from_string(loaded, s1, &error))
      << error;
  EXPECT_EQ(gnn::quantized_node_scorer_to_string(loaded), s1);

  Rng rng(44);
  const graphx::SubGraph g = path_graph(6, rng, true);
  const std::vector<double> a = q.predict_miv(g);
  const std::vector<double> b = loaded.predict_miv(g);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(QuantSerialize, HostileInputsFailWithoutTouchingDestination) {
  const auto graphs = make_graphs(4, 45);
  const auto q = gnn::quantize_graph_classifier(
      gnn::GraphClassifier(graphx::kNumSubgraphFeatures, {8}, 2, 17),
      ptrs_of(graphs));
  const std::string good = gnn::quantized_graph_classifier_to_string(q);

  std::vector<std::string> hostile;
  // Wrong model kind in the header.
  {
    std::string s = good;
    s.replace(s.find("quant-graph-classifier"),
              std::string("quant-graph-classifier").size(),
              "quant-graph-classifierX");
    hostile.push_back(s);
  }
  // Truncations at structural boundaries.
  hostile.push_back(good.substr(0, good.size() / 4));
  hostile.push_back(good.substr(0, good.size() / 2));
  hostile.push_back(good.substr(0, 3 * good.size() / 4));
  // A quantized weight outside [-127, 127].
  {
    std::string s = good;
    const std::size_t tag = s.find("\nWq ");
    ASSERT_NE(tag, std::string::npos);
    const std::size_t at = tag + 4;
    s.replace(at, s.find_first_of(" \n", at) - at, "999");
    hostile.push_back(s);
  }
  // Non-finite and non-positive scales.
  for (const char* bad : {"nan", "inf", "0", "-1"}) {
    std::string s = good;
    const std::size_t tag = s.find("\nscales ");
    ASSERT_NE(tag, std::string::npos);
    const std::size_t at = tag + 8;
    s.replace(at, s.find_first_of(" \n", at) - at, bad);
    hostile.push_back(s);
  }

  for (std::size_t i = 0; i < hostile.size(); ++i) {
    // Start from a valid destination: a failed load must not corrupt it.
    gnn::QuantizedGraphClassifier dst;
    std::string error;
    ASSERT_TRUE(
        gnn::quantized_graph_classifier_from_string(dst, good, &error));
    EXPECT_FALSE(
        gnn::quantized_graph_classifier_from_string(dst, hostile[i], &error))
        << "hostile case " << i << " was accepted";
    EXPECT_FALSE(error.empty()) << "hostile case " << i;
    EXPECT_EQ(gnn::quantized_graph_classifier_to_string(dst), good)
        << "hostile case " << i << " partially overwrote the model";
  }
}

// --- SIMD tier dispatch ------------------------------------------------------

TEST(Dispatch, TierNamesRoundTrip) {
  using simd::SimdTier;
  for (SimdTier t :
       {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2}) {
    const auto parsed = simd::parse_tier(simd::tier_name(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(simd::parse_tier("avx512").has_value());
  EXPECT_FALSE(simd::parse_tier("").has_value());
}

TEST(Dispatch, ScalarIsAlwaysAvailableAndBestIsAvailable) {
  EXPECT_TRUE(simd::tier_available(simd::SimdTier::kScalar));
  EXPECT_TRUE(simd::tier_available(simd::best_tier()));
}

TEST(Dispatch, ForceOverridesEnvAndFallsBackWhenUnavailable) {
  using simd::SimdTier;
  // Put back the caller's M3DFL_SIMD on exit: the later suites in this
  // binary must still run under the tier a CI matrix leg forces.
  struct RestoreEnv {
    std::optional<std::string> saved;
    RestoreEnv() {
      if (const char* v = std::getenv("M3DFL_SIMD")) saved = v;
    }
    ~RestoreEnv() {
      if (saved) {
        setenv("M3DFL_SIMD", saved->c_str(), 1);
      } else {
        unsetenv("M3DFL_SIMD");
      }
    }
  } restore_env;
  simd::force_tier(SimdTier::kScalar);
  EXPECT_EQ(simd::resolve_tier(), SimdTier::kScalar);
  simd::force_tier(std::nullopt);

  setenv("M3DFL_SIMD", "scalar", 1);
  EXPECT_EQ(simd::resolve_tier(), SimdTier::kScalar);
  // The forced tier wins over the environment.
  simd::force_tier(simd::best_tier());
  EXPECT_EQ(simd::resolve_tier(), simd::best_tier());
  simd::force_tier(std::nullopt);
  // Unknown env values fall back to the best tier (with a notice).
  setenv("M3DFL_SIMD", "quantum", 1);
  EXPECT_EQ(simd::resolve_tier(), simd::best_tier());
  unsetenv("M3DFL_SIMD");
}

// --- Cross-tier bit-identity -------------------------------------------------

TEST(QuantizedPredict, BitIdenticalAcrossForcedSimdTiers) {
  using simd::SimdTier;
  const auto graphs = make_graphs(6, 51, /*with_mivs=*/true);
  const auto calib = ptrs_of(graphs);
  const auto qc = gnn::quantize_graph_classifier(
      gnn::GraphClassifier(graphx::kNumSubgraphFeatures, {8, 8}, 2, 23),
      calib);
  const auto qs = gnn::quantize_node_scorer(
      gnn::NodeScorer(graphx::kNumSubgraphFeatures, {8}, 29), calib);
  Rng rng(52);
  const graphx::SubGraph g = path_graph(9, rng, true);

  std::vector<std::vector<float>> probs;
  std::vector<std::vector<double>> scores;
  for (SimdTier t :
       {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2}) {
    if (!simd::tier_available(t)) continue;
    TierGuard guard(t);
    ASSERT_EQ(gnn::active_qgemm_tier(), t);
    probs.push_back(qc.predict_probs(g));
    scores.push_back(qs.predict_miv(g));
  }
  ASSERT_GE(probs.size(), 1u);
  for (std::size_t t = 1; t < probs.size(); ++t) {
    ASSERT_EQ(probs[t].size(), probs[0].size());
    for (std::size_t i = 0; i < probs[0].size(); ++i) {
      EXPECT_EQ(probs[t][i], probs[0][i]) << "tier " << t << " prob " << i;
    }
    ASSERT_EQ(scores[t].size(), scores[0].size());
    for (std::size_t i = 0; i < scores[0].size(); ++i) {
      EXPECT_EQ(scores[t][i], scores[0][i]) << "tier " << t << " miv " << i;
    }
  }
}

TEST(QuantizedPredict, PredictIsExactWideningOfPredictProbs) {
  const auto graphs = make_graphs(4, 53);
  const auto q = gnn::quantize_graph_classifier(
      gnn::GraphClassifier(graphx::kNumSubgraphFeatures, {8}, 2, 31),
      ptrs_of(graphs));
  Rng rng(54);
  const graphx::SubGraph g = path_graph(6, rng, false);
  const std::vector<float> pf = q.predict_probs(g);
  const std::vector<double> pd = q.predict(g);
  ASSERT_EQ(pf.size(), pd.size());
  for (std::size_t i = 0; i < pf.size(); ++i) {
    EXPECT_EQ(pd[i], static_cast<double>(pf[i]));
  }
}

TEST(QuantizedPredict, EmptyGraphGivesUniform) {
  const auto graphs = make_graphs(4, 55);
  const auto q = gnn::quantize_graph_classifier(
      gnn::GraphClassifier(graphx::kNumSubgraphFeatures, {8}, 2, 37),
      ptrs_of(graphs));
  graphx::SubGraph empty;
  const auto p = q.predict(empty);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

// --- fp32 vs int8 quality ----------------------------------------------------

TEST(QuantVsFp32, ScoreDeltaStaysBounded) {
  const auto graphs = make_graphs(20, 61, /*with_mivs=*/true);
  const auto calib = ptrs_of(graphs);
  const gnn::GraphClassifier cls(graphx::kNumSubgraphFeatures, {8, 8}, 2, 41);
  const gnn::NodeScorer scorer(graphx::kNumSubgraphFeatures, {8}, 43);
  const auto qc = gnn::quantize_graph_classifier(cls, calib);
  const auto qs = gnn::quantize_node_scorer(scorer, calib);

  double max_delta = 0.0;
  for (const graphx::SubGraph* g : calib) {
    const std::vector<double> a = cls.predict(*g);
    const std::vector<double> b = qc.predict(*g);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      max_delta = std::max(max_delta, std::abs(a[i] - b[i]));
    }
    const std::vector<double> sa = scorer.predict_miv(*g);
    const std::vector<double> sb = qs.predict_miv(*g);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      max_delta = std::max(max_delta, std::abs(sa[i] - sb[i]));
    }
  }
  EXPECT_GT(max_delta, 0.0);   // int8 is not fp32 —
  EXPECT_LT(max_delta, 0.05);  // — but it must stay close.
}

// --- Framework-level: quantize, persist, serve -------------------------------

/// One trained-and-quantized tiny framework shared by the heavyweight
/// tests below (training dominates their cost).
struct QuantFixture {
  const eval::BenchmarkSpec spec = eval::tiny_spec();
  const eval::Design* design = nullptr;
  eval::TrainedFramework fw;
  eval::QuantReport report;
  std::vector<gnn::LabeledGraph> tier_eval;
  std::vector<const graphx::SubGraph*> miv_eval;
  std::vector<sim::FailureLog> logs;
  eval::Dataset calib_ds, eval_ds, miv_ds;

  QuantFixture() {
    const eval::RunScale scale = eval::RunScale::tiny();
    const eval::TrainingBundle bundle =
        eval::build_training_bundle(spec, false, scale);
    fw = eval::train_framework(bundle, scale);
    design = &eval::cached_design(spec, eval::Config::kSyn2);

    eval::DatagenOptions opts;
    opts.num_samples = 8;
    opts.seed = 91;
    calib_ds = eval::generate_dataset(*design, opts);
    opts.num_samples = 12;
    opts.seed = 92;
    eval_ds = eval::generate_dataset(*design, opts);
    opts.mode = eval::FaultMode::kSingleMiv;
    opts.num_samples = 6;
    opts.seed = 93;
    miv_ds = eval::generate_dataset(*design, opts);

    tier_eval = eval::tier_labeled(eval_ds);
    miv_eval = eval::graphs_of(miv_ds);
    report = eval::quantize_framework(fw, eval::graphs_of(calib_ds),
                                      tier_eval, miv_eval);
    for (const eval::Sample& s : eval_ds.samples) logs.push_back(s.log);
  }
};

QuantFixture& fixture() {
  static QuantFixture* fx = new QuantFixture();
  return *fx;
}

TEST(QuantFramework, ReportIsCoherent) {
  const QuantFixture& fx = fixture();
  ASSERT_TRUE(fx.fw.quant != nullptr);
  EXPECT_TRUE(fx.report.has_int8);
  EXPECT_EQ(fx.report.calib_graphs, fx.calib_ds.size());
  EXPECT_EQ(fx.report.fingerprint, fx.fw.quant->fingerprint());
  EXPECT_GE(fx.report.fp32_auprc, 0.0);
  EXPECT_LE(fx.report.fp32_auprc, 1.0);
  EXPECT_GE(fx.report.int8_auprc, 0.0);
  EXPECT_LE(fx.report.int8_auprc, 1.0);
  // The ISSUE acceptance bound on quality drift.
  EXPECT_LE(std::abs(fx.report.auprc_delta()), 0.01);
  EXPECT_LT(fx.report.max_abs_score_delta, 0.05);
  // The twin's T_p was re-derived on quantized scores.
  EXPECT_EQ(fx.fw.quant->policy.t_p, fx.report.int8_t_p);
}

TEST(QuantFramework, EvaluateUsesPersistedTwinWithoutRecalibration) {
  const QuantFixture& fx = fixture();
  const eval::QuantReport again = eval::evaluate_framework(
      fx.fw, eval::InferenceMode::kInt8, fx.tier_eval, fx.miv_eval);
  EXPECT_TRUE(again.has_int8);
  EXPECT_EQ(again.fingerprint, fx.report.fingerprint);
  EXPECT_EQ(again.int8_auprc, fx.report.int8_auprc);

  const eval::QuantReport fp32_only = eval::evaluate_framework(
      fx.fw, eval::InferenceMode::kFp32, fx.tier_eval, fx.miv_eval);
  EXPECT_FALSE(fp32_only.has_int8);
  EXPECT_EQ(fp32_only.fp32_auprc, fx.report.fp32_auprc);
}

TEST(QuantFramework, FrameworkFileRoundTripPreservesTwin) {
  const QuantFixture& fx = fixture();
  const std::string s = eval::framework_to_string(fx.fw);

  eval::TrainedFramework loaded;
  std::string error;
  ASSERT_TRUE(eval::framework_from_string(loaded, s, &error)) << error;
  ASSERT_TRUE(loaded.quant != nullptr);
  EXPECT_EQ(loaded.quant->fingerprint(), fx.fw.quant->fingerprint());
  EXPECT_EQ(loaded.quant->policy.t_p, fx.fw.quant->policy.t_p);
  EXPECT_EQ(loaded.quant->calib_graphs(), fx.fw.quant->calib_graphs());
  // Byte-stable through a full save/load/save cycle.
  EXPECT_EQ(eval::framework_to_string(loaded), s);

  // Files without the section still load (backward compatibility).
  eval::TrainedFramework bare = fx.fw;
  bare.quant.reset();
  eval::TrainedFramework bare_loaded;
  ASSERT_TRUE(eval::framework_from_string(
      bare_loaded, eval::framework_to_string(bare), &error))
      << error;
  EXPECT_TRUE(bare_loaded.quant == nullptr);

  // Unknown trailing sections are rejected, not ignored.
  EXPECT_FALSE(eval::framework_from_string(
      bare_loaded, eval::framework_to_string(bare) + "junk\n", &error));
}

/// Field-by-field bit-equality of two policy outcomes (the serve layer's
/// bit-identity contract, per inference mode).
void expect_same_outcome(const serve::DiagnosisResponse& got,
                         const serve::DiagnosisResponse& want) {
  ASSERT_TRUE(got.ok) << got.error;
  ASSERT_TRUE(want.ok) << want.error;
  EXPECT_EQ(got.outcome.predicted_tier, want.outcome.predicted_tier);
  EXPECT_EQ(got.outcome.confidence, want.outcome.confidence);
  EXPECT_EQ(got.outcome.pruned, want.outcome.pruned);
  EXPECT_EQ(got.outcome.predicted_mivs, want.outcome.predicted_mivs);
  ASSERT_EQ(got.outcome.report.candidates.size(),
            want.outcome.report.candidates.size());
  for (std::size_t i = 0; i < got.outcome.report.candidates.size(); ++i) {
    EXPECT_EQ(got.outcome.report.candidates[i].site,
              want.outcome.report.candidates[i].site);
    EXPECT_EQ(got.outcome.report.candidates[i].score,
              want.outcome.report.candidates[i].score);
  }
  ASSERT_EQ(got.outcome.backup.size(), want.outcome.backup.size());
  for (std::size_t i = 0; i < got.outcome.backup.size(); ++i) {
    EXPECT_EQ(got.outcome.backup[i].site, want.outcome.backup[i].site);
  }
}

TEST(QuantServe, Int8ServedMatchesDirectAtEveryThreadCount) {
  const QuantFixture& fx = fixture();
  ASSERT_GE(fx.logs.size(), 4u);

  std::vector<serve::DiagnosisResponse> direct;
  for (const sim::FailureLog& log : fx.logs) {
    direct.push_back(serve::DiagnosisService::diagnose_direct(
        *fx.design, fx.fw, log, eval::InferenceMode::kInt8));
  }

  for (std::size_t threads : {1u, 2u, 8u}) {
    serve::ModelRegistry registry;
    registry.publish("default", fx.fw, "trained");
    serve::ServiceOptions opts;
    opts.num_threads = threads;
    opts.inference = eval::InferenceMode::kInt8;
    serve::DiagnosisService service(registry, opts);
    service.register_design(*fx.design);

    std::vector<std::future<serve::DiagnosisResponse>> futures;
    for (const sim::FailureLog& log : fx.logs) {
      futures.push_back(service.submit(*fx.design, log));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      expect_same_outcome(futures[i].get(), direct[i]);
    }
    service.drain();

    const serve::DiagnosisService::QuantStatus status =
        service.live_quant_status();
    EXPECT_EQ(status.effective, eval::InferenceMode::kInt8);
    EXPECT_TRUE(status.quantized_available);
    EXPECT_EQ(status.fingerprint, fx.fw.quant->fingerprint());
  }
}

TEST(QuantServe, Int8DiffersFromFp32OnlyInModelPath) {
  // The quantized path must still produce *valid* outcomes when it
  // disagrees with fp32; here we just pin that both modes serve cleanly
  // from the same published framework.
  const QuantFixture& fx = fixture();
  const serve::DiagnosisResponse a = serve::DiagnosisService::diagnose_direct(
      *fx.design, fx.fw, fx.logs.front(), eval::InferenceMode::kFp32);
  const serve::DiagnosisResponse b = serve::DiagnosisService::diagnose_direct(
      *fx.design, fx.fw, fx.logs.front(), eval::InferenceMode::kInt8);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  // Same ATPG front end either way.
  EXPECT_EQ(a.atpg_report.resolution(), b.atpg_report.resolution());
}

TEST(QuantServe, Int8WithoutTwinFallsBackToFp32) {
  const QuantFixture& fx = fixture();
  eval::TrainedFramework bare = fx.fw;
  bare.quant.reset();

  const serve::DiagnosisResponse fp32_direct =
      serve::DiagnosisService::diagnose_direct(*fx.design, bare,
                                               fx.logs.front(),
                                               eval::InferenceMode::kFp32);

  serve::ModelRegistry registry;
  registry.publish("default", std::move(bare), "trained");
  serve::ServiceOptions opts;
  opts.num_threads = 1;
  opts.inference = eval::InferenceMode::kInt8;
  serve::DiagnosisService service(registry, opts);
  service.register_design(*fx.design);

  auto future = service.submit(*fx.design, fx.logs.front());
  expect_same_outcome(future.get(), fp32_direct);
  service.drain();

  const serve::DiagnosisService::QuantStatus status =
      service.live_quant_status();
  EXPECT_EQ(status.configured, eval::InferenceMode::kInt8);
  EXPECT_EQ(status.effective, eval::InferenceMode::kFp32);
  EXPECT_FALSE(status.quantized_available);
}

TEST(QuantServe, ServedInt8BitIdenticalAcrossSimdTiers) {
  using simd::SimdTier;
  const QuantFixture& fx = fixture();
  std::vector<std::vector<serve::DiagnosisResponse>> per_tier;
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2}) {
    if (!simd::tier_available(t)) continue;
    TierGuard guard(t);
    std::vector<serve::DiagnosisResponse> responses;
    for (const sim::FailureLog& log : fx.logs) {
      responses.push_back(serve::DiagnosisService::diagnose_direct(
          *fx.design, fx.fw, log, eval::InferenceMode::kInt8));
    }
    per_tier.push_back(std::move(responses));
  }
  ASSERT_GE(per_tier.size(), 1u);
  for (std::size_t t = 1; t < per_tier.size(); ++t) {
    for (std::size_t i = 0; i < fx.logs.size(); ++i) {
      expect_same_outcome(per_tier[t][i], per_tier[0][i]);
    }
  }
}

}  // namespace
}  // namespace m3dfl
