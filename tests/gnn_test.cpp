// Tests of the GNN library: matrix kernels, GCN forward/backward (numeric
// gradient check), models, Adam, trainers, oversampling, explainer, PCA.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "gnn/adam.h"
#include "gnn/explain.h"
#include "gnn/gcn.h"
#include "gnn/model.h"
#include "gnn/oversample.h"
#include "gnn/pca.h"
#include "gnn/qkernels.h"
#include "gnn/quant.h"
#include "gnn/trainer.h"

namespace m3dfl::gnn {
namespace {

// --- Matrix kernels -----------------------------------------------------------

TEST(Matrix, MatmulAgainstManual) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [1 2 3; 4 5 6], b = [1 0; 0 1; 1 1].
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {1, 0, 0, 1, 1, 1};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 4);
  EXPECT_FLOAT_EQ(c.at(0, 1), 5);
  EXPECT_FLOAT_EQ(c.at(1, 0), 10);
  EXPECT_FLOAT_EQ(c.at(1, 1), 11);
}

TEST(Matrix, TransposedProductsAgree) {
  Rng rng(3);
  Matrix a = Matrix::xavier(4, 5, rng);
  Matrix b = Matrix::xavier(4, 3, rng);
  // a^T b computed two ways.
  Matrix at(5, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) at.at(j, i) = a.at(i, j);
  }
  const Matrix direct = matmul_at_b(a, b);
  const Matrix expected = matmul(at, b);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.data()[i], expected.data()[i], 1e-5);
  }

  Matrix c = Matrix::xavier(3, 5, rng);
  Matrix ct(5, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) ct.at(j, i) = c.at(i, j);
  }
  const Matrix direct2 = matmul_a_bt(a, c);   // (4x5)(3x5)^T -> 4x3.
  const Matrix expected2 = matmul(a, ct);
  for (std::size_t i = 0; i < direct2.size(); ++i) {
    EXPECT_NEAR(direct2.data()[i], expected2.data()[i], 1e-5);
  }
}

TEST(Matrix, SoftmaxIsNormalizedAndStable) {
  const float big[] = {1000.0f, 1001.0f};
  const auto p = softmax({big, 2});
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  EXPECT_GT(p[1], p[0]);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(Matrix, RowMeanAndColsum) {
  Matrix m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 3;
  m.at(1, 1) = 4;
  const Matrix mean = row_mean(m);
  EXPECT_FLOAT_EQ(mean.at(0, 0), 2);
  EXPECT_FLOAT_EQ(mean.at(0, 1), 3);
  std::vector<float> cs(2, 0);
  add_colsum(cs, m);
  EXPECT_FLOAT_EQ(cs[0], 4);
  EXPECT_FLOAT_EQ(cs[1], 6);
}

// --- Kernel bit-identity regression ------------------------------------------

// Scalar reference kernels replicating the exact accumulation order of the
// production kernels in matrix.cpp / gcn.cpp (including the zero-row skip).
// The production loops carry __restrict / hoisted-bound vectorization hints;
// this pins their outputs bit-identically so a future "optimization" that
// reorders floating-point accumulation fails loudly.

Matrix ref_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float av = a.at(i, k);
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out.at(i, j) += av * b.at(k, j);
      }
    }
  }
  return out;
}

Matrix ref_matmul_at_b(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float av = a.at(k, i);
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out.at(i, j) += av * b.at(k, j);
      }
    }
  }
  return out;
}

Matrix ref_matmul_a_bt(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      float s = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a.at(i, k) * b.at(j, k);
      out.at(i, j) = s;
    }
  }
  return out;
}

Matrix ref_aggregate(const graphx::SubGraph& g, const Matrix& h) {
  Matrix agg(g.num_nodes(), h.cols());
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    for (std::size_t c = 0; c < h.cols(); ++c) agg.at(v, c) = h.at(v, c);
    for (std::uint32_t e = g.row_ptr[v]; e < g.row_ptr[v + 1]; ++e) {
      for (std::size_t c = 0; c < h.cols(); ++c) {
        agg.at(v, c) += h.at(g.col_idx[e], c);
      }
    }
    const float inv =
        1.0f / static_cast<float>(1 + g.row_ptr[v + 1] - g.row_ptr[v]);
    for (std::size_t c = 0; c < h.cols(); ++c) agg.at(v, c) *= inv;
  }
  return agg;
}

Matrix ref_aggregate_transpose(const graphx::SubGraph& g, const Matrix& d) {
  Matrix out(g.num_nodes(), d.cols());
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const float inv =
        1.0f / static_cast<float>(1 + g.row_ptr[v + 1] - g.row_ptr[v]);
    for (std::size_t c = 0; c < d.cols(); ++c) {
      out.at(v, c) += inv * d.at(v, c);
    }
    for (std::uint32_t e = g.row_ptr[v]; e < g.row_ptr[v + 1]; ++e) {
      for (std::size_t c = 0; c < d.cols(); ++c) {
        out.at(g.col_idx[e], c) += inv * d.at(v, c);
      }
    }
  }
  return out;
}

void expect_bit_identical(const Matrix& got, const Matrix& want,
                          const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i])
        << what << " diverges at flat index " << i;
  }
}

TEST(KernelBitIdentity, MatmulVariantsMatchScalarReference) {
  Rng rng(91);
  const Matrix a = Matrix::xavier(17, 23, rng);
  const Matrix b = Matrix::xavier(23, 13, rng);
  const Matrix c = Matrix::xavier(17, 13, rng);
  Matrix sparse = a;
  for (std::size_t i = 0; i < sparse.size(); i += 3) sparse.data()[i] = 0.0f;
  expect_bit_identical(matmul(a, b), ref_matmul(a, b), "matmul");
  expect_bit_identical(matmul(sparse, b), ref_matmul(sparse, b),
                       "matmul(sparse)");
  expect_bit_identical(matmul_at_b(a, c), ref_matmul_at_b(a, c), "matmul_at_b");
  expect_bit_identical(matmul_a_bt(b, c), ref_matmul_a_bt(b, c),
                       "matmul_a_bt");
}

TEST(KernelBitIdentity, ElementwiseKernelsMatchScalarReference) {
  Rng rng(92);
  Matrix m = Matrix::xavier(9, 21, rng);
  std::vector<float> bias(21);
  for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  Matrix want = m;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) want.at(i, j) += bias[j];
  }
  Matrix got = m;
  add_bias_rows(got, bias);
  expect_bit_identical(got, want, "add_bias_rows");

  for (std::size_t i = 0; i < want.size(); ++i) {
    want.data()[i] = std::max(0.0f, want.data()[i]);
  }
  relu_inplace(got);
  expect_bit_identical(got, want, "relu_inplace");

  std::vector<float> cs_got(21, 0.25f), cs_want(21, 0.25f);
  add_colsum(cs_got, m);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) cs_want[j] += m.at(i, j);
  }
  for (std::size_t j = 0; j < cs_want.size(); ++j) {
    ASSERT_EQ(cs_got[j], cs_want[j]) << "add_colsum col " << j;
  }

  Matrix mean_want(1, m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      mean_want.at(0, j) += m.at(i, j);
    }
  }
  const float inv = 1.0f / static_cast<float>(m.rows());
  for (std::size_t j = 0; j < m.cols(); ++j) mean_want.at(0, j) *= inv;
  expect_bit_identical(row_mean(m), mean_want, "row_mean");
}

// --- int8 GEMM kernel family -------------------------------------------------

/// Plain-loop int32 reference over the padded rows (pads are zero, so
/// covering the full stride matches the kernels' whole-vector consumption).
std::vector<std::int32_t> ref_qgemm(const QMatrix& a, const QMatrix& bt) {
  std::vector<std::int32_t> c(a.rows() * bt.rows(), 0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < bt.rows(); ++j) {
      std::int32_t s = 0;
      for (std::size_t k = 0; k < a.stride(); ++k) {
        s += static_cast<std::int32_t>(a.at(i, k)) *
             static_cast<std::int32_t>(bt.at(j, k));
      }
      c[i * bt.rows() + j] = s;
    }
  }
  return c;
}

QMatrix random_qmatrix(std::size_t rows, std::size_t cols, Rng& rng) {
  QMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m.at(i, j) = static_cast<std::int8_t>(
          std::lround(rng.uniform(-127.0, 127.0)));
    }
  }
  return m;
}

TEST(QGemm, EveryCompiledTierMatchesInt32Reference) {
  Rng rng(94);
  // Odd dims so the zero padding (70 -> 96 stride) is actually exercised,
  // including values at the extremes of the int8 range.
  const QMatrix a = random_qmatrix(7, 70, rng);
  const QMatrix bt = random_qmatrix(9, 70, rng);
  ASSERT_EQ(a.stride(), bt.stride());
  const std::vector<std::int32_t> want = ref_qgemm(a, bt);

  struct TierFn {
    const char* name;
    QGemmFn fn;
    bool runnable;
  };
  const TierFn tiers[] = {
      {"scalar", qgemm_scalar(), true},
      {"sse2", qgemm_sse2(),
       simd::tier_available(simd::SimdTier::kSse2)},
      {"avx2", qgemm_avx2(),
       simd::tier_available(simd::SimdTier::kAvx2)},
  };
  ASSERT_NE(tiers[0].fn, nullptr);
  int checked = 0;
  for (const TierFn& t : tiers) {
    if (t.fn == nullptr || !t.runnable) continue;
    std::vector<std::int32_t> got(a.rows() * bt.rows(), -1);
    t.fn(a.data(), bt.data(), got.data(), a.rows(), bt.rows(), a.stride());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << t.name << " diverges at flat index " << i;
    }
    ++checked;
  }
  EXPECT_GE(checked, 1);
}

TEST(QGemm, ActiveKernelFollowsForcedTier) {
  using simd::SimdTier;
  struct Clear {
    ~Clear() { simd::force_tier(std::nullopt); }
  } clear_on_exit;
  const struct {
    SimdTier tier;
    QGemmFn fn;
  } table[] = {
      {SimdTier::kScalar, qgemm_scalar()},
      {SimdTier::kSse2, qgemm_sse2()},
      {SimdTier::kAvx2, qgemm_avx2()},
  };
  for (const auto& row : table) {
    if (!simd::tier_available(row.tier)) continue;
    simd::force_tier(row.tier);
    EXPECT_EQ(active_qgemm_tier(), row.tier);
    EXPECT_EQ(active_qgemm(), row.fn);
  }
}

// --- A tiny synthetic SubGraph ---------------------------------------------------

/// Builds a path graph 0-1-2-...-(n-1) with controllable features.
graphx::SubGraph path_graph(std::size_t n, Rng& rng, float tier_value = 0.f) {
  graphx::SubGraph g;
  g.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) g.nodes[i] = static_cast<std::uint32_t>(i);
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
  for (std::size_t i = 0; i < n; ++i) g.feature(i, 3) = tier_value;
  return g;
}

// --- GCN layer -----------------------------------------------------------------

TEST(GcnLayer, AggregateIsMeanWithSelfLoop) {
  Rng rng(5);
  graphx::SubGraph g = path_graph(3, rng);
  Matrix h(3, 2);
  h.at(0, 0) = 3;
  h.at(1, 0) = 6;
  h.at(2, 0) = 9;
  const Matrix agg = GcnLayer::aggregate(g, h);
  // Node 0: mean(h0, h1) = 4.5; node 1: mean(h0,h1,h2) = 6.
  EXPECT_FLOAT_EQ(agg.at(0, 0), 4.5f);
  EXPECT_FLOAT_EQ(agg.at(1, 0), 6.0f);
  EXPECT_FLOAT_EQ(agg.at(2, 0), 7.5f);
}

TEST(GcnLayer, AggregateTransposeIsAdjoint) {
  // <A x, y> == <x, A^T y> for random x, y.
  Rng rng(6);
  graphx::SubGraph g = path_graph(5, rng);
  Matrix x = Matrix::xavier(5, 3, rng);
  Matrix y = Matrix::xavier(5, 3, rng);
  const Matrix ax = GcnLayer::aggregate(g, x);
  const Matrix aty = GcnLayer::aggregate_transpose(g, y);
  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    lhs += static_cast<double>(ax.data()[i]) * y.data()[i];
    rhs += static_cast<double>(x.data()[i]) * aty.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

// Full-layer companion to the KernelBitIdentity tests: forward and backward
// through GcnLayer must match the scalar reference composition bit-for-bit,
// so any aliasing/vectorization change that perturbs FP order is caught at
// the layer level too (including the aggregate / aggregate_transpose paths).
TEST(GcnLayer, ForwardBackwardBitIdenticalToScalarReference) {
  Rng rng(93);
  graphx::SubGraph g = path_graph(11, rng);
  const std::size_t in_dim = graphx::kNumSubgraphFeatures;
  GcnLayer layer(in_dim, 10, rng);
  const Matrix h = Matrix::xavier(g.num_nodes(), in_dim, rng);
  const Matrix d_out = Matrix::xavier(g.num_nodes(), 10, rng);

  GcnCache cache;
  const Matrix out = layer.forward(g, h, &cache);

  const Matrix agg_ref = ref_aggregate(g, h);
  expect_bit_identical(cache.agg, agg_ref, "forward agg");
  Matrix out_ref = ref_matmul(agg_ref, layer.W);
  for (std::size_t i = 0; i < out_ref.rows(); ++i) {
    for (std::size_t j = 0; j < out_ref.cols(); ++j) {
      out_ref.at(i, j) += layer.b[j];
      out_ref.at(i, j) = std::max(0.0f, out_ref.at(i, j));
    }
  }
  expect_bit_identical(out, out_ref, "forward out");

  layer.zero_grad();
  const Matrix d_in = layer.backward(g, h, cache, d_out);

  Matrix d_pre = d_out;
  for (std::size_t i = 0; i < d_pre.size(); ++i) {
    if (cache.out.data()[i] <= 0.0f) d_pre.data()[i] = 0.0f;
  }
  expect_bit_identical(layer.gW, ref_matmul_at_b(agg_ref, d_pre),
                       "backward gW");
  std::vector<float> gb_ref(10, 0.0f);
  for (std::size_t i = 0; i < d_pre.rows(); ++i) {
    for (std::size_t j = 0; j < d_pre.cols(); ++j) {
      gb_ref[j] += d_pre.at(i, j);
    }
  }
  for (std::size_t j = 0; j < gb_ref.size(); ++j) {
    ASSERT_EQ(layer.gb[j], gb_ref[j]) << "backward gb col " << j;
  }
  const Matrix d_agg_ref = ref_matmul_a_bt(d_pre, layer.W);
  expect_bit_identical(d_in, ref_aggregate_transpose(g, d_agg_ref),
                       "backward d_in");
}

/// Numeric gradient check of the full GraphClassifier loss.
TEST(GraphClassifier, NumericGradientCheck) {
  Rng rng(7);
  graphx::SubGraph g = path_graph(6, rng);
  GraphClassifier model(graphx::kNumSubgraphFeatures, {8}, 2, /*seed=*/11);

  model.zero_grad();
  model.train_graph(g, /*label=*/1);

  // Check dL/dW for a few weights of each parameter tensor.
  auto params = model.params();
  const double eps = 1e-3;
  int checked = 0;
  for (ParamRef& p : params) {
    for (std::size_t idx : {std::size_t{0}, p.size / 2, p.size - 1}) {
      const float saved = p.value[idx];
      const float analytic = p.grad[idx];
      p.value[idx] = saved + static_cast<float>(eps);
      GraphClassifier& m = model;
      // Loss at +eps (predict path re-computes everything).
      const auto probs_hi = m.predict(g);
      const double loss_hi = -std::log(std::max(1e-12, probs_hi[1]));
      p.value[idx] = saved - static_cast<float>(eps);
      const auto probs_lo = m.predict(g);
      const double loss_lo = -std::log(std::max(1e-12, probs_lo[1]));
      p.value[idx] = saved;
      const double numeric = (loss_hi - loss_lo) / (2 * eps);
      EXPECT_NEAR(analytic, numeric, 2e-2 + 0.05 * std::abs(numeric))
          << "param idx " << idx;
      ++checked;
    }
  }
  EXPECT_GE(checked, 6);
}

TEST(NodeScorer, NumericGradientCheck) {
  Rng rng(8);
  graphx::SubGraph g = path_graph(6, rng);
  g.miv_local = {1, 4};
  g.miv_label = {1.0f, 0.0f};
  NodeScorer model(graphx::kNumSubgraphFeatures, {8}, 13);
  model.zero_grad();
  model.train_graph(g);

  auto loss_of = [&]() {
    const auto s = model.predict_miv(g);
    double l = 0;
    l -= std::log(std::max(1e-12, s[0]));
    l -= std::log(std::max(1e-12, 1.0 - s[1]));
    return l / 2.0;
  };
  auto params = model.params();
  const double eps = 1e-3;
  for (ParamRef& p : params) {
    const std::size_t idx = p.size / 2;
    const float saved = p.value[idx];
    const float analytic = p.grad[idx];
    p.value[idx] = saved + static_cast<float>(eps);
    const double hi = loss_of();
    p.value[idx] = saved - static_cast<float>(eps);
    const double lo = loss_of();
    p.value[idx] = saved;
    const double numeric = (hi - lo) / (2 * eps);
    EXPECT_NEAR(analytic, numeric, 2e-2 + 0.05 * std::abs(numeric));
  }
}

TEST(GraphClassifier, EmptyGraphGivesUniform) {
  GraphClassifier model(graphx::kNumSubgraphFeatures, {8}, 2, 1);
  graphx::SubGraph empty;
  const auto p = model.predict(empty);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

// predict() is documented as an exact double-widening shim over the float
// inference path — every threshold comparison made on the double view must
// agree bit-wise with the float probabilities underneath.
TEST(GraphClassifier, PredictIsExactWideningOfPredictProbs) {
  Rng rng(95);
  const graphx::SubGraph g = path_graph(6, rng);
  const GraphClassifier model(graphx::kNumSubgraphFeatures, {8}, 2, 19);
  const std::vector<float> pf = model.predict_probs(g);
  const std::vector<double> pd = model.predict(g);
  ASSERT_EQ(pf.size(), pd.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < pf.size(); ++i) {
    EXPECT_EQ(pd[i], static_cast<double>(pf[i]));
    sum += pd[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

// --- Trainer: learnability -------------------------------------------------------

TEST(Trainer, LearnsSeparableGraphTask) {
  // Class = value of feature 3 (constant over nodes). Trivially separable;
  // the trainer must reach high accuracy quickly.
  Rng rng(9);
  std::vector<graphx::SubGraph> graphs;
  std::vector<LabeledGraph> data;
  for (int i = 0; i < 60; ++i) {
    const int label = i % 2;
    graphs.push_back(path_graph(5 + i % 4, rng, label ? 1.0f : 0.0f));
  }
  for (int i = 0; i < 60; ++i) data.push_back({&graphs[i], i % 2});

  GraphClassifier model(graphx::kNumSubgraphFeatures, {16}, 2, 21);
  TrainOptions opts;
  opts.epochs = 30;
  opts.lr = 1e-2;
  const TrainStats stats = train_graph_classifier(model, data, opts);
  EXPECT_GT(stats.epochs_run, 0);
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
  EXPECT_GT(classifier_accuracy(model, data), 0.95);
}

TEST(Trainer, NodeScorerLearnsMarkedNodes) {
  // MIV node with feature 6 == 1 is "faulty"; others are not.
  Rng rng(10);
  std::vector<graphx::SubGraph> graphs;
  for (int i = 0; i < 50; ++i) {
    graphx::SubGraph g = path_graph(6, rng);
    g.miv_local = {1, 3};
    const bool first_faulty = i % 2 == 0;
    g.miv_label = {first_faulty ? 1.0f : 0.0f, first_faulty ? 0.0f : 1.0f};
    g.feature(1, 6) = first_faulty ? 1.0f : 0.0f;
    g.feature(3, 6) = first_faulty ? 0.0f : 1.0f;
    graphs.push_back(std::move(g));
  }
  std::vector<const graphx::SubGraph*> data;
  for (const auto& g : graphs) data.push_back(&g);

  NodeScorer model(graphx::kNumSubgraphFeatures, {16}, 31);
  TrainOptions opts;
  opts.epochs = 40;
  opts.lr = 1e-2;
  train_node_scorer(model, data, opts);
  int correct = 0;
  for (const auto* g : data) {
    const auto s = model.predict_miv(*g);
    const int top = s[0] > s[1] ? 0 : 1;
    const int truth = g->miv_label[0] > 0.5f ? 0 : 1;
    correct += top == truth;
  }
  EXPECT_GT(correct, 45);
}

// --- Adam -------------------------------------------------------------------------

TEST(Adam, MinimizesQuadratic) {
  // One parameter vector, loss = sum (x_i - t_i)^2.
  std::vector<float> x(4, 0.0f), g(4, 0.0f);
  const float target[] = {1.0f, -2.0f, 3.0f, 0.5f};
  Adam adam({{x.data(), g.data(), 4}}, {.lr = 0.05});
  for (int step = 0; step < 400; ++step) {
    for (int i = 0; i < 4; ++i) g[i] = 2.0f * (x[i] - target[i]);
    adam.step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x[i], target[i], 0.05);
}

TEST(Adam, StepClearsGradients) {
  std::vector<float> x(2, 0.0f), g(2, 1.0f);
  Adam adam({{x.data(), g.data(), 2}});
  adam.step();
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);
}

// --- Transfer learning --------------------------------------------------------------

TEST(Transfer, FrozenStackUnchangedByTraining) {
  Rng rng(12);
  std::vector<graphx::SubGraph> graphs;
  std::vector<LabeledGraph> data;
  for (int i = 0; i < 20; ++i) {
    graphs.push_back(path_graph(5, rng, (i % 2) ? 1.0f : 0.0f));
  }
  for (int i = 0; i < 20; ++i) data.push_back({&graphs[i], i % 2});

  GraphClassifier base(graphx::kNumSubgraphFeatures, {8, 8}, 2, 41);
  train_graph_classifier(base, data, {.epochs = 5});

  GraphClassifier transfer =
      GraphClassifier::transfer_from(base.stack, 2, 4, 42);
  const std::vector<float> before(
      transfer.stack.layers[0].W.data(),
      transfer.stack.layers[0].W.data() + transfer.stack.layers[0].W.size());
  train_graph_classifier(transfer, data, {.epochs = 5});
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(transfer.stack.layers[0].W.data()[i], before[i])
        << "frozen weight moved";
  }
  EXPECT_TRUE(transfer.has_hidden_head);
  EXPECT_TRUE(transfer.freeze_stack);
}

// --- Oversampling -------------------------------------------------------------------

TEST(Oversample, DummyBufferPreservesStructure) {
  Rng rng(13);
  graphx::SubGraph g = path_graph(4, rng);
  g.miv_local = {2};
  g.miv_label = {1.0f};
  g.label_tier = 1;
  const graphx::SubGraph aug = append_dummy_buffer(g, 1);
  EXPECT_EQ(aug.num_nodes(), 5u);
  EXPECT_EQ(aug.num_edges(), g.num_edges() + 2);
  EXPECT_EQ(aug.label_tier, 1);
  EXPECT_EQ(aug.miv_local, g.miv_local);
  // New node connected to node 1.
  bool found = false;
  for (std::uint32_t e = aug.row_ptr[4]; e < aug.row_ptr[5]; ++e) {
    found |= aug.col_idx[e] == 1;
  }
  EXPECT_TRUE(found);
  // Nodes stay sorted/unique for local_of.
  for (std::size_t i = 1; i < aug.nodes.size(); ++i) {
    EXPECT_LT(aug.nodes[i - 1], aug.nodes[i]);
  }
}

// Regression: when every minority graph is empty no buffer variant can
// ever be synthesized; the loop used to spin forever chasing the target.
TEST(Oversample, AllEmptyMinorityTerminates) {
  graphx::SubGraph empty1, empty2;
  std::vector<const graphx::SubGraph*> minority{&empty1, &empty2};
  const auto out = oversample_with_buffers(minority, 9, 15);
  EXPECT_EQ(out.size(), 2u);
  for (const auto& g : out) EXPECT_EQ(g.num_nodes(), 0u);
}

TEST(Oversample, ReachesTargetCount) {
  Rng rng(14);
  std::vector<graphx::SubGraph> graphs{path_graph(4, rng), path_graph(5, rng)};
  std::vector<const graphx::SubGraph*> minority{&graphs[0], &graphs[1]};
  const auto out = oversample_with_buffers(minority, 9, 15);
  EXPECT_EQ(out.size(), 9u);
  // Synthetic graphs grow in node count.
  EXPECT_GT(out.back().num_nodes(), graphs.back().num_nodes());
}

// --- Explainer ---------------------------------------------------------------------

TEST(Explainer, SignificanceNearHalfAndDiscriminative) {
  Rng rng(16);
  std::vector<graphx::SubGraph> graphs;
  std::vector<LabeledGraph> data;
  for (int i = 0; i < 40; ++i) {
    graphs.push_back(path_graph(6, rng, (i % 2) ? 1.0f : 0.0f));
  }
  for (int i = 0; i < 40; ++i) data.push_back({&graphs[i], i % 2});
  GraphClassifier model(graphx::kNumSubgraphFeatures, {16}, 2, 61);
  train_graph_classifier(model, data, {.epochs = 25, .lr = 1e-2});

  const auto sig = explain_feature_significance(model, data);
  ASSERT_EQ(sig.size(), graphx::kNumSubgraphFeatures);
  for (double s : sig) {
    EXPECT_GT(s, 0.2);
    EXPECT_LT(s, 0.8);  // Mask scores cluster near 0.5, as in the paper.
  }
  // Permutation importance singles out the label-carrying feature 3.
  const auto imp = permutation_importance(model, data);
  const auto top =
      std::max_element(imp.begin(), imp.end()) - imp.begin();
  EXPECT_EQ(top, 3);
}

// --- PCA ---------------------------------------------------------------------------

TEST(Pca, RecoversDominantDirection) {
  Rng rng(17);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 300; ++i) {
    const double t = rng.normal();
    // Variance concentrated along (1, 1, 0) / sqrt(2).
    samples.push_back({t + 0.01 * rng.normal(), t + 0.01 * rng.normal(),
                       0.05 * rng.normal()});
  }
  const PcaResult pca = fit_pca(samples, 2);
  ASSERT_EQ(pca.components.size(), 2u);
  const auto& c0 = pca.components[0];
  EXPECT_NEAR(std::abs(c0[0]), std::sqrt(0.5), 0.05);
  EXPECT_NEAR(std::abs(c0[1]), std::sqrt(0.5), 0.05);
  EXPECT_NEAR(c0[2], 0.0, 0.1);
  EXPECT_GT(pca.explained_variance_ratio(), 0.95);
  EXPECT_GT(pca.eigenvalues[0], pca.eigenvalues[1]);
}

TEST(Pca, ProjectionCentersData) {
  Rng rng(18);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 100; ++i) {
    samples.push_back({5.0 + rng.normal(), -3.0 + rng.normal()});
  }
  const PcaResult pca = fit_pca(samples, 2);
  double mx = 0, my = 0;
  for (const auto& s : samples) {
    const auto p = pca.project2(s);
    mx += p[0];
    my += p[1];
  }
  EXPECT_NEAR(mx / 100, 0.0, 1e-9);
  EXPECT_NEAR(my / 100, 0.0, 1e-9);
}

}  // namespace
}  // namespace m3dfl::gnn
