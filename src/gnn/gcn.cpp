#include "gnn/gcn.h"

#include <cassert>

namespace m3dfl::gnn {

GcnLayer::GcnLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng)
    : W(Matrix::xavier(in_dim, out_dim, rng)),
      b(out_dim, 0.0f),
      gW(in_dim, out_dim),
      gb(out_dim, 0.0f) {}

Matrix GcnLayer::aggregate(const SubGraph& g, const Matrix& h_in) {
  Matrix agg;
  aggregate_into(g, h_in, agg);
  return agg;
}

void GcnLayer::aggregate_into(const SubGraph& g, const Matrix& h_in,
                              Matrix& agg) {
  const std::size_t n = g.num_nodes();
  assert(h_in.rows() == n);
  agg.resize(n, h_in.cols());
  // Restrict-qualified rows + hoisted bounds (agg never aliases h_in) so
  // the per-channel loops vectorize; accumulation order is unchanged.
  const std::size_t C = h_in.cols();
  for (std::size_t v = 0; v < n; ++v) {
    float* __restrict out = agg.row(v);
    const float* __restrict self = h_in.row(v);
    const std::uint32_t lo = g.row_ptr[v], hi = g.row_ptr[v + 1];
    for (std::size_t c = 0; c < C; ++c) out[c] = self[c];
    for (std::uint32_t e = lo; e < hi; ++e) {
      const float* __restrict nb = h_in.row(g.col_idx[e]);
      for (std::size_t c = 0; c < C; ++c) out[c] += nb[c];
    }
    const float inv = 1.0f / static_cast<float>(1 + hi - lo);
    for (std::size_t c = 0; c < C; ++c) out[c] *= inv;
  }
}

Matrix GcnLayer::aggregate_transpose(const SubGraph& g, const Matrix& d_agg) {
  const std::size_t n = g.num_nodes();
  assert(d_agg.rows() == n);
  Matrix out(n, d_agg.cols());
  const std::size_t C = d_agg.cols();
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t lo = g.row_ptr[v], hi = g.row_ptr[v + 1];
    const float inv = 1.0f / static_cast<float>(1 + hi - lo);
    const float* __restrict src = d_agg.row(v);
    // Row v of A_norm contributes inv * src to column targets {v} + N(v);
    // transposing, those targets accumulate the contribution. (`src` never
    // aliases `out`; the scatter targets may repeat, so they are not
    // restrict-qualified.)
    float* self = out.row(v);
    for (std::size_t c = 0; c < C; ++c) self[c] += inv * src[c];
    for (std::uint32_t e = lo; e < hi; ++e) {
      float* dst = out.row(g.col_idx[e]);
      for (std::size_t c = 0; c < C; ++c) dst[c] += inv * src[c];
    }
  }
  return out;
}

Matrix GcnLayer::forward(const SubGraph& g, const Matrix& h_in,
                         GcnCache* cache) const {
  Matrix agg = aggregate(g, h_in);
  Matrix out = matmul(agg, W);
  add_bias_rows(out, b);
  relu_inplace(out);
  if (cache) {
    cache->agg = std::move(agg);
    cache->out = out;
  }
  return out;
}

Matrix GcnLayer::backward(const SubGraph& g, const Matrix& h_in,
                          const GcnCache& cache, const Matrix& d_out) {
  (void)h_in;
  // ReLU mask.
  Matrix d_pre = d_out;
  for (std::size_t i = 0; i < d_pre.size(); ++i) {
    if (cache.out.data()[i] <= 0.0f) d_pre.data()[i] = 0.0f;
  }
  // Parameter grads.
  accumulate(gW, matmul_at_b(cache.agg, d_pre));
  add_colsum(gb, d_pre);
  // Through the linear map and the aggregation.
  const Matrix d_agg = matmul_a_bt(d_pre, W);
  return aggregate_transpose(g, d_agg);
}

void GcnLayer::zero_grad() {
  gW.zero();
  std::fill(gb.begin(), gb.end(), 0.0f);
}

GcnStack::GcnStack(std::size_t in_dim, const std::vector<std::size_t>& hidden,
                   Rng& rng) {
  std::size_t d = in_dim;
  layers.reserve(hidden.size());
  for (std::size_t h : hidden) {
    layers.emplace_back(d, h, rng);
    d = h;
  }
}

Matrix GcnStack::forward(const SubGraph& g, const Matrix& x,
                         std::vector<GcnCache>* caches) const {
  if (caches) caches->resize(layers.size());
  Matrix h = x;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    h = layers[l].forward(g, h, caches ? &(*caches)[l] : nullptr);
  }
  return h;
}

Matrix GcnStack::backward(const SubGraph& g, const Matrix& x,
                          const std::vector<GcnCache>& caches,
                          const Matrix& d_out, bool accumulate_grads) {
  assert(caches.size() == layers.size());
  Matrix d = d_out;
  for (std::size_t l = layers.size(); l-- > 0;) {
    const Matrix& h_in = l == 0 ? x : caches[l - 1].out;
    if (accumulate_grads) {
      d = layers[l].backward(g, h_in, caches[l], d);
    } else {
      // Same math without touching the gradient accumulators.
      Matrix d_pre = d;
      for (std::size_t i = 0; i < d_pre.size(); ++i) {
        if (caches[l].out.data()[i] <= 0.0f) d_pre.data()[i] = 0.0f;
      }
      const Matrix d_agg = matmul_a_bt(d_pre, layers[l].W);
      d = GcnLayer::aggregate_transpose(g, d_agg);
    }
  }
  return d;
}

void GcnStack::zero_grad() {
  for (GcnLayer& l : layers) l.zero_grad();
}

}  // namespace m3dfl::gnn
