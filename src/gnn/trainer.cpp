#include "gnn/trainer.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <numeric>

#include "common/executor.h"
#include "obs/stage.h"

namespace m3dfl::gnn {

namespace {

bool should_stop(const TrainOptions& opts, const std::vector<double>& losses) {
  if (opts.patience <= 0 ||
      losses.size() <= static_cast<std::size_t>(opts.patience)) {
    return false;
  }
  // Stop when none of the last `patience` epochs improved the best loss
  // seen before them by at least min_improvement.
  double best_before = losses.front();
  for (std::size_t i = 1; i + opts.patience < losses.size(); ++i) {
    best_before = std::min(best_before, losses[i]);
  }
  double best_recent = losses.back();
  for (std::size_t i = losses.size() - opts.patience; i < losses.size(); ++i) {
    best_recent = std::min(best_recent, losses[i]);
  }
  return best_before - best_recent < opts.min_improvement;
}

}  // namespace

TrainStats train_graph_classifier(GraphClassifier& model,
                                  std::span<const LabeledGraph> data,
                                  const TrainOptions& opts) {
  TrainStats stats;
  if (data.empty()) return stats;
  M3DFL_STAGE(fit_stage, "train.fit");

  model.zero_grad();
  Adam adam(model.params(),
            {.lr = opts.lr, .weight_decay = opts.weight_decay});
  Rng rng(opts.seed);
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  // Intra-batch parallelism with bit-exact results: in-place gradient
  // accumulation is order-sensitive under float addition, so each batch
  // slot instead computes its example's gradients from zero in a private
  // model clone (weights pulled from the master at batch start). The
  // clones are merged into the master in slot order — a fixed reduction
  // order no matter which thread computed what — and only then does Adam
  // step. The single-threaded path runs the exact same staged code, so
  // every thread count produces identical weights.
  const std::size_t batch = std::max<std::size_t>(1, opts.batch_size);
  const std::size_t slots = std::min(batch, data.size());
  std::vector<GraphClassifier> shard(slots, model);
  std::vector<ParamRef> master = model.params();
  std::vector<std::vector<ParamRef>> shard_params;
  shard_params.reserve(slots);
  for (GraphClassifier& s : shard) shard_params.push_back(s.params());

  const std::size_t threads =
      std::min(resolve_num_threads(opts.num_threads), slots);
  std::unique_ptr<Executor> exec;
  if (threads > 1) exec = std::make_unique<Executor>(threads, "train");

  std::vector<double> slot_loss(slots, 0.0);
  auto run_slot = [&](std::size_t k, std::size_t data_idx) {
    for (std::size_t p = 0; p < master.size(); ++p) {
      std::copy_n(master[p].value, master[p].size, shard_params[k][p].value);
    }
    shard[k].zero_grad();
    const LabeledGraph& ex = data[data_idx];
    const double w = ex.label == 1 ? opts.pos_weight : 1.0;
    slot_loss[k] = shard[k].train_graph(*ex.graph, ex.label, w);
  };

  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    M3DFL_STAGE(epoch_stage, "train.epoch");
    double merge_seconds = 0.0;
    rng.shuffle(order);
    double epoch_loss = 0.0;
    for (std::size_t b = 0; b < order.size(); b += slots) {
      const std::size_t m = std::min(slots, order.size() - b);
      if (exec) {
        std::vector<std::future<void>> done;
        done.reserve(m);
        for (std::size_t k = 0; k < m; ++k) {
          done.push_back(exec->submit(
              [&run_slot, k, idx = order[b + k]] { run_slot(k, idx); }));
        }
        for (auto& f : done) f.get();  // Propagates slot exceptions.
      } else {
        for (std::size_t k = 0; k < m; ++k) run_slot(k, order[b + k]);
      }
      M3DFL_STAGE(merge_stage, "train.merge");
      for (std::size_t k = 0; k < m; ++k) {
        for (std::size_t p = 0; p < master.size(); ++p) {
          const ParamRef& src = shard_params[k][p];
          float* dst = master[p].grad;
          for (std::size_t j = 0; j < src.size; ++j) dst[j] += src.grad[j];
        }
        epoch_loss += slot_loss[k];
      }
      merge_seconds += merge_stage.stop();
      adam.step();
    }
    stats.epoch_loss.push_back(epoch_loss / static_cast<double>(data.size()));
    stats.epochs_run = epoch + 1;
    const double epoch_seconds = epoch_stage.stop();
    if (opts.on_epoch) {
      opts.on_epoch({epoch, stats.epoch_loss.back(), epoch_seconds,
                     merge_seconds, data.size()});
    }
    if (should_stop(opts, stats.epoch_loss)) break;
  }
  stats.seconds = fit_stage.stop();
  return stats;
}

TrainStats train_node_scorer(NodeScorer& model,
                             std::span<const SubGraph* const> data,
                             const TrainOptions& opts) {
  TrainStats stats;
  if (data.empty()) return stats;
  M3DFL_STAGE(fit_stage, "train.fit");

  Adam adam(model.params(),
            {.lr = opts.lr, .weight_decay = opts.weight_decay});
  Rng rng(opts.seed);
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    M3DFL_STAGE(epoch_stage, "train.epoch");
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t in_batch = 0;
    for (std::size_t i : order) {
      epoch_loss += model.train_graph(*data[i], opts.pos_weight);
      if (++in_batch >= opts.batch_size) {
        adam.step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) adam.step();
    stats.epoch_loss.push_back(epoch_loss / static_cast<double>(data.size()));
    stats.epochs_run = epoch + 1;
    const double epoch_seconds = epoch_stage.stop();
    if (opts.on_epoch) {
      opts.on_epoch(
          {epoch, stats.epoch_loss.back(), epoch_seconds, 0.0, data.size()});
    }
    if (should_stop(opts, stats.epoch_loss)) break;
  }
  stats.seconds = fit_stage.stop();
  return stats;
}

double classifier_accuracy(const GraphClassifier& model,
                           std::span<const LabeledGraph> data) {
  if (data.empty()) return 0.0;
  std::size_t hits = 0;
  for (const LabeledGraph& ex : data) {
    const std::vector<double> p = model.predict(*ex.graph);
    const auto pred =
        std::max_element(p.begin(), p.end()) - p.begin();
    if (static_cast<int>(pred) == ex.label) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(data.size());
}

}  // namespace m3dfl::gnn
