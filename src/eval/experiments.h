#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/policy.h"
#include "diagnosis/baseline.h"
#include "eval/datagen.h"

namespace m3dfl::eval {

/// Dataset-size and training knobs shared by the experiment drivers. The
/// defaults reproduce the paper's tables at library scale (see DESIGN.md);
/// tiny() shrinks everything for fast integration tests.
struct RunScale {
  std::size_t train_single = 300;      ///< Syn-1 single-fault samples.
  std::size_t train_random_part = 130; ///< Per random-partition design.
  std::size_t train_miv = 90;          ///< MIV-targeted training samples.
  std::size_t test_samples = 150;      ///< Per configuration.
  std::size_t baseline_train = 150;    ///< Diagnosed reports for [11].
  int tier_epochs = 48;
  int miv_epochs = 32;
  int cls_epochs = 24;
  /// Precision target on the training PR curve that defines T_p. The
  /// paper uses 0.99; because the prune/reorder Classifier provides a
  /// second safety net on Predicted-Positive samples, a slightly looser
  /// gate trades a fraction of a percent of accuracy for substantially
  /// more pruning opportunity.
  double tp_precision_target = 0.99;
  std::uint64_t seed = 1;
  /// Worker threads for dataset generation and training inside
  /// train_framework / build_training_bundle (0 = hardware concurrency).
  /// Outputs are bit-identical at every value — this is a speed knob only.
  std::size_t num_threads = 0;
  /// Per-epoch progress hook for every model train_framework runs; `model`
  /// is "tier", "miv" or "classifier". Observational only (the CLI wires
  /// it to --progress); leaving it empty changes nothing.
  std::function<void(const std::string& model, const gnn::EpochStats&)>
      on_epoch;

  static RunScale tiny();
};

/// Which forward pass the diagnosis policy runs its models through.
enum class InferenceMode { kFp32, kInt8 };

const char* inference_mode_name(InferenceMode mode);
bool parse_inference_mode(const std::string& name, InferenceMode& out);

/// The int8 twin of a trained framework: calibrated quantized versions of
/// the three GNN models plus a policy whose thresholds (T_p in particular)
/// were re-derived by re-running the PR-curve selection on *quantized*
/// scores — a threshold tuned on fp32 confidences would silently shift its
/// operating point on the int8 score distribution.
struct QuantizedFramework {
  gnn::QuantizedGraphClassifier tier;
  gnn::QuantizedNodeScorer miv;
  gnn::QuantizedGraphClassifier classifier;
  core::PolicyConfig policy;

  /// Calibration-set size (the three models are calibrated together).
  std::size_t calib_graphs() const { return tier.provenance.calib_graphs; }
  /// Combined scale fingerprint over all three models — what /statusz
  /// reports as the calibration identity of a serving process.
  std::uint64_t fingerprint() const;
};

/// A trained instance of the proposed framework (all three GNN models plus
/// the PR-curve-derived policy configuration).
struct TrainedFramework {
  core::TierPredictor tier;
  core::MivPinpointer miv;
  core::PruneClassifier classifier;
  core::PolicyConfig policy;
  double gnn_train_seconds = 0.0;
  double train_tier_accuracy = 0.0;

  /// Optional calibrated int8 twin (produced by eval::quantize_framework,
  /// persisted through framework_io). shared_ptr so a framework value can
  /// be copied into the serving registry without duplicating the blobs;
  /// const because a published twin is immutable.
  std::shared_ptr<const QuantizedFramework> quant;

  core::PolicyModels models() const {
    return {&tier, &miv, &classifier};
  }

  /// Models for the requested inference mode. kInt8 without a quantized
  /// twin degrades to the fp32 models (callers that need to distinguish
  /// check `quant` first — the serving layer counts such fallbacks).
  core::PolicyModels models(InferenceMode mode) const {
    core::PolicyModels m{&tier, &miv, &classifier};
    if (mode == InferenceMode::kInt8 && quant) {
      m.tier_q = &quant->tier;
      m.miv_q = &quant->miv;
      m.classifier_q = &quant->classifier;
    }
    return m;
  }

  /// Policy thresholds matching models(mode) — the quantized twin carries
  /// its own T_p, selected on quantized scores.
  const core::PolicyConfig& policy_for(InferenceMode mode) const {
    return mode == InferenceMode::kInt8 && quant ? quant->policy : policy;
  }
};

/// Training designs + datasets: Syn-1 plus two randomly partitioned
/// netlists (the paper's data-augmentation recipe, Sec. IV), with both
/// single-fault and MIV-targeted samples.
struct TrainingBundle {
  /// Cache-owned designs (see cached_design); valid for process lifetime.
  Design* syn1 = nullptr;
  Design* rand1 = nullptr;
  Design* rand2 = nullptr;
  Dataset ds_syn1, ds_rand1, ds_rand2;  ///< Single-fault samples.
  Dataset miv_syn1, miv_rand1;          ///< MIV-targeted samples.

  std::vector<gnn::LabeledGraph> tier_training() const;
  std::vector<const graphx::SubGraph*> miv_training() const;
};

TrainingBundle build_training_bundle(const BenchmarkSpec& spec,
                                     bool compacted, const RunScale& scale);

/// Trains Tier-predictor, MIV-pinpointer and (via transfer + oversampling)
/// the prune/reorder Classifier; derives T_p from the training PR curve at
/// >= 99% precision.
TrainedFramework train_framework(const TrainingBundle& bundle,
                                 const RunScale& scale);

/// One table cell: report quality + optional tier-localization rate.
struct Cell {
  double accuracy = 0.0;
  double mean_res = 0.0, std_res = 0.0;
  double mean_fhi = 0.0, std_fhi = 0.0;
  double tier_loc = -1.0;  ///< -1 when not applicable.
};

/// One row of Tables V-VIII: a (benchmark, configuration) pair evaluated
/// under plain ATPG diagnosis, the 2D baseline [11], the GNN framework
/// standalone, and GNN + [11] combined.
struct EffectivenessRow {
  std::string design;
  std::string config;
  Cell atpg;      ///< Tables V / VII.
  Cell baseline;  ///< [11] columns of Tables VI / VIII.
  Cell gnn;       ///< "GNN standalone" columns.
  Cell gnn_plus;  ///< "GNN + [11]" columns.
};

/// Full effectiveness study for one benchmark (all four configurations).
/// Used by bench_table6 (compacted = false) and bench_table8 (true).
std::vector<EffectivenessRow> run_effectiveness(const BenchmarkSpec& spec,
                                                bool compacted,
                                                const RunScale& scale);

/// ATPG-report quality only (Tables V / VII) — much cheaper, no training.
struct AtpgQualityRow {
  std::string design;
  std::string config;
  Cell atpg;
};
std::vector<AtpgQualityRow> run_atpg_quality(const BenchmarkSpec& spec,
                                             bool compacted,
                                             const RunScale& scale);

/// Fig. 6: dedicated vs transferred model accuracy per configuration.
struct Fig6Row {
  std::string config;
  double dedicated_tier = 0.0;
  double transferred_tier = 0.0;
  double dedicated_miv = 0.0;
  double transferred_miv = 0.0;
};
std::vector<Fig6Row> run_fig6(const BenchmarkSpec& spec,
                              const RunScale& scale);

/// Fig. 5: PCA of sub-graph feature vectors across configurations.
struct Fig5Point {
  std::string config;
  double x = 0.0, y = 0.0;
};
struct Fig5Result {
  std::vector<Fig5Point> points;
  /// Mean distance between configuration centroids divided by the mean
  /// intra-configuration spread; << 1 means the clouds overlap (the
  /// paper's transferability argument).
  double separation_ratio = 0.0;
  double explained_variance = 0.0;
};
Fig5Result run_fig5(const BenchmarkSpec& spec, const RunScale& scale);

/// Table II: GNNExplainer-style feature significance (+ permutation
/// importance as a cross-check).
struct FeatureSignificanceResult {
  std::vector<double> significance;     ///< sigma(mask), per feature.
  std::vector<double> perm_importance;  ///< Accuracy drop, per feature.
};
FeatureSignificanceResult run_feature_significance(const BenchmarkSpec& spec,
                                                   const RunScale& scale);

/// Table III: the design matrix (+ measured TDF coverage).
struct DesignMatrixRow {
  std::string design;
  std::size_t gates = 0;
  std::size_t mivs = 0;
  std::size_t scan_chains = 0;
  std::size_t channels = 0;
  std::size_t chain_length = 0;
  std::size_t patterns = 0;
  std::size_t fault_sites = 0;
  double fault_coverage = 0.0;  ///< Raw coverage over all faults.
  double test_coverage = 0.0;   ///< Coverage over testable faults (FC as a
                                ///< commercial tool reports it).
};
std::vector<DesignMatrixRow> run_design_matrix();

/// Table IX + Fig. 10: runtime decomposition per benchmark (Syn-2 test
/// configuration, as in the paper).
struct RuntimeRow {
  std::string design;
  double feature_seconds = 0.0;  ///< Heterogeneous-graph construction.
  double train_seconds = 0.0;    ///< GNN training.
  double t_atpg = 0.0;           ///< Total ATPG diagnosis time (test set).
  double t_gnn = 0.0;            ///< Total back-trace + inference time.
  double t_update = 0.0;         ///< Total pruning/reordering time.
  double fhi_atpg = 0.0;         ///< Mean FHI before updating.
  double fhi_updated = 0.0;      ///< Mean FHI after updating.
};
std::vector<RuntimeRow> run_runtime(const RunScale& scale);

/// Table X: multi-fault (2-5 TDFs in one tier) localization; trained on
/// Syn-1 multi-fault samples, tested on Syn-2.
struct MultiFaultRow {
  std::string design;
  Cell atpg;
  Cell framework;
};
std::vector<MultiFaultRow> run_multifault(const BenchmarkSpec& spec,
                                          const RunScale& scale);

/// Table XI: ablation of the individual models on AES / Syn-1 with the
/// test set augmented by 10% MIV-fault-only samples.
struct AblationRow {
  std::string method;
  Cell cell;
};
std::vector<AblationRow> run_ablation(const BenchmarkSpec& spec,
                                      const RunScale& scale);

}  // namespace m3dfl::eval
