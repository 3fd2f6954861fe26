#include "eval/experiments.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "atpg/coverage.h"
#include "common/rng.h"
#include "core/pr_curve.h"
#include "gnn/explain.h"
#include "gnn/pca.h"
#include "obs/stage.h"

namespace m3dfl::eval {

using core::PolicyOutcome;
using core::QualityAccumulator;
using core::TierLocalizationCounter;
using diag::DiagnosisReport;
using netlist::SiteId;
using netlist::Tier;

const char* inference_mode_name(InferenceMode mode) {
  return mode == InferenceMode::kInt8 ? "int8" : "fp32";
}

bool parse_inference_mode(const std::string& name, InferenceMode& out) {
  if (name == "fp32") {
    out = InferenceMode::kFp32;
    return true;
  }
  if (name == "int8") {
    out = InferenceMode::kInt8;
    return true;
  }
  return false;
}

std::uint64_t QuantizedFramework::fingerprint() const {
  // FNV-1a over the three per-model scale fingerprints, in a fixed order.
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t v : {tier.provenance.scale_fingerprint,
                          miv.provenance.scale_fingerprint,
                          classifier.provenance.scale_fingerprint}) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

RunScale RunScale::tiny() {
  RunScale s;
  s.train_single = 48;
  s.train_random_part = 24;
  s.train_miv = 20;
  s.test_samples = 24;
  s.baseline_train = 32;
  s.tier_epochs = 10;
  s.miv_epochs = 8;
  s.cls_epochs = 6;
  return s;
}

std::vector<gnn::LabeledGraph> TrainingBundle::tier_training() const {
  std::vector<gnn::LabeledGraph> out = tier_labeled(ds_syn1);
  for (const Dataset* ds : {&ds_rand1, &ds_rand2}) {
    const auto more = tier_labeled(*ds);
    out.insert(out.end(), more.begin(), more.end());
  }
  return out;
}

std::vector<const graphx::SubGraph*> TrainingBundle::miv_training() const {
  // MIV-targeted positives plus regular samples as negatives (their MIV
  // nodes are labeled 0), restricted to graphs that contain MIV nodes.
  std::vector<const graphx::SubGraph*> out;
  for (const Dataset* ds : {&miv_syn1, &miv_rand1, &ds_syn1, &ds_rand1}) {
    for (const Sample& s : ds->samples) {
      if (s.sub.num_nodes() > 0 && !s.sub.miv_local.empty()) {
        out.push_back(&s.sub);
      }
    }
  }
  return out;
}

TrainingBundle build_training_bundle(const BenchmarkSpec& spec,
                                     bool compacted, const RunScale& scale) {
  TrainingBundle b;
  b.syn1 = &cached_design(spec, Config::kSyn1);
  b.rand1 = &cached_design(spec, Config::kRandomPart, 1);
  b.rand2 = &cached_design(spec, Config::kRandomPart, 2);

  DatagenOptions o;
  o.compacted = compacted;
  o.mode = FaultMode::kSingleSite;
  o.num_threads = scale.num_threads;
  o.num_samples = scale.train_single;
  o.seed = derive_seed(spec.seed, 1001 + scale.seed);
  b.ds_syn1 = generate_dataset(*b.syn1, o);
  o.num_samples = scale.train_random_part;
  o.seed = derive_seed(spec.seed, 1002 + scale.seed);
  b.ds_rand1 = generate_dataset(*b.rand1, o);
  o.seed = derive_seed(spec.seed, 1003 + scale.seed);
  b.ds_rand2 = generate_dataset(*b.rand2, o);

  o.mode = FaultMode::kSingleMiv;
  o.num_samples = scale.train_miv;
  o.seed = derive_seed(spec.seed, 1004 + scale.seed);
  b.miv_syn1 = generate_dataset(*b.syn1, o);
  o.num_samples = scale.train_miv / 2;
  o.seed = derive_seed(spec.seed, 1005 + scale.seed);
  b.miv_rand1 = generate_dataset(*b.rand1, o);
  return b;
}

TrainedFramework train_framework(const TrainingBundle& bundle,
                                 const RunScale& scale) {
  M3DFL_STAGE(fw_stage, "train.framework");
  TrainedFramework fw;

  // Tags RunScale's model-agnostic hook with which model is training.
  auto tagged = [&scale](const char* model) {
    std::function<void(const gnn::EpochStats&)> fn;
    if (scale.on_epoch) {
      fn = [&scale, model](const gnn::EpochStats& es) {
        scale.on_epoch(model, es);
      };
    }
    return fn;
  };

  // --- Tier-predictor -------------------------------------------------------
  const std::vector<gnn::LabeledGraph> tier_data = bundle.tier_training();
  gnn::TrainOptions topts;
  topts.epochs = scale.tier_epochs;
  topts.lr = 5e-3;
  topts.seed = derive_seed(scale.seed, 7001);
  topts.num_threads = scale.num_threads;
  topts.on_epoch = tagged("tier");
  {
    M3DFL_STAGE(tier_stage, "train.tier");
    fw.tier.train(tier_data, topts);
  }
  fw.train_tier_accuracy = fw.tier.accuracy(tier_data);

  // --- T_p from the training PR curve (precision >= 99%) -------------------
  std::vector<std::pair<double, bool>> pr_samples;
  pr_samples.reserve(tier_data.size());
  for (const gnn::LabeledGraph& ex : tier_data) {
    const auto pred = fw.tier.predict(*ex.graph);
    pr_samples.push_back({pred.confidence(),
                          static_cast<int>(pred.tier()) == ex.label});
  }
  const core::PrCurve curve = core::PrCurve::from_samples(pr_samples);
  fw.policy.t_p = curve.threshold_for_precision(scale.tp_precision_target);

  // --- MIV-pinpointer -------------------------------------------------------
  const std::vector<const graphx::SubGraph*> miv_data = bundle.miv_training();
  gnn::TrainOptions mopts;
  mopts.epochs = scale.miv_epochs;
  mopts.lr = 5e-3;
  mopts.pos_weight = 12.0;  // Faulty MIVs are rare among MIV nodes.
  mopts.seed = derive_seed(scale.seed, 7002);
  mopts.num_threads = scale.num_threads;
  mopts.on_epoch = tagged("miv");
  {
    M3DFL_STAGE(miv_stage, "train.miv");
    fw.miv.train(miv_data, mopts);
  }

  // --- Prune/reorder Classifier (network-based transfer) -------------------
  fw.classifier = core::PruneClassifier::transfer_from(
      fw.tier, derive_seed(scale.seed, 7003));
  std::vector<const graphx::SubGraph*> cls_graphs;
  std::vector<int> cls_labels;
  for (const gnn::LabeledGraph& ex : tier_data) {
    const auto pred = fw.tier.predict(*ex.graph);
    if (pred.confidence() < fw.policy.t_p) continue;  // Predicted Negative.
    cls_graphs.push_back(ex.graph);
    cls_labels.push_back(static_cast<int>(pred.tier()) == ex.label
                             ? core::PruneClassifier::kPrune
                             : core::PruneClassifier::kReorder);
  }
  gnn::TrainOptions copts;
  copts.epochs = scale.cls_epochs;
  copts.lr = 5e-3;
  copts.seed = derive_seed(scale.seed, 7004);
  copts.num_threads = scale.num_threads;
  copts.on_epoch = tagged("classifier");
  {
    M3DFL_STAGE(classifier_stage, "train.classifier");
    fw.classifier.train_balanced(cls_graphs, cls_labels, copts,
                                 derive_seed(scale.seed, 7005));
  }

  fw.gnn_train_seconds = fw_stage.stop();
  return fw;
}

namespace {

Cell cell_from(const QualityAccumulator& q,
               const TierLocalizationCounter* loc) {
  const core::QualityStats s = q.stats();
  Cell c;
  c.accuracy = s.accuracy;
  c.mean_res = s.mean_resolution;
  c.std_res = s.std_resolution;
  c.mean_fhi = s.mean_fhi;
  c.std_fhi = s.std_fhi;
  if (loc) c.tier_loc = loc->rate();
  return c;
}

/// Trains the [11] first-level classifier on diagnosed Syn-1 samples.
diag::BaselineModel train_baseline_on(const Design& design,
                                      const Dataset& train_ds,
                                      std::size_t max_reports) {
  diag::Diagnoser diagnoser = design.make_diagnoser();
  std::vector<DiagnosisReport> reports;
  std::vector<diag::BaselineTrainingSample> samples;
  const std::size_t n = std::min(max_reports, train_ds.samples.size());
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reports.push_back(diagnoser.diagnose(train_ds.samples[i].log));
  }
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back({&reports[i], train_ds.samples[i].truth_sites});
  }
  return diag::train_baseline(samples, design.nl, design.sites);
}

}  // namespace

std::vector<AtpgQualityRow> run_atpg_quality(const BenchmarkSpec& spec,
                                             bool compacted,
                                             const RunScale& scale) {
  std::vector<AtpgQualityRow> rows;
  for (Config config : eval_configs()) {
    const Design* design = &cached_design(spec, config);
    DatagenOptions o;
    o.compacted = compacted;
    o.num_samples = scale.test_samples;
    o.seed = derive_seed(spec.seed, 2001 + static_cast<std::uint64_t>(config));
    const Dataset test = generate_dataset(*design, o);
    diag::Diagnoser diagnoser = design->make_diagnoser();
    QualityAccumulator acc;
    for (const Sample& s : test.samples) {
      acc.add(diagnoser.diagnose(s.log), s.truth_sites);
    }
    rows.push_back({spec.name, config_name(config), cell_from(acc, nullptr)});
  }
  return rows;
}

std::vector<EffectivenessRow> run_effectiveness(const BenchmarkSpec& spec,
                                                bool compacted,
                                                const RunScale& scale) {
  const TrainingBundle bundle = build_training_bundle(spec, compacted, scale);
  const TrainedFramework fw = train_framework(bundle, scale);
  const diag::BaselineModel bmodel =
      train_baseline_on(*bundle.syn1, bundle.ds_syn1, scale.baseline_train);

  std::vector<EffectivenessRow> rows;
  for (Config config : eval_configs()) {
    const Design* design = &cached_design(spec, config);

    DatagenOptions o;
    o.compacted = compacted;
    o.num_samples = scale.test_samples;
    o.seed = derive_seed(spec.seed, 2001 + static_cast<std::uint64_t>(config));
    const Dataset test = generate_dataset(*design, o);

    diag::Diagnoser diagnoser = design->make_diagnoser();
    QualityAccumulator acc_atpg, acc_base, acc_gnn, acc_plus;
    TierLocalizationCounter loc_base, loc_gnn;

    for (const Sample& s : test.samples) {
      const DiagnosisReport report = diagnoser.diagnose(s.log);
      const bool atpg_single = report.single_tier();
      const auto fault_tier = static_cast<Tier>(s.fault_tier);

      acc_atpg.add(report, s.truth_sites);

      const DiagnosisReport brep =
          diag::apply_baseline(report, bmodel, design->nl, design->sites);
      acc_base.add(brep, s.truth_sites);
      Tier btier = Tier::kBottom;
      loc_base.add(atpg_single,
                   brep.single_tier(&btier) && btier == fault_tier);

      const PolicyOutcome outcome =
          core::apply_policy(report, s.sub, fw.models(), fw.policy);
      acc_gnn.add(outcome.report, s.truth_sites);
      loc_gnn.add(atpg_single, outcome.predicted_tier == fault_tier);

      const DiagnosisReport prep = diag::apply_baseline(
          outcome.report, bmodel, design->nl, design->sites);
      acc_plus.add(prep, s.truth_sites);
    }

    EffectivenessRow row;
    row.design = spec.name;
    row.config = config_name(config);
    row.atpg = cell_from(acc_atpg, nullptr);
    row.baseline = cell_from(acc_base, &loc_base);
    row.gnn = cell_from(acc_gnn, &loc_gnn);
    row.gnn_plus = cell_from(acc_plus, &loc_gnn);
    rows.push_back(row);
  }
  return rows;
}

std::vector<Fig6Row> run_fig6(const BenchmarkSpec& spec,
                              const RunScale& scale) {
  const TrainingBundle bundle = build_training_bundle(spec, false, scale);
  const TrainedFramework transferred = train_framework(bundle, scale);

  std::vector<Fig6Row> rows;
  for (Config config : eval_configs()) {
    const Design* design = &cached_design(spec, config);

    // Dedicated models: trained on this configuration's own samples.
    DatagenOptions o;
    o.num_samples = scale.train_single;
    o.seed = derive_seed(spec.seed, 3001 + static_cast<std::uint64_t>(config));
    const Dataset ded_train = generate_dataset(*design, o);
    o.mode = FaultMode::kSingleMiv;
    o.num_samples = scale.train_miv;
    o.seed = derive_seed(spec.seed, 3002 + static_cast<std::uint64_t>(config));
    const Dataset ded_miv = generate_dataset(*design, o);

    core::TierPredictor ded_tier(derive_seed(spec.seed, 3100));
    gnn::TrainOptions topts;
    topts.epochs = scale.tier_epochs;
    topts.lr = 5e-3;
    topts.seed = derive_seed(spec.seed, 3101);
    const auto ded_tier_data = tier_labeled(ded_train);
    ded_tier.train(ded_tier_data, topts);

    core::MivPinpointer ded_pin(derive_seed(spec.seed, 3200));
    std::vector<const graphx::SubGraph*> ded_miv_data;
    for (const Dataset* ds : {&ded_miv, &ded_train}) {
      for (const Sample& s : ds->samples) {
        if (s.sub.num_nodes() > 0 && !s.sub.miv_local.empty()) {
          ded_miv_data.push_back(&s.sub);
        }
      }
    }
    gnn::TrainOptions mopts;
    mopts.epochs = scale.miv_epochs;
    mopts.lr = 5e-3;
    mopts.pos_weight = 12.0;
    mopts.seed = derive_seed(spec.seed, 3201);
    ded_pin.train(ded_miv_data, mopts);

    // Test sets for this configuration (fresh seeds).
    o.mode = FaultMode::kSingleSite;
    o.num_samples = scale.test_samples;
    o.seed = derive_seed(spec.seed, 3003 + static_cast<std::uint64_t>(config));
    const Dataset test = generate_dataset(*design, o);
    o.mode = FaultMode::kSingleMiv;
    o.num_samples = std::max<std::size_t>(10, scale.test_samples / 2);
    o.seed = derive_seed(spec.seed, 3004 + static_cast<std::uint64_t>(config));
    const Dataset miv_test = generate_dataset(*design, o);

    const auto tier_test = tier_labeled(test);
    const auto miv_graphs = graphs_of(miv_test);

    Fig6Row row;
    row.config = config_name(config);
    row.dedicated_tier = ded_tier.accuracy(tier_test);
    row.transferred_tier = transferred.tier.accuracy(tier_test);
    row.dedicated_miv = ded_pin.top1_accuracy(miv_graphs);
    row.transferred_miv = transferred.miv.top1_accuracy(miv_graphs);
    rows.push_back(row);
  }
  return rows;
}

Fig5Result run_fig5(const BenchmarkSpec& spec, const RunScale& scale) {
  struct Tagged {
    std::string config;
    std::vector<double> vec;
  };
  std::vector<Tagged> tagged;
  for (Config config : eval_configs()) {
    const Design* design = &cached_design(spec, config);
    DatagenOptions o;
    o.num_samples = scale.test_samples;
    o.seed = derive_seed(spec.seed, 4001 + static_cast<std::uint64_t>(config));
    const Dataset ds = generate_dataset(*design, o);
    for (const Sample& s : ds.samples) {
      if (s.sub.num_nodes() == 0) continue;
      tagged.push_back({config_name(config), s.sub.feature_mean()});
    }
  }

  std::vector<std::vector<double>> vectors;
  vectors.reserve(tagged.size());
  for (const Tagged& t : tagged) vectors.push_back(t.vec);
  const gnn::PcaResult pca = gnn::fit_pca(vectors, 2);

  Fig5Result result;
  result.explained_variance = pca.explained_variance_ratio();
  for (const Tagged& t : tagged) {
    const auto p = pca.project2(t.vec);
    result.points.push_back({t.config, p[0], p[1]});
  }

  // Separation ratio: centroid scatter vs intra-config spread.
  struct Acc {
    double sx = 0, sy = 0, n = 0;
  };
  std::vector<std::string> names;
  std::vector<Acc> accs;
  auto idx_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    names.push_back(name);
    accs.push_back({});
    return names.size() - 1;
  };
  for (const Fig5Point& p : result.points) {
    Acc& a = accs[idx_of(p.config)];
    a.sx += p.x;
    a.sy += p.y;
    a.n += 1;
  }
  std::vector<std::pair<double, double>> centroids(accs.size());
  for (std::size_t i = 0; i < accs.size(); ++i) {
    centroids[i] = {accs[i].sx / accs[i].n, accs[i].sy / accs[i].n};
  }
  std::vector<double> spread(accs.size(), 0.0);
  for (const Fig5Point& p : result.points) {
    const std::size_t i = idx_of(p.config);
    const double dx = p.x - centroids[i].first;
    const double dy = p.y - centroids[i].second;
    spread[i] += dx * dx + dy * dy;
  }
  double mean_spread = 0.0;
  for (std::size_t i = 0; i < accs.size(); ++i) {
    mean_spread += std::sqrt(spread[i] / accs[i].n);
  }
  mean_spread /= static_cast<double>(accs.size());
  double centroid_dist = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    for (std::size_t j = i + 1; j < centroids.size(); ++j) {
      const double dx = centroids[i].first - centroids[j].first;
      const double dy = centroids[i].second - centroids[j].second;
      centroid_dist += std::sqrt(dx * dx + dy * dy);
      ++pairs;
    }
  }
  if (pairs) centroid_dist /= static_cast<double>(pairs);
  result.separation_ratio =
      mean_spread > 0 ? centroid_dist / mean_spread : 0.0;
  return result;
}

FeatureSignificanceResult run_feature_significance(const BenchmarkSpec& spec,
                                                   const RunScale& scale) {
  const TrainingBundle bundle = build_training_bundle(spec, false, scale);
  TrainedFramework fw = train_framework(bundle, scale);
  const std::vector<gnn::LabeledGraph> data = bundle.tier_training();
  FeatureSignificanceResult r;
  r.significance = gnn::explain_feature_significance(fw.tier.model(), data);
  r.perm_importance = gnn::permutation_importance(fw.tier.model(), data);
  return r;
}

std::vector<DesignMatrixRow> run_design_matrix() {
  std::vector<DesignMatrixRow> rows;
  for (const BenchmarkSpec& spec : all_benchmark_specs()) {
    const Design* d = &cached_design(spec, Config::kSyn1);
    DesignMatrixRow row;
    row.design = spec.name;
    row.gates = d->nl.num_logic_gates();
    row.mivs = d->nl.num_mivs();
    row.scan_chains = d->scan.num_chains;
    row.channels = d->scan.num_channels;
    row.chain_length = d->scan.chain_length;
    row.patterns = d->patterns.num_patterns();
    row.fault_sites = d->sites.size();
    row.fault_coverage = d->atpg_coverage;
    row.test_coverage = d->test_coverage;
    rows.push_back(row);
  }
  return rows;
}

std::vector<RuntimeRow> run_runtime(const RunScale& scale) {
  std::vector<RuntimeRow> rows;
  for (const BenchmarkSpec& spec : all_benchmark_specs()) {
    const TrainingBundle bundle = build_training_bundle(spec, false, scale);
    const TrainedFramework fw = train_framework(bundle, scale);

    const Design* design = &cached_design(spec, Config::kSyn2);
    DatagenOptions o;
    o.num_samples = scale.test_samples;
    o.seed = derive_seed(spec.seed, 6001);
    const Dataset test = generate_dataset(*design, o);
    diag::Diagnoser diagnoser = design->make_diagnoser();

    RuntimeRow row;
    row.design = spec.name;
    row.feature_seconds = design->graph_build_seconds +
                          bundle.syn1->graph_build_seconds +
                          bundle.rand1->graph_build_seconds +
                          bundle.rand2->graph_build_seconds;
    row.train_seconds = fw.gnn_train_seconds;

    QualityAccumulator acc_atpg, acc_updated;
    for (const Sample& s : test.samples) {
      const DiagnosisReport report = diagnoser.diagnose(s.log);
      row.t_atpg += report.seconds;
      acc_atpg.add(report, s.truth_sites);

      // T_GNN: back-trace + all three model inferences.
      M3DFL_STAGE(gnn_stage, "eval.t_gnn");
      const graphx::SubGraph sub =
          graphx::backtrace_subgraph(*design->graph, s.log, design->scan);
      (void)fw.tier.predict(sub);
      (void)fw.miv.scores(sub);
      (void)fw.classifier.prune_probability(sub);
      row.t_gnn += gnn_stage.stop();

      const PolicyOutcome outcome =
          core::apply_policy(report, s.sub, fw.models(), fw.policy);
      row.t_update += outcome.seconds;
      acc_updated.add(outcome.report, s.truth_sites);
    }
    row.fhi_atpg = acc_atpg.stats().mean_fhi;
    row.fhi_updated = acc_updated.stats().mean_fhi;
    rows.push_back(row);
  }
  return rows;
}

std::vector<MultiFaultRow> run_multifault(const BenchmarkSpec& spec,
                                          const RunScale& scale) {
  // Training: Syn-1 multi-fault samples (paper Sec. VII-A).
  const Design* syn1p = &cached_design(spec, Config::kSyn1);
  DatagenOptions o;
  o.mode = FaultMode::kMultiSameTier;
  o.num_samples = scale.train_single;
  o.seed = derive_seed(spec.seed, 8001);
  const Dataset train = generate_dataset(*syn1p, o);
  o.mode = FaultMode::kSingleMiv;
  o.num_samples = scale.train_miv;
  o.seed = derive_seed(spec.seed, 8002);
  const Dataset miv_train = generate_dataset(*syn1p, o);

  TrainedFramework fw;
  {
    gnn::TrainOptions topts;
    topts.epochs = scale.tier_epochs;
    topts.lr = 5e-3;
    topts.seed = derive_seed(spec.seed, 8101);
    const auto tier_data = tier_labeled(train);
    fw.tier.train(tier_data, topts);
    std::vector<std::pair<double, bool>> pr;
    for (const gnn::LabeledGraph& ex : tier_data) {
      const auto p = fw.tier.predict(*ex.graph);
      pr.push_back({p.confidence(), static_cast<int>(p.tier()) == ex.label});
    }
    fw.policy.t_p =
        core::PrCurve::from_samples(pr).threshold_for_precision(0.99);

    std::vector<const graphx::SubGraph*> miv_data;
    for (const Dataset* ds : {&miv_train, &train}) {
      for (const Sample& s : ds->samples) {
        if (s.sub.num_nodes() > 0 && !s.sub.miv_local.empty()) {
          miv_data.push_back(&s.sub);
        }
      }
    }
    gnn::TrainOptions mopts;
    mopts.epochs = scale.miv_epochs;
    mopts.pos_weight = 12.0;
    mopts.seed = derive_seed(spec.seed, 8102);
    fw.miv.train(miv_data, mopts);

    fw.classifier = core::PruneClassifier::transfer_from(
        fw.tier, derive_seed(spec.seed, 8103));
    std::vector<const graphx::SubGraph*> cls_graphs;
    std::vector<int> cls_labels;
    for (const gnn::LabeledGraph& ex : tier_data) {
      const auto p = fw.tier.predict(*ex.graph);
      if (p.confidence() < fw.policy.t_p) continue;
      cls_graphs.push_back(ex.graph);
      cls_labels.push_back(static_cast<int>(p.tier()) == ex.label
                               ? core::PruneClassifier::kPrune
                               : core::PruneClassifier::kReorder);
    }
    gnn::TrainOptions copts;
    copts.epochs = scale.cls_epochs;
    copts.seed = derive_seed(spec.seed, 8104);
    fw.classifier.train_balanced(cls_graphs, cls_labels, copts,
                                 derive_seed(spec.seed, 8105));
  }

  // Test: Syn-2 multi-fault samples, multi-fault diagnosis.
  const Design* syn2 = &cached_design(spec, Config::kSyn2);
  o.mode = FaultMode::kMultiSameTier;
  o.num_samples = scale.test_samples;
  o.seed = derive_seed(spec.seed, 8003);
  const Dataset test = generate_dataset(*syn2, o);
  diag::Diagnoser diagnoser = syn2->make_diagnoser(/*multifault=*/true);

  QualityAccumulator acc_atpg(/*multifault=*/true);
  QualityAccumulator acc_fw(/*multifault=*/true);
  std::size_t tier_hits = 0;
  for (const Sample& s : test.samples) {
    const DiagnosisReport report = diagnoser.diagnose(s.log);
    acc_atpg.add(report, s.truth_sites);
    const PolicyOutcome outcome =
        core::apply_policy(report, s.sub, fw.models(), fw.policy);
    acc_fw.add(outcome.report, s.truth_sites);
    if (static_cast<int>(outcome.predicted_tier) == s.fault_tier) {
      ++tier_hits;
    }
  }
  MultiFaultRow row;
  row.design = spec.name;
  row.atpg = cell_from(acc_atpg, nullptr);
  row.framework = cell_from(acc_fw, nullptr);
  row.framework.tier_loc =
      test.samples.empty()
          ? 0.0
          : static_cast<double>(tier_hits) / test.samples.size();
  return {row};
}

std::vector<AblationRow> run_ablation(const BenchmarkSpec& spec,
                                      const RunScale& scale) {
  const TrainingBundle bundle = build_training_bundle(spec, false, scale);
  const TrainedFramework fw = train_framework(bundle, scale);
  const Design& design = *bundle.syn1;

  // Test set: single-site faults + 10% MIV-only faults (paper Sec. VII-B).
  DatagenOptions o;
  o.num_samples = scale.test_samples;
  o.seed = derive_seed(spec.seed, 9001);
  Dataset test = generate_dataset(design, o);
  o.mode = FaultMode::kSingleMiv;
  o.num_samples = std::max<std::size_t>(2, scale.test_samples / 10);
  o.seed = derive_seed(spec.seed, 9002);
  const Dataset miv_extra = generate_dataset(design, o);
  for (const Sample& s : miv_extra.samples) test.samples.push_back(s);

  diag::Diagnoser diagnoser = design.make_diagnoser();

  struct Mode {
    const char* name;
    bool use_tier;
    bool use_miv;
  };
  const Mode modes[] = {
      {"ATPG only", false, false},
      {"Tier-predictor", true, false},
      {"MIV-pinpointer", false, true},
      {"Tier-predictor + MIV-pinpointer", true, true},
  };

  // Pre-diagnose once; policies reuse the reports.
  std::vector<DiagnosisReport> reports;
  reports.reserve(test.samples.size());
  for (const Sample& s : test.samples) {
    reports.push_back(diagnoser.diagnose(s.log));
  }

  std::vector<AblationRow> rows;
  for (const Mode& mode : modes) {
    QualityAccumulator acc;
    for (std::size_t i = 0; i < test.samples.size(); ++i) {
      const Sample& s = test.samples[i];
      if (!mode.use_tier && !mode.use_miv) {
        acc.add(reports[i], s.truth_sites);
        continue;
      }
      core::PolicyConfig cfg = fw.policy;
      cfg.use_tier_predictor = mode.use_tier;
      cfg.use_miv_pinpointer = mode.use_miv;
      const PolicyOutcome outcome =
          core::apply_policy(reports[i], s.sub, fw.models(), cfg);
      acc.add(outcome.report, s.truth_sites);
    }
    rows.push_back({mode.name, cell_from(acc, nullptr)});
  }
  return rows;
}

}  // namespace m3dfl::eval
