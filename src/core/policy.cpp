#include "core/policy.h"

#include <algorithm>
#include <cassert>

#include "obs/stage.h"

namespace m3dfl::core {

using netlist::Tier;

PolicyOutcome apply_policy(const DiagnosisReport& report, const SubGraph& sub,
                           const PolicyModels& models,
                           const PolicyConfig& config) {
  M3DFL_STAGE(stage, "core.policy");
  PolicyOutcome out;
  out.report.seconds = report.seconds;

  // Step 1: MIV prioritization. Candidates matching a predicted-faulty MIV
  // go to the top of the list and can never be pruned afterwards.
  if (config.use_miv_pinpointer && models.miv_q != nullptr) {
    M3DFL_STAGE(miv_stage, "gnn.miv");
    out.predicted_mivs = select_faulty_mivs(
        sub, models.miv_q->predict_miv(sub), config.miv_threshold, 3);
  } else if (config.use_miv_pinpointer && models.miv != nullptr) {
    M3DFL_STAGE(miv_stage, "gnn.miv");
    out.predicted_mivs =
        models.miv->predict_faulty_mivs(sub, config.miv_threshold);
  }
  auto is_predicted_miv = [&out](const Candidate& c) {
    return std::find(out.predicted_mivs.begin(), out.predicted_mivs.end(),
                     c.site) != out.predicted_mivs.end();
  };

  std::vector<Candidate> miv_first;
  std::vector<Candidate> rest;
  for (const Candidate& c : report.candidates) {
    (is_predicted_miv(c) ? miv_first : rest).push_back(c);
  }

  if (!config.use_tier_predictor ||
      (models.tier == nullptr && models.tier_q == nullptr)) {
    // MIV-pinpointer standalone (Table XI): only the prioritization step.
    out.report.candidates = std::move(miv_first);
    out.report.candidates.insert(out.report.candidates.end(), rest.begin(),
                                 rest.end());
    out.seconds = stage.stop();
    return out;
  }

  // Step 2: tier prediction and confidence.
  TierPredictor::Prediction pred;
  {
    M3DFL_STAGE(tier_stage, "gnn.tier");
    if (models.tier_q != nullptr) {
      const std::vector<double> p = models.tier_q->predict(sub);
      pred.p_bottom = p[TierPredictor::label_of(Tier::kBottom)];
      pred.p_top = p[TierPredictor::label_of(Tier::kTop)];
    } else {
      pred = models.tier->predict(sub);
    }
  }
  out.predicted_tier = pred.tier();
  out.confidence = pred.confidence();
  out.high_confidence = out.confidence >= config.t_p;

  bool do_prune = false;
  if (out.high_confidence) {
    if (config.use_classifier && models.classifier_q != nullptr) {
      M3DFL_STAGE(classifier_stage, "gnn.classifier");
      do_prune =
          models.classifier_q->predict(sub)[PruneClassifier::kPrune] >=
          config.classifier_threshold;
    } else if (config.use_classifier && models.classifier != nullptr) {
      M3DFL_STAGE(classifier_stage, "gnn.classifier");
      do_prune = models.classifier->should_prune(
          sub, config.classifier_threshold);
    } else {
      do_prune = true;
    }
  }

  // Step 3: prune or reorder `rest` by the predicted faulty tier. A
  // near-chance tier call (confidence below the reordering floor) leaves
  // the ATPG ranking untouched.
  if (!do_prune && out.confidence < config.reorder_floor) {
    out.report.candidates = std::move(miv_first);
    out.report.candidates.insert(out.report.candidates.end(), rest.begin(),
                                 rest.end());
    out.seconds = stage.stop();
    return out;
  }
  std::vector<Candidate> faulty_tier, other_tier;
  for (const Candidate& c : rest) {
    (c.tier == out.predicted_tier ? faulty_tier : other_tier).push_back(c);
  }

  out.report.candidates = std::move(miv_first);
  out.report.candidates.insert(out.report.candidates.end(),
                               faulty_tier.begin(), faulty_tier.end());
  if (do_prune && !(out.report.candidates.empty() && other_tier.empty())) {
    if (out.report.candidates.empty()) {
      // Pruning would empty the report; degrade to reordering.
      out.report.candidates.insert(out.report.candidates.end(),
                                   other_tier.begin(), other_tier.end());
    } else {
      out.pruned = true;
      out.backup = std::move(other_tier);
    }
  } else {
    out.report.candidates.insert(out.report.candidates.end(),
                                 other_tier.begin(), other_tier.end());
  }

  out.seconds = stage.stop();
  return out;
}

}  // namespace m3dfl::core
