#include "eval/datagen.h"

#include <algorithm>
#include <cassert>
#include <future>

#include "common/executor.h"
#include "common/rng.h"
#include "compress/compactor.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "sim/sim_pool.h"

namespace m3dfl::eval {

using netlist::SiteId;
using netlist::Tier;
using sim::FaultPolarity;
using sim::InjectedFault;

namespace {

FaultPolarity random_polarity(Rng& rng) {
  return rng.bernoulli(0.5) ? FaultPolarity::kSlowToRise
                            : FaultPolarity::kSlowToFall;
}

/// Draws the fault set for one sample according to the mode.
std::vector<InjectedFault> draw_faults(const Design& d, FaultMode mode,
                                       Rng& rng) {
  std::vector<InjectedFault> faults;
  switch (mode) {
    case FaultMode::kSingleSite: {
      const auto site =
          static_cast<SiteId>(rng.next_below(d.sites.size()));
      faults.push_back({site, random_polarity(rng)});
      break;
    }
    case FaultMode::kSingleMiv: {
      const std::vector<SiteId> mivs = d.sites.miv_sites(d.nl);
      if (mivs.empty()) break;
      faults.push_back({mivs[rng.pick_index(mivs)], random_polarity(rng)});
      break;
    }
    case FaultMode::kMultiSameTier: {
      const Tier tier = rng.bernoulli(0.5) ? Tier::kTop : Tier::kBottom;
      const int k = static_cast<int>(rng.uniform_int(2, 5));
      // Rejection-sample sites from the chosen tier (non-MIV, so the
      // defects are unambiguously tier-resident).
      int guard = 0;
      while (static_cast<int>(faults.size()) < k && guard < 2000) {
        ++guard;
        const auto site =
            static_cast<SiteId>(rng.next_below(d.sites.size()));
        if (d.sites.tier_of(site, d.nl) != tier) continue;
        if (d.sites.is_miv_site(site, d.nl)) continue;
        const bool dup = std::any_of(
            faults.begin(), faults.end(),
            [site](const InjectedFault& f) { return f.site == site; });
        if (dup) continue;
        faults.push_back({site, random_polarity(rng)});
      }
      break;
    }
  }
  return faults;
}

/// Post-acceptance labeling: truth sites, tier label, MIV flag, and the
/// back-traced sub-graph with labels filled.
void finalize_sample(const Design& design, Sample& sample) {
  sample.truth_sites.clear();
  for (const InjectedFault& f : sample.faults) {
    sample.truth_sites.push_back(f.site);
  }
  sample.fault_tier = static_cast<int>(
      design.sites.tier_of(sample.faults.front().site, design.nl));
  sample.truth_is_miv =
      design.sites.is_miv_site(sample.faults.front().site, design.nl);

  // Back-trace and label the sub-graph.
  sample.sub =
      graphx::backtrace_subgraph(*design.graph, sample.log, design.scan);
  sample.sub.label_tier = sample.fault_tier;
  sample.sub.truth_in_nodes = std::any_of(
      sample.truth_sites.begin(), sample.truth_sites.end(),
      [&sample](SiteId s) { return sample.sub.local_of(s) >= 0; });
  for (std::size_t k = 0; k < sample.sub.miv_local.size(); ++k) {
    const SiteId site = sample.sub.nodes[sample.sub.miv_local[k]];
    const bool faulty = std::find(sample.truth_sites.begin(),
                                  sample.truth_sites.end(),
                                  site) != sample.truth_sites.end();
    sample.sub.miv_label[k] = faulty ? 1.0f : 0.0f;
  }
}

/// Runs the Fig.-4 flow for sample `index` on its own RNG stream
/// (derive_seed(opts.seed, index)), making the result a pure function of
/// (design, opts, index) — the property every parallel shard and the
/// sequential loop share. Undetected draws and fully aliased compacted
/// responses both charge opts.max_retries; returns false when the budget
/// is exhausted (or the mode has nothing to draw).
bool generate_sample(const Design& design, const DatagenOptions& opts,
                     sim::FaultSimulator& fsim,
                     const compress::ResponseCompactor& compactor,
                     std::vector<sim::Word>& diff, std::size_t index,
                     Sample& sample) {
  Rng rng(derive_seed(opts.seed, index));
  bool ok = false;
  for (int attempt = 0; attempt < opts.max_retries && !ok; ++attempt) {
    sample.faults = draw_faults(design, opts.mode, rng);
    if (sample.faults.empty()) return false;  // Nothing to draw (no MIVs).
    if (!fsim.observed_diff(sample.faults, diff)) continue;  // Undetected.
    if (opts.compacted) {
      sample.log = compactor.failure_log_from_diff(diff, fsim.num_words(),
                                                   fsim.num_patterns());
      // XOR aliasing can cancel every miscompare; such a chip would pass
      // the compacted test. Retry within the same budget — a
      // pathologically aliasing design must not hang datagen.
      if (sample.log.empty()) continue;
    } else {
      sample.log = sim::failure_log_from_diff(diff, design.nl.num_outputs(),
                                              fsim.num_patterns());
    }
    ok = true;
  }
  if (!ok) return false;  // Retry budget exhausted; skip the sample.
  finalize_sample(design, sample);
  return true;
}

}  // namespace

Dataset generate_dataset(const Design& design, const DatagenOptions& opts) {
  M3DFL_STAGE(gen_stage, "datagen.generate");
  const std::size_t n = opts.num_samples;
  const compress::ResponseCompactor compactor(design.scan);

  // Samples land in index-order slots; skipped indices are compacted out
  // at the end, so the merge is identical no matter which shard ran what.
  std::vector<Sample> slots(n);
  std::vector<std::uint8_t> present(n, 0);

  // Registry entries are process-lifetime stable, so hot loops may cache
  // references once instead of paying a map lookup per sample.
  auto& reg = obs::MetricsRegistry::instance();
  static obs::Counter& samples_ctr = reg.counter("datagen.samples");
  static obs::Counter& skipped_ctr = reg.counter("datagen.skipped");
  static obs::Counter& sim_calls_ctr = reg.counter("sim.observed_diff_calls");
  static obs::Counter& sim_det_ctr = reg.counter("sim.detected");
  static obs::Counter& sim_events_ctr = reg.counter("sim.events_processed");
  static obs::Counter& sim_words_ctr = reg.counter("sim.words_evaluated");
  static obs::Counter& sim_cone_ctr = reg.counter("sim.cone_skips");
  static obs::Counter& sim_early_ctr = reg.counter("sim.early_exits");

  auto run_range = [&](sim::FaultSimulator& fsim, std::size_t lo,
                       std::size_t hi) {
    M3DFL_STAGE(shard_stage, "datagen.shard");
    std::vector<sim::Word> diff;
    for (std::size_t i = lo; i < hi; ++i) {
      M3DFL_STAGE(sample_stage, "datagen.sample");
      present[i] = generate_sample(design, opts, fsim, compactor, diff, i,
                                   slots[i]);
      (present[i] ? samples_ctr : skipped_ctr).add(1);
    }
    // take_stats() snapshots-and-resets, so pooled clones re-leased by a
    // later shard never re-flush counts a previous shard already reported.
    const sim::FaultSimulator::SimStats d = fsim.take_stats();
    sim_calls_ctr.add(d.observed_diff_calls);
    sim_det_ctr.add(d.detected);
    sim_events_ctr.add(d.events_processed);
    sim_words_ctr.add(d.words_evaluated);
    sim_cone_ctr.add(d.cone_skips);
    sim_early_ctr.add(d.early_exits);
  };

  std::size_t threads = resolve_num_threads(opts.num_threads);
  threads = std::min(threads, std::max<std::size_t>(n, 1));
  if (threads <= 1) {
    run_range(*design.fsim, 0, n);
  } else {
    // Contiguous index shards, each on a leased pooled simulator clone;
    // the design's shared simulator is never touched concurrently. The
    // netlist's lazy topo/level caches are unsynchronized, so warm them
    // before fan-out (same move as serve::DiagnosisService::register_design).
    design.nl.topo_order();
    design.nl.levels();
    design.nl.depth();
    sim::SimulatorPool pool(*design.fsim);
    Executor exec(threads, "datagen");
    const std::size_t num_chunks = std::min(n, threads * 4);
    const std::size_t chunk = (n + num_chunks - 1) / num_chunks;
    std::vector<std::future<void>> done;
    done.reserve(num_chunks);
    for (std::size_t lo = 0; lo < n; lo += chunk) {
      const std::size_t hi = std::min(n, lo + chunk);
      done.push_back(exec.submit([&run_range, &pool, lo, hi] {
        auto sim = pool.lease();
        run_range(*sim, lo, hi);
      }));
    }
    for (auto& f : done) f.get();  // Propagates shard exceptions.
  }

  Dataset ds;
  ds.samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (present[i]) ds.samples.push_back(std::move(slots[i]));
  }
  return ds;
}

std::vector<gnn::LabeledGraph> tier_labeled(const Dataset& ds) {
  std::vector<gnn::LabeledGraph> out;
  out.reserve(ds.samples.size());
  for (const Sample& s : ds.samples) {
    if (s.sub.num_nodes() == 0) continue;
    out.push_back({&s.sub, s.fault_tier});
  }
  return out;
}

std::vector<const graphx::SubGraph*> graphs_of(const Dataset& ds) {
  std::vector<const graphx::SubGraph*> out;
  out.reserve(ds.samples.size());
  for (const Sample& s : ds.samples) {
    if (s.sub.num_nodes() == 0) continue;
    out.push_back(&s.sub);
  }
  return out;
}

}  // namespace m3dfl::eval
