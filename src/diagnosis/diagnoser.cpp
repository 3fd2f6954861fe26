#include "diagnosis/diagnoser.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <future>

#include "common/executor.h"
#include "obs/metrics.h"
#include "obs/stage.h"

namespace m3dfl::diag {

using netlist::GateId;
using netlist::GateType;
using sim::InjectedFault;
using sim::kWordBits;

Diagnoser::Diagnoser(const Netlist& nl, const SiteTable& sites,
                     const ScanConfig& scan, DiagnoserOptions opts)
    : nl_(&nl),
      sites_(&sites),
      scan_(scan),
      compactor_(scan),
      opts_(opts) {
  // Fan-in cone bitsets, one per observation point.
  const std::size_t n = nl.num_gates();
  cone_words_ = (n + kWordBits - 1) / kWordBits;
  const auto outs = nl.outputs();
  cone_.assign(outs.size() * cone_words_, 0);
  std::vector<GateId> stack;
  for (std::size_t o = 0; o < outs.size(); ++o) {
    Word* bits = cone_.data() + o * cone_words_;
    stack.clear();
    stack.push_back(outs[o]);
    bits[outs[o] / kWordBits] |= Word{1} << (outs[o] % kWordBits);
    while (!stack.empty()) {
      const GateId g = stack.back();
      stack.pop_back();
      for (GateId d : nl.gate(g).fanin) {
        Word& w = bits[d / kWordBits];
        const Word m = Word{1} << (d % kWordBits);
        if (!(w & m)) {
          w |= m;
          stack.push_back(d);
        }
      }
    }
  }
}

void Diagnoser::bind(FaultSimulator& fsim) {
  fsim_ = &fsim;
  pool_.reset();  // Clones of the previous simulator are stale.
}

bool Diagnoser::gate_in_cone_of_output(GateId g, std::uint32_t output) const {
  const Word* bits = cone_.data() + static_cast<std::size_t>(output) * cone_words_;
  return (bits[g / kWordBits] >> (g % kWordBits)) & 1;
}

std::vector<GateId> Diagnoser::collect_suspect_gates(const FailureLog& log) {
  assert(fsim_);
  const auto& good = fsim_->good();
  const std::size_t W = good.num_words;
  const std::size_t num_gates = nl_->num_gates();

  // Failing responses as (pattern, candidate observation points).
  struct Response {
    std::uint32_t pattern;
    std::vector<std::uint32_t> outputs;
  };
  std::vector<Response> responses;
  if (log.compacted) {
    responses.reserve(log.cfails.size());
    for (const FailureLog::CObs& f : log.cfails) {
      responses.push_back({f.pattern, scan_.outputs_of(f.channel, f.cycle)});
    }
  } else {
    responses.reserve(log.fails.size());
    for (const FailureLog::Obs& f : log.fails) {
      responses.push_back({f.pattern, {f.output}});
    }
  }
  if (responses.empty()) return {};

  // For very large logs (multi-fault), subsample responses for the
  // structural pass; signature matching still uses the full log.
  constexpr std::size_t kMaxResponses = 384;
  if (responses.size() > kMaxResponses) {
    std::vector<Response> sampled;
    sampled.reserve(kMaxResponses);
    const double stride =
        static_cast<double>(responses.size()) / kMaxResponses;
    for (std::size_t i = 0; i < kMaxResponses; ++i) {
      sampled.push_back(
          std::move(responses[static_cast<std::size_t>(i * stride)]));
    }
    responses = std::move(sampled);
  }

  auto passes = [&](GateId g, const Response& r) {
    if (!opts_.include_stuck_at) {
      // TDF: only a transitioning node can launch the fault effect.
      const Word tr = good.tr_word(g, r.pattern / kWordBits);
      if (!((tr >> (r.pattern % kWordBits)) & 1)) return false;
    }
    for (std::uint32_t o : r.outputs) {
      if (gate_in_cone_of_output(g, o)) return true;
    }
    return false;
  };

  // Suspect counting. Gates are scanned either exhaustively or — with a
  // partition attached — region by region, skipping every region whose
  // output closure misses all failing observation points (no such gate can
  // pass the cone test, so its count stays 0 either way). count[] slots are
  // disjoint across regions/ranges, which makes the parallel fan-out
  // deterministic: the merged counts are identical at every thread count.
  std::vector<std::uint32_t>& count = suspect_count_;
  count.assign(num_gates, 0);
  auto count_gates = [&](std::span<const GateId> gates) {
    for (const Response& r : responses) {
      for (GateId g : gates) {
        if (passes(g, r)) ++count[g];
      }
    }
  };
  auto count_range = [&](GateId lo, GateId hi) {
    for (const Response& r : responses) {
      for (GateId g = lo; g < hi; ++g) {
        if (passes(g, r)) ++count[g];
      }
    }
  };
  std::size_t threads = resolve_num_threads(opts_.num_threads);
  if (partition_ != nullptr) {
    static obs::Counter& skipped_ctr =
        obs::MetricsRegistry::instance().counter("diag.regions_skipped");
    std::vector<std::uint8_t> touched(partition_->num_regions(), 0);
    for (const Response& r : responses) {
      for (std::uint32_t o : r.outputs) {
        for (std::uint32_t reg : partition_->regions_of_output(o)) {
          touched[reg] = 1;
        }
      }
    }
    std::vector<std::uint32_t> active;
    active.reserve(touched.size());
    for (std::uint32_t r = 0; r < touched.size(); ++r) {
      if (touched[r]) active.push_back(r);
    }
    skipped_ctr.add(touched.size() - active.size());
    if (threads <= 1 || active.size() < 2) {
      for (std::uint32_t r : active) count_gates(partition_->region(r).gates);
    } else {
      Executor exec(std::min(threads, active.size()), "diag.suspects");
      std::vector<std::future<void>> done;
      done.reserve(active.size());
      for (std::uint32_t r : active) {
        done.push_back(exec.submit(
            [&count_gates, this, r] { count_gates(partition_->region(r).gates); }));
      }
      for (auto& f : done) f.get();
    }
  } else if (threads > 1 && num_gates >= 4096) {
    const std::size_t num_chunks = std::min<std::size_t>(num_gates, threads * 4);
    const std::size_t chunk = (num_gates + num_chunks - 1) / num_chunks;
    Executor exec(threads, "diag.suspects");
    std::vector<std::future<void>> done;
    for (std::size_t lo = 0; lo < num_gates; lo += chunk) {
      const GateId hi =
          static_cast<GateId>(std::min<std::size_t>(num_gates, lo + chunk));
      done.push_back(exec.submit([&count_range, lo, hi] {
        count_range(static_cast<GateId>(lo), hi);
      }));
    }
    for (auto& f : done) f.get();
  } else {
    count_range(0, static_cast<GateId>(num_gates));
  }
  (void)W;

  std::vector<GateId> suspects;
  const auto all = static_cast<std::uint32_t>(responses.size());
  if (!opts_.multifault) {
    // Single defect: a strong candidate explains (nearly) every failing
    // response; near-misses are kept per single_fault_relax.
    const auto floor_count = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(opts_.single_fault_relax * all));
    for (GateId g = 0; g < num_gates; ++g) {
      if (count[g] >= floor_count) suspects.push_back(g);
    }
    if (suspects.empty()) {
      // Compaction aliasing can defeat even the relaxed floor; degrade
      // gracefully to the best-explaining gates.
      std::uint32_t best = 0;
      for (GateId g = 0; g < num_gates; ++g) best = std::max(best, count[g]);
      for (GateId g = 0; g < num_gates && best > 0; ++g) {
        if (count[g] == best) suspects.push_back(g);
      }
    }
  } else {
    // Multiple defects: any gate explaining at least one response is a
    // suspect.
    for (GateId g = 0; g < num_gates; ++g) {
      if (count[g] > 0) suspects.push_back(g);
    }
  }
  if (suspects.size() > opts_.max_suspects) {
    // Over the cap: keep the best-explaining suspects, then restore id
    // order.
    std::nth_element(suspects.begin(), suspects.begin() + opts_.max_suspects,
                     suspects.end(), by_evidence());
    suspects.resize(opts_.max_suspects);
    std::sort(suspects.begin(), suspects.end());
  }
  if (opts_.multifault) {
    // Multiple defects: rank by how much of the log each could explain.
    std::sort(suspects.begin(), suspects.end(), by_evidence());
  }
  return suspects;
}

std::vector<Candidate> Diagnoser::score_candidates(
    const FailureLog& log, const std::vector<GateId>& suspects) {
  const std::size_t W = fsim_->num_words();

  // Observed failure masks. Bypass mode: rows indexed by observation point;
  // compacted mode: rows indexed by compactor cell (channel * cycles + cyc).
  const std::size_t num_rows =
      log.compacted
          ? static_cast<std::size_t>(scan_.num_channels) * scan_.chain_length
          : nl_->num_outputs();
  obs_mask_.assign(num_rows * W, 0);
  if (log.compacted) {
    for (const FailureLog::CObs& f : log.cfails) {
      const std::size_t cell =
          static_cast<std::size_t>(f.channel) * scan_.chain_length + f.cycle;
      obs_mask_[cell * W + f.pattern / kWordBits] |=
          Word{1} << (f.pattern % kWordBits);
    }
  } else {
    for (const FailureLog::Obs& f : log.fails) {
      obs_mask_[static_cast<std::size_t>(f.output) * W +
                f.pattern / kWordBits] |= Word{1} << (f.pattern % kWordBits);
    }
  }
  obs_total_fails_ = log.size();

  // Candidate fault sites: stems of the suspects plus the branches they
  // drive. Deduplicated by construction (each site enumerated once).
  auto add_sites = [this](GateId d, std::vector<netlist::SiteId>& out) {
    out.push_back(sites_->stem_of(d));
    for (GateId g : nl_->gate(d).fanout) {
      const auto& fanin = nl_->gate(g).fanin;
      for (std::size_t k = 0; k < fanin.size(); ++k) {
        if (fanin[k] == d) {
          out.push_back(sites_->branch_of(g, static_cast<int>(k)));
        }
      }
    }
  };
  std::vector<netlist::SiteId> cand_sites;
  cand_sites.reserve(suspects.size() * 3);
  for (GateId d : suspects) add_sites(d, cand_sites);
  if (cand_sites.size() > opts_.max_suspects) {
    // Over the cap: keep whole suspects, best evidence first, while their
    // sites fit; the survivors' sites stay in suspect order.
    std::vector<GateId> ranked = suspects;
    std::sort(ranked.begin(), ranked.end(), by_evidence());
    std::vector<std::uint8_t> keep(nl_->num_gates(), 0);
    std::vector<netlist::SiteId> sites;
    for (GateId d : ranked) {
      add_sites(d, sites);
      if (sites.size() > opts_.max_suspects) break;
      keep[d] = 1;
    }
    cand_sites.clear();
    for (GateId d : suspects) {
      if (keep[d]) add_sites(d, cand_sites);
    }
  }

  signatures_.clear();
  std::vector<Candidate> scored;
  scored.reserve(cand_sites.size());

  std::vector<FaultPolarity> polarities = {FaultPolarity::kSlowToRise,
                                           FaultPolarity::kSlowToFall};
  if (opts_.include_stuck_at) {
    polarities.push_back(FaultPolarity::kStuckAt0);
    polarities.push_back(FaultPolarity::kStuckAt1);
  }

  const std::size_t threads =
      std::min(resolve_num_threads(opts_.num_threads), cand_sites.size());
  if (threads <= 1) {
    for (netlist::SiteId site : cand_sites) {
      Candidate best;
      Signature best_sig;
      if (!score_site(*fsim_, scratch_, log, num_rows, polarities, site, best,
                      best_sig)) {
        continue;
      }
      scored.push_back(best);
      if (opts_.multifault) signatures_.push_back(std::move(best_sig));
    }
    return scored;
  }

  // Parallel scoring: contiguous candidate chunks, each on a pooled
  // simulator clone with private scratch, merged back in chunk order —
  // the scored sequence is identical to the sequential pass.
  if (!pool_) pool_ = std::make_unique<sim::SimulatorPool>(*fsim_);
  const std::size_t num_chunks =
      std::min(cand_sites.size(), threads * 4);
  const std::size_t chunk = (cand_sites.size() + num_chunks - 1) / num_chunks;
  struct ChunkOut {
    std::vector<Candidate> cands;
    std::vector<Signature> sigs;
  };
  std::vector<ChunkOut> outs((cand_sites.size() + chunk - 1) / chunk);
  Executor exec(threads, "diag.score");
  std::vector<std::future<void>> done;
  done.reserve(outs.size());
  for (std::size_t c = 0; c < outs.size(); ++c) {
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(cand_sites.size(), lo + chunk);
    const std::span<const netlist::SiteId> sites_span(
        cand_sites.data() + lo, hi - lo);
    done.push_back(exec.submit([this, &log, num_rows, &polarities, sites_span,
                                out = &outs[c]] {
      auto sim = pool_->lease();
      ScoreScratch sc;
      for (netlist::SiteId site : sites_span) {
        Candidate best;
        Signature best_sig;
        if (!score_site(*sim, sc, log, num_rows, polarities, site, best,
                        best_sig)) {
          continue;
        }
        out->cands.push_back(best);
        if (opts_.multifault) out->sigs.push_back(std::move(best_sig));
      }
    }));
  }
  for (auto& f : done) f.get();  // Propagates shard exceptions.
  for (ChunkOut& out : outs) {
    for (Candidate& c : out.cands) scored.push_back(c);
    for (Signature& s : out.sigs) signatures_.push_back(std::move(s));
  }
  return scored;
}

bool Diagnoser::score_site(FaultSimulator& sim, ScoreScratch& sc,
                           const FailureLog& log, std::size_t num_rows,
                           std::span<const FaultPolarity> polarities,
                           netlist::SiteId site, Candidate& best,
                           Signature& best_sig) const {
  const std::size_t W = sim.num_words();
  // Sparse compaction scratch: one row per compactor cell, kept all-zero
  // between candidates (dirtied rows are wiped after each fold).
  if (log.compacted && sc.cell_scratch.size() < num_rows * W) {
    sc.cell_scratch.assign(num_rows * W, 0);
  }
  for (FaultPolarity pol : polarities) {
    const InjectedFault fault{site, pol};
    if (!sim.observed_diff(fault, sc.pred_diff, &sc.pred_touched)) continue;

    std::size_t matched = 0;
    std::size_t mispred = 0;
    Signature sig;
    if (!log.compacted) {
      for (std::uint32_t o : sc.pred_touched) {
        const Word* p = sc.pred_diff.data() + static_cast<std::size_t>(o) * W;
        const Word* ob = obs_mask_.data() + static_cast<std::size_t>(o) * W;
        for (std::size_t w = 0; w < W; ++w) {
          matched += static_cast<std::size_t>(std::popcount(p[w] & ob[w]));
          mispred += static_cast<std::size_t>(std::popcount(p[w] & ~ob[w]));
        }
        if (opts_.multifault) {
          for (std::size_t w = 0; w < W; ++w) {
            Word m = p[w];
            while (m) {
              const int bit = std::countr_zero(m);
              m &= m - 1;
              sig.keys.push_back((static_cast<std::uint64_t>(o) << 32) |
                                 (w * kWordBits + bit));
            }
          }
        }
      }
    } else {
      // Fold predicted diffs through the XOR compactor, sparsely.
      sc.touched_cells.clear();
      for (std::uint32_t o : sc.pred_touched) {
        const std::size_t cell =
            static_cast<std::size_t>(scan_.channel_of(o)) *
                scan_.chain_length +
            scan_.position_of(o);
        const Word* p = sc.pred_diff.data() + static_cast<std::size_t>(o) * W;
        Word any = 0;
        for (std::size_t w = 0; w < W; ++w) {
          sc.cell_scratch[cell * W + w] ^= p[w];
          any |= p[w];
        }
        if (any) sc.touched_cells.push_back(cell);
      }
      std::sort(sc.touched_cells.begin(), sc.touched_cells.end());
      sc.touched_cells.erase(
          std::unique(sc.touched_cells.begin(), sc.touched_cells.end()),
          sc.touched_cells.end());
      for (std::size_t cell : sc.touched_cells) {
        const Word* p = sc.cell_scratch.data() + cell * W;
        const Word* ob = obs_mask_.data() + cell * W;
        for (std::size_t w = 0; w < W; ++w) {
          matched += static_cast<std::size_t>(std::popcount(p[w] & ob[w]));
          mispred += static_cast<std::size_t>(std::popcount(p[w] & ~ob[w]));
        }
        if (opts_.multifault) {
          for (std::size_t w = 0; w < W; ++w) {
            Word m = p[w];
            while (m) {
              const int bit = std::countr_zero(m);
              m &= m - 1;
              sig.keys.push_back((static_cast<std::uint64_t>(cell) << 32) |
                                 (w * kWordBits + bit));
            }
          }
        }
      }
      // Clear the scratch rows we dirtied.
      for (std::size_t cell : sc.touched_cells) {
        std::fill_n(sc.cell_scratch.begin() + cell * W, W, Word{0});
      }
    }
    if (matched == 0) continue;
    const std::size_t missed = obs_total_fails_ - matched;
    const double denom = static_cast<double>(matched + mispred + missed);
    const double score = denom > 0 ? static_cast<double>(matched) / denom : 0;
    if (score > best.score) {
      best.site = site;
      best.polarity = pol;
      best.score = score;
      best.matched = static_cast<std::uint32_t>(matched);
      best.mispredicted = static_cast<std::uint32_t>(mispred);
      best.missed = static_cast<std::uint32_t>(missed);
      best_sig = std::move(sig);
    }
  }
  if (best.site == netlist::kNoSite) return false;
  best.tier = sites_->tier_of(best.site, *nl_);
  best.is_miv = sites_->is_miv_site(best.site, *nl_);
  if (opts_.multifault) {
    std::sort(best_sig.keys.begin(), best_sig.keys.end());
  }
  return true;
}

DiagnosisReport Diagnoser::assemble_single(std::vector<Candidate> scored) {
  DiagnosisReport report;
  if (scored.empty()) return report;
  // Candidate selection is by Jaccard score (the strongest evidence), but
  // the *ranking* follows what effect-cause tools actually emit: primary
  // key = number of observed failures explained. Candidates that explain
  // every failure form one large tie group in which the ground truth sits
  // at an arbitrary position — the FHI head-room that report reordering
  // (baseline [11] or the GNN policy) then exploits.
  std::sort(scored.begin(), scored.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.mispredicted != b.mispredicted) {
                return a.mispredicted < b.mispredicted;
              }
              return a.site < b.site;
            });
  const double best = scored.front().score;
  const double cutoff = std::max(opts_.min_score, opts_.keep_score_ratio * best);
  for (const Candidate& c : scored) {
    if (c.score < cutoff) break;
    report.candidates.push_back(c);
    if (report.candidates.size() >= opts_.max_candidates) break;
  }
  std::sort(report.candidates.begin(), report.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.matched != b.matched) return a.matched > b.matched;
              return a.site < b.site;
            });
  return report;
}

DiagnosisReport Diagnoser::assemble_multifault(std::vector<Candidate> scored,
                                               const FailureLog& log) {
  (void)log;
  DiagnosisReport report;
  if (scored.empty()) return report;
  assert(signatures_.size() == scored.size());

  // Greedy cover: repeatedly pick the candidate explaining the most of the
  // residual failure set with high precision.
  std::vector<std::uint64_t> residual;
  {
    // Residual = all observed keys; reconstruct from obs_mask_ popcount via
    // the union of candidate signatures is not sufficient, so rebuild.
    // Keys follow the same encoding as Signature::keys.
    // obs rows were filled in score_candidates.
    const std::size_t W = fsim_->num_words();
    const std::size_t rows = obs_mask_.size() / std::max<std::size_t>(1, W);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t w = 0; w < W; ++w) {
        Word m = obs_mask_[r * W + w];
        while (m) {
          const int bit = std::countr_zero(m);
          m &= m - 1;
          residual.push_back((static_cast<std::uint64_t>(r) << 32) |
                             (w * kWordBits + bit));
        }
      }
    }
    std::sort(residual.begin(), residual.end());
  }

  std::vector<std::uint8_t> picked(scored.size(), 0);
  std::vector<std::size_t> pick_order;
  std::vector<std::uint64_t> inter;
  for (int round = 0; round < 8 && !residual.empty(); ++round) {
    std::size_t best_idx = scored.size();
    std::size_t best_cover = 0;
    double best_prec = 0;
    for (std::size_t i = 0; i < scored.size(); ++i) {
      if (picked[i]) continue;
      const auto& keys = signatures_[i].keys;
      if (keys.empty()) continue;
      inter.clear();
      std::set_intersection(keys.begin(), keys.end(), residual.begin(),
                            residual.end(), std::back_inserter(inter));
      const double prec =
          static_cast<double>(inter.size()) / static_cast<double>(keys.size());
      if (inter.size() > best_cover ||
          (inter.size() == best_cover && prec > best_prec)) {
        best_idx = i;
        best_cover = inter.size();
        best_prec = prec;
      }
    }
    if (best_idx == scored.size() || best_cover == 0) break;
    picked[best_idx] = 1;
    pick_order.push_back(best_idx);
    std::vector<std::uint64_t> next;
    std::set_difference(residual.begin(), residual.end(),
                        signatures_[best_idx].keys.begin(),
                        signatures_[best_idx].keys.end(),
                        std::back_inserter(next));
    residual = std::move(next);
  }

  // Report: greedy picks plus the precise remainder, ranked like the
  // single-fault reports — by observed failures explained — so the truth
  // sits inside its tie group rather than being hand-delivered at rank 1
  // (commercial tools do not know which candidates the greedy cover chose).
  for (std::size_t i : pick_order) report.candidates.push_back(scored[i]);
  std::vector<std::size_t> rest;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    if (!picked[i]) rest.push_back(i);
  }
  auto precision = [&](std::size_t i) {
    const auto& c = scored[i];
    const double denom = static_cast<double>(c.matched + c.mispredicted);
    return denom > 0 ? c.matched / denom : 0.0;
  };
  std::stable_sort(rest.begin(), rest.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double pa = precision(a) * scored[a].matched;
                     const double pb = precision(b) * scored[b].matched;
                     if (pa != pb) return pa > pb;
                     return scored[a].site < scored[b].site;
                   });
  const std::size_t cap = opts_.max_candidates;
  for (std::size_t i : rest) {
    if (report.candidates.size() >= cap) break;
    if (precision(i) < 0.9) continue;  // Imprecise candidates are noise.
    report.candidates.push_back(scored[i]);
  }
  std::sort(report.candidates.begin(), report.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.matched != b.matched) return a.matched > b.matched;
              return a.site < b.site;
            });
  return report;
}

DiagnosisReport Diagnoser::diagnose(const FailureLog& log) {
  assert(fsim_ && "bind() a FaultSimulator before diagnosing");
  // T_ATPG is the sum of the three stages: nothing else runs in between.
  if (log.empty()) return {};
  M3DFL_STAGE(suspects_stage, "diag.suspects");
  const std::vector<GateId> suspects = collect_suspect_gates(log);
  const double suspects_seconds = suspects_stage.stop();
  M3DFL_STAGE(score_stage, "diag.score");
  std::vector<Candidate> scored = score_candidates(log, suspects);
  const double score_seconds = score_stage.stop();
  M3DFL_STAGE(rank_stage, "diag.rank");
  DiagnosisReport report =
      opts_.multifault ? assemble_multifault(std::move(scored), log)
                       : assemble_single(std::move(scored));
  report.seconds = suspects_seconds + score_seconds + rank_stage.stop();
  return report;
}

}  // namespace m3dfl::diag
