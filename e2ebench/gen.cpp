// e2e_gen: makes one workload's inputs from its seed.
//
//   e2e_gen --workload <name> --seed <n> --out <dir>
//
// Writes failure logs as tester text (eval::generate_dataset), their ground
// truth, one round's request order shuffled by the seed, and a framework
// file trained from the seed (eval::train_framework + eval::save_framework). Runs in its own
// process before the measured one, so that one starts with a cold
// eval::cached_design.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/datagen.h"
#include "eval/experiments.h"
#include "eval/framework_io.h"
#include "inputs.h"

namespace {

using namespace m3dfl;
using e2ebench::Inputs;
using e2ebench::Truth;
using e2ebench::Workload;

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void add_log(Inputs& in, const eval::Sample& s) {
  in.log_texts.push_back(sim::to_text(s.log));
  Truth t;
  t.fault = s.faults.front();
  t.tier = s.fault_tier;
  t.is_miv = s.truth_is_miv;
  in.truth.push_back(t);
}

int run(const Workload& w, std::uint64_t seed, const std::string& out) {
  const auto t0 = std::chrono::steady_clock::now();
  const eval::BenchmarkSpec spec = e2ebench::spec_of(w);
  const eval::Design& d = eval::cached_design(spec, e2ebench::kConfig);
  std::fprintf(stderr, "e2e_gen: %s design built in %.2f s\n",
               spec.name.c_str(), since(t0));

  Inputs in;
  in.workload = w.name;
  in.seed = seed;
  std::set<std::string> seen;

  // Logs distinct by text, so that the service's sub-graph cache (keyed by
  // log content) sees each one as new. Batches are drawn until enough exist.
  const std::uint64_t pool_seed = w.fixed_pool
                                      ? e2ebench::kFixedPoolSeed
                                      : derive_seed(seed, 0xe2eb0000ull);
  std::size_t duplicates = 0;
  for (std::uint64_t batch = 0; in.log_texts.size() < w.distinct; ++batch) {
    if (batch == 64) {
      std::fprintf(stderr, "e2e_gen: only %zu distinct logs found\n",
                   in.log_texts.size());
      return 1;
    }
    eval::DatagenOptions o;
    o.num_samples = w.distinct;
    o.compacted = w.compacted;
    o.seed = batch == 0 ? pool_seed : derive_seed(pool_seed, batch);
    for (const eval::Sample& s : eval::generate_dataset(d, o).samples) {
      if (in.log_texts.size() == w.distinct) break;
      if (seen.insert(sim::to_text(s.log)).second) {
        add_log(in, s);
      } else {
        ++duplicates;
      }
    }
  }
  std::fprintf(stderr, "e2e_gen: %zu logs (%zu duplicates skipped) at %.2f s\n",
               in.log_texts.size(), duplicates, since(t0));

  for (std::size_t r = 0; r < w.repeat; ++r) {
    for (std::uint32_t i = 0; i < in.log_texts.size(); ++i) {
      in.round.push_back(i);
    }
  }
  Rng rng(derive_seed(seed, 0xe2eb0001ull));
  rng.shuffle(in.round);
  // The warm-up cycles through the round's last logs: in a bypass round
  // more than a cache's worth of other logs comes between them and the
  // start of the timed phase, so the timed phase never hits on them.
  const std::size_t nwarm = 2 * e2ebench::kInFlight;
  in.warmup.assign(in.round.end() - nwarm, in.round.end());
  e2ebench::write_inputs(out, in);

  eval::RunScale scale = eval::RunScale::tiny();
  scale.seed = seed;
  const eval::TrainingBundle bundle =
      eval::build_training_bundle(spec, w.compacted, scale);
  const eval::TrainedFramework fw = eval::train_framework(bundle, scale);
  std::ofstream os(e2ebench::framework_path(out));
  eval::save_framework(fw, os);
  if (!os) {
    std::fprintf(stderr, "e2e_gen: cannot write the framework file\n");
    return 1;
  }
  std::fprintf(stderr, "e2e_gen: framework trained and saved at %.2f s\n",
               since(t0));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (flag == "--out") {
      out = argv[i + 1];
    }
  }
  const Workload* w = e2ebench::find_workload(workload);
  if (!w || !have_seed || out.empty() || argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: e2e_gen --workload <name> --seed <n> --out <dir>\n");
    return 2;
  }
  try {
    return run(*w, seed, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_gen: %s\n", e.what());
    return 1;
  }
}
