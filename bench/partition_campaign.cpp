// Partitioned fault-dictionary campaign throughput: unpartitioned vs
// hierarchical-region sharding (partition/hier.h) at 1 and 4 threads, on
// the site-major campaign the dictionary runs. Every variant's
// fingerprint() is checked against the sequential unpartitioned build
// first, so the bench doubles as a coarse equivalence smoke. Emits BENCH_partition_campaign.json (google-benchmark JSON schema)
// for the CI regression gate (tools/bench_compare).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "diagnosis/dictionary.h"
#include "netlist/generators.h"
#include "obs/build_info.h"
#include "obs/stage.h"
#include "partition/hier.h"
#include "sim/fault_sim.h"

namespace {

using namespace m3dfl;

struct Run {
  std::string name;
  std::size_t items = 0;
  double wall_seconds = 0.0;

  double per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(items) / wall_seconds
                              : 0.0;
  }
};

}  // namespace

int main() {
  std::puts("Fault-dictionary campaign: unpartitioned vs hierarchical");
  std::puts("region sharding (fingerprints verified bit-identical)\n");

  const bool fast = std::getenv("M3DFL_FAST") != nullptr;

  netlist::GeneratorParams p;
  p.num_logic_gates = fast ? 500 : 4000;
  p.num_scan_cells = 48;
  p.num_levels = fast ? 8 : 14;
  p.rent_exponent = 0.62;  // Paper-scale fanout shape, scaled down.
  p.seed = 21;
  const netlist::Netlist nl = generate_netlist(p);
  const netlist::SiteTable sites(nl);
  const std::size_t patterns = fast ? 64 : 128;
  const std::size_t region_gates = fast ? 64 : 512;

  sim::FaultSimulator fsim(nl, sites);
  Rng rng(22);
  const sim::PatternSet v1 =
      sim::PatternSet::random(nl.num_inputs(), patterns, rng);
  const sim::PatternSet v2 =
      sim::PatternSet::random(nl.num_inputs(), patterns, rng);
  fsim.bind(v1, v2);

  std::printf("design: %zu gates, %zu sites, %zu patterns\n\n", nl.num_gates(),
              sites.size(), patterns);

  std::vector<Run> runs;

  // Partition construction cost, amortized over the whole campaign. Looped
  // so the sample is long enough for the regression gate to be stable.
  {
    const std::size_t reps = fast ? 50 : 20;
    M3DFL_STAGE(stage, "bench.partition_build");
    for (std::size_t i = 0; i + 1 < reps; ++i) {
      const part::HierPartition warm(nl, sites, {region_gates});
    }
    const part::HierPartition hp(nl, sites, {region_gates});
    runs.push_back(
        {"partition/hier_build", nl.num_gates() * reps, stage.stop()});
    std::printf("partition: %zu regions (max %zu gates), %zu cut edges\n\n",
                hp.num_regions(), hp.max_region_gates(), hp.cut_edges());
  }

  struct Variant {
    const char* name;
    std::size_t threads;
    std::size_t partition;
  };
  const Variant variants[] = {
      {"dictionary/event_t1", 1, 0},
      {"dictionary/event_part_t1", 1, 1},
      {"dictionary/event_part_t4", 4, 1},
  };

  std::uint64_t golden_fp = 0;
  std::size_t entries = 0;
  for (const Variant& v : variants) {
    diag::FaultDictionaryOptions opts;
    opts.num_threads = v.threads;
    opts.partition_max_gates = v.partition ? region_gates : 0;
    M3DFL_STAGE(stage, "bench.dictionary");
    const diag::FaultDictionary dict(nl, sites, fsim, opts);
    const double wall = stage.stop();
    if (golden_fp == 0) {
      golden_fp = dict.fingerprint();
      entries = dict.num_entries();
    } else if (dict.fingerprint() != golden_fp ||
               dict.num_entries() != entries) {
      std::printf("FATAL: %s diverged from the sequential build\n", v.name);
      return 1;
    }
    runs.push_back({v.name, entries, wall});
  }
  std::printf("equivalence: all %zu-entry dictionaries share fingerprint "
              "%016llx\n\n",
              entries, static_cast<unsigned long long>(golden_fp));

  std::puts("Variant                             Items     Wall (s)    Items/s");
  for (const Run& r : runs) {
    std::printf("%-32s %8zu %12.4f %10.1f\n", r.name.c_str(), r.items,
                r.wall_seconds, r.per_second());
  }

  std::ofstream os("BENCH_partition_campaign.json");
  os << "{\n  \"context\": {\n"
     << "    \"executable\": \"bench_partition_campaign\",\n"
     << "    \"build\": " << obs::build_info_json() << ",\n"
     << "    \"num_gates\": " << nl.num_gates() << ",\n"
     << "    \"num_sites\": " << sites.size() << ",\n"
     << "    \"num_patterns\": " << patterns << ",\n"
     << "    \"region_gates\": " << region_gates << "\n  },\n"
     << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    os << "    {\n"
       << "      \"name\": \"" << r.name << "\",\n"
       << "      \"run_type\": \"iteration\",\n"
       << "      \"iterations\": " << r.items << ",\n"
       << "      \"real_time\": " << r.wall_seconds * 1e3 << ",\n"
       << "      \"time_unit\": \"ms\",\n"
       << "      \"items_per_second\": " << r.per_second() << "\n"
       << "    }" << (i + 1 == runs.size() ? "\n" : ",\n");
  }
  os << "  ]\n}\n";
  std::puts("wrote BENCH_partition_campaign.json");
  return 0;
}
