#include "inputs.h"

#include <fstream>
#include <stdexcept>

namespace e2ebench {

namespace {

// Round sizes: a bypass round holds more distinct logs than the service's
// 256-entry sub-graph cache, so cycling through it never hits, while the
// repeat workload's pool fits in the cache. The m3d100k round is long (about
// 20 s on 4 cores) and split into 3 windows, because host speed on a shared
// machine swings from second to second and one short window would carry
// that swing into the result.
const Workload kWorkloads[] = {
    {"tiny-bypass", false, false, 1024, 1, 1, false, false},
    {"m3d100k-bypass", true, false, 768, 1, 3, true, true},
    {"tiny-compacted-repeat", false, true, 64, 8, 1, true, false},
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

m3dfl::eval::BenchmarkSpec spec_of(const Workload& w) {
  return w.paper_scale ? m3dfl::eval::m3d100k_spec()
                       : m3dfl::eval::tiny_spec();
}

std::string framework_path(const std::string& dir) {
  return dir + "/framework.m3dfl";
}

void write_inputs(const std::string& dir, const Inputs& in) {
  std::ofstream plan(dir + "/plan.txt");
  plan << "workload " << in.workload << "\nseed " << in.seed << "\nround "
       << in.round.size();
  for (std::uint32_t i : in.round) plan << ' ' << i;
  plan << "\nwarmup " << in.warmup.size();
  for (std::uint32_t i : in.warmup) plan << ' ' << i;
  plan << '\n';

  std::ofstream logs(dir + "/logs.txt", std::ios::binary);
  logs << "e2ebench-logs " << in.log_texts.size() << '\n';
  for (const std::string& t : in.log_texts) logs << t.size() << '\n' << t;

  std::ofstream truth(dir + "/truth.txt");
  for (const Truth& t : in.truth) {
    truth << t.fault.site << ' ' << static_cast<int>(t.fault.polarity) << ' '
          << t.tier << ' ' << t.is_miv << '\n';
  }
  if (!plan || !logs || !truth) {
    throw std::runtime_error("cannot write inputs under " + dir);
  }
}

bool read_inputs(const std::string& dir, Inputs& in, std::string* error) {
  auto fail = [error](const std::string& what) {
    if (error) *error = what;
    return false;
  };
  auto read_list = [](std::istream& is, std::vector<std::uint32_t>& out) {
    std::size_t n = 0;
    is >> n;
    out.resize(n);
    for (std::uint32_t& v : out) is >> v;
    return static_cast<bool>(is);
  };

  std::ifstream plan(dir + "/plan.txt");
  std::string key;
  if (!(plan >> key >> in.workload) || key != "workload" ||
      !(plan >> key >> in.seed) || key != "seed" || !(plan >> key) ||
      key != "round" || !read_list(plan, in.round) || !(plan >> key) ||
      key != "warmup" || !read_list(plan, in.warmup)) {
    return fail("bad or missing " + dir + "/plan.txt");
  }

  std::ifstream logs(dir + "/logs.txt", std::ios::binary);
  std::size_t count = 0;
  if (!(logs >> key >> count) || key != "e2ebench-logs") {
    return fail("bad or missing " + dir + "/logs.txt");
  }
  in.log_texts.resize(count);
  for (std::string& t : in.log_texts) {
    std::size_t bytes = 0;
    if (!(logs >> bytes) || logs.get() != '\n') return fail("truncated logs.txt");
    t.resize(bytes);
    if (!logs.read(t.data(), static_cast<std::streamsize>(bytes))) {
      return fail("truncated logs.txt");
    }
  }

  std::ifstream truth(dir + "/truth.txt");
  in.truth.resize(count);
  for (Truth& t : in.truth) {
    int polarity = 0;
    if (!(truth >> t.fault.site >> polarity >> t.tier >> t.is_miv)) {
      return fail("bad or missing " + dir + "/truth.txt");
    }
    t.fault.polarity = static_cast<m3dfl::sim::FaultPolarity>(polarity);
  }

  for (const auto* list : {&in.round, &in.warmup}) {
    if (list->empty()) return fail("empty round or warm-up list");
    for (std::uint32_t i : *list) {
      if (i >= count) return fail("plan names a log that does not exist");
    }
  }
  return true;
}

}  // namespace e2ebench
