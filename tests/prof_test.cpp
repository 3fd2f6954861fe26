// Sampling-profiler and hardware-counter tests. The profiler test is the
// acceptance check that folded output names real hot paths: it burns CPU
// in a noinline, externally visible function and asserts that function
// appears in the collapsed stacks. Counter tests pin the degradation
// ladder's rusage rung (forced via M3DFL_NO_PERF_EVENT so they pass both
// on bare metal and in perf-less containers).

#include <gtest/gtest.h>

#if M3DFL_OBS_ENABLED

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/prof/counters.h"
#include "obs/prof/profiler.h"
#include "obs/stage.h"

// External linkage + noinline so -rdynamic exports it and dladdr can name
// it in the folded stacks; the volatile sink defeats whole-loop deletion.
__attribute__((noinline)) double m3dfl_prof_test_burn(double until_seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  volatile double sink = 1.0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < until_seconds) {
    for (int i = 1; i < 4096; ++i) sink = sink + 1.0 / static_cast<double>(i);
  }
  return sink;
}

namespace {

using m3dfl::obs::prof::CounterRegistry;
using m3dfl::obs::prof::CounterValues;
using m3dfl::obs::prof::CpuProfiler;
using m3dfl::obs::prof::FoldedStack;
using m3dfl::obs::prof::ProfilerOptions;

TEST(Profiler, FoldedStacksNameTheHotFunction) {
  auto& prof = CpuProfiler::instance();
  ProfilerOptions opts;
  opts.sample_hz = 997;  // High rate so a short burn yields many samples.
  std::string error;
  ASSERT_TRUE(prof.start(opts, &error)) << error;
  EXPECT_TRUE(prof.running());
  m3dfl_prof_test_burn(0.6);
  prof.stop();
  EXPECT_FALSE(prof.running());
  ASSERT_GT(prof.samples(), 10u)
      << "per-thread CPU timer delivered almost no SIGPROF ticks";

  const std::vector<FoldedStack> folded = prof.collect();
  ASSERT_FALSE(folded.empty());
  // Heaviest-first ordering.
  for (std::size_t i = 1; i < folded.size(); ++i) {
    EXPECT_GE(folded[i - 1].count, folded[i].count);
  }
  std::uint64_t burn_samples = 0;
  for (const FoldedStack& f : folded) {
    if (f.stack.find("m3dfl_prof_test_burn") != std::string::npos) {
      burn_samples += f.count;
    }
  }
  // The burn loop had the CPU to itself; the vast majority of samples must
  // resolve to it by name (this is the "top frames name real hot paths"
  // acceptance bar — hex-only stacks mean symbolization broke).
  EXPECT_GT(burn_samples, prof.samples() / 2)
      << "folded output did not attribute the burn loop";

  std::ostringstream os;
  prof.write_folded(os);
  EXPECT_NE(os.str().find("m3dfl_prof_test_burn"), std::string::npos);
  EXPECT_NE(os.str().find(' '), std::string::npos);  // "stack count" shape

  // Chrome sections for trace merging are well-formed non-empty JSON
  // fragments once samples exist.
  const std::string chrome = prof.chrome_sample_sections();
  EXPECT_NE(chrome.find("\"stackFrames\""), std::string::npos);
  EXPECT_NE(chrome.find("\"samples\""), std::string::npos);
}

TEST(Profiler, SecondStartWhileRunningFails) {
  auto& prof = CpuProfiler::instance();
  std::string error;
  ASSERT_TRUE(prof.start(ProfilerOptions{}, &error)) << error;
  std::string error2;
  EXPECT_FALSE(prof.start(ProfilerOptions{}, &error2));
  EXPECT_FALSE(error2.empty());
  prof.stop();
}

TEST(Profiler, RegisteredWorkerThreadIsSampled) {
  auto& prof = CpuProfiler::instance();
  std::string error;
  ASSERT_TRUE(prof.start(ProfilerOptions{.sample_hz = 997}, &error)) << error;
  std::atomic<bool> go{false};
  std::thread worker([&go] {
    m3dfl::obs::prof::ProfiledThread reg;
    while (!go.load(std::memory_order_acquire)) {
    }
    m3dfl_prof_test_burn(0.4);
  });
  go.store(true, std::memory_order_release);
  worker.join();
  prof.stop();
  std::ostringstream os;
  prof.write_folded(os);
  EXPECT_NE(os.str().find("m3dfl_prof_test_burn"), std::string::npos)
      << "worker-thread samples missing:\n"
      << os.str();
}

TEST(Counters, ForcedFallbackLandsOnRusage) {
  const auto av = m3dfl::obs::prof::probe_counters(/*force_no_perf_event=*/
                                                  true);
  EXPECT_EQ(av.mode, m3dfl::obs::prof::CounterMode::kRusage);
  EXPECT_FALSE(av.detail.empty());
  EXPECT_STREQ(m3dfl::obs::prof::counter_mode_name(av.mode), "rusage");
}

TEST(Counters, AvailabilityProbeNeverCrashesAndHasDetail) {
  // Whatever rung this machine lands on, the probe must answer with a
  // mode no worse than rusage and say why.
  const auto& av = m3dfl::obs::prof::counter_availability();
  EXPECT_NE(av.mode, m3dfl::obs::prof::CounterMode::kUnavailable);
  EXPECT_FALSE(av.detail.empty());
}

TEST(Counters, ThreadReadIsMonotonicInCpuSeconds) {
  CounterValues a, b;
  ASSERT_TRUE(m3dfl::obs::prof::read_thread_counters(&a));
  m3dfl_prof_test_burn(0.1);
  ASSERT_TRUE(m3dfl::obs::prof::read_thread_counters(&b));
  EXPECT_GE(b.cpu_seconds, a.cpu_seconds);
  // 0.1 s of wall-clock spinning yields much less CPU time under parallel
  // ctest on a shared core; 1 ms is a safe floor at any contention level.
  EXPECT_GT(b.cpu_seconds - a.cpu_seconds, 0.001);
  if (a.hw_valid && b.hw_valid) {
    EXPECT_GE(b.cycles, a.cycles);
    EXPECT_GE(b.instructions, a.instructions);
  }
}

TEST(Counters, ScopeAggregatesAndSerializes) {
  auto& reg = CounterRegistry::instance();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  reg.reset();
  {
    M3DFL_STAGE(stage, "test.burn");
    m3dfl_prof_test_burn(0.05);
  }
  {
    M3DFL_STAGE(stage, "test.burn");
    m3dfl_prof_test_burn(0.05);
  }
  bool found = false;
  for (const auto& [name, totals] : reg.snapshot()) {
    if (name != "test.burn") continue;
    found = true;
    EXPECT_EQ(totals.count, 2u);
    // Wall-clock burns can yield far less CPU time when parallel ctest
    // shares the core; only positivity is load-independent.
    EXPECT_GT(totals.cpu_seconds, 0.0);
  }
  EXPECT_TRUE(found);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"test.burn\""), std::string::npos);
  EXPECT_NE(json.find("\"availability\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu_seconds\""), std::string::npos);
  reg.set_enabled(was_enabled);
}

TEST(Counters, DisabledScopeRecordsNothing) {
  auto& reg = CounterRegistry::instance();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(false);
  reg.reset();
  {
    M3DFL_STAGE(stage, "test.disabled");
    m3dfl_prof_test_burn(0.02);
  }
  for (const auto& [name, totals] : reg.snapshot()) {
    if (name == "test.disabled") {
      EXPECT_EQ(totals.count, 0u);
    }
  }
  reg.set_enabled(was_enabled);
}

}  // namespace

#else  // !M3DFL_OBS_ENABLED

TEST(Profiler, CompiledOut) {
  GTEST_SKIP() << "profiler compiled out under -DM3DFL_OBS=OFF";
}

#endif  // M3DFL_OBS_ENABLED
