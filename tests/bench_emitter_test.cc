// Regression tests for JsonEmitter's --metrics series windows
// (bench/micro_harness.h): BeginSeries must snapshot the metric registry
// under the open label and zero it, so each series' counters cover exactly
// its own measurement. The bugs pinned down are a bench that never calls
// BeginSeries (or only some sweeps do) silently attributing the whole
// binary's accumulated counters to every series, and a bench that measures
// more after its last BeginSeries, charging that to its last window. Also
// covered: the bench command line accepts only the emitter's flags.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "micro_harness.h"
#include "obs/metrics.h"

namespace dipc::bench {
namespace {

// Builds the argc/argv pair a bench's main passes to the emitter.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (auto& a : storage) {
      ptrs.push_back(a.data());
    }
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchEmitter, BeginSeriesIsolatesMetricsPerSeries) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  obs::Registry::Default().Reset();
  const std::string path = "BENCH_emitter_iso_test.json";
  std::remove(path.c_str());
  {
    Argv av({"bench", "--json", "--metrics"});
    JsonEmitter json("emitter_iso_test", av.argc, av.ptrs.data());
    ASSERT_TRUE(json.enabled());
    ASSERT_TRUE(json.metrics());
    json.BeginSeries("window_a");
    obs::Registry::Default().GetCounter("emitter_test/x")->Add(3);
    json.Row("a", 1, 10.0);
    json.BeginSeries("window_b");
    obs::Registry::Default().GetCounter("emitter_test/x")->Add(5);
    json.Row("b", 1, 20.0);
  }  // destructor closes window_b and writes the file
  const std::string body = ReadFile(path);
  ASSERT_FALSE(body.empty());
  // Each window sees only its own increments: 3 then 5, never the
  // accumulated 8 a missing reset would produce.
  const size_t a = body.find("\"window_a\"");
  const size_t b = body.find("\"window_b\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_LT(a, b);
  const std::string win_a = body.substr(a, b - a);
  const std::string win_b = body.substr(b);
  EXPECT_NE(win_a.find("\"emitter_test/x\": 3"), std::string::npos) << win_a;
  EXPECT_NE(win_b.find("\"emitter_test/x\": 5"), std::string::npos) << win_b;
  EXPECT_EQ(body.find("\"emitter_test/x\": 8"), std::string::npos);
  std::remove(path.c_str());
}

// Extracts the integer value of `counter` from one series window of the
// emitted JSON, or -1 when the counter is absent.
long long CounterIn(const std::string& window, const std::string& counter) {
  const std::string needle = "\"" + counter + "\": ";
  const size_t pos = window.find(needle);
  if (pos == std::string::npos) {
    return -1;
  }
  return std::atoll(window.c_str() + pos + needle.size());
}

// Regression for the audited benches (fig1/2/5/7, table1, s531, s75): run a
// real fig2-style measurement under two series windows and check the second
// window reports only its own simulator counters. Before the audit those
// benches never called BeginSeries, so every series silently carried the
// binary's entire accumulated counter state.
TEST(BenchEmitter, Fig2StyleSeriesWindowsIsolateSimulatorCounters) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  obs::Registry::Default().Reset();
  const std::string path = "BENCH_emitter_fig2_test.json";
  std::remove(path.c_str());
  {
    Argv av({"bench", "--json", "--metrics"});
    JsonEmitter json("emitter_fig2_test", av.argc, av.ptrs.data());
    MicroConfig cfg{.arg_bytes = 1, .rounds = 40, .cross_cpu = false};
    json.BeginSeries("sem_first");
    json.Row("sem_first", 0, MeasureSemaphore(cfg).roundtrip_ns);
    json.BeginSeries("sem_second");
    json.Row("sem_second", 0, MeasureSemaphore(cfg).roundtrip_ns);
  }
  const std::string body = ReadFile(path);
  ASSERT_FALSE(body.empty());
  const size_t a = body.find("\"sem_first\": {");
  const size_t b = body.find("\"sem_second\": {");
  ASSERT_NE(a, std::string::npos) << body;
  ASSERT_NE(b, std::string::npos) << body;
  ASSERT_LT(a, b);
  const long long waits_a = CounterIn(body.substr(a, b - a), "os/sem/futex_waits");
  const long long waits_b = CounterIn(body.substr(b), "os/sem/futex_waits");
  // Identical configs park a comparable number of times per window. A
  // missing reset would make the second window cumulative (~2x the first).
  ASSERT_GT(waits_a, 0);
  ASSERT_GT(waits_b, 0);
  EXPECT_LT(waits_b, waits_a * 2) << "second series inherited the first's counters";
  std::remove(path.c_str());
}

// Every bench opens its windows; one that opens none gets an empty map, not
// a snapshot of whatever the binary ran.
TEST(BenchEmitter, NoBeginSeriesWritesEmptyMetricsMap) {
  obs::Registry::Default().Reset();
  const std::string path = "BENCH_emitter_empty_test.json";
  std::remove(path.c_str());
  {
    Argv av({"bench", "--json", "--metrics"});
    JsonEmitter json("emitter_empty_test", av.argc, av.ptrs.data());
    obs::Registry::Default().GetCounter("emitter_test/y")->Add(4);
    json.Row("a", 1, 10.0);
  }
  const std::string body = ReadFile(path);
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("\"metrics\": {\n}"), std::string::npos) << body;
  EXPECT_EQ(body.find("emitter_test/y"), std::string::npos) << body;
  std::remove(path.c_str());
}

TEST(BenchEmitter, MetricsFlagOffMakesBeginSeriesFree) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  obs::Registry::Default().Reset();
  const std::string path = "BENCH_emitter_off_test.json";
  std::remove(path.c_str());
  {
    Argv av({"bench", "--json"});
    JsonEmitter json("emitter_off_test", av.argc, av.ptrs.data());
    json.BeginSeries("window_a");
    obs::Registry::Default().GetCounter("emitter_test/z")->Add(7);
    json.Row("a", 1, 10.0);
    // Without --metrics, BeginSeries must not reset the registry (another
    // concurrent consumer may be reading it) and no metrics key is emitted.
    EXPECT_EQ(obs::Registry::Default().GetCounter("emitter_test/z")->value(), 7u);
    json.BeginSeries("window_b");
    EXPECT_EQ(obs::Registry::Default().GetCounter("emitter_test/z")->value(), 7u);
  }
  const std::string body = ReadFile(path);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.find("\"metrics\""), std::string::npos) << body;
  std::remove(path.c_str());
}

// A bench accepts exactly --json, --metrics and --trace[=path]: anything
// else, such as a leftover --benchmark_* flag or a typo, prints the usage
// line and exits 2 instead of silently running the whole bench.
TEST(BenchEmitter, UnknownArgumentExitsWithStatus2) {
  Argv av({"bench", "--json", "--benchmark_filter=x"});
  EXPECT_EXIT(JsonEmitter("emitter_arg_test", av.argc, av.ptrs.data()),
              ::testing::ExitedWithCode(2), "unknown argument '--benchmark_filter=x'");
}

// Runs the real bench_fig5_sync_calls (path from CMake) with --json
// --metrics in a fresh temporary directory. Each dIPC window must count the
// proxy calls of its own measurement only: 300 timed rounds plus 8 warmup
// rounds. Measurements run after the last BeginSeries would land in the
// last window (dipc_proc_high_notls) and inflate its count. Every window's
// world is destroyed before its snapshot, so its proxies are counted in
// the retired total proxy/*/calls and no window lists a proxy/<id>/ name.
TEST(BenchEmitter, Fig5DipcWindowsCountOnlyTheirOwnProxyCalls) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  std::string dir = (std::filesystem::temp_directory_path() / "bench_fig5_XXXXXX").string();
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const std::string cmd =
      "cd '" + dir + "' && '" DIPC_BENCH_FIG5_PATH "' --json --metrics > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream in(dir + "/BENCH_fig5_sync_calls.json");
  std::map<std::string, long long> calls;  // dIPC window -> its proxy/*/calls
  int windows = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("  \"", 0) != 0 || line.find("\"counters\"") == std::string::npos) {
      continue;
    }
    ++windows;
    const std::string label = line.substr(3, line.find('"', 3) - 3);
    for (size_t pos = line.find("\"proxy/"); pos != std::string::npos;
         pos = line.find("\"proxy/", pos + 1)) {
      EXPECT_EQ(line.compare(pos, 9, "\"proxy/*/"), 0)
          << label << " lists " << line.substr(pos, line.find('"', pos + 1) - pos + 1);
    }
    if (label.rfind("dipc_", 0) == 0) {
      calls[label] = CounterIn(line, "proxy/*/calls");
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(windows, 6);
  calls.erase("dipc_user_rpc");  // a user-level RPC: no proxy calls
  const std::map<std::string, long long> expected = {
      {"dipc_low", 308},      {"dipc_high", 308},           {"dipc_proc_low", 308},
      {"dipc_proc_high", 308}, {"dipc_proc_low_notls", 308}, {"dipc_proc_high_notls", 308}};
  EXPECT_EQ(calls, expected);
}

}  // namespace
}  // namespace dipc::bench
