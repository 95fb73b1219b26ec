// gpurel::obs tests: metrics registry semantics (counter/gauge/histogram,
// find-or-create, type safety), JSON + Prometheus export formats, the
// Chrome-trace writer's output validity, and the Exporter's file plumbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpurel::obs {
namespace {

std::string temp_path(const char* tag, const char* ext) {
  return testing::TempDir() + "gpurel_obs_" + tag + ext;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Structural JSON check over a whole document: braces/brackets balanced
// outside strings, string escapes consumed. Catches the serializer bugs a
// hand-rolled emitter actually has (no JSON library in the image).
bool balanced_json(const std::string& s) {
  bool in_string = false;
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Metrics, CounterGaugeBasics) {
  Registry reg;
  Counter& c = reg.counter("evts");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("evts"), &c);  // find-or-create returns same object

  Gauge& g = reg.gauge("depth");
  g.set(3.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.set_max(7.5);
  g.set_max(4.0);  // lower value must not regress the high-water mark
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, LabelsDistinguishSeries) {
  Registry reg;
  Counter& a = reg.counter("outcomes", {{"kind", "FADD"}});
  Counter& b = reg.counter("outcomes", {{"kind", "LDST"}});
  EXPECT_NE(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(reg.counter("outcomes", {{"kind", "FADD"}}).value(), 2u);
  EXPECT_EQ(reg.counter("outcomes", {{"kind", "LDST"}}).value(), 3u);
}

TEST(Metrics, TypeMismatchThrows) {
  Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
  reg.gauge("y");
  EXPECT_THROW(reg.counter("y"), std::logic_error);
}

TEST(Metrics, HistogramCountsSumAndQuantiles) {
  Registry reg;
  Histogram& h = reg.histogram("lat", {}, HistogramBuckets(1.0, 10.0, 4));
  // 10 observations in bucket 0 (<=1), 80 in bucket 1 (<=10), 10 in bucket 2.
  for (int i = 0; i < 10; ++i) h.observe(0.5);
  for (int i = 0; i < 80; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(50.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 10 * 0.5 + 80 * 5.0 + 10 * 50.0);
  EXPECT_EQ(h.bucket_count(0), 10u);
  EXPECT_EQ(h.bucket_count(1), 80u);
  EXPECT_EQ(h.bucket_count(2), 10u);
  // Quantiles report the upper bound of the bucket holding the rank.
  EXPECT_DOUBLE_EQ(h.quantile(0.05), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 100.0);
  // Overflow observations clamp to the last finite bound.
  h.observe(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Metrics, HistogramEmptyQuantileIsZero) {
  Histogram h{HistogramBuckets::latency_ms()};
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, ConcurrentBumpsDontLoseCounts) {
  Registry reg;
  Counter& c = reg.counter("par");
  Histogram& h = reg.histogram("parh");
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        c.add();
        h.observe(1.0);
      }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), 40000u);
  EXPECT_EQ(h.count(), 40000u);
}

TEST(Metrics, JsonExportIsBalancedAndComplete) {
  Registry reg;
  reg.counter("gpurel_trials_total").add(7);
  reg.gauge("gpurel_avf", {{"kind", "F\"A\\D"}}).set(0.25);
  reg.gauge("gpurel_nonfinite").set(std::numeric_limits<double>::quiet_NaN());
  reg.histogram("gpurel_latency_ms").observe(0.5);
  const std::string json = reg.to_json();
  EXPECT_TRUE(balanced_json(json)) << json;
  // The document is schema-versioned (lint rule schema-version / S1).
  EXPECT_EQ(json.rfind("{\"schema_version\":1,\"metrics\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"gpurel_trials_total\""), std::string::npos);
  EXPECT_NE(json.find("7"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  // Label values with JSON-special characters must be escaped.
  EXPECT_NE(json.find("F\\\"A\\\\D"), std::string::npos) << json;
  // Non-finite gauges degrade to null, never to bare nan/inf tokens.
  EXPECT_EQ(json.find(":nan"), std::string::npos) << json;
}

TEST(Metrics, PrometheusExposition) {
  Registry reg;
  reg.counter("gpurel_trials_total", {{"mix", "balanced"}}).add(12);
  reg.gauge("gpurel_queue_depth").set(3);
  reg.counter("gpurel_campaign_trials_total").add(4);
  Histogram& h = reg.histogram("gpurel_lat_ms", {{"phase", "run"}},
                               HistogramBuckets(1.0, 10.0, 3));
  h.observe(0.5);
  h.observe(5.0);
  h.observe(5000.0);  // overflow
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE gpurel_trials_total counter"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("gpurel_trials_total{mix=\"balanced\"} 12"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE gpurel_queue_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE gpurel_lat_ms histogram"), std::string::npos);
  // Cumulative buckets with the mandatory +Inf terminator, then _sum/_count.
  EXPECT_NE(prom.find("gpurel_lat_ms_bucket{phase=\"run\",le=\"1\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("gpurel_lat_ms_bucket{phase=\"run\",le=\"10\"} 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("gpurel_lat_ms_bucket{phase=\"run\",le=\"+Inf\"} 3"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("gpurel_lat_ms_count{phase=\"run\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("gpurel_lat_ms_sum{phase=\"run\"}"), std::string::npos);
  // Catalogued gpurel metrics carry a HELP line ahead of their TYPE line;
  // ad-hoc names simply get none (HELP is optional in the exposition format).
  EXPECT_NE(prom.find("# HELP gpurel_campaign_trials_total "
                      "Injection trials executed\n"
                      "# TYPE gpurel_campaign_trials_total counter"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("# HELP gpurel_trials_total"), std::string::npos) << prom;
}

TEST(Metrics, GlobalRegistryIsSingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

TEST(Trace, WriterEmitsValidJsonArray) {
  const std::string path = temp_path("trace", ".json");
  {
    TraceWriter w(path);
    w.name_process(kWallPid, "wall");
    w.name_thread(kWallPid, 0, "worker 0");
    w.complete("chunk", "campaign", kWallPid, 0, 100.0, 250.0,
               {{"begin", std::uint64_t{0}}, {"trials", std::uint64_t{8}}});
    EXPECT_GE(w.events_emitted(), 3u);
    w.close();
    w.complete("late", "x", kWallPid, 0, 0.0, 1.0);  // dropped after close
  }
  const std::string body = read_all(path);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '[');
  EXPECT_TRUE(balanced_json(body)) << body;
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"chunk\""), std::string::npos);
  EXPECT_NE(body.find("\"dur\":250"), std::string::npos);
  EXPECT_NE(body.find("process_name"), std::string::npos);
  EXPECT_NE(body.find("thread_name"), std::string::npos);
  EXPECT_EQ(body.find("\"late\""), std::string::npos);  // post-close dropped
  std::remove(path.c_str());
}

TEST(Trace, WriterThrowsOnUnwritablePath) {
  EXPECT_THROW(TraceWriter("/nonexistent-dir/x/trace.json"),
               std::runtime_error);
}

TEST(Trace, MetadataIsIdempotent) {
  const std::string path = temp_path("meta", ".json");
  {
    TraceWriter w(path);
    w.name_process(kSimPid, "sim");
    w.name_process(kSimPid, "sim");
    w.name_thread(kSimPid, 1, "SM 0");
    w.name_thread(kSimPid, 1, "SM 0");
    EXPECT_EQ(w.events_emitted(), 2u);
  }
  std::remove(path.c_str());
}

TEST(Exporter, PrometheusPathSwapsJsonSuffix) {
  EXPECT_EQ(prometheus_path_for("m.json"), "m.prom");
  EXPECT_EQ(prometheus_path_for("out/metrics.json"), "out/metrics.prom");
  EXPECT_EQ(prometheus_path_for("metrics"), "metrics.prom");
}

TEST(Exporter, WritesJsonAndPrometheusOnFlush) {
  const std::string mpath = temp_path("exporter", ".json");
  const std::string tpath = temp_path("exporter_trace", ".json");
  Registry::global().counter("gpurel_test_exporter_total").add(3);
  {
    Exporter ex(mpath, tpath);
    ASSERT_NE(ex.trace(), nullptr);
    ex.trace()->complete("mark", "test", kWallPid, 0, 1.0, 0.0);
  }  // destructor flushes
  const std::string json = read_all(mpath);
  EXPECT_TRUE(balanced_json(json)) << json;
  EXPECT_NE(json.find("gpurel_test_exporter_total"), std::string::npos);
  const std::string prom = read_all(prometheus_path_for(mpath));
  EXPECT_NE(prom.find("gpurel_test_exporter_total 3"), std::string::npos)
      << prom;
  const std::string trace = read_all(tpath);
  EXPECT_TRUE(balanced_json(trace)) << trace;
  EXPECT_NE(trace.find("\"mark\""), std::string::npos);
  std::remove(mpath.c_str());
  std::remove(prometheus_path_for(mpath).c_str());
  std::remove(tpath.c_str());
}

TEST(Exporter, DisabledWhenPathsEmptyAndEnvUnset) {
  if (std::getenv("GPUREL_TRACE") != nullptr ||
      std::getenv("GPUREL_METRICS") != nullptr)
    GTEST_SKIP() << "observability env vars set in test environment";
  Exporter ex("", "");
  EXPECT_EQ(ex.trace(), nullptr);
  ex.flush();  // must be a no-op, not a crash
}

}  // namespace
}  // namespace gpurel::obs
