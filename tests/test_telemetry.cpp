// Telemetry tests: the JSONL sink must emit one well-formed JSON object per
// line (including string escaping), the campaign runtime must emit its
// start/chunk/end events through a configured sink, and the small Timer /
// Counter / Progress helpers must behave.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "beam/experiment.hpp"
#include "common/json.hpp"
#include "common/telemetry.hpp"
#include "core/study.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "job/runner.hpp"
#include "kernels/matmul.hpp"
#include "obs/run_context.hpp"

namespace gpurel::telemetry {
namespace {

std::string temp_path(const char* tag) {
  return testing::TempDir() + "gpurel_telemetry_" + tag + ".jsonl";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Minimal structural JSON check: balanced braces / quotes outside strings,
// object per line. (No JSON library in the image; this catches the bugs a
// hand-rolled serializer actually has — unescaped quotes and truncation.)
bool looks_like_json_object(const std::string& s) {
  if (s.size() < 2 || s.front() != '{' || s.back() != '}') return false;
  bool in_string = false;
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip escaped char
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0 && i + 1 != s.size()) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Telemetry, SinkWritesOneJsonObjectPerLine) {
  const std::string path = temp_path("basic");
  {
    Sink sink(path);
    sink.emit("alpha", {{"n", std::uint64_t{42}}, {"ratio", 0.5}});
    sink.emit("beta", {{"name", "MXM"}, {"ok", true}});
    EXPECT_EQ(sink.events_emitted(), 2u);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines)
    EXPECT_TRUE(looks_like_json_object(line)) << line;
  EXPECT_NE(lines[0].find("\"event\":\"alpha\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"n\":42"), std::string::npos);
  EXPECT_NE(lines[0].find("\"t_ms\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\":\"MXM\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Telemetry, SinkEscapesStrings) {
  const std::string path = temp_path("escape");
  {
    Sink sink(path);
    sink.emit("esc", {{"s", "a\"b\\c\nd\te"}});
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);  // the \n must be escaped, not emitted raw
  EXPECT_TRUE(looks_like_json_object(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("a\\\"b\\\\c\\nd\\te"), std::string::npos)
      << lines[0];
  std::remove(path.c_str());
}

TEST(Telemetry, NonFiniteDoublesSerializeAsNull) {
  // NaN / Inf have no JSON literal; the sink must degrade them to null so
  // every emitted line stays parseable by strict JSON readers.
  const std::string path = temp_path("nonfinite");
  {
    Sink sink(path);
    sink.emit("edge", {{"nan", std::numeric_limits<double>::quiet_NaN()},
                       {"inf", std::numeric_limits<double>::infinity()},
                       {"ninf", -std::numeric_limits<double>::infinity()},
                       {"ok", 1.5}});
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(looks_like_json_object(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"nan\":null"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"inf\":null"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"ninf\":null"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"ok\":1.5"), std::string::npos) << lines[0];
  // No bare C-library spellings may leak through as (invalid) JSON tokens.
  EXPECT_EQ(lines[0].find(":nan"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[0].find(":inf"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[0].find(":-inf"), std::string::npos) << lines[0];
  std::remove(path.c_str());
}

TEST(Telemetry, SinkThrowsOnUnwritablePath) {
  EXPECT_THROW(Sink("/nonexistent-dir/x/y.jsonl"), std::runtime_error);
}

TEST(Telemetry, CounterAndTimer) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);

  Timer t;
  EXPECT_GE(t.elapsed_ms(), 0.0);
  t.reset();
  EXPECT_GE(t.elapsed_ms(), 0.0);
}

TEST(Telemetry, CampaignEmitsStartChunkEnd) {
  const std::string path = temp_path("campaign");
  {
    Sink sink(path);
    auto inj = fault::make_injector("SASSIFI");
    const core::WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                                  inj->profile(), 0x5eed, 0.05};
    fault::CampaignConfig cc;
    cc.injections_per_kind = 4;
    cc.ia_injections = 4;
    cc.seed = 11;
    cc.telemetry = &sink;
    const auto r = fault::run_campaign(
        *inj,
        [&] {
          return std::make_unique<kernels::MxM>(wc, core::Precision::Single, 16);
        },
        cc);
    ASSERT_GT(r.total_injections(), 0u);
  }
  const auto lines = read_lines(path);
  ASSERT_GE(lines.size(), 3u);  // start + at least one chunk + end
  for (const auto& line : lines)
    EXPECT_TRUE(looks_like_json_object(line)) << line;
  EXPECT_NE(lines.front().find("\"event\":\"campaign_start\""),
            std::string::npos);
  EXPECT_NE(lines.front().find("\"ia_pc_bits\":"), std::string::npos);
  EXPECT_NE(lines.back().find("\"event\":\"campaign_end\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"trials_per_sec\":"), std::string::npos);
  std::size_t chunks = 0;
  for (const auto& line : lines)
    if (line.find("\"event\":\"campaign_chunk\"") != std::string::npos) ++chunks;
  EXPECT_GT(chunks, 0u);
  std::remove(path.c_str());
}

TEST(Telemetry, ResolvePrefersConfiguredSink) {
  const std::string path = temp_path("resolve");
  {
    Sink sink(path);
    obs::RunContext ctx;
    ctx.telemetry = &sink;
    ctx.event("configured", {{"x", 1}});
    EXPECT_EQ(sink.events_emitted(), 1u);
  }
  EXPECT_EQ(read_lines(path).size(), 1u);
  // With no configured sink and GPUREL_TELEMETRY unset in the test
  // environment, the fallback is the (absent) process-wide sink: a no-op.
  if (std::getenv("GPUREL_TELEMETRY") == nullptr)
    obs::RunContext{}.event("dropped", {{"x", 1}});
  std::remove(path.c_str());
}

TEST(Telemetry, ZeroWeightBeamEndCarriesEveryKey) {
  // An all-zero cross-section database leaves nothing to strike, so the
  // experiment ends before dispatch; its beam_end still has the full schema.
  const std::string path = temp_path("beam_zero");
  {
    Sink sink(path);
    const core::WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                                  isa::CompilerProfile::Cuda10, 0x5eed, 0.05};
    beam::BeamConfig bc;
    bc.runs = 8;
    bc.telemetry = &sink;
    const beam::CrossSectionDb db{};
    const auto r = beam::run_beam(
        db,
        [&] {
          return std::make_unique<kernels::MxM>(wc, core::Precision::Single, 16);
        },
        bc);
    EXPECT_EQ(r.outcomes.total(), 0u);
  }
  const auto lines = read_lines(path);
  ASSERT_FALSE(lines.empty());
  const json::Value end = json::Value::parse(lines.back());
  EXPECT_EQ(json::get_string(end, "event"), "beam_end");
  for (const char* key : {"workload", "runs", "masked", "sdc", "due", "fit_sdc",
                          "fit_due", "wall_ms", "runs_per_sec"})
    EXPECT_NE(end.find(key), nullptr) << key << " missing: " << lines.back();
  EXPECT_EQ(json::get_uint(end, "runs"), 0u);
  std::remove(path.c_str());
}

TEST(Telemetry, ProgressTicksWithoutCrashing) {
  Progress off(false, "off", 10);
  off.tick(5);
  off.finish();  // disabled: no output, no state
  Progress on(true, "unit-test", 3);
  on.tick(1);
  on.tick(2);
  on.finish();
  SUCCEED();
}

// The event contract: every JSONL event name with its key set, and every
// wall-clock trace span by (name with the code stripped, category, pid,
// track class), that a Study evaluated twice into one cache (misses, stores
// and hits) plus one checkpointing job emit. Readers (scripts/ci.sh,
// perfbench's trace reader) key on these shapes; a change here is a schema
// change and belongs in docs/ARCHITECTURE.md §8.
TEST(Telemetry, EventStreamShape) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "gpurel_event_shape";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string events_path = (dir / "events.jsonl").string();
  const std::string trace_path = (dir / "trace.json").string();
  {
    Sink sink(events_path);
    obs::TraceWriter writer(trace_path);
    core::StudyConfig sc;
    sc.micro_beam_runs = 12;
    sc.app_beam_runs = 12;
    sc.micro_injections_per_kind = 3;
    sc.injections_per_kind = 3;
    sc.rf_injections = 3;
    sc.pred_injections = 2;
    sc.ia_injections = 2;
    sc.store_value_injections = 2;
    sc.store_addr_injections = 2;
    sc.sched_injections = 2;
    sc.scoreboard_injections = 2;
    sc.cta_injections = 2;
    sc.warp_control_injections = 2;
    sc.app_scale = 0.2;
    sc.micro_scale = 0.1;
    sc.seed = 5;
    sc.workers = 2;
    sc.propagation = true;
    sc.cache_dir = (dir / "cache").string();
    sc.telemetry = &sink;
    sc.trace = &writer;
    const arch::GpuConfig gpu = arch::GpuConfig::kepler_k40c(2);
    const kernels::CatalogEntry mxm{"MXM", core::Precision::Single};
    core::Study(gpu, sc).evaluate(mxm);  // stage 1, misses and stores
    core::Study(gpu, sc).evaluate(mxm, {true, true, false});  // cache hits

    job::RunOptions opts;
    opts.workers = 2;
    opts.context = sc.context();
    opts.checkpoint_path = (dir / "job.ckpt").string();
    opts.checkpoint_every = 1;
    fault::InjectionBudget budget;
    budget.injections_per_kind = 6;
    job::run_job(job::campaign_spec(gpu, mxm, "NVBitFI", budget, 9, 0x5eed,
                                    0.2),
                 opts);
  }

  std::set<std::string> events;
  for (const std::string& line : read_lines(events_path)) {
    const json::Value ev = json::Value::parse(line);
    std::set<std::string> keys;
    for (const auto& [k, v] : ev.members()) keys.insert(k);
    std::string shape = json::get_string(ev, "event") + ":";
    for (const std::string& k : keys) shape += " " + k;
    events.insert(shape);
  }
  std::set<std::string> spans;
  std::ifstream in(trace_path);
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value trace = json::Value::parse(ss.str());
  for (const json::Value& ev : trace.items()) {
    const std::string ph = json::get_string(ev, "ph");
    if (ph == "M") continue;
    const std::string cat = json::get_string(ev, "cat");
    std::string name = json::get_string(ev, "name");
    if (cat != "job" && cat != "cli") name = name.substr(0, name.find(' '));
    // Simulated-time timelines get a fresh pid per rendered trial.
    const bool wall = json::get_int(ev, "pid") == obs::kWallPid;
    const char* track = !wall ? "sim"
                        : json::get_int(ev, "tid") == 1000 ? "study"
                                                           : "worker";
    spans.insert(name + " | " + cat + " | " + (wall ? "wall" : "sim") +
                 " | " + track);
  }

  const std::set<std::string> expected_events = {
      "beam_chunk: begin done end event t_ms total wall_ms",
      "beam_end: due event fit_due fit_sdc masked runs runs_per_sec sdc t_ms "
      "wall_ms workload",
      "beam_snapshot_capture: epochs event image_bytes t_ms workload",
      "beam_start: device ecc event mode runs shard_count shard_index t_ms "
      "workers workload",
      "campaign_chunk: begin done end event t_ms total wall_ms",
      "campaign_end: due event injector masked sdc t_ms trials trials_per_sec "
      "wall_ms workload",
      "campaign_snapshot_capture: epochs event image_bytes t_ms workload",
      "campaign_start: event fork_epochs ia_pc_bits injector resumed_trials "
      "shard_count shard_index t_ms trials workers workload",
      "job_cache_hit: event key t_ms wall_ms",
      "job_cache_miss: event key t_ms wall_ms",
      "job_cache_store: event key t_ms wall_ms",
      "job_checkpoint_write: event t_ms trials_done wall_ms",
      "job_run: event key kind t_ms wall_ms",
      "propagation_record: bit blocks_reached control_divergences "
      "corrupted_elems cta cycle due due_cause effect event fired geometry "
      "global_bytes kind lane lane_instr masking_depth mix model opcode "
      "outcome output_cols output_rows overwrite_kills pc preds_touched "
      "regs_touched schema_version shared_bytes sm t_ms taint_live_at_end "
      "trial warp warps_reached",
      "study_micro: event name t_ms wall_ms",
      "study_stage: code event name stage t_ms wall_ms",
      "study_stage: event name stage t_ms wall_ms",
  };
  const std::set<std::string> expected_spans = {
      "FMXM | sim_kernel | sim | sim",
      "beam | beam | wall | worker",
      "beam | run | wall | worker",
      "beam | study | wall | study",
      "campaign | campaign | wall | worker",
      "campaign | run | wall | worker",
      "checkpoint write | job | wall | worker",
      "cta | sim_block | sim | sim",
      "fit_inputs | study | wall | study",
      "injections | study | wall | study",
      "job cache hit | job | wall | worker",
      "job cache miss | job | wall | worker",
      "job cache store | job | wall | worker",
      "job run | job | wall | worker",
      "micro | study | wall | study",
      "micro_characterization | study | wall | study",
      "predictions | study | wall | study",
      "profile | study | wall | study",
  };
  auto dump = [](const std::set<std::string>& s) {
    std::string out;
    for (const std::string& x : s) out += "      \"" + x + "\",\n";
    return out;
  };
  EXPECT_EQ(events, expected_events) << "actual events:\n" << dump(events);
  EXPECT_EQ(spans, expected_spans) << "actual spans:\n" << dump(spans);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace gpurel::telemetry
