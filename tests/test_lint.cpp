// Fixture-driven tests for tools/gpurel_lint: every rule (D1-D5, S1, O1, E1)
// fires on its bad fixture and stays silent on its good fixture; suppression
// comments, the baseline file, and the engine-manifest workflow behave as
// documented in docs/ARCHITECTURE.md §11; the --json schema is pinned.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "lint/lint.hpp"

namespace gpurel::lint {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const fs::path& p, const std::string& content) {
  fs::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::trunc | std::ios::binary);
  ASSERT_TRUE(out) << p;
  out << content;
}

fs::path fixtures() { return fs::path(GPUREL_LINT_FIXTURES); }

/// Fresh scratch dir per test under the gtest temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gpurel_lint_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  std::size_t n = 0;
  for (const Finding& f : findings)
    if (f.rule == rule) ++n;
  return n;
}

/// Analyze a fixture file under a chosen repo-relative path (rule scoping is
/// path-driven, so the same snippet can be result-determining or not).
std::vector<Finding> analyze_fixture(const std::string& fixture,
                                     const std::string& as_path) {
  return analyze_source(as_path, read_file(fixtures() / fixture));
}

// --- Rules D1-D5, S1 and O1: bad fires, good is silent ---------------------

TEST(LintRules, UnorderedContainerD1) {
  const auto bad = analyze_fixture("d1_bad.cpp", "src/job/fixture.cpp");
  EXPECT_GE(count_rule(bad, "unordered-container"), 2u)  // decl + iteration
      << report_json({bad, 1, "", 0});
  EXPECT_EQ(count_rule(analyze_fixture("d1_good.cpp", "src/job/fixture.cpp"),
                       "unordered-container"),
            0u);
  // Iteration over an unordered container is flagged even outside
  // result-determining paths.
  EXPECT_GE(count_rule(analyze_fixture("d1_bad.cpp", "tests/fixture.cpp"),
                       "unordered-container"),
            1u);
}

TEST(LintRules, WallClockD2) {
  const auto bad = analyze_fixture("d2_bad.cpp", "src/sim/fixture.cpp");
  EXPECT_EQ(count_rule(bad, "wall-clock"), 2u);  // system_clock + rand()
  EXPECT_EQ(count_rule(analyze_fixture("d2_good.cpp", "src/sim/fixture.cpp"),
                       "wall-clock"),
            0u);
  // The same snippet outside a result-determining path is fine (tests may
  // time themselves).
  EXPECT_EQ(count_rule(analyze_fixture("d2_bad.cpp", "tests/fixture.cpp"),
                       "wall-clock"),
            0u);
}

TEST(LintRules, PointerKeyD3) {
  const auto bad = analyze_fixture("d3_bad.cpp", "src/profile/fixture.cpp");
  EXPECT_EQ(count_rule(bad, "pointer-key"), 3u);  // map key, set key, hash
  EXPECT_EQ(
      count_rule(analyze_fixture("d3_good.cpp", "src/profile/fixture.cpp"),
                 "pointer-key"),
      0u);
}

TEST(LintRules, FloatFormatD4) {
  const auto bad = analyze_fixture("d4_bad.cpp", "src/obs/export.cpp");
  EXPECT_EQ(count_rule(bad, "float-format"), 1u);
  EXPECT_EQ(count_rule(analyze_fixture("d4_good.cpp", "src/obs/export.cpp"),
                       "float-format"),
            0u);
  // Only serialization paths are in scope: a debug printf in the simulator
  // core is not a document.
  EXPECT_EQ(count_rule(analyze_fixture("d4_bad.cpp", "src/sim/fixture.cpp"),
                       "float-format"),
            0u);
}

TEST(LintRules, RawHashD5) {
  const auto bad = analyze_fixture("d5_bad.cpp", "src/job/fixture.cpp");
  EXPECT_EQ(count_rule(bad, "raw-hash"), 1u);
  EXPECT_EQ(count_rule(analyze_fixture("d5_good.cpp", "src/job/fixture.cpp"),
                       "raw-hash"),
            0u);
}

TEST(LintRules, SchemaVersionS1) {
  const auto bad = analyze_fixture("s1_bad.cpp", "src/obs/export.cpp");
  EXPECT_EQ(count_rule(bad, "schema-version"), 1u);
  EXPECT_EQ(count_rule(analyze_fixture("s1_good.cpp", "src/obs/export.cpp"),
                       "schema-version"),
            0u);
  // The canonical dumper itself is exempt: json.cpp emits document syntax by
  // definition.
  EXPECT_EQ(count_rule(analyze_fixture("s1_bad.cpp", "src/common/json.cpp"),
                       "schema-version"),
            0u);
}

TEST(LintRules, SchemaVersionS1AppendStyleEmitter) {
  // Three or more `\"key\":` fragments across a file's literals are a JSON
  // document in disguise even when no single literal starts with `{"`.
  const auto bad = analyze_fixture("s1_frag_bad.cpp", "src/obs/export.cpp");
  EXPECT_EQ(count_rule(bad, "schema-version"), 1u)
      << report_json({bad, 1, "", 0});
  // Two fragments are below threshold, and the rule stays path-scoped.
  EXPECT_EQ(
      count_rule(analyze_fixture("s1_frag_good.cpp", "src/obs/export.cpp"),
                 "schema-version"),
      0u);
  EXPECT_EQ(
      count_rule(analyze_fixture("s1_frag_bad.cpp", "src/common/json.cpp"),
                 "schema-version"),
      0u);
}

TEST(LintRules, EmissionPathO1) {
  // telemetry::resolve, resolved_trace and telemetry::Progress.
  const auto bad = analyze_fixture("o1_bad.cpp", "src/core/fixture.cpp");
  EXPECT_EQ(count_rule(bad, "emission-path"), 3u)
      << report_json({bad, 1, "", 0});
  EXPECT_EQ(count_rule(analyze_fixture("o1_good.cpp", "src/core/fixture.cpp"),
                       "emission-path"),
            0u);
  // The tools are in scope; the channels' own files and the tests are not.
  EXPECT_EQ(count_rule(analyze_fixture("o1_bad.cpp", "tools/fixture.cpp"),
                       "emission-path"),
            3u);
  for (const char* exempt : {"src/obs/run_context.cpp",
                             "src/common/telemetry.cpp", "tests/fixture.cpp"})
    EXPECT_EQ(count_rule(analyze_fixture("o1_bad.cpp", exempt),
                         "emission-path"),
              0u)
        << exempt;
  // Each forbidden token fires on its own.
  for (const char* code :
       {"auto* s = gpurel::telemetry::env_sink();\n",
        "auto* w = gpurel::obs::env_trace();\n",
        "auto* w = gpurel::obs::resolve_trace(nullptr);\n",
        "auto* s = ctx.resolved_sink();\n"})
    EXPECT_EQ(count_rule(analyze_source("src/job/x.cpp", code),
                         "emission-path"),
              1u)
        << code;
}

// --- Suppression comments --------------------------------------------------

TEST(LintSuppression, SameLineAllowSilencesTheFinding) {
  const std::string code =
      "void seed() { std::srand(7); }  "
      "// gpurel-lint: allow(wall-clock) fixture demo\n";
  EXPECT_EQ(analyze_source("src/sim/x.cpp", code).size(), 0u);
}

TEST(LintSuppression, PreviousCommentLineAllowPropagates) {
  const std::string code =
      "// gpurel-lint: allow(wall-clock) fixture demo\n"
      "void seed() { std::srand(7); }\n";
  EXPECT_EQ(analyze_source("src/sim/x.cpp", code).size(), 0u);
}

TEST(LintSuppression, AllowListsMultipleRules) {
  const std::string code =
      "// gpurel-lint: allow(unordered-container, wall-clock) demo\n"
      "void seed() { std::srand(7); }\n";
  EXPECT_EQ(analyze_source("src/sim/x.cpp", code).size(), 0u);
}

TEST(LintSuppression, WrongRuleDoesNotSuppress) {
  const std::string code =
      "void seed() { std::srand(7); }  // gpurel-lint: allow(raw-hash)\n";
  EXPECT_EQ(count_rule(analyze_source("src/sim/x.cpp", code), "wall-clock"),
            1u);
}

TEST(LintSuppression, HazardInsideCommentOrStringIsIgnored) {
  EXPECT_EQ(analyze_source("src/sim/x.cpp",
                           "// std::rand() would be bad here\n"
                           "const char* kDoc = \"never call std::rand()\";\n")
                .size(),
            0u);
}

// --- run(): walking, baseline, exit accounting -----------------------------

TEST(LintRun, BaselineGrandfathersByFingerprint) {
  const fs::path repo = scratch_dir("baseline");
  write_file(repo / "src/sim/bad.cpp", "void f() { std::srand(7); }\n");

  Options opts;
  opts.repo_root = repo.string();
  opts.paths = {"src"};
  opts.check_manifest = false;

  Report before = run(opts);
  ASSERT_EQ(before.findings.size(), 1u);
  EXPECT_EQ(before.findings[0].rule, "wall-clock");
  EXPECT_EQ(before.findings[0].path, "src/sim/bad.cpp");
  EXPECT_FALSE(before.findings[0].baselined);
  EXPECT_EQ(before.new_findings, 1u);

  // Grandfather that fingerprint; the finding is still reported but no
  // longer fails the run.
  json::Value baseline = json::Value::object();
  baseline.set("schema_version", kLintSchemaVersion);
  json::Value arr = json::Value::array();
  json::Value entry = json::Value::object();
  entry.set("rule", before.findings[0].rule);
  entry.set("path", before.findings[0].path);
  entry.set("fingerprint", before.findings[0].fingerprint);
  arr.push_back(std::move(entry));
  baseline.set("findings", std::move(arr));
  write_file(repo / "tools/lint/baseline.json", baseline.dump());

  Report after = run(opts);
  ASSERT_EQ(after.findings.size(), 1u);
  EXPECT_TRUE(after.findings[0].baselined);
  EXPECT_EQ(after.new_findings, 0u);

  // A *new* finding is not covered by the old fingerprint.
  write_file(repo / "src/sim/bad.cpp",
             "void f() { std::srand(7); }\nvoid g() { std::rand(); }\n");
  Report grown = run(opts);
  ASSERT_EQ(grown.findings.size(), 2u);
  EXPECT_EQ(grown.new_findings, 1u);
}

TEST(LintRun, FixtureDirectoryIsSkippedByTheWalker) {
  // The real tree contains tests/lint_fixtures full of deliberate hazards;
  // the walker must never descend into it.
  const fs::path repo = scratch_dir("walker");
  fs::create_directories(repo / "tests/lint_fixtures");
  fs::copy(fixtures() / "d2_bad.cpp",
           repo / "tests/lint_fixtures/d2_bad.cpp");
  write_file(repo / "tests/test_ok.cpp", "int main() { return 0; }\n");

  Options opts;
  opts.repo_root = repo.string();
  opts.paths = {"tests"};
  opts.check_manifest = false;
  const Report r = run(opts);
  EXPECT_EQ(r.files_scanned, 1u);
  EXPECT_EQ(r.findings.size(), 0u);
}

// --- E1: the engine-manifest workflow --------------------------------------

class LintManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repo_ = scratch_dir("e1");
    fs::copy(fixtures() / "e1_repo", repo_, fs::copy_options::recursive);
    manifest_ = (repo_ / "tools/lint/engine_manifest.txt").string();
    fs::create_directories(repo_ / "tools/lint");
  }

  Report run_repo() {
    Options opts;
    opts.repo_root = repo_.string();
    opts.paths = {"src"};
    return run(opts);
  }

  fs::path repo_;
  std::string manifest_;
};

TEST_F(LintManifestTest, UniverseAndEngineVersionParse) {
  EXPECT_EQ(engine_version_of(repo_.string()), "fixture-engine-1");
  const std::vector<std::string> universe = manifest_universe(repo_.string());
  ASSERT_EQ(universe.size(), 2u);
  EXPECT_EQ(universe[0], "src/job/spec.hpp");
  EXPECT_EQ(universe[1], "src/sim/core.cpp");
}

TEST_F(LintManifestTest, MissingManifestIsAFinding) {
  const Report r = run_repo();
  EXPECT_EQ(count_rule(r.findings, "engine-version"), 1u);
  EXPECT_EQ(r.new_findings, 1u);
}

TEST_F(LintManifestTest, EditWithoutBumpTripsAndUpdateRefuses) {
  ASSERT_TRUE(update_manifest(repo_.string(), manifest_, false).ok);
  EXPECT_EQ(run_repo().new_findings, 0u);

  // Comment/whitespace edits don't change the token hash: no finding.
  const std::string original = read_file(repo_ / "src/sim/core.cpp");
  write_file(repo_ / "src/sim/core.cpp",
             "// reformatted\n" + original + "   \n");
  EXPECT_EQ(run_repo().new_findings, 0u);

  // A token-level edit without an engine bump trips E1...
  write_file(repo_ / "src/sim/core.cpp",
             original + "int three() { return 3; }\n");
  const Report tripped = run_repo();
  ASSERT_EQ(count_rule(tripped.findings, "engine-version"), 1u);
  EXPECT_EQ(tripped.findings[0].path, "src/sim/core.cpp");

  // ...and --update-manifest refuses to paper over it without --force.
  const ManifestStatus refused =
      update_manifest(repo_.string(), manifest_, false);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.message.find("kEngineVersion"), std::string::npos);
  EXPECT_TRUE(update_manifest(repo_.string(), manifest_, true).ok);
  EXPECT_EQ(run_repo().new_findings, 0u);
}

TEST_F(LintManifestTest, EngineBumpReBaselinesCleanly) {
  ASSERT_TRUE(update_manifest(repo_.string(), manifest_, false).ok);
  write_file(repo_ / "src/sim/core.cpp",
             read_file(repo_ / "src/sim/core.cpp") +
                 "int three() { return 3; }\n");
  write_file(repo_ / "src/job/spec.hpp",
             "#pragma once\n"
             "inline constexpr const char* kEngineVersion = "
             "\"fixture-engine-2\";\n");
  // The stale manifest now reports the version mismatch...
  const Report stale = run_repo();
  EXPECT_EQ(count_rule(stale.findings, "engine-version"), 1u);
  // ...and after the bump, refresh works without force and the tree is clean.
  ASSERT_TRUE(update_manifest(repo_.string(), manifest_, false).ok);
  EXPECT_EQ(run_repo().new_findings, 0u);
}

TEST_F(LintManifestTest, NewAndRemovedFilesAreFindings) {
  ASSERT_TRUE(update_manifest(repo_.string(), manifest_, false).ok);
  write_file(repo_ / "src/sim/extra.cpp", "int extra() { return 1; }\n");
  Report r = run_repo();
  EXPECT_EQ(count_rule(r.findings, "engine-version"), 1u);

  fs::remove(repo_ / "src/sim/extra.cpp");
  fs::remove(repo_ / "src/sim/core.cpp");
  r = run_repo();
  EXPECT_EQ(count_rule(r.findings, "engine-version"), 1u);
}

// --- Token hashing ----------------------------------------------------------

TEST(LintTokenHash, InsensitiveToCommentsAndWhitespaceOnly) {
  const std::string a = "int f() { return 1; }\n";
  EXPECT_EQ(token_hash_hex(a), token_hash_hex("int  f()   { // hi\n"
                                              "  return 1; }\n"));
  EXPECT_NE(token_hash_hex(a), token_hash_hex("int f() { return 2; }\n"));
  // String literals are semantics, not formatting.
  EXPECT_NE(token_hash_hex("const char* k = \"a\";\n"),
            token_hash_hex("const char* k = \"b\";\n"));
}

// --- JSON report schema pin -------------------------------------------------

TEST(LintReport, JsonSchemaIsPinned) {
  ASSERT_EQ(kLintSchemaVersion, 1);

  const fs::path repo = scratch_dir("report");
  write_file(repo / "src/sim/bad.cpp", "void f() { std::srand(7); }\n");
  Options opts;
  opts.repo_root = repo.string();
  opts.paths = {"src"};
  opts.check_manifest = false;
  const Report r = run(opts);

  const json::Value doc = json::Value::parse(report_json(r));
  EXPECT_EQ(json::get_int(doc, "schema_version"), kLintSchemaVersion);
  EXPECT_EQ(json::get_string(doc, "tool"), "gpurel_lint");
  EXPECT_EQ(json::get_uint(doc, "files_scanned"), 1u);
  EXPECT_EQ(json::get_uint(doc, "new_findings"), 1u);
  ASSERT_EQ(doc.at("findings").size(), 1u);
  const json::Value& f = doc.at("findings")[0];
  EXPECT_EQ(json::get_string(f, "rule"), "wall-clock");
  EXPECT_EQ(json::get_string(f, "path"), "src/sim/bad.cpp");
  EXPECT_EQ(json::get_int(f, "line"), 1);
  EXPECT_FALSE(json::get_string(f, "message").empty());
  EXPECT_EQ(json::get_string(f, "fingerprint").size(), 16u);
  EXPECT_FALSE(json::get_bool(f, "baselined"));
}

TEST(LintReport, RuleCatalogueIsComplete) {
  const std::vector<std::string> expected = {
      "unordered-container", "wall-clock",    "pointer-key",
      "float-format",        "raw-hash",      "schema-version",
      "emission-path",       "engine-version"};
  EXPECT_EQ(rule_names(), expected);
}

}  // namespace
}  // namespace gpurel::lint
