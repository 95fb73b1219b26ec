// gpurel_lint — the static half of the determinism contract.
//
// Everything this reproduction produces (campaign outcomes, beam
// cross-sections, shard merges, content-addressed cache keys) rests on
// bit-identical replay: same spec, same bytes, on any machine, at any worker
// count. The dynamic tests (62 scheduler goldens, fork-equivalence pins,
// byte-stable JSON hashing) enforce that contract at run time; this tool
// enforces it at build time, before a hazard can silently change a spec hash
// or a merged result.
//
// It is deliberately a token/lightweight-AST scanner — no libclang — so it
// builds everywhere the simulator builds and runs in milliseconds as the
// first ci.sh leg. The rules (normative statement: docs/ARCHITECTURE.md §11):
//
//   unordered-container (D1)  no std::unordered_{map,set} in code that feeds
//                             serialization, hashing, or telemetry output;
//                             no iteration over unordered containers anywhere
//   wall-clock          (D2)  no system_clock/time()/std::rand/random_device
//                             in result-determining paths
//   pointer-key         (D3)  no pointer-keyed maps/sets, std::hash of
//                             pointers, or std::less<T*> in ordering decisions
//   float-format        (D4)  no raw float/double printf/iostream formatting
//                             in serialization code (route through
//                             common/json.hpp's shortest-double dumper)
//   raw-hash            (D5)  no memcpy/reinterpret_cast hashing of padded
//                             structs (field-wise hashing only)
//   schema-version      (S1)  every hand-rolled JSON document must carry a
//                             schema_version
//   emission-path       (O1)  outside src/obs/, common/telemetry.* and tests/,
//                             nothing reaches the JSONL sink, trace writer or
//                             progress meter around obs::RunContext
//   engine-version      (E1)  any token-level edit to a result-determining
//                             source requires a kEngineVersion bump, tracked
//                             by a checked-in manifest of token hashes
//
// Suppression: `// gpurel-lint: allow(<rule>[,<rule>...])` on the finding's
// line, or alone on the line above, silences it (add a rationale after the
// closing parenthesis). A checked-in baseline file can grandfather findings
// by fingerprint; the target baseline is empty — fix, don't baseline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gpurel::lint {

/// Schema of the --json report (and of baseline files). Pinned by
/// tests/test_lint.cpp.
inline constexpr std::int64_t kLintSchemaVersion = 1;

/// All rule slugs, in catalogue order (D1-D5, S1, O1, E1).
const std::vector<std::string>& rule_names();

struct Finding {
  std::string rule;     // slug, e.g. "wall-clock"
  std::string path;     // repo-relative, forward slashes
  int line = 0;         // 1-based
  std::string message;
  /// Line-drift-tolerant identity: fnv1a64 hex over rule, path and the
  /// whitespace-squeezed source line. Baseline entries match on this.
  std::string fingerprint;
  /// Present in the baseline file: reported but does not fail the run.
  bool baselined = false;
};

struct Options {
  std::string repo_root = ".";
  /// Files or directories, relative to repo_root. Directories are walked
  /// recursively for .cpp/.hpp/.h; build*/, .git/ and lint_fixtures/ are
  /// skipped.
  std::vector<std::string> paths;
  /// Empty selects <repo_root>/tools/lint/baseline.json when it exists.
  std::string baseline_path;
  /// Empty selects <repo_root>/tools/lint/engine_manifest.txt.
  std::string manifest_path;
  /// Run the E1 manifest diff (requires the manifest file; `gpurel_lint
  /// --update-manifest` creates it).
  bool check_manifest = true;
};

struct Report {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  /// kEngineVersion parsed out of src/job/spec.hpp ("" when absent).
  std::string engine_version;
  /// Findings that are neither suppressed nor baselined; nonzero fails CI.
  std::size_t new_findings = 0;
};

/// Analyze one in-memory source. `rel_path` drives rule scoping (e.g.
/// "src/sim/x.cpp" is result-determining, "tests/x.cpp" is not); it does not
/// need to exist on disk. Suppressed findings are dropped here; baseline
/// matching happens in run().
std::vector<Finding> analyze_source(const std::string& rel_path,
                                    std::string_view content);

/// Full run: walk paths, analyze every source, apply the baseline, and (when
/// enabled) diff the engine manifest. Throws std::runtime_error on I/O errors
/// (unreadable root, malformed baseline).
Report run(const Options& opts);

/// Canonical machine-readable report (schema_version = kLintSchemaVersion).
std::string report_json(const Report& report);

/// fnv1a64 hex over the comment/whitespace-insensitive token stream of a
/// source — the hash the engine manifest records, so formatting-only edits
/// never demand an engine bump.
std::string token_hash_hex(std::string_view content);

/// kEngineVersion literal from <repo_root>/src/job/spec.hpp, "" if missing.
std::string engine_version_of(const std::string& repo_root);

/// The repo-relative paths rule E1 covers: every source under the
/// result-determining directories plus the result-determining common/ files.
/// Only paths that exist under repo_root are returned, sorted.
std::vector<std::string> manifest_universe(const std::string& repo_root);

struct ManifestStatus {
  bool ok = false;
  std::string message;
};

/// Regenerate the manifest from the current tree. Refuses (ok=false) when the
/// existing manifest records the same engine version but different token
/// hashes — that is exactly the "edited result-determining code without a
/// kEngineVersion bump" state rule E1 exists to catch — unless `force`.
ManifestStatus update_manifest(const std::string& repo_root,
                               const std::string& manifest_path, bool force);

}  // namespace gpurel::lint
