// perfbench_compare: diff two benchmark result sets.
//
//   perfbench_compare BENCHMARK.json parent.jsonl change.jsonl
//
// Each result set is a JSON Lines ledger written by `run.py --ledger`: one
// {"workload", "seed", "trace", "size", "result"} object per run. For every
// (workload, end-to-end metric) the tool prints both sides' median and
// quartiles and a verdict against the metric's bound from BENCHMARK.json:
//
//   regressed   the change's median is worse than the parent's by more than
//               the bound;
//   improved    the change's median is better by more than the parent's own
//               quartile spread and the change wins at least 9 of 10 pairs
//               (run i of one side against run i of the other);
//   unresolved  the parent's quartile spread is wider than the bound, unless
//               every change run is better than every parent run;
//   unchanged   otherwise.
//
// It also prints each side's error rate (failed / attempted ops) and, for
// traced runs, the per-layer medians side by side. Exit status: 0 when
// nothing regressed and the change failed no op, 1 otherwise, 2 on bad input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"

using namespace gpurel;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One side's runs of one workload in one trace mode.
struct Runs {
  std::map<std::string, std::vector<double>> metrics;  // in ledger order
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// workload -> trace mode -> runs
using ResultSet = std::map<std::string, std::map<bool, Runs>>;

ResultSet read_ledger(const std::string& path) {
  ResultSet set;
  std::istringstream lines(slurp(path));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const json::Value doc = json::Value::parse(line);
    const json::Value& result = doc.at("result");
    Runs& runs = set[json::get_string(doc, "workload")]
                    [json::get_int(doc, "trace") != 0];
    runs.attempted += json::get_uint(result, "attempted");
    runs.failed += json::get_uint(result, "failed");
    for (const auto& [name, m] : result.at("metrics").members())
      runs.metrics[name].push_back(json::get_double(m, "value"));
  }
  return set;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First and third quartile, as Python's statistics.quantiles(v, n=4)
/// (exclusive method) computes them; both equal the value for one sample.
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld < 2) return {v.front(), v.front()};
  const auto cut = [&](long i) {
    const long m = ld + 1;
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    return (lo * static_cast<double>(4 - delta) +
            hi * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

struct Side {
  double med, q1, q3;
};

Side summarize(const std::vector<double>& v) {
  const auto [q1, q3] = quartiles(v);
  return {median(v), q1, q3};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: perfbench_compare BENCHMARK.json parent.jsonl "
                 "change.jsonl\n");
    return 2;
  }
  try {
    const json::Value bench = json::Value::parse(slurp(argv[1]));
    const ResultSet parent = read_ledger(argv[2]);
    const ResultSet change = read_ledger(argv[3]);
    bool bad = false;

    std::printf("%-14s %-30s %12s %21s %12s %21s %8s  %s\n", "workload",
                "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "delta",
                "verdict");
    for (const auto& [workload, modes] : parent) {
      const auto cw = change.find(workload);
      if (cw == change.end()) continue;
      for (const bool traced : {false, true}) {
        const auto pa = modes.find(traced);
        const auto ch = cw->second.find(traced);
        if (pa == modes.end() || ch == cw->second.end()) continue;
        const Runs& a = pa->second;
        const Runs& b = ch->second;
        for (const json::Value& spec :
             bench.at(traced ? "per_layer" : "end_to_end").items()) {
          const std::string& name = json::get_string(spec, "name");
          const auto va = a.metrics.find(name);
          const auto vb = b.metrics.find(name);
          if (va == a.metrics.end() || vb == b.metrics.end()) continue;
          const Side sa = summarize(va->second);
          const Side sb = summarize(vb->second);
          const bool lower = json::get_string(spec, "better") == "lower";
          // Relative change, positive = worse.
          const double worse =
              sa.med != 0.0 ? (lower ? sb.med - sa.med : sa.med - sb.med) /
                                  std::abs(sa.med)
                            : 0.0;
          std::string verdict = "-";
          if (!traced) {
            const double bound = json::get_double(spec, "bound");
            const double spread =
                sa.med != 0.0 ? (sa.q3 - sa.q1) / std::abs(sa.med) : 0.0;
            const auto better = [&](double x, double y) {
              return lower ? x < y : x > y;
            };
            const std::size_t pairs =
                std::min(va->second.size(), vb->second.size());
            std::size_t wins = 0;
            for (std::size_t i = 0; i < pairs; ++i)
              wins += better(vb->second[i], va->second[i]) ? 1u : 0u;
            const bool dominates = std::all_of(
                vb->second.begin(), vb->second.end(), [&](double x) {
                  return std::all_of(va->second.begin(), va->second.end(),
                                     [&](double y) { return better(x, y); });
                });
            if (worse > bound) {
              verdict = "regressed";
              bad = true;
            } else if (-worse > spread && 10 * wins >= 9 * pairs && pairs > 0) {
              verdict = "improved";
            } else if (spread > bound && !dominates) {
              verdict = "unresolved";
            } else {
              verdict = "unchanged";
            }
          }
          std::printf("%-14s %-30s %12.6g [%9.4g, %9.4g] %12.6g [%9.4g, %9.4g] "
                      "%+7.1f%%  %s\n",
                      workload.c_str(), name.c_str(), sa.med, sa.q1, sa.q3,
                      sb.med, sb.q1, sb.q3, 100.0 * worse, verdict.c_str());
        }
        const auto rate = [](const Runs& r) {
          return r.attempted ? static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted)
                             : 0.0;
        };
        std::printf("%-14s %-30s %12.6g %21s %12.6g %21s %8s  %s\n",
                    workload.c_str(), traced ? "error_rate(tr)" : "error_rate",
                    rate(a), "", rate(b), "", "",
                    b.failed ? "FAILED OPS" : "ok");
        bad |= b.failed != 0;
      }
    }
    return bad ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_compare: %s\n", e.what());
    return 2;
  }
}
