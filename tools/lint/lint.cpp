// Implementation of the gpurel determinism linter. One pass builds a
// comment/string-stripped "code view" plus the string-literal list and the
// per-line allow() annotations; the rules then run over a flat token stream.
// Deliberately heuristic: precise enough to be empty on this tree, simple
// enough to audit by reading this file.
#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/bits.hpp"
#include "common/json.hpp"

namespace gpurel::lint {

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Source view: raw lines, code view (comments/literals blanked), literals,
// and allow() annotations.
// ---------------------------------------------------------------------------

struct Literal {
  int line = 0;        // 1-based line of the opening quote
  std::string text;    // source spelling between the quotes (escapes intact)
};

struct SourceView {
  std::vector<std::string> raw;               // [0] unused; 1-based
  std::vector<std::string> code;              // same shape as raw
  std::vector<Literal> strings;
  std::vector<std::set<std::string>> allows;  // per-line allowed rule slugs
};

void split_lines(std::string_view content, std::vector<std::string>& out) {
  out.emplace_back();  // 1-based indexing
  std::string cur;
  for (const char c : content) {
    if (c == '\n') {
      out.push_back(cur);
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
}

/// Parse every `gpurel-lint: allow(a,b)` marker on a raw line.
void parse_allows(const std::string& line, std::set<std::string>& out) {
  const std::string key = "gpurel-lint:";
  for (std::size_t pos = line.find(key); pos != std::string::npos;
       pos = line.find(key, pos + key.size())) {
    std::size_t p = line.find("allow(", pos);
    if (p == std::string::npos) continue;
    p += 6;
    const std::size_t close = line.find(')', p);
    if (close == std::string::npos) continue;
    std::string rules = line.substr(p, close - p);
    std::string cur;
    for (const char c : rules + ",") {
      if (c == ',') {
        while (!cur.empty() && cur.back() == ' ') cur.pop_back();
        std::size_t b = cur.find_first_not_of(' ');
        if (b != std::string::npos) out.insert(cur.substr(b));
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
  }
}

bool blank(const std::string& s) {
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isspace(c) != 0; });
}

SourceView build_view(std::string_view content) {
  SourceView v;
  split_lines(content, v.raw);
  v.code.resize(v.raw.size());
  v.allows.resize(v.raw.size() + 1);

  enum class St { Code, LineComment, BlockComment, Str, Chr, RawStr };
  St st = St::Code;
  std::string raw_delim;      // raw-string closing delimiter ")delim"
  std::string* literal = nullptr;

  for (std::size_t li = 1; li < v.raw.size(); ++li) {
    const std::string& in = v.raw[li];
    std::string out;
    out.reserve(in.size());
    if (st == St::LineComment) st = St::Code;
    for (std::size_t i = 0; i < in.size(); ++i) {
      const char c = in[i];
      const char n = i + 1 < in.size() ? in[i + 1] : '\0';
      switch (st) {
        case St::Code:
          if (c == '/' && n == '/') {
            st = St::LineComment;
            out += "  ";
            ++i;
          } else if (c == '/' && n == '*') {
            st = St::BlockComment;
            out += "  ";
            ++i;
          } else if (c == 'R' && n == '"' &&
                     (i == 0 || (std::isalnum(static_cast<unsigned char>(
                                     in[i - 1])) == 0 &&
                                 in[i - 1] != '_'))) {
            // R"delim( ... )delim"
            std::size_t open = in.find('(', i + 2);
            if (open == std::string::npos) { out += c; break; }
            raw_delim = ")" + in.substr(i + 2, open - (i + 2)) + "\"";
            v.strings.push_back({static_cast<int>(li), ""});
            literal = &v.strings.back().text;
            st = St::RawStr;
            out += "\"\"";
            out.append(open - i - 1, ' ');
            i = open;
          } else if (c == '"') {
            v.strings.push_back({static_cast<int>(li), ""});
            literal = &v.strings.back().text;
            st = St::Str;
            out += '"';
          } else if (c == '\'') {
            st = St::Chr;
            out += ' ';
          } else {
            out += c;
          }
          break;
        case St::LineComment:
          out += ' ';
          break;
        case St::BlockComment:
          if (c == '*' && n == '/') {
            st = St::Code;
            out += "  ";
            ++i;
          } else {
            out += ' ';
          }
          break;
        case St::Str:
          if (c == '\\' && n != '\0') {
            literal->push_back(c);
            literal->push_back(n);
            out += "  ";
            ++i;
          } else if (c == '"') {
            st = St::Code;
            literal = nullptr;
            out += '"';
          } else {
            literal->push_back(c);
            out += ' ';
          }
          break;
        case St::Chr:
          if (c == '\\' && n != '\0') {
            out += "  ";
            ++i;
          } else if (c == '\'') {
            st = St::Code;
            out += ' ';
          } else {
            out += ' ';
          }
          break;
        case St::RawStr:
          if (in.compare(i, raw_delim.size(), raw_delim) == 0) {
            st = St::Code;
            literal = nullptr;
            out.append(raw_delim.size(), ' ');
            i += raw_delim.size() - 1;
          } else {
            literal->push_back(c);
            out += ' ';
          }
          break;
      }
    }
    if (st == St::Str) { st = St::Code; literal = nullptr; }  // unterminated
    if (st == St::Chr) st = St::Code;
    if (st == St::RawStr && literal != nullptr) literal->push_back('\n');
    v.code[li] = std::move(out);
    parse_allows(v.raw[li], v.allows[li]);
  }
  // An annotation on a comment-only line also covers the next line.
  for (std::size_t li = 1; li + 1 < v.allows.size(); ++li) {
    if (!v.allows[li].empty() && blank(v.code[li]))
      v.allows[li + 1].insert(v.allows[li].begin(), v.allows[li].end());
  }
  return v;
}

// ---------------------------------------------------------------------------
// Tokenizer over the code view.
// ---------------------------------------------------------------------------

struct Tok {
  std::string text;
  int line = 0;
  bool ident = false;
};

std::vector<Tok> tokenize(const SourceView& v) {
  std::vector<Tok> toks;
  for (std::size_t li = 1; li < v.code.size(); ++li) {
    const std::string& s = v.code[li];
    for (std::size_t i = 0; i < s.size();) {
      const unsigned char c = static_cast<unsigned char>(s[i]);
      if (std::isspace(c) != 0) { ++i; continue; }
      if (std::isalpha(c) != 0 || c == '_') {
        std::size_t j = i + 1;
        while (j < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[j])) != 0 ||
                s[j] == '_'))
          ++j;
        toks.push_back({s.substr(i, j - i), static_cast<int>(li), true});
        i = j;
      } else if (std::isdigit(c) != 0) {
        std::size_t j = i + 1;
        while (j < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[j])) != 0 ||
                s[j] == '.' || s[j] == '_'))
          ++j;
        toks.push_back({s.substr(i, j - i), static_cast<int>(li), false});
        i = j;
      } else {
        toks.push_back({std::string(1, s[i]), static_cast<int>(li), false});
        ++i;
      }
    }
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Rule scoping by repo-relative path.
// ---------------------------------------------------------------------------

bool starts_with_any(const std::string& p,
                     std::initializer_list<const char*> prefixes) {
  for (const char* pre : prefixes)
    if (p.rfind(pre, 0) == 0) return true;
  return false;
}

/// Paths whose code can determine engine results (D2 scope). common/ is
/// included — rng, json, stats and fp16 all feed results; the observability
/// files inside it carry explicit allow() annotations instead.
bool is_result_path(const std::string& p) {
  return starts_with_any(
      p, {"src/sim/", "src/fault/", "src/isa/", "src/job/", "src/beam/",
          "src/model/", "src/common/", "src/core/", "src/kernels/",
          "src/arch/"});
}

/// Files that serialize documents or events (D4 scope, D1 declaration tier).
bool is_serialization_path(const std::string& p) {
  return starts_with_any(
      p, {"src/common/json.", "src/common/telemetry.", "src/obs/trace.",
          "src/obs/export.", "src/obs/metrics.", "src/job/",
          "src/core/report."});
}

bool in_s1_scope(const std::string& p) {
  return (starts_with_any(p, {"src/", "tools/"})) &&
         !starts_with_any(p, {"src/common/json."});
}

/// Files that may reach the observability channels directly (O1 exempt):
/// the channels themselves, and the tests that exercise them.
bool owns_channels(const std::string& p) {
  return starts_with_any(p, {"src/obs/", "src/common/telemetry.", "tests/"});
}

// ---------------------------------------------------------------------------
// Finding helpers.
// ---------------------------------------------------------------------------

std::string squeeze(const std::string& s) {
  std::string out;
  bool space = true;
  for (const char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!space) out += ' ';
      space = true;
    } else {
      out += c;
      space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string hex16(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xf];
    h >>= 4;
  }
  return out;
}

class Emitter {
 public:
  Emitter(const std::string& path, const SourceView& view,
          std::vector<Finding>& out)
      : path_(path), view_(view), out_(out) {}

  void emit(const char* rule, int line, std::string message) {
    if (line >= 1 && static_cast<std::size_t>(line) < view_.allows.size() &&
        view_.allows[static_cast<std::size_t>(line)].count(rule) > 0)
      return;  // suppressed
    Finding f;
    f.rule = rule;
    f.path = path_;
    f.line = line;
    f.message = std::move(message);
    const std::string& raw =
        line >= 1 && static_cast<std::size_t>(line) < view_.raw.size()
            ? view_.raw[static_cast<std::size_t>(line)]
            : std::string();
    f.fingerprint =
        hex16(fnv1a64(f.rule + "|" + f.path + "|" + squeeze(raw)));
    out_.push_back(std::move(f));
  }

 private:
  const std::string& path_;
  const SourceView& view_;
  std::vector<Finding>& out_;
};

// ---------------------------------------------------------------------------
// Rules D1-D5, S1 and O1 over one source.
// ---------------------------------------------------------------------------

bool is_unordered_name(const std::string& t) {
  return t == "unordered_map" || t == "unordered_set" ||
         t == "unordered_multimap" || t == "unordered_multiset";
}

/// Index just past a balanced <...> starting at toks[i] == "<"; i when the
/// angle never closes before a statement boundary.
std::size_t skip_angles(const std::vector<Tok>& toks, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    const std::string& t = toks[j].text;
    if (t == "<") ++depth;
    else if (t == ">") { if (--depth == 0) return j + 1; }
    else if (t == ";" || t == "{" || t == "}") break;
  }
  return i;
}

void rule_unordered(const std::string& path, const std::vector<Tok>& toks,
                    Emitter& em) {
  const bool sensitive = is_result_path(path) || is_serialization_path(path);
  std::set<std::string> vars;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident || !is_unordered_name(toks[i].text)) continue;
    if (sensitive) {
      em.emit("unordered-container", toks[i].line,
              "std::" + toks[i].text +
                  " in a result/serialization path: iteration order is "
                  "unspecified and would leak into serialized or hashed "
                  "output; use std::map or a sorted vector (allow(" +
                  std::string("unordered-container") +
                  ") only if provably never iterated)");
    }
    // Record declared variable names for the iteration tier.
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") j = skip_angles(toks, j);
    if (j == i + 1) continue;  // no template argument list
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const"))
      ++j;
    if (j < toks.size() && toks[j].ident) vars.insert(toks[j].text);
  }
  if (vars.empty()) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // var.begin() / var.end() / var.cbegin() / var.cend()
    if (toks[i].ident && vars.count(toks[i].text) > 0 && i + 2 < toks.size() &&
        toks[i + 1].text == "." &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "end" ||
         toks[i + 2].text == "cbegin" || toks[i + 2].text == "cend")) {
      em.emit("unordered-container", toks[i].line,
              "iteration over unordered container '" + toks[i].text +
                  "': visit order is unspecified and nondeterministic across "
                  "libraries; iterate a sorted view instead");
    }
    // for ( ... : var )
    if (toks[i].ident && toks[i].text == "for" && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      int depth = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].text == "(") ++depth;
        else if (toks[j].text == ")") { if (--depth == 0) break; }
        else if (toks[j].text == ":" && toks[j - 1].text != ":" &&
                 (j + 1 >= toks.size() || toks[j + 1].text != ":") &&
                 j + 1 < toks.size() && toks[j + 1].ident &&
                 vars.count(toks[j + 1].text) > 0) {
          em.emit("unordered-container", toks[j + 1].line,
                  "range-for over unordered container '" + toks[j + 1].text +
                      "': visit order is unspecified and nondeterministic "
                      "across libraries; iterate a sorted view instead");
        }
      }
    }
  }
}

void rule_wall_clock(const std::string& path, const std::vector<Tok>& toks,
                     Emitter& em) {
  if (!is_result_path(path)) return;
  static const std::set<std::string> bare = {
      "system_clock",   "steady_clock", "high_resolution_clock",
      "random_device",  "gettimeofday", "clock_gettime",
      "timespec_get",   "localtime",    "gmtime"};
  static const std::set<std::string> called = {"time", "clock", "rand",
                                               "srand"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident) continue;
    const std::string& t = toks[i].text;
    if (bare.count(t) > 0) {
      em.emit("wall-clock", toks[i].line,
              "'" + t +
                  "' in a result-determining path: results must be "
                  "byte-identical across runs and machines, so all entropy "
                  "flows from common::Rng and all time from simulated cycles "
                  "(allow(wall-clock) for observability-only stopwatches)");
    } else if (called.count(t) > 0 && i + 1 < toks.size() &&
               toks[i + 1].text == "(") {
      em.emit("wall-clock", toks[i].line,
              "call to '" + t +
                  "()' in a result-determining path: wall-clock and libc "
                  "randomness are nondeterministic; use common::Rng / "
                  "simulated time");
    }
  }
}

void rule_pointer_key(const std::vector<Tok>& toks, Emitter& em) {
  static const std::set<std::string> keyed = {"map", "set", "multimap",
                                              "multiset"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].ident || toks[i + 1].text != "<") continue;
    const std::string& t = toks[i].text;
    const bool qualified = i > 0 && toks[i - 1].text == ":";
    bool check_first_arg_only = false;
    if ((t == "hash" || t == "less" || t == "greater") && qualified) {
      check_first_arg_only = false;  // whole template argument list
    } else if ((keyed.count(t) > 0 && qualified) || is_unordered_name(t)) {
      check_first_arg_only = true;  // the key type
    } else {
      continue;
    }
    int depth = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& u = toks[j].text;
      if (u == "<") ++depth;
      else if (u == ">") { if (--depth == 0) break; }
      else if (u == ";" || u == "{" || u == "}") break;
      else if (u == "," && depth == 1 && check_first_arg_only) break;
      else if (u == "*" && depth >= 1) {
        em.emit("pointer-key", toks[j].line,
                "pointer used as an ordering key in std::" + t +
                    ": addresses vary run to run (ASLR, allocation order), "
                    "so any iteration or comparison order leaks "
                    "nondeterminism; key on a stable field instead");
        break;
      }
    }
  }
}

bool literal_has_float_format(const std::string& text) {
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] != '%') continue;
    std::size_t j = i + 1;
    if (j < text.size() && text[j] == '%') { i = j; continue; }
    while (j < text.size() && std::string("-+ #0'").find(text[j]) !=
                                  std::string::npos)
      ++j;
    while (j < text.size() && (std::isdigit(static_cast<unsigned char>(
                                   text[j])) != 0 ||
                               text[j] == '.' || text[j] == '*'))
      ++j;
    while (j < text.size() && std::string("lLhjzt").find(text[j]) !=
                                  std::string::npos)
      ++j;
    if (j < text.size() &&
        std::string("aAeEfFgG").find(text[j]) != std::string::npos)
      return true;
  }
  return false;
}

void rule_float_format(const std::string& path, const SourceView& v,
                       const std::vector<Tok>& toks, Emitter& em) {
  if (!is_serialization_path(path)) return;
  for (const Literal& lit : v.strings) {
    if (literal_has_float_format(lit.text)) {
      em.emit("float-format", lit.line,
              "printf-style float conversion in serialization code: lossy or "
              "locale/libc-dependent rendering breaks byte-stable documents; "
              "route through common/json.hpp's shortest-round-trip double "
              "dumper");
    }
  }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident) continue;
    const std::string& t = toks[i].text;
    const bool qualified = i > 0 && toks[i - 1].text == ":";
    if (t == "setprecision" ||
        (qualified && (t == "scientific" || t == "hexfloat" ||
                       t == "defaultfloat" || t == "fixed"))) {
      em.emit("float-format", toks[i].line,
              "iostream float formatting ('" + t +
                  "') in serialization code; route through common/json.hpp's "
                  "shortest-round-trip double dumper");
    }
  }
}

bool hashy_ident(const std::string& t) {
  std::string l;
  l.reserve(t.size());
  for (const char c : t)
    l.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  return l.find("hash") != std::string::npos ||
         l.find("fnv") != std::string::npos ||
         l.find("crc") != std::string::npos ||
         l.find("digest") != std::string::npos ||
         l.find("checksum") != std::string::npos;
}

void rule_raw_hash(const std::vector<Tok>& toks, Emitter& em) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= toks.size(); ++i) {
    const bool boundary = i == toks.size() || toks[i].text == ";" ||
                          toks[i].text == "{" || toks[i].text == "}";
    if (!boundary) continue;
    int anchor = 0;
    bool copyish = false, has_sizeof = false, hashy = false;
    for (std::size_t j = begin; j < i; ++j) {
      const Tok& t = toks[j];
      if (!t.ident) continue;
      if (t.text == "memcpy" || t.text == "reinterpret_cast") {
        copyish = true;
        anchor = t.line;
      } else if (t.text == "sizeof") {
        has_sizeof = true;
      } else if (hashy_ident(t.text)) {
        hashy = true;
      }
    }
    if (copyish && has_sizeof && hashy) {
      em.emit("raw-hash", anchor,
              "hashing object bytes via memcpy/reinterpret_cast + sizeof: "
              "padding bytes are indeterminate and layout is ABI-dependent, "
              "so the digest is not stable; hash field-wise over canonical "
              "bytes (see JobSpec::content_hash)");
    }
    begin = i + 1;
  }
}

bool mentions_schema_version(const SourceView& v,
                             const std::vector<Tok>& toks) {
  // A comment alone doesn't version a document: look for schema_version /
  // spec_version in string literals or identifiers (kResultSchemaVersion
  // etc. — matched case- and underscore-insensitively).
  auto fold = [](const std::string& s) {
    std::string out;
    for (const char c : s)
      if (c != '_')
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    return out;
  };
  for (const Literal& lit : v.strings) {
    const std::string f = fold(lit.text);
    if (f.find("schemaversion") != std::string::npos ||
        f.find("specversion") != std::string::npos)
      return true;
  }
  for (const Tok& t : toks) {
    if (!t.ident) continue;
    const std::string f = fold(t.text);
    if (f.find("schemaversion") != std::string::npos ||
        f.find("specversion") != std::string::npos)
      return true;
  }
  return false;
}

/// Count `\"key\":` fragments in one literal (escapes intact): the signature
/// of an append-style JSON emitter that builds a document piecewise, where
/// no single literal starts with `{"`.
std::size_t json_key_fragments(const std::string& t) {
  std::size_t n = 0;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i] != '\\' || t[i + 1] != '"') continue;
    std::size_t j = i + 2;
    while (j < t.size() &&
           (std::isalnum(static_cast<unsigned char>(t[j])) != 0 ||
            t[j] == '_'))
      ++j;
    if (j == i + 2) continue;  // empty key
    if (j + 2 < t.size() && t[j] == '\\' && t[j + 1] == '"' && t[j + 2] == ':')
      ++n;
  }
  return n;
}

void rule_schema_version(const std::string& path, const SourceView& v,
                         const std::vector<Tok>& toks, Emitter& em) {
  if (!in_s1_scope(path)) return;
  if (mentions_schema_version(v, toks)) return;
  for (const Literal& lit : v.strings) {
    const std::string& t = lit.text;
    const bool doc_prefix =
        (t.size() >= 2 && t[0] == '{' && t[1] == '"') ||
        (t.size() >= 3 && t[0] == '{' && t[1] == '\\' && t[2] == '"');
    if (doc_prefix) {
      em.emit("schema-version", lit.line,
              "hand-rolled JSON document without a schema_version field: "
              "consumers cannot detect layout drift; stamp a top-level "
              "schema_version (like job::kResultSchemaVersion documents) or "
              "annotate why the format is externally owned");
      return;  // one finding per file is enough
    }
  }
  // Append-style emitters assemble the document from `\"key\":` fragments
  // and never spell a `{"` prefix in one literal; three or more fragments
  // in a file is a JSON document in disguise and needs a version too.
  std::size_t fragments = 0;
  int first_line = 0;
  for (const Literal& lit : v.strings) {
    const std::size_t n = json_key_fragments(lit.text);
    if (n > 0 && first_line == 0) first_line = lit.line;
    fragments += n;
  }
  if (fragments >= 3) {
    em.emit("schema-version", first_line,
            "append-style JSON emitter (" + std::to_string(fragments) +
                " `\\\"key\\\":` fragments) without a schema_version "
                "field: consumers cannot detect layout drift; stamp a "
                "top-level schema_version or annotate why the format is "
                "externally owned");
  }
}

void rule_emission_path(const std::string& path, const std::vector<Tok>& toks,
                        Emitter& em) {
  if (owns_channels(path)) return;
  static const std::set<std::string> bare = {"resolved_sink", "resolved_trace",
                                             "resolve_trace", "env_sink",
                                             "env_trace"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    std::string t = toks[i].text;
    if (t == "telemetry" && i + 3 < toks.size() && toks[i + 1].text == ":" &&
        toks[i + 2].text == ":")
      t += "::" + toks[i + 3].text;
    if (toks[i].ident && (bare.count(t) > 0 || t == "telemetry::resolve" ||
                          t == "telemetry::Progress"))
      em.emit("emission-path", toks[i].line,
              "'" + t + "' reaches a channel around obs::RunContext; report "
                        "through its event()/step()/stage()/ChunkMeter");
  }
}

// ---------------------------------------------------------------------------
// E1: the engine manifest.
// ---------------------------------------------------------------------------

struct Manifest {
  std::string engine;
  std::vector<std::pair<std::string, std::string>> entries;  // path -> hash
};

bool load_manifest(const std::string& file, Manifest& m) {
  std::ifstream in(file);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string a, b;
    ls >> a >> b;
    if (a == "engine") m.engine = b;
    else if (!a.empty() && !b.empty()) m.entries.emplace_back(b, a);
  }
  return true;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("gpurel_lint: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool lintable_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

bool skip_dir(const std::string& name) {
  return name.rfind("build", 0) == 0 || name == ".git" ||
         name == "lint_fixtures";
}

void collect_files(const fs::path& root, const fs::path& at,
                   std::vector<std::string>& out) {
  if (fs::is_regular_file(at)) {
    if (lintable_file(at))
      out.push_back(fs::relative(at, root).generic_string());
    return;
  }
  if (!fs::is_directory(at)) return;
  std::vector<fs::path> children;
  for (const auto& e : fs::directory_iterator(at)) children.push_back(e.path());
  std::sort(children.begin(), children.end());
  for (const fs::path& c : children) {
    if (fs::is_directory(c)) {
      if (!skip_dir(c.filename().string())) collect_files(root, c, out);
    } else if (lintable_file(c)) {
      out.push_back(fs::relative(c, root).generic_string());
    }
  }
}

void manifest_finding(std::vector<Finding>& out, const std::string& path,
                      const std::string& hash, std::string message) {
  Finding f;
  f.rule = "engine-version";
  f.path = path;
  f.line = 1;
  f.message = std::move(message);
  f.fingerprint = hex16(fnv1a64(f.rule + "|" + f.path + "|" + hash));
  out.push_back(std::move(f));
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      "unordered-container", "wall-clock",     "pointer-key",
      "float-format",        "raw-hash",       "schema-version",
      "emission-path",       "engine-version"};
  return names;
}

std::vector<Finding> analyze_source(const std::string& rel_path,
                                    std::string_view content) {
  const SourceView view = build_view(content);
  const std::vector<Tok> toks = tokenize(view);
  std::vector<Finding> findings;
  Emitter em(rel_path, view, findings);
  rule_unordered(rel_path, toks, em);
  rule_wall_clock(rel_path, toks, em);
  rule_pointer_key(toks, em);
  rule_float_format(rel_path, view, toks, em);
  rule_raw_hash(toks, em);
  rule_schema_version(rel_path, view, toks, em);
  rule_emission_path(rel_path, toks, em);
  return findings;
}

std::string token_hash_hex(std::string_view content) {
  const SourceView view = build_view(content);
  std::string stream;
  for (const Tok& t : tokenize(view)) {
    stream += t.text;
    stream += '\n';
  }
  // String literals are semantics too (e.g. JSON field names): fold them in
  // after the token stream so comment/whitespace edits still hash equal.
  for (const Literal& lit : view.strings) {
    stream += '"';
    stream += lit.text;
    stream += '\n';
  }
  return hex16(fnv1a64(stream));
}

std::string engine_version_of(const std::string& repo_root) {
  const fs::path spec = fs::path(repo_root) / "src" / "job" / "spec.hpp";
  std::ifstream in(spec);
  if (!in) return "";
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t k = line.find("kEngineVersion");
    if (k == std::string::npos) continue;
    const std::size_t q1 = line.find('"', k);
    if (q1 == std::string::npos) continue;
    const std::size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    return line.substr(q1 + 1, q2 - q1 - 1);
  }
  return "";
}

std::vector<std::string> manifest_universe(const std::string& repo_root) {
  const fs::path root(repo_root);
  std::vector<std::string> out;
  for (const char* dir :
       {"src/arch", "src/beam", "src/core", "src/fault", "src/isa", "src/job",
        "src/kernels", "src/model", "src/sim"}) {
    const fs::path d = root / dir;
    if (fs::exists(d)) collect_files(root, d, out);
  }
  for (const char* f :
       {"src/common/bits.hpp", "src/common/fp16.hpp", "src/common/fp16.cpp",
        "src/common/json.hpp", "src/common/json.cpp", "src/common/rng.hpp",
        "src/common/rng.cpp", "src/common/stats.hpp",
        "src/common/stats.cpp"}) {
    if (fs::exists(root / f)) out.emplace_back(f);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ManifestStatus update_manifest(const std::string& repo_root,
                               const std::string& manifest_path, bool force) {
  const std::string engine = engine_version_of(repo_root);
  if (engine.empty())
    return {false, "cannot find kEngineVersion in src/job/spec.hpp under " +
                       repo_root};
  const std::vector<std::string> files = manifest_universe(repo_root);
  std::vector<std::pair<std::string, std::string>> hashes;
  hashes.reserve(files.size());
  for (const std::string& f : files)
    hashes.emplace_back(f, token_hash_hex(read_file(fs::path(repo_root) / f)));

  Manifest old;
  if (load_manifest(manifest_path, old) && old.engine == engine && !force) {
    std::size_t changed = 0;
    for (const auto& [path, hash] : hashes)
      for (const auto& [opath, ohash] : old.entries)
        if (opath == path && ohash != hash) ++changed;
    if (changed > 0 || old.entries.size() != hashes.size())
      return {false,
              "refusing to refresh the manifest: result-determining sources "
              "changed but kEngineVersion is still '" + engine +
                  "'. Bump kEngineVersion in src/job/spec.hpp first (stale "
                  "cached results must not survive), or pass --force if the "
                  "edit is provably behavior-preserving."};
  }

  std::ofstream out(manifest_path, std::ios::trunc);
  if (!out)
    return {false, "cannot write manifest " + manifest_path};
  out << "# gpurel_lint engine manifest v1 — token hashes of every\n"
         "# result-determining source. Regenerate with\n"
         "#   gpurel_lint --update-manifest\n"
         "# after bumping kEngineVersion (rule engine-version / E1).\n";
  out << "engine " << engine << "\n";
  for (const auto& [path, hash] : hashes) out << hash << " " << path << "\n";
  return {true, "manifest updated: engine " + engine + ", " +
                    std::to_string(hashes.size()) + " files"};
}

Report run(const Options& opts) {
  const fs::path root(opts.repo_root);
  if (!fs::is_directory(root))
    throw std::runtime_error("gpurel_lint: repo root '" + opts.repo_root +
                             "' is not a directory");
  Report report;
  report.engine_version = engine_version_of(opts.repo_root);

  std::vector<std::string> files;
  for (const std::string& p : opts.paths) collect_files(root, root / p, files);
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  for (const std::string& f : files) {
    const std::string content = read_file(root / f);
    std::vector<Finding> fs_ = analyze_source(f, content);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(fs_.begin()),
                           std::make_move_iterator(fs_.end()));
  }
  report.files_scanned = files.size();

  if (opts.check_manifest) {
    const std::string manifest_path =
        !opts.manifest_path.empty()
            ? opts.manifest_path
            : (root / "tools" / "lint" / "engine_manifest.txt").string();
    Manifest manifest;
    if (!load_manifest(manifest_path, manifest)) {
      manifest_finding(report.findings, "tools/lint/engine_manifest.txt", "",
                       "engine manifest not found at " + manifest_path +
                           "; run gpurel_lint --update-manifest to register "
                           "the result-determining file set");
    } else if (report.engine_version.empty()) {
      manifest_finding(report.findings, "src/job/spec.hpp", "",
                       "cannot find kEngineVersion in src/job/spec.hpp");
    } else if (manifest.engine != report.engine_version) {
      manifest_finding(
          report.findings, "tools/lint/engine_manifest.txt", manifest.engine,
          "engine manifest records engine '" + manifest.engine +
              "' but src/job/spec.hpp says '" + report.engine_version +
              "'; run gpurel_lint --update-manifest to re-baseline");
    } else {
      const std::vector<std::string> universe =
          manifest_universe(opts.repo_root);
      for (const std::string& f : universe) {
        const std::string hash = token_hash_hex(read_file(root / f));
        const auto it = std::find_if(
            manifest.entries.begin(), manifest.entries.end(),
            [&](const auto& e) { return e.first == f; });
        if (it == manifest.entries.end()) {
          manifest_finding(report.findings, f, hash,
                           "new result-determining file is not in the engine "
                           "manifest; bump kEngineVersion and run "
                           "gpurel_lint --update-manifest");
        } else if (it->second != hash) {
          manifest_finding(
              report.findings, f, hash,
              "result-determining source changed (token-level) without a "
              "kEngineVersion bump: cached results for engine '" +
                  report.engine_version +
                  "' could silently go stale. Bump kEngineVersion in "
                  "src/job/spec.hpp and run gpurel_lint --update-manifest");
        }
      }
      for (const auto& [path, hash] : manifest.entries) {
        if (std::find(universe.begin(), universe.end(), path) ==
            universe.end()) {
          manifest_finding(report.findings, path, hash,
                           "file listed in the engine manifest no longer "
                           "exists; bump kEngineVersion and run "
                           "gpurel_lint --update-manifest");
        }
      }
    }
  }

  // Baseline: grandfathered fingerprints do not fail the run.
  std::string baseline_path = opts.baseline_path;
  if (baseline_path.empty()) {
    const fs::path def = root / "tools" / "lint" / "baseline.json";
    if (fs::exists(def)) baseline_path = def.string();
  }
  if (!baseline_path.empty() && fs::exists(baseline_path)) {
    const json::Value doc = json::Value::parse(read_file(baseline_path));
    if (json::get_int(doc, "schema_version") != kLintSchemaVersion)
      throw std::runtime_error("gpurel_lint: unsupported baseline schema");
    std::set<std::string> grandfathered;
    for (const json::Value& e : doc.at("findings").items())
      grandfathered.insert(json::get_string(e, "fingerprint"));
    for (Finding& f : report.findings)
      f.baselined = grandfathered.count(f.fingerprint) > 0;
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  for (const Finding& f : report.findings)
    if (!f.baselined) ++report.new_findings;
  return report;
}

std::string report_json(const Report& report) {
  json::Value doc = json::Value::object();
  doc.set("schema_version", kLintSchemaVersion);
  doc.set("tool", "gpurel_lint");
  doc.set("engine_version", report.engine_version);
  doc.set("files_scanned", static_cast<std::uint64_t>(report.files_scanned));
  doc.set("new_findings", static_cast<std::uint64_t>(report.new_findings));
  json::Value arr = json::Value::array();
  for (const Finding& f : report.findings) {
    json::Value e = json::Value::object();
    e.set("rule", f.rule);
    e.set("path", f.path);
    e.set("line", static_cast<std::int64_t>(f.line));
    e.set("message", f.message);
    e.set("fingerprint", f.fingerprint);
    e.set("baselined", f.baselined);
    arr.push_back(std::move(e));
  }
  doc.set("findings", std::move(arr));
  return doc.dump();
}

}  // namespace gpurel::lint
