#include "qugeo_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

namespace qugeo::lint {
namespace fs = std::filesystem;
namespace {

// ---------------------------------------------------------------------------
// Small text helpers. The checks are textual by design: a full C++ parse
// would need a compiler library, and the invariants below are stable
// against formatting because the repo is clang-format'ed.
// ---------------------------------------------------------------------------

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Replaces // and /* */ comment bodies with spaces (newlines kept so
/// line numbers survive). String/char literal contents are blanked too,
/// EXCEPT when `keep_strings` — the env-var check reads literals.
std::string strip_comments(const std::string& src, bool keep_strings) {
  std::string out = src;
  enum class State { kCode, kLine, kBlock, kString, kChar } state = State::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n')
          state = State::kCode;
        else
          out[i] = ' ';
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          if (!keep_strings) out[i] = ' ';
          if (i + 1 < out.size() && out[i + 1] != '\n') {
            if (!keep_strings) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else if (!keep_strings && c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

std::size_t line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
}

/// Every .h/.cpp under `dir`, sorted for deterministic output.
std::vector<fs::path> source_files(const fs::path& dir) {
  std::vector<fs::path> files;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cpp" || ext == ".cc" || ext == ".hpp")
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string rel(const fs::path& p, const fs::path& root) {
  return fs::relative(p, root).generic_string();
}

/// Position just past the matching '}' for the '{' at `open` (which must
/// point at a '{'). Returns npos when unbalanced.
std::size_t match_brace(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Check 1: GateKind dispatch exhaustiveness
// ---------------------------------------------------------------------------

/// Enumerator names parsed from `enum class GateKind ... { ... };` in
/// src/qsim/gate.h.
std::vector<std::string> parse_gatekind_enum(const fs::path& gate_h) {
  std::vector<std::string> names;
  if (!fs::exists(gate_h)) return names;
  const std::string text = strip_comments(read_file(gate_h), false);
  const std::size_t decl = text.find("enum class GateKind");
  if (decl == std::string::npos) return names;
  const std::size_t open = text.find('{', decl);
  const std::size_t close = text.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return names;
  std::string body = text.substr(open + 1, close - open - 1);
  for (char& c : body)
    if (!is_ident(c)) c = ' ';
  std::istringstream tokens(body);
  for (std::string tok; tokens >> tok;) names.push_back(tok);
  return names;
}

std::vector<Violation> check_gatekind_dispatch_impl(const fs::path& root) {
  std::vector<Violation> out;
  const fs::path gate_h = root / "src" / "qsim" / "gate.h";
  const std::vector<std::string> enumerators = parse_gatekind_enum(gate_h);
  if (enumerators.empty()) return out;  // tree without the enum: nothing to do

  for (const fs::path& file : source_files(root / "src")) {
    const std::string raw = read_file(file);
    // Comments stripped for structure, raw kept for the safe-default
    // marker (which lives in a comment).
    const std::string text = strip_comments(raw, false);
    std::size_t pos = 0;
    while ((pos = text.find("switch", pos)) != std::string::npos) {
      // Token check: not "switch" inside an identifier.
      const bool lead_ok = pos == 0 || !is_ident(text[pos - 1]);
      const std::size_t after = pos + 6;
      if (!lead_ok || (after < text.size() && is_ident(text[after]))) {
        pos = after;
        continue;
      }
      const std::size_t open = text.find('{', pos);
      if (open == std::string::npos) break;
      const std::size_t end = match_brace(text, open);
      if (end == std::string::npos) break;
      const std::string body = text.substr(open, end - open);
      if (body.find("case GateKind::") == std::string::npos &&
          body.find("case qsim::GateKind::") == std::string::npos) {
        pos = after;  // nested switches over other types are re-scanned
        continue;
      }
      const std::size_t line = line_of(text, pos);
      const std::string where = rel(file, root) + ":" + std::to_string(line);

      const std::size_t dflt = body.find("default:");
      if (dflt != std::string::npos) {
        // Silent defaults are the drift this check exists for: a new
        // enumerator must not fall into a catch-all. Accept a default
        // only when the remainder of the switch rejects loudly, or when
        // the author opted out with an explicit reason in the raw text.
        const std::string tail = body.substr(dflt);
        const std::string raw_body = raw.substr(open, end - open);
        const bool rejects = tail.find("throw") != std::string::npos ||
                             tail.find("fail(") != std::string::npos;
        const bool waived =
            raw_body.find("qugeo-lint: safe-default(") != std::string::npos;
        if (!rejects && !waived)
          out.push_back({"gatekind-dispatch", where,
                         "switch over GateKind has a silent `default:`; "
                         "enumerate every kind, throw in the default, or "
                         "annotate `// qugeo-lint: safe-default(<reason>)`"});
        pos = end;
        continue;
      }
      // No default: every enumerator must appear as an explicit case (so
      // -Wswitch agrees and a new GateKind breaks the build here).
      for (const std::string& name : enumerators) {
        std::size_t at = 0;
        bool found = false;
        const std::string needle = "GateKind::" + name;
        while ((at = body.find(needle, at)) != std::string::npos) {
          const std::size_t past = at + needle.size();
          if (past >= body.size() || !is_ident(body[past])) {  // kI vs kInvalid
            found = true;
            break;
          }
          at = past;
        }
        if (!found)
          out.push_back({"gatekind-dispatch", where,
                         "switch over GateKind does not handle GateKind::" +
                             name + " (and has no rejecting default)"});
      }
      pos = end;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Check 2: QUGEO_* env vars vs docs/ARCHITECTURE.md
// ---------------------------------------------------------------------------

/// QUGEO_* names appearing inside string literals in the given tree(s).
/// String literals are the reliable signal: every env read ultimately
/// names the variable as a C string ("QUGEO_THREADS"), while comments and
/// docs mention variables freely.
std::set<std::string> env_vars_in_sources(const fs::path& root,
                                          std::set<std::string>* build_opts) {
  std::set<std::string> vars;
  for (const fs::path& dir : {root / "src", root / "bench"}) {
    for (const fs::path& file : source_files(dir)) {
      const std::string text = strip_comments(read_file(file), true);
      std::size_t pos = 0;
      while ((pos = text.find("\"QUGEO_", pos)) != std::string::npos) {
        std::size_t end = pos + 1;
        while (end < text.size() && (is_ident(text[end]))) ++end;
        vars.insert(text.substr(pos + 1, end - pos - 1));
        pos = end;
      }
    }
  }
  // CMake option names are not env vars; they never collide today but the
  // caller may want to know what was excluded.
  if (build_opts) *build_opts = {};
  return vars;
}

/// Rows of the ARCHITECTURE.md env table: lines shaped `| `QUGEO_X` | ...`.
std::set<std::string> env_vars_in_docs(const fs::path& doc) {
  std::set<std::string> vars;
  if (!fs::exists(doc)) return vars;
  std::ifstream in(doc);
  for (std::string line; std::getline(in, line);) {
    std::size_t bar = line.find_first_not_of(" \t");
    if (bar == std::string::npos || line[bar] != '|') continue;
    const std::size_t tick = line.find('`', bar);
    if (tick == std::string::npos) continue;
    const std::size_t name_begin = tick + 1;
    if (line.compare(name_begin, 6, "QUGEO_") != 0) continue;
    std::size_t end = name_begin;
    while (end < line.size() && is_ident(line[end])) ++end;
    if (end < line.size() && line[end] == '`')
      vars.insert(line.substr(name_begin, end - name_begin));
  }
  return vars;
}

std::vector<Violation> check_env_var_docs_impl(const fs::path& root) {
  std::vector<Violation> out;
  const fs::path doc = root / "docs" / "ARCHITECTURE.md";
  const std::set<std::string> in_src = env_vars_in_sources(root, nullptr);
  const std::set<std::string> in_doc = env_vars_in_docs(doc);
  for (const std::string& var : in_src)
    if (!in_doc.count(var))
      out.push_back({"env-var-docs", rel(doc, root),
                     var + " is read in source but missing from the "
                           "docs/ARCHITECTURE.md environment table"});
  for (const std::string& var : in_doc)
    if (!in_src.count(var))
      out.push_back({"env-var-docs", rel(doc, root),
                     var + " is documented in the environment table but no "
                           "source string literal reads it"});
  return out;
}

// ---------------------------------------------------------------------------
// Check 3: bench_micro_* registration
// ---------------------------------------------------------------------------

std::vector<Violation> check_bench_micro_impl(const fs::path& root) {
  std::vector<Violation> out;
  const fs::path bench_dir = root / "bench";
  if (!fs::exists(bench_dir)) return out;
  const fs::path ci = root / ".github" / "workflows" / "ci.yml";
  const std::string ci_text = fs::exists(ci) ? read_file(ci) : std::string();
  for (const auto& entry : fs::directory_iterator(bench_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("bench_micro_", 0) != 0 ||
        entry.path().extension() != ".cpp")
      continue;
    const std::string target = entry.path().stem().string();
    const std::string where = rel(entry.path(), root);
    if (read_file(entry.path()).find("bench_micro_main.h") == std::string::npos)
      out.push_back({"bench-micro-registration", where,
                     target + " does not include bench_micro_main.h, so its "
                              "numbers never merge into BENCH_micro.json"});
    if (ci_text.find(target) == std::string::npos)
      out.push_back({"bench-micro-registration", where,
                     target + " is not named in .github/workflows/ci.yml "
                              "(perf-smoke would silently skip it)"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Check 4: nondeterminism in src/
// ---------------------------------------------------------------------------

struct Pattern {
  const char* needle;
  bool call_only;  // require '(' as the next non-space char
  const char* what;
};

constexpr Pattern kNondetPatterns[] = {
    {"rand", true, "std::rand/rand()"},
    {"srand", true, "srand()"},
    {"time", true, "time()"},
    {"clock", true, "clock()"},
    {"random_device", false, "std::random_device"},
};

std::vector<Violation> check_determinism_impl(const fs::path& root) {
  std::vector<Violation> out;
  for (const fs::path& file : source_files(root / "src")) {
    const std::string raw = read_file(file);
    const std::string text = strip_comments(raw, false);
    for (const Pattern& pat : kNondetPatterns) {
      const std::string needle = pat.needle;
      std::size_t pos = 0;
      while ((pos = text.find(needle, pos)) != std::string::npos) {
        const std::size_t after = pos + needle.size();
        // Token match, allowing a std:: / :: qualifier but rejecting
        // member access (obj.time, obj->rand) and larger identifiers
        // (strand, timeout, clock_gettime...).
        bool lead_ok = pos == 0 || !is_ident(text[pos - 1]);
        if (pos >= 1 && (text[pos - 1] == '.' )) lead_ok = false;
        if (pos >= 2 && text[pos - 2] == '-' && text[pos - 1] == '>') lead_ok = false;
        bool tail_ok = after >= text.size() || !is_ident(text[after]);
        if (pat.call_only && tail_ok) {
          std::size_t k = after;
          while (k < text.size() &&
                 std::isspace(static_cast<unsigned char>(text[k])))
            ++k;
          tail_ok = k < text.size() && text[k] == '(';
        }
        if (lead_ok && tail_ok) {
          const std::size_t line = line_of(text, pos);
          // Same-line opt-out, read from the raw text (it is a comment).
          const std::size_t bol = raw.rfind('\n', pos);
          std::size_t eol = raw.find('\n', pos);
          if (eol == std::string::npos) eol = raw.size();
          const std::string raw_line =
              raw.substr(bol + 1, eol - bol - 1);
          if (raw_line.find("qugeo-lint: allow-nondeterminism(") ==
              std::string::npos)
            out.push_back(
                {"determinism",
                 rel(file, root) + ":" + std::to_string(line),
                 std::string(pat.what) +
                     " in src/ breaks seeded reproducibility; use "
                     "qugeo::Rng sub-streams (or annotate `// qugeo-lint: "
                     "allow-nondeterminism(<reason>)`)"});
        }
        pos = after;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Check 5: fault-site coverage
// ---------------------------------------------------------------------------

/// Registered injection points: `fault::site("<name>")` literals in src/,
/// first occurrence wins for the report location. Comments are stripped,
/// so a commented-out site does not count as registered.
std::vector<std::pair<std::string, std::string>> fault_sites_in_src(
    const fs::path& root) {
  std::vector<std::pair<std::string, std::string>> sites;  // name -> where
  constexpr std::string_view kNeedle = "fault::site(\"";
  for (const fs::path& file : source_files(root / "src")) {
    const std::string text = strip_comments(read_file(file), true);
    std::size_t pos = 0;
    while ((pos = text.find(kNeedle, pos)) != std::string::npos) {
      const std::size_t begin = pos + kNeedle.size();
      const std::size_t end = text.find('"', begin);
      if (end == std::string::npos) break;
      const std::string name = text.substr(begin, end - begin);
      const bool seen = std::any_of(
          sites.begin(), sites.end(),
          [&](const auto& s) { return s.first == name; });
      if (!seen)
        sites.emplace_back(
            name, rel(file, root) + ":" + std::to_string(line_of(text, pos)));
      pos = end;
    }
  }
  return sites;
}

std::vector<Violation> check_fault_site_coverage_impl(const fs::path& root) {
  std::vector<Violation> out;
  const auto sites = fault_sites_in_src(root);
  if (sites.empty()) return out;

  std::string tests_text;
  for (const fs::path& file : source_files(root / "tests"))
    tests_text += strip_comments(read_file(file), true);
  const fs::path doc = root / "docs" / "ARCHITECTURE.md";
  const std::string doc_text = fs::exists(doc) ? read_file(doc) : std::string();

  for (const auto& [name, where] : sites) {
    // A test covers a site by naming it in a string literal — as a
    // FaultScope/QUGEO_FAULT spec, or an exact-site assertion.
    if (tests_text.find("\"" + name + "\"") == std::string::npos &&
        tests_text.find(name + ":") == std::string::npos)
      out.push_back({"fault-site-coverage", where,
                     "fault site \"" + name +
                         "\" is registered in src/ but no test under tests/ "
                         "injects into it"});
    if (doc_text.find("`" + name + "`") == std::string::npos)
      out.push_back({"fault-site-coverage", where,
                     "fault site \"" + name +
                         "\" is missing from the docs/ARCHITECTURE.md "
                         "fault-site registry"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Check 6: SIMD scalar-equivalence coverage
// ---------------------------------------------------------------------------

/// Dispatched vector kernels: identifiers ending in `_avx2` declared
/// (followed by '(') in src/ HEADERS — the dispatch surface. TU-local
/// helpers in .cpp files (use_avx2 guards, unreachable stubs) are not
/// entry points and do not count. Comments and string literals are
/// stripped, so an error message naming AVX2 does not count either.
std::vector<std::pair<std::string, std::string>> avx2_kernels_in_src(
    const fs::path& root) {
  std::vector<std::pair<std::string, std::string>> kernels;  // name -> where
  constexpr std::string_view kSuffix = "_avx2";
  for (const fs::path& file : source_files(root / "src")) {
    const std::string ext = file.extension().string();
    if (ext != ".h" && ext != ".hpp") continue;
    const std::string text = strip_comments(read_file(file), false);
    std::size_t pos = 0;
    while ((pos = text.find(kSuffix, pos)) != std::string::npos) {
      const std::size_t after = pos + kSuffix.size();
      if (after < text.size() && is_ident(text[after])) {  // _avx2_foo etc.
        pos = after;
        continue;
      }
      std::size_t begin = pos;
      while (begin > 0 && is_ident(text[begin - 1])) --begin;
      if (begin == pos) {  // bare `_avx2` is not a kernel name
        pos = after;
        continue;
      }
      std::size_t k = after;
      while (k < text.size() && std::isspace(static_cast<unsigned char>(text[k])))
        ++k;
      if (k >= text.size() || text[k] != '(') {  // not a call/declaration
        pos = after;
        continue;
      }
      const std::string name = text.substr(begin, after - begin);
      const bool seen = std::any_of(
          kernels.begin(), kernels.end(),
          [&](const auto& s) { return s.first == name; });
      if (!seen)
        kernels.emplace_back(
            name, rel(file, root) + ":" + std::to_string(line_of(text, pos)));
      pos = after;
    }
  }
  return kernels;
}

std::vector<Violation> check_simd_scalar_equivalence_impl(const fs::path& root) {
  std::vector<Violation> out;
  const auto kernels = avx2_kernels_in_src(root);
  if (kernels.empty()) return out;

  std::string tests_text;
  for (const fs::path& file : source_files(root / "tests"))
    tests_text += strip_comments(read_file(file), false);

  for (const auto& [name, where] : kernels) {
    std::size_t pos = 0;
    bool covered = false;
    while ((pos = tests_text.find(name, pos)) != std::string::npos) {
      const bool lead_ok = pos == 0 || !is_ident(tests_text[pos - 1]);
      const std::size_t after = pos + name.size();
      if (lead_ok &&
          (after >= tests_text.size() || !is_ident(tests_text[after]))) {
        covered = true;
        break;
      }
      pos = after;
    }
    if (!covered)
      out.push_back({"simd-scalar-equivalence", where,
                     "AVX2 kernel " + name +
                         " has no scalar-equivalence test under tests/ "
                         "(the identifier never appears there)"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Check 7: ExecutionConfig env routing
// ---------------------------------------------------------------------------

struct ConfigField {
  std::string name;
  std::size_t line;
  bool waived;
};

/// Fields of `struct ExecutionConfig { ... };` in the given header. A
/// field's name is the last identifier of its declarator (before any `=`
/// initializer), which survives qualified types and templates
/// (`std::shared_ptr<T> name`). The waiver marker is read from
/// the RAW text of the span between the previous `;` and the field's own
/// — i.e. its declaration line plus the doc comment block above it —
/// which works because strip_comments preserves text length, so stripped
/// positions index straight into the raw file.
std::vector<ConfigField> parse_execution_config_fields(const fs::path& header) {
  std::vector<ConfigField> fields;
  if (!fs::exists(header)) return fields;
  const std::string raw = read_file(header);
  const std::string text = strip_comments(raw, false);
  const std::size_t decl = text.find("struct ExecutionConfig");
  if (decl == std::string::npos) return fields;
  const std::size_t open = text.find('{', decl);
  if (open == std::string::npos) return fields;
  const std::size_t close = match_brace(text, open);
  if (close == std::string::npos) return fields;

  std::size_t stmt_begin = open + 1;
  for (std::size_t i = open + 1; i + 1 < close; ++i) {
    if (text[i] != ';') continue;
    const std::string stmt = text.substr(stmt_begin, i - stmt_begin);
    const std::string head = stmt.substr(0, std::min(stmt.find('='), stmt.size()));
    std::string name;
    std::size_t name_at = 0;
    for (std::size_t k = 0; k < head.size();) {
      if (!is_ident(head[k])) {
        ++k;
        continue;
      }
      std::size_t tok_end = k;
      while (tok_end < head.size() && is_ident(head[tok_end])) ++tok_end;
      name = head.substr(k, tok_end - k);
      name_at = stmt_begin + k;
      k = tok_end;
    }
    // Skip non-field statements (member functions, using-declarations).
    if (!name.empty() && head.find('(') == std::string::npos &&
        head.find("using ") == std::string::npos) {
      const std::string region = raw.substr(stmt_begin, i - stmt_begin);
      fields.push_back(
          {name, line_of(text, name_at),
           region.find("qugeo-lint: no-env(") != std::string::npos});
    }
    stmt_begin = i + 1;
  }
  return fields;
}

/// Parsers check 7 bans inside apply_env_overrides: locale-dependent or
/// silently-saturating, where common/env.h throws on any malformed text.
constexpr const char* kLenientParsers[] = {
    "strtol", "strtoul", "strtoull", "strtod",  "strtof", "atoi",
    "atol",   "atoll",   "atof",     "stoi",    "stol",   "stoul",
    "stoull", "stod",    "stof",     "sscanf"};

std::vector<Violation> check_execution_config_env_impl(const fs::path& root) {
  std::vector<Violation> out;
  const fs::path header = root / "src" / "qsim" / "backend.h";
  const auto fields = parse_execution_config_fields(header);
  if (fields.empty()) return out;  // tree without the struct: nothing to do
  const std::string header_rel = rel(header, root);

  // The apply_env_overrides DEFINITION body in backend.cpp: the first
  // `apply_env_overrides` occurrence whose next `{`/`;` is a `{` (call
  // sites and declarations hit `;` first and are skipped).
  const fs::path impl = root / "src" / "qsim" / "backend.cpp";
  const std::string impl_text =
      fs::exists(impl) ? strip_comments(read_file(impl), false) : std::string();
  std::string body;
  std::size_t body_line = 0;
  std::size_t fn = 0;
  while ((fn = impl_text.find("apply_env_overrides", fn)) !=
         std::string::npos) {
    const std::size_t stop = impl_text.find_first_of("{;", fn);
    if (stop != std::string::npos && impl_text[stop] == '{') {
      const std::size_t end = match_brace(impl_text, stop);
      if (end != std::string::npos) {
        body = impl_text.substr(stop, end - stop);
        body_line = line_of(impl_text, fn);
        break;
      }
    }
    fn += 1;
  }

  const std::set<std::string> doc_vars =
      env_vars_in_docs(root / "docs" / "ARCHITECTURE.md");

  for (const ConfigField& field : fields) {
    if (field.waived) continue;
    const std::string where =
        header_rel + ":" + std::to_string(field.line);

    // Routed: `base.<field>` appears as a whole token in the body.
    const std::string needle = "base." + field.name;
    std::size_t at = 0;
    bool routed = false;
    while ((at = body.find(needle, at)) != std::string::npos) {
      const std::size_t past = at + needle.size();
      if (past >= body.size() || !is_ident(body[past])) {
        routed = true;
        break;
      }
      at = past;
    }
    if (!routed)
      out.push_back(
          {"execution-config-env", where,
           "ExecutionConfig field `" + field.name +
               "` is never assigned (`base." + field.name +
               "`) in apply_env_overrides (backend.cpp); every execution "
               "knob needs a QUGEO_* override routed through the strict "
               "common/env.h parsers, or a `qugeo-lint: no-env(<reason>)` "
               "waiver on its declaration"});

    // Documented: a `QUGEO_<FIELD>` (or `QUGEO_<FIELD>_*`) row exists in
    // the ARCHITECTURE.md env table.
    std::string upper = "QUGEO_";
    for (char c : field.name)
      upper += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    const bool documented = std::any_of(
        doc_vars.begin(), doc_vars.end(), [&](const std::string& var) {
          return var == upper || var.rfind(upper + "_", 0) == 0;
        });
    if (!documented)
      out.push_back(
          {"execution-config-env", where,
           "ExecutionConfig field `" + field.name + "` has no `" + upper +
               "` (or `" + upper +
               "_*`) row in the docs/ARCHITECTURE.md environment table"});
  }

  // Strictness: no lenient C parser anywhere in the override body.
  for (const char* parser : kLenientParsers) {
    const std::string needle = parser;
    std::size_t at = 0;
    while ((at = body.find(needle, at)) != std::string::npos) {
      const std::size_t past = at + needle.size();
      const bool lead_ok = at == 0 || !is_ident(body[at - 1]);
      std::size_t k = past;
      while (k < body.size() &&
             std::isspace(static_cast<unsigned char>(body[k])))
        ++k;
      if (lead_ok && (past >= body.size() || !is_ident(body[past])) &&
          k < body.size() && body[k] == '(')
        out.push_back(
            {"execution-config-env",
             rel(impl, root) + ":" + std::to_string(body_line),
             "apply_env_overrides parses an override with lenient `" +
                 needle +
                 "`; use the throwing common/env.h parsers so malformed "
                 "values fail loudly instead of silently becoming 0"});
      at = past;
    }
  }
  return out;
}

}  // namespace

std::string to_string(const Violation& v) {
  return v.rule + ": " + v.where + ": " + v.message;
}

std::vector<Violation> check_gatekind_dispatch(const fs::path& repo_root) {
  return check_gatekind_dispatch_impl(repo_root);
}

std::vector<Violation> check_env_var_docs(const fs::path& repo_root) {
  return check_env_var_docs_impl(repo_root);
}

std::vector<Violation> check_bench_micro_registration(
    const fs::path& repo_root) {
  return check_bench_micro_impl(repo_root);
}

std::vector<Violation> check_determinism(const fs::path& repo_root) {
  return check_determinism_impl(repo_root);
}

std::vector<Violation> check_fault_site_coverage(const fs::path& repo_root) {
  return check_fault_site_coverage_impl(repo_root);
}

std::vector<Violation> check_simd_scalar_equivalence(const fs::path& repo_root) {
  return check_simd_scalar_equivalence_impl(repo_root);
}

std::vector<Violation> check_execution_config_env(const fs::path& repo_root) {
  return check_execution_config_env_impl(repo_root);
}

std::vector<Violation> run_all_checks(const fs::path& repo_root) {
  std::vector<Violation> all;
  for (auto* check :
       {&check_gatekind_dispatch, &check_env_var_docs,
        &check_bench_micro_registration, &check_determinism,
        &check_fault_site_coverage, &check_simd_scalar_equivalence,
        &check_execution_config_env}) {
    auto found = (*check)(repo_root);
    all.insert(all.end(), found.begin(), found.end());
  }
  return all;
}

}  // namespace qugeo::lint
