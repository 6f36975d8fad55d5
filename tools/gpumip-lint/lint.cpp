#include "lint.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <string_view>

#include "callgraph.hpp"
#include "cfg.hpp"
#include "determinism.hpp"
#include "hotpath.hpp"
#include "index.hpp"
#include "lexer.hpp"
#include "lifetime.hpp"
#include "protocol.hpp"

namespace gpumip::lint {
namespace {

/// Path stems (matched against "<stem>.") whose files form the device
/// context: raw DeviceBuffer::as<T>() access is legal there (R1), and
/// their copy primitives are still subject to R2's device-span test.
constexpr const char* kDeviceContext[] = {"linalg/batched", "linalg/device_blas", "gpu/device"};

/// The one file allowed to move raw bytes (memcpy & friends): the Device
/// transfer engine, which is what the H2D/D2H ledger instruments.
constexpr std::string_view kTransferEngine = "gpu/device.cpp";

/// True when `path` names a file of the confinement stem `stem`, i.e. the
/// path contains "<stem>." — "gpu/device" matches gpu/device.cpp and
/// gpu/device.hpp but not gpu/device_other.cpp.
bool matches_stem(const std::string& path, const std::string& stem) {
  std::size_t at = path.find(stem + ".");
  if (at == std::string::npos) return false;
  return at == 0 || path[at - 1] == '/';
}

bool in_device_context(const std::string& path) {
  return std::any_of(std::begin(kDeviceContext), std::end(kDeviceContext),
                     [&](const char* stem) { return matches_stem(path, stem); });
}

bool mentions_device_span(const std::string& text) {
  return text.find(".as<") != std::string::npos || text.find("->as<") != std::string::npos;
}

// ---- R1: memory-space confinement -----------------------------------------

void check_r1(const Scanned& f, std::vector<Finding>& findings) {
  if (in_device_context(f.src->path)) return;
  for (const char* pattern : {".as<", "->as<"}) {
    const std::string needle(pattern);
    for (std::size_t at = f.clean.find(needle); at != std::string::npos;
         at = f.clean.find(needle, at + 1)) {
      const int line = line_of(f, at);
      if (has_annotation(f, line, "device-context")) continue;
      findings.push_back(
          {f.src->path, line, "R1",
           "raw device-side access DeviceBuffer::as<T>() outside the device context "
           "(kernel/transfer-engine files); route through the typed wrappers or annotate "
           "'// gpumip-lint: device-context(reason)'"});
    }
  }
}

// ---- R2: transfer accounting ----------------------------------------------

void check_r2(const Scanned& f, std::vector<Finding>& findings) {
  const std::string& path = f.src->path;
  if (path.ends_with(kTransferEngine)) {
    return;  // the transfer engine itself: the one audited home of raw copies
  }
  // (a) Untyped byte copies are invisible to the H2D/D2H ledger, so they
  // are banned everywhere outside the transfer engine.
  for (const char* prim : {"memcpy", "memmove", "memset"}) {
    for (std::size_t at : word_positions(f, prim)) {
      const int line = line_of(f, at);
      if (has_annotation(f, line, "host-only")) continue;
      findings.push_back(
          {path, line, "R2",
           std::string("raw byte copy '") + prim +
               "' outside the Device transfer engine bypasses the H2D/D2H ledger; use "
               "Device::copy_h2d/copy_d2h (or typed std algorithms for host-only data and "
               "annotate '// gpumip-lint: host-only(reason)')"});
    }
  }
  // (b) Typed copy algorithms whose statement touches a raw device span
  // move bytes across the host/device boundary without charging the copy
  // engine. Device-context files are exempt: their kernel bodies shuffle
  // device-resident data by design.
  if (in_device_context(path)) return;
  for (const char* algo : {"copy", "copy_n", "fill", "fill_n"}) {
    for (std::size_t at : word_positions(f, algo)) {
      if (at < 2 || f.clean.compare(at - 2, 2, "::") != 0) continue;  // only std:: algorithms
      const std::string stmt = statement_around(f.clean, at);
      if (!mentions_device_span(stmt)) continue;
      const int line = line_of(f, at);
      if (has_annotation(f, line, "host-only")) continue;
      findings.push_back(
          {path, line, "R2",
           std::string("'std::") + algo +
               "' over a device span bypasses transfer accounting; stage through a host "
               "buffer and Device::copy_h2d/copy_d2h"});
    }
  }
}

// ---- R3: error contract ----------------------------------------------------

/// Scans every file for `class/struct X : ... Base` declarations and
/// returns the transitive set of gpumip::Error subclasses (seeded with
/// Error itself). Lightweight semantic matching: qualified bases compare
/// by their last component.
std::set<std::string> collect_error_classes(const std::vector<Scanned>& files) {
  struct Decl {
    std::string name;
    std::vector<std::string> bases;
  };
  std::vector<Decl> decls;
  for (const Scanned& f : files) {
    for (const char* kw : {"class", "struct"}) {
      for (std::size_t at : word_positions(f, kw)) {
        std::size_t pos = skip_ws(f.clean, at + std::string(kw).size());
        std::string name;
        while (pos < f.clean.size() && is_ident_char(f.clean[pos])) name += f.clean[pos++];
        if (name.empty()) continue;
        pos = skip_ws(f.clean, pos);
        if (f.clean.compare(pos, 5, "final") == 0) pos = skip_ws(f.clean, pos + 5);
        if (pos >= f.clean.size() || f.clean[pos] != ':' ||
            (pos + 1 < f.clean.size() && f.clean[pos + 1] == ':')) {
          continue;  // no base clause (fwd decl, template param, etc.)
        }
        std::size_t brace = f.clean.find('{', pos);
        std::size_t semi = f.clean.find(';', pos);
        if (brace == std::string::npos || semi < brace) continue;
        Decl d;
        d.name = name;
        std::string base_clause = f.clean.substr(pos + 1, brace - pos - 1);
        std::istringstream bs(base_clause);
        std::string piece;
        while (std::getline(bs, piece, ',')) {
          // Last identifier component of the base name, sans qualifiers.
          std::string last;
          for (std::size_t i = 0; i < piece.size(); ++i) {
            if (is_ident_char(piece[i])) {
              last += piece[i];
            } else if (piece[i] == '<') {
              break;  // ignore template arguments
            } else if (!last.empty() && piece[i] == ':') {
              last.clear();  // qualifier: keep only the final component
            } else if (!last.empty() && is_space(piece[i])) {
              // A later word replaces an access specifier (public/virtual).
              if (last == "public" || last == "private" || last == "protected" ||
                  last == "virtual") {
                last.clear();
              }
            }
          }
          if (last == "public" || last == "private" || last == "protected" || last == "virtual") {
            last.clear();
          }
          if (!last.empty()) d.bases.push_back(last);
        }
        decls.push_back(std::move(d));
      }
    }
  }
  std::set<std::string> errors = {"Error"};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Decl& d : decls) {
      if (errors.count(d.name) != 0) continue;
      for (const std::string& b : d.bases) {
        if (errors.count(b) != 0) {
          errors.insert(d.name);
          changed = true;
          break;
        }
      }
    }
  }
  return errors;
}

void check_r3(const Scanned& f, const std::set<std::string>& error_classes,
              std::vector<Finding>& findings) {
  for (std::size_t at : word_positions(f, "throw")) {
    std::size_t pos = skip_ws(f.clean, at + 5);
    if (pos >= f.clean.size()) break;
    const int line = line_of(f, at);
    if (f.clean[pos] == ';') continue;  // rethrow of the in-flight exception
    if (has_annotation(f, line, "error-contract")) continue;
    // Parse the thrown expression's leading qualified name.
    std::string last;
    bool any_component = false;
    while (pos < f.clean.size()) {
      if (is_ident_char(f.clean[pos])) {
        last += f.clean[pos++];
      } else if (f.clean.compare(pos, 2, "::") == 0) {
        last.clear();
        any_component = true;
        pos += 2;
      } else {
        break;
      }
    }
    (void)any_component;
    if (!last.empty() && error_classes.count(last) != 0) continue;
    std::string what = last.empty() ? "a non-class expression" : "'" + last + "'";
    findings.push_back(
        {f.src->path, line, "R3",
         "throw of " + what +
             " violates the error contract: every failure must be a gpumip::Error "
             "subclass carrying an ErrorCode (support/error.hpp) so callers can "
             "dispatch on code() without string matching"});
  }
}

// ---- R4: metric-name grammar ----------------------------------------------

/// gpumip metric grammar: `gpumip.` then >= 2 further dot-separated
/// components of [a-z0-9_]+, each starting with a letter or digit.
bool valid_metric_name(const std::string& name) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : name) {
    if (c == '.') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  if (parts.size() < 3 || parts[0] != "gpumip") return false;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].empty()) return false;
    for (char c : parts[i]) {
      if ((std::islower(static_cast<unsigned char>(c)) == 0 &&
           std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '_')) {
        return false;
      }
    }
  }
  return true;
}

/// One R4 call site: the macro/function name and which argument carries the
/// exported name literal (0-based; GPUMIP_TRACE_SPAN_OPEN takes the guard
/// first, so its name is argument 1). `labeled` marks sites whose trailing
/// arguments may carry {"key", value} obs::Label pairs (the *_L macros and
/// the registry lookups): their keys are checked against the label-key
/// grammar and their documentation entry is the key-only family form
/// `name{key1,key2}` instead of the bare name.
struct R4Site {
  std::string name;
  int name_arg = 0;
  bool labeled = false;
};

/// Label-key grammar: [a-z_]+, nonempty. Values are free-form (they carry
/// runtime dimensions like rank numbers); keys are the schema.
bool valid_label_key(const std::string& key) {
  if (key.empty()) return false;
  for (char c : key) {
    if (std::islower(static_cast<unsigned char>(c)) == 0 && c != '_') return false;
  }
  return true;
}

/// Extracts the label keys of a labeled call site. `pos` is the offset of
/// the metric name's opening quote inside `f.clean`; the scan covers the
/// rest of the argument list (depth-tracked to the call's closing paren)
/// and records the first string literal of every brace group — the key of
/// one {"key", value} pair. Works for both the macro form
/// ({"k","v"}, {"k2","v2"} as separate arguments) and the registry form
/// (one {{"k", expr}} initializer list): the registry's outer brace opens
/// with another brace, not a literal, so it never reads as a pair. Sets
/// `dynamic` when a pair's key is not a compile-time literal (then the
/// family cannot be checked statically, like dynamic-name sites).
std::vector<std::string> collect_label_keys(const Scanned& f, std::size_t pos,
                                            bool* dynamic) {
  std::vector<std::string> keys;
  std::size_t scan = f.clean.find('"', pos + 1);  // closing quote of the name
  if (scan == std::string::npos) return keys;
  int depth = 1;  // inside the call's parens
  for (++scan; scan < f.clean.size() && depth > 0; ++scan) {
    const char c = f.clean[scan];
    if (c == '(' || c == '[') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
    } else if (c == '{') {
      ++depth;
      const std::size_t first = skip_ws(f.clean, scan + 1);
      if (first < f.clean.size() && f.clean[first] == '"') {
        auto key_lit = f.literals.find(first);
        if (key_lit != f.literals.end()) keys.push_back(key_lit->second);
      } else if (first < f.clean.size() && f.clean[first] != '{' && f.clean[first] != '}') {
        *dynamic = true;
      }
    }
  }
  return keys;
}

/// The documented form of a labeled family: keys sorted and deduplicated,
/// values dropped — `gpumip.lp.solves{method}` (docs/METRICS.md "Labels").
std::string family_form(const std::string& name, std::vector<std::string> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::string out = name + "{";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ",";
    out += keys[i];
  }
  return out + "}";
}

/// Shared engine for both R4 name families: metric names (GPUMIP_OBS_* /
/// obs registry calls, documented in docs/METRICS.md) and trace event names
/// (GPUMIP_TRACE_* sites, documented in docs/TRACING.md). Same grammar,
/// separate catalogs.
void check_r4_names(const Scanned& f, const std::vector<R4Site>& sites,
                    bool registry_needs_obs_prefix, const std::string& kind,
                    const std::string& doc_name, const std::optional<std::string>& doc,
                    std::vector<Finding>& findings) {
  for (const R4Site& site_entry : sites) {
    const std::string& site = site_entry.name;
    const bool is_registry_call = site == "counter" || site == "gauge" || site == "histogram";
    for (std::size_t at : word_positions(f, site)) {
      if (is_registry_call && registry_needs_obs_prefix) {
        // Only the obs registry lookups, not arbitrary identifiers.
        if (at < 5 || f.clean.compare(at - 5, 5, "obs::") != 0) continue;
      }
      std::size_t pos = skip_ws(f.clean, at + site.size());
      if (pos >= f.clean.size() || f.clean[pos] != '(') continue;
      pos = skip_ws(f.clean, pos + 1);
      // Step over leading non-name arguments (depth-0 commas).
      for (int skip = 0; skip < site_entry.name_arg && pos < f.clean.size(); ++skip) {
        int depth = 0;
        while (pos < f.clean.size()) {
          const char c = f.clean[pos];
          if (c == '(' || c == '[' || c == '{') ++depth;
          if (c == ')' || c == ']' || c == '}') {
            if (depth == 0) break;  // ran out of arguments
            --depth;
          }
          ++pos;
          if (c == ',' && depth == 0) break;
        }
        pos = skip_ws(f.clean, pos);
      }
      if (pos >= f.clean.size() || f.clean[pos] != '"') continue;  // dynamic name: not checkable
      auto lit = f.literals.find(pos);
      if (lit == f.literals.end()) continue;
      const std::string& name = lit->second;
      const int line = line_of(f, at);
      if (has_annotation(f, line, "metric-name")) continue;
      if (!valid_metric_name(name)) {
        findings.push_back(
            {f.src->path, line, "R4",
             kind + " name '" + name +
                 "' violates the grammar gpumip.[a-z_]+(.[a-z_0-9]+)+ — every exported "
                 "name is namespaced under gpumip. (" + doc_name + ")"});
        continue;
      }
      bool dynamic_key = false;
      std::vector<std::string> keys;
      if (site_entry.labeled) {
        keys = collect_label_keys(f, pos, &dynamic_key);
        bool bad_key = false;
        for (const std::string& key : keys) {
          if (!valid_label_key(key)) {
            findings.push_back(
                {f.src->path, line, "R4",
                 "label key '" + key + "' on " + kind + " '" + name +
                     "' violates the key grammar [a-z_]+ — keys are the schema "
                     "(values are free-form); see docs/METRICS.md \"Labels\""});
            bad_key = true;
          }
        }
        if (bad_key) continue;
      }
      if (!keys.empty()) {
        const std::string family = family_form(name, keys);
        if (doc && doc->find("`" + family + "`") == std::string::npos) {
          findings.push_back(
              {f.src->path, line, "R4",
               "labeled " + kind + " family '" + family + "' is not documented in " +
                   doc_name + "; every labeled family must appear (backticked) in "
                   "key-only form in the catalog"});
        }
      } else if (!dynamic_key && doc && doc->find("`" + name + "`") == std::string::npos) {
        findings.push_back(
            {f.src->path, line, "R4",
             kind + " name '" + name + "' is not documented in " + doc_name +
                 "; every name a hot path can export must appear (backticked) in the "
                 "catalog"});
      }
    }
  }
}

void check_r4(const Scanned& f, const Options& options, std::vector<Finding>& findings) {
  static const std::vector<R4Site> kMetricSites = {
      {"GPUMIP_OBS_COUNT"}, {"GPUMIP_OBS_ADD"},    {"GPUMIP_OBS_GAUGE_SET"},
      {"GPUMIP_OBS_GAUGE_MAX"}, {"GPUMIP_OBS_RECORD"}, {"GPUMIP_OBS_SPAN"},
      {"GPUMIP_OBS_COUNT_L", 0, true},     {"GPUMIP_OBS_ADD_L", 0, true},
      {"GPUMIP_OBS_GAUGE_SET_L", 0, true}, {"GPUMIP_OBS_RECORD_L", 0, true},
      {"GPUMIP_OBS_SPAN_L", 0, true},
      {"counter", 0, true}, {"gauge", 0, true}, {"histogram", 0, true},
  };
  static const std::vector<R4Site> kTraceSites = {
      {"GPUMIP_TRACE_BEGIN"},      {"GPUMIP_TRACE_END"},      {"GPUMIP_TRACE_INSTANT"},
      {"GPUMIP_TRACE_COMPLETE"},   {"GPUMIP_TRACE_FLOW_BEGIN"}, {"GPUMIP_TRACE_FLOW_END"},
      {"GPUMIP_TRACE_SPAN_OPEN", 1}, {"GPUMIP_TRACE_SCOPE"},
  };
  check_r4_names(f, kMetricSites, /*registry_needs_obs_prefix=*/true, "metric",
                 "docs/METRICS.md", options.metrics_doc, findings);
  check_r4_names(f, kTraceSites, /*registry_needs_obs_prefix=*/true, "trace event",
                 "docs/TRACING.md", options.tracing_doc, findings);
}

}  // namespace

std::vector<Suppression> parse_suppressions(const std::string& text, const std::string& path,
                                            std::vector<Finding>& findings) {
  std::vector<Suppression> out;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::size_t sep = line.find(" -- ");
    if (sep == std::string::npos) {
      findings.push_back({path, lineno, "SUP",
                          "suppression entry is missing ' -- <justification>'"});
      continue;
    }
    std::string head = line.substr(0, sep);
    std::string justification = line.substr(sep + 4);
    while (!justification.empty() && is_space(justification.back())) justification.pop_back();
    std::istringstream hs(head);
    Suppression s;
    hs >> s.rule >> s.path_suffix;
    std::getline(hs, s.needle);
    std::size_t ns = s.needle.find_first_not_of(" \t");
    s.needle = (ns == std::string::npos) ? "" : s.needle.substr(ns);
    s.justification = justification;
    s.line = lineno;
    if (s.rule.empty() || s.path_suffix.empty() || s.needle.empty()) {
      findings.push_back({path, lineno, "SUP",
                          "suppression entry needs '<rule> <path-suffix> <line-substring> -- "
                          "<justification>'"});
      continue;
    }
    if (s.justification.empty()) {
      findings.push_back({path, lineno, "SUP", "suppression justification must be non-empty"});
      continue;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Finding> run_lint(const std::vector<SourceFile>& files, const Options& options,
                              std::vector<Suppression>& suppressions) {
  std::vector<Finding> findings;
  std::vector<Scanned> scanned;
  scanned.reserve(files.size());
  for (const SourceFile& file : files) scanned.push_back(scan(file, findings));

  const std::set<std::string> error_classes = collect_error_classes(scanned);
  for (const Scanned& f : scanned) {
    check_r1(f, findings);
    check_r2(f, findings);
    check_r3(f, error_classes, findings);
    check_r4(f, options, findings);
  }

  // The declaration index and call graph are built once and shared by the
  // hot-path rules (R6-R9), the lifetime rules (R10-R12), and the
  // protocol rules (R13-R14).
  const std::vector<FunctionDecl> functions = index_functions(scanned);
  const CallGraph graph = build_call_graph(scanned, functions);

  // Hot-path rules R6-R9: walk the call graph from the manifest roots.
  if (options.hotpaths) {
    const HotPathManifest manifest =
        parse_hotpaths(*options.hotpaths, options.hotpaths_path, findings);
    check_hotpaths(scanned, manifest, options.hotpaths_path, functions, graph, findings);
  }

  // The noreturn set feeds both CFG consumers (lifetime and protocol).
  const std::set<std::string> noreturn_names = collect_noreturn_names(scanned);

  // Lifetime rules R10-R12: per-function CFGs + forward dataflow.
  check_lifetimes(scanned, functions, graph, noreturn_names, findings);

  // Protocol rules R13-R14: serializer/deserializer symmetry per CFG path,
  // tag-protocol coverage, exhausted() checks.
  check_protocol(scanned, functions, graph, noreturn_names, findings);

  // Determinism rules R15-R16: replay-relevant nondeterminism sources and
  // seed plumbing.
  check_determinism(scanned, findings);

  // Apply the suppression file: a finding survives unless an entry matches
  // its rule, file suffix, and offending source line.
  auto source_line = [&](const Finding& fi) -> std::string {
    for (const Scanned& f : scanned) {
      if (f.src->path == fi.file && fi.line >= 1 &&
          static_cast<std::size_t>(fi.line) <= f.lines.size()) {
        return f.lines[static_cast<std::size_t>(fi.line - 1)];
      }
    }
    return "";
  };
  std::vector<Finding> kept;
  for (Finding& fi : findings) {
    bool suppressed = false;
    if (fi.rule != "SUP" && fi.rule != "HOT") {
      for (Suppression& s : suppressions) {
        if (s.rule == fi.rule && fi.file.size() >= s.path_suffix.size() &&
            fi.file.compare(fi.file.size() - s.path_suffix.size(), s.path_suffix.size(),
                            s.path_suffix) == 0 &&
            source_line(fi).find(s.needle) != std::string::npos) {
          s.used = true;
          suppressed = true;
          break;
        }
      }
    }
    if (!suppressed) kept.push_back(std::move(fi));
  }
  // Stale entries are findings too: a suppression must not outlive the
  // code it excuses.
  for (const Suppression& s : suppressions) {
    if (!s.used) {
      kept.push_back({"(suppressions)", s.line, "SUP",
                      "stale suppression (matched no finding): " + s.rule + " " + s.path_suffix +
                          " '" + s.needle + "'"});
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  return kept;
}

}  // namespace gpumip::lint
