#include "hotpath.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>

namespace gpumip::lint {
namespace {

// ---- manifest matching -----------------------------------------------------

bool entry_matches(const HotPathEntry& e, const FunctionDecl& d) {
  if (e.name.size() > 3 && e.name.compare(e.name.size() - 3, 3, "::*") == 0) {
    const std::string prefix = e.name.substr(0, e.name.size() - 1);  // "Class::"
    return d.qualified.size() > prefix.size() &&
           d.qualified.compare(0, prefix.size(), prefix) == 0;
  }
  return e.name == d.name || e.name == d.qualified;
}

/// Finds `token` in `s` honoring identifier boundaries. Tokens containing
/// '<' or ':' (qualified or templated type spellings) match as substrings
/// with an identifier boundary on the left; plain identifiers match as
/// whole words.
std::size_t find_token(const std::string& s, const std::string& token, std::size_t from) {
  if (token.find_first_of("<:") == std::string::npos) return find_word(s, token, from);
  for (std::size_t at = s.find(token, from); at != std::string::npos;
       at = s.find(token, at + 1)) {
    const bool left_ok = at == 0 || !is_ident_char(s[at - 1]);
    const std::size_t end = at + token.size();
    const bool right_ok =
        end >= s.size() || !is_ident_char(s[end]) || !is_ident_char(token.back());
    if (left_ok && right_ok) return at;
  }
  return std::string::npos;
}

/// First non-space offset after `pos`, bounded by `limit`.
std::size_t next_code_char(const std::string& s, std::size_t pos, std::size_t limit) {
  while (pos < limit && is_space(s[pos])) ++pos;
  return pos;
}

// ---- traversal -------------------------------------------------------------

struct Traversal {
  std::vector<int> visited;            ///< decl indices, root first
  std::vector<int> parent;             ///< per decl index: caller decl (-1 for root)
};

std::string chain_string(const Traversal& t, const std::vector<FunctionDecl>& functions,
                         int decl) {
  std::vector<std::string> names;
  for (int at = decl; at != -1; at = t.parent[static_cast<std::size_t>(at)]) {
    names.push_back(functions[static_cast<std::size_t>(at)].qualified);
    if (names.size() > 8) break;  // keep messages readable on deep chains
  }
  std::reverse(names.begin(), names.end());
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += " -> ";
    out += n;
  }
  return out;
}

/// BFS from `root` over the call graph. Other roots are boundaries (their
/// own traversal covers them); stop-matched functions prune; a function
/// that invokes a std::function value conservatively reaches every
/// address-taken function.
Traversal traverse(int root, const std::vector<FunctionDecl>& functions, const CallGraph& graph,
                   const std::vector<char>& is_root, const std::vector<char>& is_stopped) {
  Traversal t;
  t.parent.assign(functions.size(), -1);
  std::vector<char> seen(functions.size(), 0);
  std::deque<int> queue;
  queue.push_back(root);
  seen[static_cast<std::size_t>(root)] = 1;
  while (!queue.empty()) {
    const int f = queue.front();
    queue.pop_front();
    t.visited.push_back(f);
    auto enqueue = [&](int callee) {
      if (seen[static_cast<std::size_t>(callee)] != 0) return;
      if (is_stopped[static_cast<std::size_t>(callee)] != 0) return;
      if (is_root[static_cast<std::size_t>(callee)] != 0 && callee != root) return;
      seen[static_cast<std::size_t>(callee)] = 1;
      t.parent[static_cast<std::size_t>(callee)] = f;
      queue.push_back(callee);
    };
    for (int callee : graph.edges[static_cast<std::size_t>(f)]) enqueue(callee);
    if (graph.calls_function_object[static_cast<std::size_t>(f)] != 0) {
      for (int i = 0; i < static_cast<int>(functions.size()); ++i) {
        if (graph.address_taken[static_cast<std::size_t>(i)] != 0) enqueue(i);
      }
    }
  }
  return t;
}

// ---- site scanners ---------------------------------------------------------

using SiteKey = std::tuple<std::string, std::string, int>;  // rule, file, line

bool emit_once(std::set<SiteKey>& seen, const std::string& rule, const std::string& file,
               int line) {
  return seen.insert({rule, file, line}).second;
}

/// R6: heap-allocation sites inside one function body. Allocations inside
/// a `throw` statement are exempt (the error path is off the hot path);
/// `// gpumip-lint: hot-alloc(reason)` waives a site.
void scan_allocations(const Scanned& f, const FunctionDecl& d, const std::string& chain,
                      std::set<SiteKey>& emitted, std::vector<Finding>& findings) {
  const std::string& clean = f.clean;
  const std::size_t begin = d.body_begin + 1;
  const std::size_t end = d.body_end;
  auto report = [&](std::size_t at, const std::string& what) {
    const int line = line_of(f, at);
    if (has_annotation(f, line, "hot-alloc")) return;
    if (find_word(statement_around(clean, at), "throw", 0) != std::string::npos) return;
    if (!emit_once(emitted, "R6", f.src->path, line)) return;
    findings.push_back(
        {f.src->path, line, "R6",
         "heap allocation (" + what + ") on the hot path [" + chain +
             "]; hoist it out of the loop, reuse a preallocated buffer, or annotate "
             "'// gpumip-lint: hot-alloc(reason)'"});
  };

  for (std::size_t at = find_word(clean, "new", begin); at != std::string::npos && at < end;
       at = find_word(clean, "new", at + 1)) {
    report(at, "'new'");
  }
  for (const char* maker : {"make_unique", "make_shared"}) {
    for (std::size_t at = find_word(clean, maker, begin); at != std::string::npos && at < end;
         at = find_word(clean, maker, at + 1)) {
      report(at, std::string("'") + maker + "'");
    }
  }
  // Container growth through a member call: v.push_back(...), q->insert(...).
  for (const char* grow : {"push_back", "emplace_back", "emplace", "resize", "reserve",
                           "insert", "append", "assign", "push", "push_front"}) {
    for (std::size_t at = find_word(clean, grow, begin); at != std::string::npos && at < end;
         at = find_word(clean, grow, at + 1)) {
      const bool member = (at >= 1 && clean[at - 1] == '.') ||
                          (at >= 2 && clean.compare(at - 2, 2, "->") == 0);
      if (!member) continue;
      const std::size_t after = next_code_char(clean, at + std::string(grow).size(), end);
      if (after >= end || clean[after] != '(') continue;
      report(at, std::string("container growth '.") + grow + "()'");
    }
  }
  // Allocating locals/temporaries of container types, including
  // std::function construction: `Type<...> name(init)`, `Type name = ...`.
  for (const char* type : {"vector", "string", "deque", "unordered_map", "unordered_set",
                           "map", "multimap", "list", "ostringstream", "istringstream",
                           "stringstream", "function", "Vector", "Matrix", "ByteWriter"}) {
    for (std::size_t at = find_word(clean, type, begin); at != std::string::npos && at < end;
         at = find_word(clean, type, at + 1)) {
      std::size_t pos = at + std::string(type).size();
      if (pos < end && clean[pos] == '<') {
        int depth = 0;
        while (pos < end) {
          if (clean[pos] == '<') ++depth;
          else if (clean[pos] == '>' && --depth == 0) { ++pos; break; }
          else if (clean[pos] == ';' || clean[pos] == '{') { depth = -1; break; }
          ++pos;
        }
        if (depth != 0) continue;  // comparison or unbalanced: not a type
      }
      pos = next_code_char(clean, pos, end);
      if (pos >= end) continue;
      const char c = clean[pos];
      if (c == '&' || c == '*' || c == '>' || c == ',' || c == ')' || c == ':') {
        continue;  // reference, pointer, or component of another type
      }
      if (c == '(' || c == '{') {
        // Temporary construction Type(...) — allocation when non-empty.
        const std::size_t inner = next_code_char(clean, pos + 1, end);
        if (inner < end && clean[inner] != ')' && clean[inner] != '}') {
          report(at, std::string("allocating temporary '") + type + "(...)'");
        }
        continue;
      }
      if (is_ident_char(c)) {
        // Declaration `Type name ...`: flag when the initializer can
        // allocate (parenthesized/braced args or assignment).
        std::size_t ne = pos;
        while (ne < end && is_ident_char(clean[ne])) ++ne;
        const std::size_t after_name = next_code_char(clean, ne, end);
        if (after_name >= end) continue;
        const char ic = clean[after_name];
        if (ic == '=') {
          report(at, std::string("allocating local '") + type + " " +
                         clean.substr(pos, ne - pos) + " = ...'");
        } else if (ic == '(' || ic == '{') {
          const std::size_t inner = next_code_char(clean, after_name + 1, end);
          if (inner < end && clean[inner] != ')' && clean[inner] != '}') {
            report(at, std::string("allocating local '") + type + " " +
                           clean.substr(pos, ne - pos) + "(...)'");
          }
        }
      }
    }
  }
}

/// R7: by-value payload types in one function's signature. Waived for the
/// whole signature with `// gpumip-lint: hot-copy(reason)`.
void scan_signature(const Scanned& f, const FunctionDecl& d,
                    const std::vector<std::string>& payload_types, const std::string& chain,
                    std::set<SiteKey>& emitted, std::vector<Finding>& findings) {
  if (payload_types.empty()) return;
  if (has_annotation(f, d.line, "hot-copy")) return;
  const std::string& clean = f.clean;
  auto report = [&](std::size_t at, const std::string& token, const char* how) {
    const int line = line_of(f, at);
    if (has_annotation(f, line, "hot-copy")) return;
    if (!emit_once(emitted, "R7", f.src->path, line)) return;
    findings.push_back(
        {f.src->path, line, "R7",
         std::string("payload type '") + token + "' " + how + " by value on the hot path [" +
             chain +
             "]; pass a view/reference (or move), or annotate "
             "'// gpumip-lint: hot-copy(reason)'"});
  };
  for (const std::string& token : payload_types) {
    // Parameters: payload token not followed by &, *, or a closing context.
    for (std::size_t at = find_token(clean, token, d.params_begin);
         at != std::string::npos && at < d.params_end; at = find_token(clean, token, at + 1)) {
      const std::size_t after = next_code_char(clean, at + token.size(), d.params_end + 1);
      const char c = after <= d.params_end ? clean[after] : ')';
      if (c == '&' || c == '*' || c == '>') continue;  // reference/move/inside another type
      report(at, token, "passed");
    }
    // Return type: payload token with nothing but whitespace before the name.
    for (std::size_t at = find_token(clean, token, d.ret_begin);
         at != std::string::npos && at < d.name_begin; at = find_token(clean, token, at + 1)) {
      const std::size_t after = next_code_char(clean, at + token.size(), d.name_begin);
      if (after >= d.name_begin) {
        report(at, token, "returned");
      }
    }
  }
}

/// R8: blocking sites inside one function body (wave traversals only).
/// Waived per site with `// gpumip-lint: hot-block(reason)`.
void scan_blocking(const Scanned& f, const FunctionDecl& d,
                   const std::vector<std::string>& blocking_names, const std::string& chain,
                   std::set<SiteKey>& emitted, std::vector<Finding>& findings) {
  const std::string& clean = f.clean;
  const std::size_t begin = d.body_begin + 1;
  const std::size_t end = d.body_end;
  auto report = [&](std::size_t at, const std::string& what) {
    const int line = line_of(f, at);
    if (has_annotation(f, line, "hot-block")) return;
    if (!emit_once(emitted, "R8", f.src->path, line)) return;
    findings.push_back(
        {f.src->path, line, "R8",
         "blocking call (" + what + ") reachable from a device-wave critical section [" +
             chain +
             "]; a wave must never wait on host synchronization — restructure or annotate "
             "'// gpumip-lint: hot-block(reason)'"});
  };
  for (const char* word : {"lock_guard", "unique_lock", "scoped_lock", "shared_lock",
                           "ifstream", "ofstream", "fstream", "fopen", "freopen", "getline",
                           "system", "sleep_for", "sleep_until"}) {
    for (std::size_t at = find_word(clean, word, begin); at != std::string::npos && at < end;
         at = find_word(clean, word, at + 1)) {
      report(at, std::string("'") + word + "'");
    }
  }
  // Member-call waits, joins and lock acquisitions: x.lock(), cv.wait(...),
  // worker.join().
  for (const char* member : {"lock", "wait", "wait_for", "wait_until", "join"}) {
    for (std::size_t at = find_word(clean, member, begin); at != std::string::npos && at < end;
         at = find_word(clean, member, at + 1)) {
      const bool is_member = (at >= 1 && clean[at - 1] == '.') ||
                             (at >= 2 && clean.compare(at - 2, 2, "->") == 0);
      if (!is_member) continue;
      const std::size_t after = next_code_char(clean, at + std::string(member).size(), end);
      if (after >= end || clean[after] != '(') continue;
      report(at, std::string("'.") + member + "()'");
    }
  }
  // Manifest-declared blocking primitives, called directly or as members.
  for (const std::string& name : blocking_names) {
    for (std::size_t at = find_word(clean, name, begin); at != std::string::npos && at < end;
         at = find_word(clean, name, at + 1)) {
      const std::size_t after = next_code_char(clean, at + name.size(), end);
      if (after >= end || clean[after] != '(') continue;
      report(at, "'" + name + "' (declared blocking in the hot-path manifest)");
    }
  }
}

}  // namespace

HotPathManifest parse_hotpaths(const std::string& text, const std::string& path,
                               std::vector<Finding>& findings) {
  HotPathManifest manifest;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::size_t sep = line.find(" -- ");
    if (sep == std::string::npos) {
      findings.push_back({path, lineno, "HOT",
                          "hot-path manifest entry is missing ' -- <justification>'"});
      continue;
    }
    std::istringstream head(line.substr(0, sep));
    HotPathEntry entry;
    head >> entry.kind >> entry.name;
    entry.reason = line.substr(sep + 4);
    while (!entry.reason.empty() && is_space(entry.reason.back())) entry.reason.pop_back();
    entry.line = lineno;
    std::string extra;
    if (entry.kind != "root" && entry.kind != "wave" && entry.kind != "stop" &&
        entry.kind != "payload" && entry.kind != "blocking") {
      findings.push_back({path, lineno, "HOT",
                          "unknown hot-path manifest kind '" + entry.kind +
                              "' (expected root|wave|stop|payload|blocking)"});
      continue;
    }
    if (entry.name.empty() || entry.reason.empty() || (head >> extra)) {
      findings.push_back({path, lineno, "HOT",
                          "hot-path manifest entry needs '<kind> <name> -- <justification>'"});
      continue;
    }
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

void check_hotpaths(const std::vector<Scanned>& files, const HotPathManifest& manifest,
                    const std::string& manifest_path, const std::vector<FunctionDecl>& functions,
                    const CallGraph& graph, std::vector<Finding>& findings) {
  if (manifest.empty()) return;

  std::vector<char> is_root(functions.size(), 0);
  std::vector<char> is_wave(functions.size(), 0);
  std::vector<char> is_stopped(functions.size(), 0);
  std::vector<std::string> payload_types;
  std::vector<std::string> blocking_names;
  for (const HotPathEntry& e : manifest.entries) {
    if (e.kind == "payload") {
      payload_types.push_back(e.name);
      continue;
    }
    if (e.kind == "blocking") {
      blocking_names.push_back(e.name);
      continue;
    }
    bool matched = false;
    for (int i = 0; i < static_cast<int>(functions.size()); ++i) {
      if (!entry_matches(e, functions[static_cast<std::size_t>(i)])) continue;
      matched = true;
      if (e.kind == "stop") {
        is_stopped[static_cast<std::size_t>(i)] = 1;
      } else {
        is_root[static_cast<std::size_t>(i)] = 1;
        if (e.kind == "wave") is_wave[static_cast<std::size_t>(i)] = 1;
      }
    }
    if (!matched) {
      findings.push_back({manifest_path, e.line, "HOT",
                          "hot-path manifest " + e.kind + " entry '" + e.name +
                              "' matches no indexed function definition (stale manifest?)"});
    }
  }

  std::set<SiteKey> emitted;
  for (int root = 0; root < static_cast<int>(functions.size()); ++root) {
    if (is_root[static_cast<std::size_t>(root)] == 0) continue;
    const Traversal t = traverse(root, functions, graph, is_root, is_stopped);
    const FunctionDecl& rd = functions[static_cast<std::size_t>(root)];
    const Scanned& rf = files[static_cast<std::size_t>(rd.file_index)];

    // R9: the root itself must be instrumented (trace or metric site in
    // its own extent — lambdas inside count, they are part of the extent).
    const std::string body =
        rf.clean.substr(rd.body_begin, rd.body_end - rd.body_begin);
    if (body.find("GPUMIP_OBS_") == std::string::npos &&
        body.find("GPUMIP_TRACE_") == std::string::npos &&
        body.find("obs::") == std::string::npos) {
      if (emit_once(emitted, "R9", rf.src->path, rd.line)) {
        findings.push_back(
            {rf.src->path, rd.line, "R9",
             "hot-path root '" + rd.qualified +
                 "' carries no trace/metric instrumentation (no GPUMIP_OBS_*/GPUMIP_TRACE_*/"
                 "obs:: site in its body); instrument it so the paper-claim benches can see it"});
      }
    }

    for (int decl : t.visited) {
      const FunctionDecl& d = functions[static_cast<std::size_t>(decl)];
      const Scanned& f = files[static_cast<std::size_t>(d.file_index)];
      const std::string chain = chain_string(t, functions, decl);
      scan_allocations(f, d, chain, emitted, findings);
      scan_signature(f, d, payload_types, chain, emitted, findings);
      if (is_wave[static_cast<std::size_t>(root)] != 0) {
        scan_blocking(f, d, blocking_names, chain, emitted, findings);
      }
    }
  }
}

}  // namespace gpumip::lint
