#include "determinism.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace gpumip::lint {
namespace {

constexpr std::size_t npos = std::string::npos;

/// R15-R16 apply to all of src/ (matched as a path prefix or after any
/// '/'): the replay invariant covers the whole solve, so exceptions are
/// waivers, not scope carve-outs. Bench and tool code may read clocks.
bool in_scope(const std::string& path) {
  return path.starts_with("src/") || path.find("/src/") != npos;
}

void report(const Scanned& f, std::size_t at, const std::string& rule,
            const std::string& message, std::vector<Finding>& findings) {
  const int line = line_of(f, at);
  if (has_annotation(f, line, "determinism-ok")) return;
  findings.push_back({f.src->path, line, rule, message});
}

// ---- R15: replay determinism -----------------------------------------------

void check_clocks_and_randomness(const Scanned& f, std::vector<Finding>& findings) {
  for (const char* clock : {"system_clock", "steady_clock", "high_resolution_clock"}) {
    for (std::size_t at : word_positions(f, clock)) {
      report(f, at, "R15",
             std::string("wall-clock source '") + clock +
                 "' in replay-relevant code: schedule replay must be bit-identical, so the "
                 "solve path may not read host clocks — derive time from the schedule lane "
                 "or keep the reading out of solver decisions and annotate "
                 "'// gpumip-lint: determinism-ok(reason)'",
             findings);
    }
  }
  for (std::size_t at : word_positions(f, "random_device")) {
    report(f, at, "R15",
           "'random_device' is entropy the replay harness cannot capture; every random "
           "draw must come from a seeded engine (GPUMIP_SCHEDULE_SEED/options) so a run "
           "is reproducible from its seed (or annotate "
           "'// gpumip-lint: determinism-ok(reason)'",
           findings);
  }
  for (const char* fn : {"rand", "srand"}) {
    for (std::size_t at : word_positions(f, fn)) {
      const std::string& s = f.clean;
      if (at > 0 && (s[at - 1] == '.' || (s[at - 1] == '>' && at >= 2 && s[at - 2] == '-'))) {
        continue;  // member named rand on some other object
      }
      std::size_t pos = skip_ws(s, at + std::string(fn).size());
      if (pos >= s.size() || s[pos] != '(') continue;  // not a call
      report(f, at, "R15",
             std::string("'") + fn +
                 "' uses hidden global RNG state the replay harness cannot capture; draw "
                 "from a seeded engine (support/rng.hpp) instead (or annotate "
                 "'// gpumip-lint: determinism-ok(reason)'",
             findings);
    }
  }
}

/// One declared unordered container the iteration pass tracks.
struct UnorderedDecl {
  std::string file;
  int line = 0;
};

/// Collects `unordered_map<...> name` / `unordered_set<...> name` declared
/// variable names across the in-scope files. Name-based and global, like
/// the call graph: a member declared in a header is iterated in its .cpp.
std::map<std::string, UnorderedDecl> collect_unordered_names(
    const std::vector<Scanned>& files) {
  std::map<std::string, UnorderedDecl> tracked;
  for (const Scanned& f : files) {
    if (!in_scope(f.src->path)) continue;
    const std::string& s = f.clean;
    for (const char* container :
         {"unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"}) {
      for (std::size_t at : word_positions(f, container)) {
        std::size_t pos = skip_ws(s, at + std::string(container).size());
        if (pos >= s.size() || s[pos] != '<') continue;
        int depth = 0;
        while (pos < s.size()) {
          if (s[pos] == '<') ++depth;
          if (s[pos] == '>' && --depth == 0) break;
          ++pos;
        }
        if (pos >= s.size()) continue;
        pos = skip_ws(s, pos + 1);
        std::string name;
        while (pos < s.size() && is_ident_char(s[pos])) name += s[pos++];
        if (name.empty()) continue;
        tracked[name] = {f.src->path, line_of(f, at)};
      }
    }
  }
  return tracked;
}

/// Flags range-for loops whose container expression trails in a tracked
/// unordered name (`for (auto& kv : ledger_)`).
void check_unordered_iteration(const Scanned& f,
                               const std::map<std::string, UnorderedDecl>& tracked,
                               std::vector<Finding>& findings) {
  const std::string& s = f.clean;
  for (std::size_t at : word_positions(f, "for")) {
    std::size_t pos = skip_ws(s, at + 3);
    if (pos >= s.size() || s[pos] != '(') continue;
    int depth = 0;
    std::size_t close = pos;
    while (close < s.size()) {
      if (s[close] == '(') ++depth;
      if (s[close] == ')' && --depth == 0) break;
      ++close;
    }
    if (close >= s.size()) continue;
    // Range-based for: a depth-1 ':' that is not part of '::'.
    std::size_t colon = npos;
    depth = 0;
    for (std::size_t i = pos; i < close; ++i) {
      if (s[i] == '(' || s[i] == '[' || s[i] == '{' || s[i] == '<') ++depth;
      if (s[i] == ')' || s[i] == ']' || s[i] == '}' || s[i] == '>') --depth;
      if (s[i] == ':' && depth == 1) {
        if ((i > 0 && s[i - 1] == ':') || (i + 1 < close && s[i + 1] == ':')) continue;
        colon = i;
        break;
      }
    }
    if (colon == npos) continue;
    std::string range = s.substr(colon + 1, close - colon - 1);
    std::size_t end = range.size();
    while (end > 0 && is_space(range[end - 1])) --end;
    std::size_t begin = end;
    while (begin > 0 && is_ident_char(range[begin - 1])) --begin;
    if (begin == end) continue;
    const std::string name = range.substr(begin, end - begin);
    auto decl = tracked.find(name);
    if (decl == tracked.end()) continue;
    report(f, at, "R15",
           "iteration over unordered container '" + name + "' (declared at " +
               decl->second.file + ":" + std::to_string(decl->second.line) +
               "): bucket order varies across standard-library versions and runs, so "
               "everything derived from the walk (reports, traces, decisions) is "
               "nondeterministic; use std::map/std::set or sort before iterating (or "
               "annotate '// gpumip-lint: determinism-ok(reason)'",
           findings);
  }
}

// ---- R16: seed plumbing ----------------------------------------------------

const std::set<std::string>& engine_names() {
  static const std::set<std::string> k = {
      "mt19937",       "mt19937_64",    "minstd_rand", "minstd_rand0",
      "ranlux24_base", "ranlux48_base", "knuth_b",     "default_random_engine",
      "Rng",
  };
  return k;
}

/// Collects the names of variables declared as a container of engines
/// (`std::vector<std::mt19937_64> rngs_`) across the in-scope files, like
/// collect_unordered_names: the member is declared in a header and grown in
/// its .cpp.
std::set<std::string> collect_engine_containers(const std::vector<Scanned>& files) {
  std::set<std::string> names;
  for (const Scanned& f : files) {
    if (!in_scope(f.src->path)) continue;
    const std::string& s = f.clean;
    for (const std::string& engine : engine_names()) {
      for (std::size_t at : word_positions(f, engine)) {
        // The engine is the element type: `<[ns::]Engine>` then a name.
        std::size_t q = at;
        if (q >= 2 && s[q - 1] == ':' && s[q - 2] == ':') {
          q -= 2;
          while (q > 0 && is_ident_char(s[q - 1])) --q;
        }
        while (q > 0 && is_space(s[q - 1])) --q;
        if (q == 0 || s[q - 1] != '<') continue;
        std::size_t pos = skip_ws(s, at + engine.size());
        if (pos >= s.size() || s[pos] != '>') continue;
        pos = skip_ws(s, pos + 1);
        std::string name;
        while (pos < s.size() && is_ident_char(s[pos])) name += s[pos++];
        if (!name.empty()) names.insert(name);
      }
    }
  }
  return names;
}

/// True when the call whose '(' is at `open` has no argument, or (with
/// `one_ok`) exactly one: `emplace_back()` and `resize(n)` default-construct
/// the engines they add.
bool default_constructs(const std::string& s, std::size_t open, bool one_ok) {
  const std::size_t first = skip_ws(s, open + 1);
  if (first >= s.size()) return false;
  if (s[first] == ')') return true;
  if (!one_ok) return false;
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(' || s[i] == '{' || s[i] == '[') ++depth;
    if (s[i] == ')' || s[i] == '}' || s[i] == ']') {
      if (--depth == 0) return true;
    }
    if (s[i] == ',' && depth == 1) return false;
  }
  return false;
}

void check_seed_plumbing(const Scanned& f, const std::set<std::string>& engine_containers,
                         std::vector<Finding>& findings) {
  const std::string& s = f.clean;
  for (const std::string& name : engine_containers) {
    for (std::size_t at : word_positions(f, name)) {
      std::size_t pos = skip_ws(s, at + name.size());
      if (pos >= s.size() || s[pos] != '.') continue;
      pos = skip_ws(s, pos + 1);
      std::string method;
      while (pos < s.size() && is_ident_char(s[pos])) method += s[pos++];
      const bool grow = method == "emplace_back" || method == "emplace_front";
      if (!grow && method != "resize") continue;
      pos = skip_ws(s, pos);
      if (pos >= s.size() || s[pos] != '(' || !default_constructs(s, pos, !grow)) continue;
      report(f, at, "R16",
             "'" + name + "." + method +
                 "' default-constructs RNG engines in a container of engines: their seed "
                 "is whatever the implementation picks, invisible to the replay harness; "
                 "pass each engine an explicit seed traceable to GPUMIP_SCHEDULE_SEED/options "
                 "(or annotate '// gpumip-lint: determinism-ok(reason)'",
             findings);
    }
  }
  for (const std::string& engine : engine_names()) {
    for (std::size_t at : word_positions(f, engine)) {
      // Type-position and declaration-of-the-engine uses are not
      // constructions.
      std::size_t q = at;
      while (q > 0 && is_space(s[q - 1])) --q;
      if (q > 0 && s[q - 1] == '~') continue;  // destructor
      if (q > 0 && is_ident_char(s[q - 1])) {
        std::size_t r0 = q;
        while (r0 > 0 && is_ident_char(s[r0 - 1])) --r0;
        const std::string prev = s.substr(r0, q - r0);
        if (prev == "class" || prev == "struct" || prev == "explicit" ||
            prev == "typename" || prev == "using" || prev == "enum") {
          continue;
        }
      }
      std::size_t pos = skip_ws(s, at + engine.size());
      if (pos >= s.size()) continue;
      const auto fire = [&]() {
        report(f, at, "R16",
               "RNG engine '" + engine +
                   "' is default-constructed: its seed is whatever the implementation "
                   "picks, invisible to the replay harness; construct every engine from "
                   "an explicit seed traceable to GPUMIP_SCHEDULE_SEED/options (or "
                   "annotate '// gpumip-lint: determinism-ok(reason)'",
               findings);
      };
      if (is_ident_char(s[pos])) {
        // `Engine name ...`: a variable declaration.
        std::string name;
        while (pos < s.size() && is_ident_char(s[pos])) name += s[pos++];
        pos = skip_ws(s, pos);
        if (pos >= s.size()) continue;
        if (s[pos] == ';') {
          // `Engine member_;` seeded in a ctor-init list elsewhere in the
          // file is fine; a plain `Engine local;` is not.
          if (!name.empty() && name.back() == '_' && f.clean.find(name + "(") != npos) {
            continue;
          }
          fire();
        } else if (s[pos] == '(') {
          if (skip_ws(s, pos + 1) < s.size() && s[skip_ws(s, pos + 1)] == ')') fire();
        } else if (s[pos] == '{') {
          if (skip_ws(s, pos + 1) < s.size() && s[skip_ws(s, pos + 1)] == '}') fire();
        }
        // `= expr`, `,`, `)` (parameters) stay quiet: the initializer or
        // caller supplies the seeded engine.
      } else if (s[pos] == '(') {
        // `Engine(...)` temporary (or an unindexed ctor declaration):
        // empty parens mean a default-constructed engine.
        if (skip_ws(s, pos + 1) < s.size() && s[skip_ws(s, pos + 1)] == ')') fire();
      } else if (s[pos] == '{') {
        if (skip_ws(s, pos + 1) < s.size() && s[skip_ws(s, pos + 1)] == '}') fire();
      }
    }
  }
}

}  // namespace

void check_determinism(const std::vector<Scanned>& files, std::vector<Finding>& findings) {
  const std::map<std::string, UnorderedDecl> tracked = collect_unordered_names(files);
  const std::set<std::string> engine_containers = collect_engine_containers(files);
  for (const Scanned& f : files) {
    if (!in_scope(f.src->path)) continue;
    check_clocks_and_randomness(f, findings);
    check_unordered_iteration(f, tracked, findings);
    check_seed_plumbing(f, engine_containers, findings);
  }
}

}  // namespace gpumip::lint
