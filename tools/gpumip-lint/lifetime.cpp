#include "lifetime.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "dataflow.hpp"

namespace gpumip::lint {
namespace {

constexpr std::size_t npos = std::string::npos;

/// Methods that leave a stale variable freshly initialized.
const std::set<std::string>& reinit_methods() {
  static const std::set<std::string> k = {"clear", "assign", "resize", "reset", "swap"};
  return k;
}

/// Methods whose result aliases the receiver's storage (R11 derivation).
const std::set<std::string>& deriving_methods() {
  static const std::set<std::string> k = {"allot", "span",  "as",  "subspan",
                                          "first", "last", "data"};
  return k;
}

/// Methods that invalidate every view previously derived from the
/// receiver (DeviceArena contract: reset/release/reserve-coalescing).
const std::set<std::string>& invalidating_methods() {
  static const std::set<std::string> k = {"reset", "release", "reserve"};
  return k;
}

/// How one whole-word occurrence of a tracked variable participates in
/// its statement.
enum class Occ {
  kSkip,  ///< not this variable: member of another object, qualified name
  kUse,   ///< reads the (possibly stale) value
  kKill,  ///< redeclaration, assignment target, or reinitializing call
};

Occ classify(const std::string& s, std::size_t at, std::size_t len, std::size_t stmt_end) {
  std::size_t q = at;
  while (q > 0 && is_space(s[q - 1])) --q;
  if (q > 0) {
    const char prev = s[q - 1];
    if (prev == '.') return Occ::kSkip;  // other.var
    if (prev == '>' && q >= 2 && s[q - 2] == '-') return Occ::kSkip;  // p->var
    if (prev == ':' && q >= 2 && s[q - 2] == ':') return Occ::kSkip;  // T::var
    // Declarations kill: `Type var`, `vector<T> var`, `Type& var`.
    if (is_ident_char(prev) || prev == '>') return Occ::kKill;
    if (prev == '&' || prev == '*') {
      std::size_t r = q - 1;
      while (r > 0 && (s[r - 1] == '&' || s[r - 1] == '*' || is_space(s[r - 1]))) --r;
      if (r > 0 && (is_ident_char(s[r - 1]) || s[r - 1] == '>')) return Occ::kKill;
    }
  }
  std::size_t p = skip_ws(s, at + len);
  if (p < stmt_end && p < s.size()) {
    if (s[p] == '=' && (p + 1 >= s.size() || s[p + 1] != '=')) return Occ::kKill;
    const bool dot = s[p] == '.';
    const bool arrow = s[p] == '-' && p + 1 < s.size() && s[p + 1] == '>';
    if (dot || arrow) {
      std::size_t m = p + (dot ? 1 : 2);
      std::string method;
      while (m < s.size() && is_ident_char(s[m])) method += s[m++];
      if (reinit_methods().count(method) != 0) return Occ::kKill;
    }
  }
  return Occ::kUse;
}

bool in_carved(const Cfg& cfg, std::size_t pos) {
  for (const auto& [b, e] : cfg.carved) {
    if (pos >= b && pos < e) return true;
  }
  return false;
}

/// Matching ')' for the '(' at `pos`, bounded by `end`.
std::size_t match_paren(const std::string& s, std::size_t pos, std::size_t end) {
  int depth = 0;
  for (std::size_t i = pos; i < end; ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')' && --depth == 0) return i;
  }
  return end;
}

/// Runs both rules over one graph: a combined transfer function (the
/// rules use disjoint keys: "a:" arena-stale, "$span" open-depth set), one
/// fixpoint, then a reporting replay per node. All
/// occurrence queries go through the Scanned token index, so each is a
/// binary search over that word's sites rather than a text scan.
class LifetimeChecker {
 public:
  LifetimeChecker(const Scanned& f, const Cfg& cfg, const std::set<std::string>& resetters)
      : f_(f), s_(f.clean), cfg_(cfg), resetters_(resetters) {
    find_sources();
    derive_closure();
  }

  bool has_facts() const {
    return !root_of_.empty() || has_span_sites();
  }

  void run(std::vector<Finding>& findings) {
    AbstractState entry;
    entry["$span"] = 1u;  // depth 0 is the only possible depth on entry
    const Transfer quiet = [this](const CfgStmt& st, AbstractState& state) {
      transfer(st, state, nullptr);
    };
    const std::vector<AbstractState> in = fixpoint(cfg_, entry, quiet);
    for (std::size_t n = 0; n < cfg_.nodes.size(); ++n) {
      AbstractState state = in[n];
      for (const CfgStmt& st : cfg_.nodes[n].stmts) transfer(st, state, &findings);
    }
  }

 private:
  const Scanned& f_;
  const std::string& s_;
  const Cfg& cfg_;
  const std::set<std::string>& resetters_;
  std::set<std::string> sources_;                        // arena/buffer receivers
  std::map<std::string, std::string> root_of_;           // derived var -> source
  std::map<std::string, std::vector<std::string>> family_;  // source -> derived vars
  std::set<std::tuple<int, std::string, std::string>> reported_;  // line, rule, key

  /// Calls fn(offset) for each indexed occurrence of `word` in [b, e),
  /// outside carved (lambda) ranges.
  template <typename Fn>
  void each_word(const std::string& word, std::size_t b, std::size_t e, Fn&& fn) const {
    const std::vector<std::size_t>& pos = word_positions(f_, word);
    for (auto it = std::lower_bound(pos.begin(), pos.end(), b);
         it != pos.end() && *it < e; ++it) {
      if (!in_carved(cfg_, *it)) fn(*it);
    }
  }

  // -- pre-passes over the graph's extent ------------------------------

  void find_sources() {
    for (const char* method : {"allot", "span"}) {
      each_word(method, cfg_.body_begin, cfg_.body_end, [&](std::size_t at) {
        // Must be a member call on a simple identifier receiver.
        std::size_t recv_end = at;
        if (recv_end >= 1 && s_[recv_end - 1] == '.') {
          recv_end -= 1;
        } else if (recv_end >= 2 && s_.compare(recv_end - 2, 2, "->") == 0) {
          recv_end -= 2;
        } else {
          return;
        }
        const std::size_t after = skip_ws(s_, at + std::string(method).size());
        if (after >= s_.size() || (s_[after] != '(' && s_[after] != '<')) return;
        std::size_t b = recv_end;
        while (b > 0 && is_ident_char(s_[b - 1])) --b;
        if (b == recv_end) return;
        if (b > 0 && (s_[b - 1] == '.' || s_[b - 1] == '>' || s_[b - 1] == ':')) return;
        sources_.insert(s_.substr(b, recv_end - b));
      });
    }
  }

  /// `blk = arena.allot(...)`, `auto xs = buf.span()`, `p = blk.as<T>()`:
  /// the assignment's target becomes a tracked view of the source.
  /// Iterated to closure so chains (arena -> block -> pointer) resolve.
  void derive_closure() {
    for (int round = 0; round < 4; ++round) {
      bool changed = false;
      std::vector<std::string> known(sources_.begin(), sources_.end());
      for (const auto& [d, r] : root_of_) known.push_back(d);
      for (const std::string& var : known) {
        each_word(var, cfg_.body_begin, cfg_.body_end, [&](std::size_t at) {
          std::size_t p = at + var.size();
          std::size_t m = 0;
          if (p < s_.size() && s_[p] == '.') {
            m = p + 1;
          } else if (p + 1 < s_.size() && s_.compare(p, 2, "->") == 0) {
            m = p + 2;
          } else {
            return;
          }
          std::string method;
          while (m < s_.size() && is_ident_char(s_[m])) method += s_[m++];
          if (deriving_methods().count(method) == 0) return;
          const std::size_t after = skip_ws(s_, m);
          if (after >= s_.size() || (s_[after] != '(' && s_[after] != '<')) return;
          // LHS of the enclosing assignment, if any.
          const std::size_t stmt_b = s_.find_last_of(";{}", at);
          const std::size_t begin = stmt_b == npos ? 0 : stmt_b + 1;
          std::size_t eq = npos;
          for (std::size_t i = begin; i < at; ++i) {
            if (s_[i] != '=') continue;
            if (i + 1 < at && s_[i + 1] == '=') {
              ++i;
              continue;
            }
            if (i > 0 && std::string("=<>!+-*/%&|^").find(s_[i - 1]) != npos) continue;
            eq = i;
          }
          if (eq == npos) return;
          std::size_t le = eq;
          while (le > begin && is_space(s_[le - 1])) --le;
          std::size_t lb = le;
          while (lb > begin && is_ident_char(s_[lb - 1])) --lb;
          if (lb == le) return;
          if (lb > 0 && (s_[lb - 1] == '.' || s_[lb - 1] == ':')) return;
          const std::string lhs = s_.substr(lb, le - lb);
          const std::string root =
              sources_.count(var) != 0 ? var : root_of_.at(var);
          if (lhs == root || root_of_.count(lhs) != 0) return;
          root_of_[lhs] = root;
          changed = true;
        });
      }
      if (!changed) break;
    }
    for (const auto& [d, r] : root_of_) family_[r].push_back(d);
  }

  bool has_span_sites() const {
    for (const char* w : {"GPUMIP_TRACE_BEGIN", "GPUMIP_TRACE_END"}) {
      const std::vector<std::size_t>& pos = word_positions(f_, w);
      for (auto it = std::lower_bound(pos.begin(), pos.end(), cfg_.body_begin);
           it != pos.end() && *it < cfg_.body_end; ++it) {
        if (!in_carved(cfg_, *it)) return true;
      }
    }
    return false;
  }

  // -- transfer (shared between fixpoint and reporting replay) ---------

  void report(std::vector<Finding>* out, int line, const std::string& rule,
              const std::string& key, const std::string& tag, const std::string& message) {
    if (out == nullptr) return;
    if (has_annotation(f_, line, tag)) return;
    if (!reported_.insert({line, rule, key}).second) return;
    out->push_back({f_.src->path, line, rule, message});
  }

  void transfer(const CfgStmt& st, AbstractState& state, std::vector<Finding>* out) {
    // R11: views of reset arenas/buffers.
    for (const auto& [var, root] : root_of_) {
      bool used = false, killed = false;
      std::size_t use_at = 0;
      each_word(var, st.begin, st.end, [&](std::size_t at) {
        const Occ o = classify(s_, at, var.size(), st.end);
        if (o == Occ::kKill) {
          killed = true;
        } else if (o == Occ::kUse && !used) {
          used = true;
          use_at = at;
        }
      });
      const std::string key = "a:" + var;
      auto it = state.find(key);
      if (used && it != state.end() && (it->second & 1u) != 0) {
        const int line = line_of(f_, use_at);
        report(out, line, "R11", key, "arena-ok",
               "'" + var + "' derives from '" + root +
                   "', which may have been reset/released on some path to this use — "
                   "the block/span no longer owns its storage (gpu/arena.hpp contract); "
                   "re-derive it after the reset or annotate "
                   "'// gpumip-lint: arena-ok(reason)'");
      }
      if (killed) state[key] = 0;
    }
    // Direct invalidation: `source.reset()` / `.release()` / `.reserve(`.
    for (const std::string& src : sources_) {
      if (family_.count(src) == 0) continue;
      each_word(src, st.begin, st.end, [&](std::size_t at) {
        std::size_t p = at + src.size();
        std::size_t m = 0;
        if (p < s_.size() && s_[p] == '.') {
          m = p + 1;
        } else if (p + 1 < s_.size() && s_.compare(p, 2, "->") == 0) {
          m = p + 2;
        } else {
          return;
        }
        std::string method;
        while (m < s_.size() && is_ident_char(s_[m])) method += s_[m++];
        if (invalidating_methods().count(method) == 0) return;
        if (skip_ws(s_, m) >= s_.size() || s_[skip_ws(s_, m)] != '(') return;
        for (const std::string& d : family_.at(src)) state["a:" + d] |= 1u;
      });
    }
    // Interprocedural invalidation: a call-graph-proven resetter taking a
    // tracked source as an argument.
    if (!sources_.empty() && !family_.empty()) {
      for (const std::string& fn : resetters_) {
        each_word(fn, st.begin, st.end, [&](std::size_t at) {
          const std::size_t open = skip_ws(s_, at + fn.size());
          if (open >= st.end || s_[open] != '(') return;
          const std::size_t close = match_paren(s_, open, st.end);
          for (const auto& [src, fam] : family_) {
            bool passed = false;
            each_word(src, open + 1, close, [&](std::size_t) { passed = true; });
            if (!passed) continue;
            for (const std::string& d : fam) state["a:" + d] |= 1u;
          }
        });
      }
    }

    // R12: raw trace-span depth tracking.
    std::uint32_t mask = 0;
    {
      auto it = state.find("$span");
      if (it != state.end()) mask = it->second;
    }
    std::vector<std::pair<std::size_t, int>> events;
    for (const char* w : {"GPUMIP_TRACE_BEGIN", "GPUMIP_TRACE_END"}) {
      const int delta = std::string(w) == "GPUMIP_TRACE_BEGIN" ? +1 : -1;
      each_word(w, st.begin, st.end, [&](std::size_t at) { events.push_back({at, delta}); });
    }
    std::sort(events.begin(), events.end());
    for (const auto& [pos, delta] : events) {
      if (delta > 0) {
        mask = ((mask << 1) & 0xFFFFu) | (mask & 0x8000u);  // saturate deep nests
      } else {
        if ((mask & 1u) != 0) {
          const int line = line_of(f_, pos);
          report(out, line, "R12", "$end", "span-ok",
                 std::string("GPUMIP_TRACE_END with no GPUMIP_TRACE_BEGIN open on ") +
                     (mask == 1u ? "any" : "some") +
                     " path (e.g. switch fallthrough or a branch that skipped the "
                     "begin); balance the span on every path, or use "
                     "trace::SpanGuard / GPUMIP_TRACE_SCOPE, or annotate "
                     "'// gpumip-lint: span-ok(reason)'");
        }
        mask = (mask >> 1) | (mask & 1u);
      }
    }
    if ((st.kind == StmtKind::kReturn || st.kind == StmtKind::kThrow ||
         st.kind == StmtKind::kNoreturnCall) &&
        (mask & ~1u) != 0) {
      const bool synthetic = st.begin == st.end;
      const int line = line_of(f_, synthetic ? cfg_.body_end : st.begin);
      const char* how = st.kind == StmtKind::kThrow
                            ? "this throw"
                            : st.kind == StmtKind::kNoreturnCall
                                  ? "this noreturn call"
                                  : synthetic ? "falling off the end of the function"
                                              : "this return";
      report(out, line, "R12", "$exit", "span-ok",
             std::string("a GPUMIP_TRACE_BEGIN span may still be open when leaving via ") +
                 how + "; close it on every exit path or hold it in a "
                 "trace::SpanGuard / GPUMIP_TRACE_SCOPE, or annotate "
                 "'// gpumip-lint: span-ok(reason)'");
    }
    state["$span"] = mask;
  }
};

}  // namespace

std::set<std::string> collect_resetters(const std::vector<Scanned>& files,
                                        const std::vector<FunctionDecl>& functions,
                                        const CallGraph& graph) {
  const std::size_t n = functions.size();
  std::vector<char> resets(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDecl& fd = functions[i];
    const Scanned& f = files[static_cast<std::size_t>(fd.file_index)];
    const std::string body = f.clean.substr(fd.body_begin, fd.body_end - fd.body_begin);
    for (const char* pat : {".reset()", "->reset()", ".release()", "->release()"}) {
      if (body.find(pat) != npos) {
        resets[i] = 1;
        break;
      }
    }
  }
  // A caller of a resetter is a resetter: propagate to fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n && i < graph.edges.size(); ++i) {
      if (resets[i] != 0) continue;
      for (int j : graph.edges[i]) {
        if (resets[static_cast<std::size_t>(j)] != 0) {
          resets[i] = 1;
          changed = true;
          break;
        }
      }
    }
  }
  std::set<std::string> names;
  for (std::size_t i = 0; i < n; ++i) {
    if (resets[i] != 0) names.insert(functions[i].name);
  }
  return names;
}

void check_lifetimes(const std::vector<Scanned>& files,
                     const std::vector<FunctionDecl>& functions, const CallGraph& graph,
                     const std::set<std::string>& noreturn_names,
                     std::vector<Finding>& findings) {
  const std::set<std::string> resetters = collect_resetters(files, functions, graph);
  for (const FunctionDecl& fd : functions) {
    const Scanned& f = files[static_cast<std::size_t>(fd.file_index)];
    const std::vector<Cfg> graphs =
        build_cfgs(f.clean, fd.body_begin, fd.body_end, noreturn_names);
    for (const Cfg& cfg : graphs) {
      LifetimeChecker checker(f, cfg, resetters);
      if (!checker.has_facts()) continue;  // nothing tracked: skip the fixpoint
      checker.run(findings);
    }
  }
}

}  // namespace gpumip::lint
