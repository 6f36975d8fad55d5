#include "lifetime.hpp"

#include <algorithm>
#include <tuple>

#include "dataflow.hpp"

namespace gpumip::lint {
namespace {

bool in_carved(const Cfg& cfg, std::size_t pos) {
  for (const auto& [b, e] : cfg.carved) {
    if (pos >= b && pos < e) return true;
  }
  return false;
}

/// Runs R12 over one graph: one fixpoint over the open-depth set, then a
/// reporting replay per node. All occurrence queries go through the
/// Scanned token index, so each is a binary search over that word's sites
/// rather than a text scan.
class SpanChecker {
 public:
  SpanChecker(const Scanned& f, const Cfg& cfg) : f_(f), cfg_(cfg) {}

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

 private:
  const Scanned& f_;
  const Cfg& cfg_;
  std::set<std::tuple<int, std::string>> reported_;  // line, key

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

  // -- transfer (shared between fixpoint and reporting replay) ---------

  void report(std::vector<Finding>* out, int line, const std::string& key,
              const std::string& message) {
    if (out == nullptr) return;
    if (has_annotation(f_, line, "span-ok")) return;
    if (!reported_.insert({line, key}).second) return;
    out->push_back({f_.src->path, line, "R12", message});
  }

  void transfer(const CfgStmt& st, AbstractState& state, std::vector<Finding>* out) {
    // Raw trace-span depth tracking.
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
          report(out, line, "$end",
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
      report(out, line, "$exit",
             std::string("a GPUMIP_TRACE_BEGIN span may still be open when leaving via ") +
                 how + "; close it on every exit path or hold it in a "
                 "trace::SpanGuard / GPUMIP_TRACE_SCOPE, or annotate "
                 "'// gpumip-lint: span-ok(reason)'");
    }
    state["$span"] = mask;
  }
};

}  // namespace

void check_lifetimes(const std::vector<Scanned>& files,
                     const std::vector<FunctionDecl>& functions,
                     const std::set<std::string>& noreturn_names,
                     std::vector<Finding>& findings) {
  for (const FunctionDecl& fd : functions) {
    const Scanned& f = files[static_cast<std::size_t>(fd.file_index)];
    const std::vector<Cfg> graphs =
        build_cfgs(f.clean, fd.body_begin, fd.body_end, noreturn_names);
    for (const Cfg& cfg : graphs) {
      SpanChecker checker(f, cfg);
      if (!checker.has_span_sites()) continue;  // no raw span: skip the fixpoint
      checker.run(findings);
    }
  }
}

}  // namespace gpumip::lint
