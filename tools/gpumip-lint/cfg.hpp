// gpumip-lint control-flow graphs: per-function basic blocks and edges,
// built over the declaration indexer's body extents (index.hpp).
//
// Like the rest of the tool this is a token-level approximation (no
// libclang): statements are split on top-level `;`/braces of the blanked
// text, `if`/`else`, `while`/`for`/`do`, `switch` (with fallthrough
// between case sections), `break`/`continue`/`return`/`throw` and calls to
// [[noreturn]] functions all get real edges, and `try`/`catch` routes both
// the pre-try and end-of-try states into each handler. Lambda bodies are
// carved out of the enclosing graph and returned as separate graphs —
// defining a lambda executes nothing, so its statements must not pollute
// the enclosing function's paths — while the capture list stays in the
// enclosing statement (capturing a local IS evaluated at the definition
// site). The graphs feed the forward dataflow engine (dataflow.hpp) that
// powers the path-sensitive span rule R12 (lifetime.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lexer.hpp"

namespace gpumip::lint {

enum class StmtKind : std::uint8_t {
  kPlain,         ///< expression/declaration statement or loop init/step
  kCond,          ///< if/while/for/switch condition text (read-only branch)
  kReturn,        ///< return/co_return; also the synthetic end-of-body exit
  kThrow,         ///< throw statement (edge to exit)
  kNoreturnCall,  ///< leading call to a [[noreturn]] function (edge to exit)
};

/// One statement: a [begin,end) range of the blanked source. Ranges listed
/// in Cfg::carved (lambda bodies) may overlap a statement and must be
/// masked out when scanning its text.
struct CfgStmt {
  std::size_t begin = 0;
  std::size_t end = 0;
  StmtKind kind = StmtKind::kPlain;
};

struct CfgNode {
  std::vector<CfgStmt> stmts;
  std::vector<int> succ;  ///< successor node indices, deduplicated
};

/// One control-flow graph: a function body or a lambda body.
struct Cfg {
  std::size_t body_begin = 0;  ///< offset of the region's '{'
  std::size_t body_end = 0;    ///< offset of the matching '}'
  int entry = 0;
  /// Virtual exit: every return/throw/noreturn-call edge lands here, plus
  /// a synthetic kReturn statement when control can fall off the end.
  int exit = 1;
  std::vector<CfgNode> nodes;
  /// Lambda-body ranges nested in this graph's statements: text inside
  /// them belongs to a separate graph, not to the statement spanning them.
  std::vector<std::pair<std::size_t, std::size_t>> carved;
};

/// Unqualified names of every function declared [[noreturn]] anywhere in
/// `files`, seeded with the std terminators (abort, terminate, _Exit).
/// Name-based like the call graph: any call spelled `name(...)` as a whole
/// statement is treated as diverging.
std::set<std::string> collect_noreturn_names(const std::vector<Scanned>& files);

/// Builds the CFG for the brace-delimited body [body_begin..body_end] of
/// `clean` (a Scanned::clean text) plus one graph per lambda body nested
/// inside. The function's own graph comes first.
std::vector<Cfg> build_cfgs(const std::string& clean, std::size_t body_begin,
                            std::size_t body_end,
                            const std::set<std::string>& noreturn_names);

}  // namespace gpumip::lint
