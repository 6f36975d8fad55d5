// gpumip-lint path-sensitive lifetime rules (R11-R12), powered by the CFG
// builder (cfg.hpp) and the forward dataflow engine (dataflow.hpp).
//
//  * R11 arena/buffer use-after-reset — a value derived from a
//    DeviceArena allocation (`allot`) or a device span (`span`, `as`,
//    `subspan`, `first`, `last`, `data`) is used on some path after its
//    source was invalidated by `reset()`/`release()`/`reserve()` — either
//    directly or through a call to any function the call graph proves can
//    reset (transitively). Waiver: arena-ok(reason).
//  * R12 unbalanced instrumentation spans — a raw GPUMIP_TRACE_BEGIN
//    without a matching GPUMIP_TRACE_END on some early-return / throw /
//    noreturn-call path (or an END that can run with no span open, e.g.
//    via switch fallthrough). RAII forms (obs::Span, trace::SpanGuard,
//    GPUMIP_TRACE_SCOPE) are exempt by construction. Waiver:
//    span-ok(reason).
//
// Both are may-analyses: a finding means SOME path exhibits the
// hazard. Lambda bodies are separate graphs (cfg.hpp), so a span opened in
// a function and closed in a lambda it defines is two findings, not zero.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "callgraph.hpp"
#include "cfg.hpp"
#include "index.hpp"
#include "lexer.hpp"

namespace gpumip::lint {

/// Unqualified names of functions that can (transitively, via the call
/// graph) invalidate an arena/buffer: their body contains a `.reset()` /
/// `.release()` call, or they call such a function. Exposed for tests.
std::set<std::string> collect_resetters(const std::vector<Scanned>& files,
                                        const std::vector<FunctionDecl>& functions,
                                        const CallGraph& graph);

/// Runs R11-R12 over every indexed function (and every lambda inside it as
/// its own graph), appending findings.
void check_lifetimes(const std::vector<Scanned>& files,
                     const std::vector<FunctionDecl>& functions, const CallGraph& graph,
                     const std::set<std::string>& noreturn_names,
                     std::vector<Finding>& findings);

}  // namespace gpumip::lint
