// gpumip-lint path-sensitive span rule (R12), powered by the CFG builder
// (cfg.hpp) and the forward dataflow engine (dataflow.hpp).
//
//  * R12 unbalanced instrumentation spans — a raw GPUMIP_TRACE_BEGIN
//    without a matching GPUMIP_TRACE_END on some early-return / throw /
//    noreturn-call path (or an END that can run with no span open, e.g.
//    via switch fallthrough or a loop back edge). RAII forms (obs::Span,
//    trace::SpanGuard, GPUMIP_TRACE_SCOPE) are exempt by construction.
//    Waiver: span-ok(reason).
//
// It is a may-analysis: a finding means SOME path exhibits the hazard.
// Lambda bodies are separate graphs (cfg.hpp), so a span opened in a
// function and closed in a lambda it defines is two findings, not zero.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "cfg.hpp"
#include "index.hpp"
#include "lexer.hpp"

namespace gpumip::lint {

/// Runs R12 over every indexed function (and every lambda inside it as
/// its own graph), appending findings.
void check_lifetimes(const std::vector<Scanned>& files,
                     const std::vector<FunctionDecl>& functions,
                     const std::set<std::string>& noreturn_names,
                     std::vector<Finding>& findings);

}  // namespace gpumip::lint
