// gpumip-lint protocol analysis: tag-protocol coverage (R14) over the
// simmpi message layer.
//
// R14 works on the token index and the declaration index, not on control
// flow: (a) every message tag passed to a send site must be examined by
// some receive/dispatch handler somewhere in the scanned set (an `== tag` /
// `!= tag` comparison, a `case tag:` label, or a recv-site argument) — a
// tag that is only ever sent is a dead or mistyped protocol leg; and (b)
// every function that constructs a ByteReader (a top-level deserializer)
// must check `exhausted()` in its body, so trailing bytes in a payload are
// a typed protocol error instead of silent acceptance.
//
// Waiver: wire-ok(reason).
#pragma once

#include <vector>

#include "index.hpp"
#include "lexer.hpp"
#include "lint.hpp"

namespace gpumip::lint {

/// Runs R14 over the scanned set. `functions` is the shared declaration
/// index built by run_lint.
void check_protocol(const std::vector<Scanned>& files,
                    const std::vector<FunctionDecl>& functions,
                    std::vector<Finding>& findings);

}  // namespace gpumip::lint
