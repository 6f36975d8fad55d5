// gpumip-lint forward dataflow: a small may-analysis framework over the
// CFGs built by cfg.hpp.
//
// The lattice is a map from rule-defined fact keys (a tracked variable, a
// span-depth slot) to 32-bit masks whose bits the rule interprets; join is
// key-wise OR, so a bit survives when ANY path sets it — findings are
// "may happen on some path" claims, matching the tool's over-approximate
// philosophy (extra findings need a justified waiver; missed ones would be
// unsound). Absent keys are bottom (0), which makes the empty map the
// initial state of unreachable nodes for free. The fixpoint is a classic
// worklist iteration; it terminates because states only grow (OR is
// monotone) and the key/bit space is finite, with a step cap as a backstop.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cfg.hpp"

namespace gpumip::lint {

/// Fact key -> bitmask. Rules define the bits (lifetime.cpp:
/// "invalidated", the set of possible open-span depths).
using AbstractState = std::map<std::string, std::uint32_t>;

/// ORs `src` into `dst`; true when `dst` gained any bit.
bool join_into(AbstractState& dst, const AbstractState& src);

/// Statement transfer function: updates `state` in place.
using Transfer = std::function<void(const CfgStmt&, AbstractState&)>;

/// Forward worklist fixpoint over `cfg` starting from `entry_state` at the
/// entry node. Returns each node's IN state (join over predecessors' OUT
/// states); unreachable nodes keep the empty (bottom) state. Rules report
/// afterwards by replaying `transfer` over each node from its IN state.
std::vector<AbstractState> fixpoint(const Cfg& cfg, const AbstractState& entry_state,
                                    const Transfer& transfer);

}  // namespace gpumip::lint
