// gpumip-lint determinism analysis: replay determinism (R15) and seed
// plumbing (R16) over the replay-relevant source set.
//
// The repo's signature invariant is bit-identical schedule replay
// (GPUMIP_SCHEDULE_REPLAY): a recorded delivery trace must reproduce the
// exact solve, so nothing on the solve path may consult a source of
// nondeterminism the trace does not capture. R15 flags the three ways
// that invariant silently breaks: wall-clock reads (system_clock /
// steady_clock / high_resolution_clock), unseeded randomness (rand /
// srand / random_device), and iteration over unordered_map/unordered_set
// — whose order varies across libc++ versions, ASLR runs, and platforms,
// and leaks into any report, trace, or decision derived from the walk.
// R16 closes the remaining gap: every RNG engine (std::mt19937 family,
// the repo's Rng wrapper) must be constructed from an explicit seed
// expression traceable to GPUMIP_SCHEDULE_SEED/options — a
// default-constructed engine is reproducible only by accident of the
// implementation's default seed and invisible to the replay harness.
//
// Both rules apply inside src/ (the whole solve is replay-relevant) and
// share the `determinism-ok` inline waiver — e.g. the host-lane wall timer
// keeps its steady_clock with a justification, because its readings feed
// reports, never the sim lane.
#pragma once

#include <vector>

#include "lexer.hpp"
#include "lint.hpp"

namespace gpumip::lint {

/// Runs R15 + R16 over the scanned set, restricted to files under src/.
void check_determinism(const std::vector<Scanned>& files, std::vector<Finding>& findings);

}  // namespace gpumip::lint
