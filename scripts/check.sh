#!/usr/bin/env bash
# Full correctness sweep for the analysis toolchain (DESIGN.md, "Checked
# builds & invariants", "simmpi concurrency model", "Static analysis", and
# "Tracing"). Runs nine independent gates and exits nonzero if any of
# them finds a problem:
#
#   1. sanitize   — ASan+UBSan build (-DGPUMIP_SANITIZE=ON) + full ctest.
#   2. checked    — GPUMIP_CHECKED build (invariant validators live) + ctest.
#   3. tsan       — ThreadSanitizer build (-DGPUMIP_SANITIZE=thread) + full
#                   ctest: every data race in the thread-per-rank simmpi
#                   runtime is a hard failure (halt_on_error=1, so detected
#                   races fail the test even through pipes).
#   4. schedule   — delivery-order sweep: reruns the protocol tests of the
#                   checked build under several GPUMIP_SCHEDULE_SEED values,
#                   so the supervisor-worker exchange is exercised under
#                   fuzzed (but legal) message schedules. Divergent results
#                   or a detector-flagged deadlock fail the gate.
#   5. tidy       — clang-tidy over src/ with the repo .clang-tidy, using the
#                   compile database of the sanitize build. Skipped with a
#                   warning when clang-tidy is not installed (the check still
#                   exits 0 for this step: it is an extra gate, not a
#                   replacement for the others).
#   6. obs        — observability smoke: runs two small benches of an
#                   obs-ON Release build with a metrics export and validates
#                   the JSON against the docs/METRICS.md glossary (every
#                   exported name must be documented), then builds both
#                   benches with -DGPUMIP_OBS=OFF and asserts the hot-path
#                   metric AND trace-event name literals, each present in an
#                   OBS=ON bench, are absent from the OFF binaries (the
#                   macros compile to parsed-but-unevaluated no-ops).
#   6b. methods   — LP-method doc cross-check: every method name string the
#                   lp_method_name switch in src/lp/path_chooser.cpp can
#                   return must appear backticked in docs/METHODS.md, so the
#                   chooser cannot grow a backend the method contract never
#                   documents.
#   7. lint       — gpumip-lint (tools/gpumip-lint, docs/LINT.md): repo-
#                   native rules clang-tidy cannot express. R1 confines raw
#                   DeviceBuffer::as<T>() access to kernel/transfer files,
#                   R2 bans byte copies that would bypass the H2D/D2H
#                   ledger, R3 requires every throw to carry a gpumip
#                   ErrorCode, R4 checks metric-name grammar + glossary
#                   membership statically (subsumes gate 6's grep for names
#                   that never execute) and holds trace-event names to the
#                   docs/TRACING.md catalog the same way, R5 compiles every
#                   src/ header as its own translation unit (the
#                   gpumip_lint_headers build target), the
#                   call-graph rules R6-R9 enforce the hot-path manifest
#                   (no allocation / payload copy / blocking call reachable
#                   from a declared root without a justified waiver, every
#                   root instrumented), the CFG/dataflow span rule R12
#                   catches unbalanced raw trace spans
#                   path-sensitively, R14 holds every sent tag
#                   to a handler and every decoder to an exhausted()
#                   check, and R15-R16 ban replay-determinism hazards and
#                   unseeded RNG engines in src/. The
#                   gate first runs the tool's test suite (test_lint), so
#                   a rule that silently stopped firing also fails the
#                   gate.
#   8. bench      — recorded-baseline regression compare: reruns the bench
#                   suite (scripts/bench.sh --compare) and diffs the
#                   deterministic counters/gauges against the committed
#                   BENCH_baseline.json within per-family tolerances
#                   (gpumip-report --compare), then proves the comparator
#                   has teeth by seeding a regression (doubled H2D transfer
#                   volume) and requiring it to fail with exit status 1 and
#                   be attributed to the transfer category.
#
# The gpumip-report engines (compare, attribute, trace analysis) and its CLI
# over the committed fixtures are tested by ctest, so gates 1-3 cover them.
#
# Both build gates compile with -Werror (GPUMIP_WERROR=ON), so warnings
# promoted in the top-level CMakeLists (-Wall -Wextra -Wpedantic -Wshadow)
# are hard failures here even though normal developer builds only warn.
#
# Usage: scripts/check.sh [jobs]     (default: nproc)
set -u -o pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"
FAILURES=0

# Per-gate wall-time ledger, printed as a summary at the end of the run so
# slow gates are visible without timestamp archaeology in the logs.
GATE_SUMMARY=()
timed() {
  local gate_name="$1"
  shift
  local gate_start=$SECONDS
  "$@"
  GATE_SUMMARY+=("$(printf '%-10s %5ds' "$gate_name" $((SECONDS - gate_start)))")
}

run_gate() {
  local name="$1" build_dir="$2"
  shift 2
  echo "==> [$name] configure ($build_dir)"
  if ! cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
       -DGPUMIP_WERROR=ON "$@" >"$build_dir.configure.log" 2>&1; then
    echo "==> [$name] CONFIGURE FAILED (see $build_dir.configure.log)"
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [$name] build"
  if ! cmake --build "$build_dir" -j "$JOBS" >"$build_dir.build.log" 2>&1; then
    echo "==> [$name] BUILD FAILED (see $build_dir.build.log)"
    tail -n 30 "$build_dir.build.log"
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [$name] ctest"
  if ! (cd "$build_dir" && ctest --output-on-failure -j "$JOBS"); then
    echo "==> [$name] TESTS FAILED"
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [$name] OK"
}

# Gate 1: sanitizers. detect_leaks needs ptrace; fall back gracefully where
# the environment forbids it (containers without CAP_SYS_PTRACE).
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
timed sanitize run_gate sanitize build-asan -DGPUMIP_SANITIZE=ON

# Gate 2: checked mode — every GPUMIP_ASSERT / GPUMIP_VALIDATE call site in
# the solver runs live (tree, snapshot, basis residual, sparse structure,
# device ledger, message audit).
timed checked run_gate checked build-checked -DGPUMIP_CHECKED=ON

# Gate 3: ThreadSanitizer over the thread-per-rank simmpi runtime. TSan is
# incompatible with ASan, hence its own build tree. halt_on_error makes a
# detected race abort the test immediately — without it the exit status can
# be swallowed when output goes through a pipe.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
timed tsan run_gate tsan build-tsan -DGPUMIP_SANITIZE=thread

# Gate 4: seeded schedule sweep. GPUMIP_SCHEDULE_SEED fuzzes message
# delivery order inside run_ranks (see parallel/schedule.hpp), so the same
# protocol tests now run under several distinct legal schedules. The filter
# names the order-INDEPENDENT tests: makespan/balance comparisons
# (MoreWorkersNoWorseMakespan, LoadIsDistributed) legitimately change under
# a perturbed schedule and are excluded. The dedicated 32-seed-per-strategy
# determinism sweep (test_schedule) already ran in every gate above.
schedule_gate() {
  local build_dir="build-checked"
  local filter='SimMpi|Supervisor\.(MatchesSequentialOptimum|MatchesEnumeration|CheckpointAndResume)|BatchedPdhg'
  if [ ! -d "$build_dir" ]; then
    echo "==> [schedule] SKIPPED: no $build_dir (checked gate did not configure)"
    return
  fi
  echo "==> [schedule] fuzzed delivery-order sweep ($build_dir)"
  local seed
  for seed in 1 42 7919 104729; do
    if ! (cd "$build_dir" && GPUMIP_SCHEDULE_SEED="$seed" \
          ctest -R "$filter" -j "$JOBS" --output-on-failure \
          >"../$build_dir.schedule-$seed.log" 2>&1); then
      echo "==> [schedule] SWEEP FAILED at seed $seed (see $build_dir.schedule-$seed.log)"
      tail -n 20 "$build_dir.schedule-$seed.log"
      FAILURES=$((FAILURES + 1))
      return
    fi
  done
  echo "==> [schedule] OK (seeds: 1 42 7919 104729)"
}
timed schedule schedule_gate

# Gate 5: clang-tidy (optional tool; the compile database comes from the
# sanitize build, which exports compile_commands.json).
tidy_gate() {
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> [tidy] clang-tidy over src/"
    mapfile -t sources < <(find src -name '*.cpp' | sort)
    if ! clang-tidy -p build-asan --quiet "${sources[@]}"; then
      echo "==> [tidy] LINT FINDINGS"
      FAILURES=$((FAILURES + 1))
    else
      echo "==> [tidy] OK"
    fi
  else
    echo "==> [tidy] SKIPPED: clang-tidy not installed (install LLVM tools to enable this gate)"
  fi
}
timed tidy tidy_gate

# Gate 6: observability. Half (a): export metrics from two cheap benches
# (e7 covers the batching histograms, e8 the per-rank simmpi names) and
# cross-check every exported metric name against the docs/METRICS.md
# glossary, normalizing labeled names to their documented key-only form.
# Half (b): -DGPUMIP_OBS=OFF builds of the same benches must not contain the
# hot-path metric and trace name strings — proof the macros compiled to
# no-ops. Each name must be in one of the OBS=ON binaries, or its absence
# from the OFF ones would prove nothing.
obs_gate() {
  local build_dir=build-obs off_dir=build-obs-off
  echo "==> [obs] configure+build ($build_dir, GPUMIP_OBS=ON)"
  if ! { cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
           -DGPUMIP_WERROR=ON -DGPUMIP_OBS=ON >"$build_dir.configure.log" 2>&1 &&
         cmake --build "$build_dir" -j "$JOBS" \
           --target bench_e7_batching bench_e8_scaleout >"$build_dir.build.log" 2>&1; }; then
    echo "==> [obs] BUILD FAILED (see $build_dir.*.log)"
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [obs] bench smoke + glossary cross-check"
  local b
  for b in bench_e7_batching bench_e8_scaleout; do
    if ! GPUMIP_METRICS_OUT="$build_dir/$b.metrics.json" \
         "./$build_dir/bench/$b" >"$build_dir/$b.out.log" 2>&1; then
      echo "==> [obs] BENCH FAILED: $b (see $build_dir/$b.out.log)"
      FAILURES=$((FAILURES + 1))
      return
    fi
  done
  if ! python3 - "$build_dir/bench_e7_batching.metrics.json" \
                 "$build_dir/bench_e8_scaleout.metrics.json" <<'PY'
import json, re, sys

glossary = open("docs/METRICS.md").read()
bad = []
for path in sys.argv[1:]:
    doc = json.load(open(path))
    if doc.get("schema") != "gpumip.metrics.v2" or not doc.get("enabled"):
        sys.exit(f"{path}: bad schema or observability disabled")
    names = list(doc["counters"]) + list(doc["gauges"]) + list(doc["histograms"])
    if not names:
        sys.exit(f"{path}: export contains no metrics")
    for name in names:
        # Labeled names are documented once per family in key-only form:
        # gpumip.lp.solves{method=pdhg} -> gpumip.lp.solves{method}.
        documented = re.sub(
            r"\{([^}]*)\}",
            lambda m: "{" + ",".join(kv.split("=", 1)[0]
                                     for kv in m.group(1).split(",")) + "}",
            name)
        if f"`{documented}`" not in glossary:
            bad.append(f"{name} (from {path})")
if bad:
    sys.exit("metrics exported but not documented in docs/METRICS.md:\n  "
             + "\n  ".join(sorted(set(bad))))
print(f"    every exported metric name is documented")
PY
  then
    echo "==> [obs] GLOSSARY CHECK FAILED"
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [obs] configure+build ($off_dir, GPUMIP_OBS=OFF)"
  if ! { cmake -B "$off_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
           -DGPUMIP_WERROR=ON -DGPUMIP_OBS=OFF >"$off_dir.configure.log" 2>&1 &&
         cmake --build "$off_dir" -j "$JOBS" \
           --target bench_e7_batching bench_e8_scaleout >"$off_dir.build.log" 2>&1; }; then
    echo "==> [obs] OFF-BUILD FAILED (see $off_dir.*.log)"
    FAILURES=$((FAILURES + 1))
    return
  fi
  local name
  for name in gpumip.gpu.xfer.h2d.bytes gpumip.lp.ops.refactor gpumip.lp.batch.occupancy \
              gpumip.lp.batch.wave gpumip.lp.pdhg.iterations \
              gpumip.mip.cuts.round gpumip.simmpi.recv.wait \
              gpumip.lp.solves gpumip.lp.solve.seconds gpumip.gpu.kernel.occupancy; do
    if ! grep -qa "$name" "$build_dir/bench/bench_e7_batching" \
                           "$build_dir/bench/bench_e8_scaleout"; then
      echo "==> [obs] OBS=ON benches lack '$name': its OFF check is vacuous"
      FAILURES=$((FAILURES + 1))
      return
    fi
    if grep -qa "$name" "$off_dir/bench/bench_e7_batching" \
                        "$off_dir/bench/bench_e8_scaleout"; then
      echo "==> [obs] OFF build still contains metric/trace string '$name'"
      FAILURES=$((FAILURES + 1))
      return
    fi
  done
  echo "==> [obs] OK"
}
timed obs obs_gate

# Gate 6b: LP-method documentation cross-check. Parses the return-string
# literals of lp_method_name in src/lp/path_chooser.cpp (the authoritative
# method-name mapping) and requires each to be
# documented — backticked — in docs/METHODS.md. Pure text analysis: no
# build, runs in milliseconds, and fails the sweep the moment someone adds
# an LpMethod enumerator without extending the method contract.
methods_gate() {
  echo "==> [methods] docs/METHODS.md covers every lp_method_name string"
  if ! python3 - <<'PY'
import re, sys

src = open("src/lp/path_chooser.cpp").read()
m = re.search(r"lp_method_name\s*\([^)]*\)[^{]*\{(.*?)\n\}", src, re.S)
if not m:
    sys.exit("src/lp/path_chooser.cpp: lp_method_name definition not found")
# One name per LpMethod case; the post-switch "unknown" fallback is
# unreachable for valid enumerators and deliberately not required.
names = re.findall(r'case\s+LpMethod::\w+:\s*return\s+"([a-z_]+)"', m.group(1))
if len(names) < 3:
    sys.exit(f"lp_method_name: expected >= 3 method names, parsed {names}")
doc = open("docs/METHODS.md").read()
missing = [n for n in names if f"`{n}`" not in doc]
if missing:
    sys.exit("method names missing from docs/METHODS.md (backticked): "
             + ", ".join(missing))
print(f"    documented: {', '.join(names)}")
PY
  then
    echo "==> [methods] DOC CHECK FAILED (see docs/METHODS.md)"
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [methods] OK"
}
timed methods methods_gate

# Gate 7: gpumip-lint. A dedicated small Release tree builds just the tool,
# its test suite and the R5 header target (none of them link the solver,
# so this is cheap even from scratch). test_lint proves each rule R1-R4,
# the call-graph rules R6-R9, the CFG/dataflow span rule R12, and
# the protocol/determinism rules R14-R16 still fire on their
# seeded-violation fixtures and that the suppression round trip holds;
# gpumip_lint_headers compiles every src/ header as its own translation
# unit (R5); the sweep then requires src/ to be clean modulo the justified
# entries in tools/gpumip-lint/suppressions.txt, with R6-R9 walking the
# hot-path manifest tools/gpumip-lint/hotpaths.txt.
lint_gate() {
  local build_dir=build-lint
  echo "==> [lint] configure+build ($build_dir, gpumip-lint, test_lint)"
  if ! { cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
           >"$build_dir.configure.log" 2>&1 &&
         cmake --build "$build_dir" -j "$JOBS" --target gpumip-lint test_lint \
           >"$build_dir.build.log" 2>&1; }; then
    echo "==> [lint] BUILD FAILED (see $build_dir.*.log)"
    FAILURES=$((FAILURES + 1))
    return
  fi
  if ! "./$build_dir/tests/test_lint" --gtest_brief=1; then
    echo "==> [lint] TEST SUITE FAILED (a rule no longer fires on its fixture)"
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [lint] R5: every src/ header compiles standalone (gpumip_lint_headers)"
  if ! cmake --build "$build_dir" -j "$JOBS" --target gpumip_lint_headers \
         >"$build_dir.headers.log" 2>&1; then
    echo "==> [lint] R5 FAILED: a header is not self-contained (see $build_dir.headers.log)"
    grep -m 10 "error" "$build_dir.headers.log"
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [lint] R1-R4, R6-R9, R12, R14-R16 over src/ (suppressions: tools/gpumip-lint/suppressions.txt, hot paths: tools/gpumip-lint/hotpaths.txt)"
  mapfile -t lint_sources < <(find src -name '*.cpp' -o -name '*.hpp' | sort)
  if ! "./$build_dir/tools/gpumip-lint/gpumip-lint" \
         --metrics-doc docs/METRICS.md --tracing-doc docs/TRACING.md \
         --suppressions tools/gpumip-lint/suppressions.txt \
         --hotpaths tools/gpumip-lint/hotpaths.txt \
         "${lint_sources[@]}"; then
    echo "==> [lint] FINDINGS (annotate with justification or fix; see docs/LINT.md)"
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [lint] OK"
}
timed lint lint_gate

# Gate 8: bench-regression compare. scripts/bench.sh --compare reruns the
# recorded-baseline suite and diffs the deterministic counters/gauges
# against BENCH_baseline.json (see compare_tolerance in
# tools/gpumip-report/report.hpp for the tolerance families). The gate then
# seeds a known regression — doubling every gpumip.gpu.xfer.h2d.bytes
# counter of the fresh run — and requires the comparator to reject it with
# exit status 1 (a parse or usage error exits 2 and does not count), so a
# comparator that silently stopped comparing also fails the gate.
bench_gate() {
  local baseline=BENCH_baseline.json current=build-bench/current.json
  if [ ! -f "$baseline" ]; then
    echo "==> [bench] FAILED: no committed $baseline (record one with scripts/bench.sh)"
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [bench] rerun suite + compare against $baseline"
  if ! scripts/bench.sh --compare "$baseline" "$JOBS" >build-bench.compare.log 2>&1; then
    echo "==> [bench] REGRESSION (see build-bench.compare.log)"
    tail -n 20 build-bench.compare.log
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [bench] seeded-regression drill (doubled H2D volume must be caught)"
  python3 - "$current" build-bench/tampered.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
seeded = 0
for m in doc["benches"].values():
    for name in m["counters"]:
        if name == "gpumip.gpu.xfer.h2d.bytes":
            m["counters"][name] *= 2
            seeded += 1
if seeded == 0:
    sys.exit("no gpumip.gpu.xfer.h2d.bytes counter to tamper with")
json.dump(doc, open(sys.argv[2], "w"))
PY
  local tool=./build-bench/tools/gpumip-report/gpumip-report
  local status=0
  "$tool" --compare "$baseline" build-bench/tampered.json \
    >build-bench.tamper.log 2>&1 || status=$?
  if [ "$status" -ne 1 ]; then
    echo "==> [bench] COMPARATOR HAS NO TEETH: doubled H2D volume gave exit status $status, not 1"
    tail -n 20 build-bench.tamper.log
    FAILURES=$((FAILURES + 1))
    return
  fi
  # The attribution leg of the drill: gpumip-report must not just see the
  # seeded regression, it must blame the right claim category (transfer).
  echo "==> [bench] seeded-regression attribution (gpumip-report must rank transfer first)"
  if ! "$tool" --attribute "$baseline" build-bench/tampered.json \
         --expect-top transfer >build-bench.attribute.log 2>&1; then
    echo "==> [bench] ATTRIBUTION FAILED (see build-bench.attribute.log)"
    tail -n 20 build-bench.attribute.log
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "==> [bench] OK (compare clean; seeded regression caught and attributed)"
}
timed bench bench_gate

echo
echo "==> gate wall-time summary"
for gate_line in "${GATE_SUMMARY[@]}"; do
  echo "    $gate_line"
done
echo
if [ "$FAILURES" -ne 0 ]; then
  echo "check.sh: $FAILURES gate(s) failed"
  exit 1
fi
echo "check.sh: all gates passed"
