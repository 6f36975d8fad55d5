// gpumip-lint engine tests (tools/gpumip-lint/): seeded-violation
// fixtures for every rule R1-R4, R6-R9, R12 and R14-R16 proving the
// rule fires, the matching clean fixtures and inline waivers proving it
// stays quiet, the
// suppression-file (SUP) and hot-path manifest (HOT) checks, lexer
// regressions (raw strings, digit separators, annotation extent), the
// call-graph edge cases (overload merge, templates, address-taken,
// std::function widening, std::/container-protocol exclusion), and the
// CFG/dataflow layer behind the lifetime rules (lambda carving, loop back
// edges, switch fallthrough, early returns). scripts/check.sh gate 7 runs
// this suite before it sweeps src/, so a rule that stops firing fails the
// gate. (R5 is the gpumip_lint_headers build target, not engine code.)
#include <gtest/gtest.h>

#include <algorithm>

#include "callgraph.hpp"
#include "cfg.hpp"
#include "dataflow.hpp"
#include "index.hpp"
#include "lexer.hpp"
#include "lifetime.hpp"
#include "lint.hpp"

namespace lint = gpumip::lint;

namespace {

lint::Options doc_options() {
  lint::Options options;
  options.metrics_doc =
      "| `gpumip.test.documented.total` | — | — | fixture |\n"
      "| `gpumip.test.documented.seconds` | s | — | fixture |\n"
      "| `gpumip.test.labeled.total{method,rank}` | — | — | fixture |\n";
  options.tracing_doc =
      "| `gpumip.test.documented.event` | i | — | fixture |\n"
      "| `gpumip.fix.span` | B/E | — | fixture |\n";
  return options;
}

std::vector<lint::Finding> lint_one(const std::string& path, const std::string& content,
                                    const lint::Options& options) {
  std::vector<lint::Suppression> none;
  return lint::run_lint({{path, content}}, options, none);
}

bool has_rule(const std::vector<lint::Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const lint::Finding& f) { return f.rule == rule; });
}

}  // namespace

// ---- R1: memory-space confinement -----------------------------------------

TEST(LintR1, RawDeviceAccessOutsideDeviceContextFires) {
  const auto findings = lint_one("src/mip/fixture.cpp",
                                 "void f(B& b) { auto s = b.as<double>(); }\n", doc_options());
  ASSERT_TRUE(has_rule(findings, "R1"));
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintR1, DeviceContextFilesAreExempt) {
  const std::string code = "void f(B& b) { auto s = b.as<double>(); }\n";
  for (const char* path :
       {"src/linalg/batched.cpp", "src/linalg/device_blas.hpp", "src/gpu/device.cpp"}) {
    EXPECT_FALSE(has_rule(lint_one(path, code, doc_options()), "R1")) << path;
  }
  // Stem matching is exact: a lookalike file is NOT exempt.
  EXPECT_TRUE(has_rule(lint_one("src/gpu/device_other.cpp", code, doc_options()), "R1"));
}

TEST(LintR1, AnnotationWithReasonWaives) {
  const auto findings =
      lint_one("src/mip/fixture.cpp",
               "// gpumip-lint: device-context(inspects staged kernel input)\n"
               "void f(B& b) { auto s = b.as<double>(); }\n",
               doc_options());
  EXPECT_FALSE(has_rule(findings, "R1"));
}

TEST(LintR1, MalformedAnnotationIsItselfAFinding) {
  const auto findings = lint_one("src/mip/fixture.cpp",
                                 "// gpumip-lint: device-context()\n"
                                 "void f() {}\n",
                                 doc_options());
  EXPECT_TRUE(has_rule(findings, "SUP"));
}

// ---- R2: transfer accounting ----------------------------------------------

TEST(LintR2, RawByteCopyOutsideTransferEngineFires) {
  for (const char* prim : {"std::memcpy(d, s, n)", "memmove(d, s, n)", "std::memset(d, 0, n)"}) {
    const std::string code = std::string("void f() { ") + prim + "; }\n";
    EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp", code, doc_options()), "R2")) << prim;
  }
}

TEST(LintR2, TransferEngineIsExempt) {
  const std::string code = "void f() { std::memcpy(d, s, n); }\n";
  EXPECT_FALSE(has_rule(lint_one("src/gpu/device.cpp", code, doc_options()), "R2"));
  // Elsewhere, a host-only annotation with a reason waives the copy.
  EXPECT_FALSE(has_rule(lint_one("src/lp/fixture.cpp",
                                 "// gpumip-lint: host-only(fixture serializer)\n" + code,
                                 doc_options()),
                        "R2"));
}

TEST(LintR2, TypedCopyIntoDeviceSpanFires) {
  const auto findings = lint_one(
      "src/lp/fixture.cpp",
      "void f(B& b) { std::copy(v.begin(), v.end(), b.as<double>().data()); }\n", doc_options());
  EXPECT_TRUE(has_rule(findings, "R2"));
}

TEST(LintR2, HostToHostCopyIsQuiet) {
  const auto findings = lint_one(
      "src/lp/fixture.cpp", "void f() { std::copy(v.begin(), v.end(), w.begin()); }\n",
      doc_options());
  EXPECT_TRUE(findings.empty());
}

TEST(LintR2, CommentAndStringMentionsAreIgnored) {
  const auto findings = lint_one("src/lp/fixture.cpp",
                                 "// memcpy would be wrong here\n"
                                 "const char* kDoc = \"std::memcpy\";\n",
                                 doc_options());
  EXPECT_TRUE(findings.empty());
}

// ---- R3: error contract ----------------------------------------------------

TEST(LintR3, RawStdExceptionFires) {
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp",
                                "void f() { throw std::runtime_error(\"boom\"); }\n",
                                doc_options()),
                       "R3"));
  EXPECT_TRUE(has_rule(
      lint_one("src/lp/fixture.cpp", "void f() { throw \"bare\"; }\n", doc_options()), "R3"));
}

TEST(LintR3, DeclaredErrorSubclassIsQuiet) {
  const auto findings = lint_one("src/lp/fixture.cpp",
                                 "struct FixtureError : Error {};\n"
                                 "void f() { throw FixtureError(); }\n",
                                 doc_options());
  EXPECT_FALSE(has_rule(findings, "R3"));
}

TEST(LintR3, SubclassHierarchyIsTransitiveAcrossFiles) {
  // Base declared in one file, derived thrown in another: the collection
  // pass is global, like the real Error hierarchy in support/error.hpp.
  std::vector<lint::Suppression> none;
  const auto findings = lint::run_lint(
      {{"src/support/fixture.hpp", "class MidError : public Error {};\n"},
       {"src/lp/fixture.cpp",
        "struct LeafError : public MidError {};\n"
        "void f() { throw detail::LeafError(\"x\"); }\n"}},
      doc_options(), none);
  EXPECT_FALSE(has_rule(findings, "R3"));
}

TEST(LintR3, RethrowIsQuiet) {
  const auto findings = lint_one(
      "src/lp/fixture.cpp", "void f() { try { g(); } catch (...) { throw; } }\n", doc_options());
  EXPECT_TRUE(findings.empty());
}

// ---- R4: metric-name grammar ----------------------------------------------

TEST(LintR4, NameOutsideGpumipNamespaceFires) {
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp",
                                "void f() { GPUMIP_OBS_COUNT(\"lp.fixture.calls\"); }\n",
                                doc_options()),
                       "R4"));
  // Too few components and illegal characters also break the grammar.
  EXPECT_TRUE(has_rule(
      lint_one("src/lp/fixture.cpp", "void f() { GPUMIP_OBS_COUNT(\"gpumip.only\"); }\n",
               doc_options()),
      "R4"));
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp",
                                "void f() { GPUMIP_OBS_COUNT(\"gpumip.Fixture.Calls\"); }\n",
                                doc_options()),
                       "R4"));
  // Trace event names follow the same grammar.
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp",
                                "void f() { GPUMIP_TRACE_INSTANT(\"lp.fixture.event\", 0); }\n",
                                doc_options()),
                       "R4"));
}

TEST(LintR4, UndocumentedNameFires) {
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp",
                                "void f() { GPUMIP_OBS_COUNT(\"gpumip.fixture.undocumented\"); }\n",
                                doc_options()),
                       "R4"));
  EXPECT_TRUE(has_rule(
      lint_one("src/lp/fixture.cpp",
               "void f() { GPUMIP_OBS_RECORD_N(\"gpumip.fixture.undocumented\", 0.5, 3); }\n",
               doc_options()),
      "R4"));
  const std::string undocumented_trace =
      "void f() { GPUMIP_TRACE_BEGIN(\"gpumip.fixture.undocumented\", 0); }\n";
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp", undocumented_trace, doc_options()), "R4"));
  // The trace and metric catalogs are separate: a documented metric name
  // does not license an identically named trace event.
  EXPECT_TRUE(has_rule(
      lint_one("src/lp/fixture.cpp",
               "void f() { GPUMIP_TRACE_INSTANT(\"gpumip.test.documented.total\", 0); }\n",
               doc_options()),
      "R4"));
  // A metric-name annotation with a reason waives the finding.
  EXPECT_FALSE(has_rule(lint_one("src/lp/fixture.cpp",
                                 "// gpumip-lint: metric-name(fixture dynamic event)\n" +
                                     undocumented_trace,
                                 doc_options()),
                        "R4"));
}

TEST(LintR4, DocumentedConformingNameIsQuiet) {
  const auto findings = lint_one(
      "src/lp/fixture.cpp",
      "void f() { GPUMIP_OBS_COUNT(\"gpumip.test.documented.total\"); }\n"
      "void g() { GPUMIP_OBS_RECORD(\"gpumip.test.documented.seconds\", 0.5); }\n"
      "void h() { GPUMIP_TRACE_INSTANT(\"gpumip.test.documented.event\", 0); }\n",
      doc_options());
  EXPECT_TRUE(findings.empty());
}

TEST(LintR4, RegistryLookupsAreCheckedToo) {
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp",
                                "void f() { obs::counter(\"lp.fixture.calls\").add(1); }\n",
                                doc_options()),
                       "R4"));
}

TEST(LintR4, DynamicNamesAreSkipped) {
  // Rank-indexed names are assembled at runtime; only literals are
  // statically checkable (the runtime export check in gate 6 covers these).
  const auto findings = lint_one(
      "src/lp/fixture.cpp", "void f() { obs::counter(prefix + \".sent.msgs\").add(1); }\n",
      doc_options());
  EXPECT_TRUE(findings.empty());
}

TEST(LintR4, LabelKeysFollowTheKeyGrammar) {
  EXPECT_TRUE(has_rule(
      lint_one("src/lp/fixture.cpp",
               "void f() { GPUMIP_OBS_COUNT_L(\"gpumip.test.labeled.total\","
               " {\"rank-id\", \"0\"}); }\n",
               doc_options()),
      "R4"));
  // Uppercase keys fire even when the base name is documented.
  EXPECT_TRUE(has_rule(
      lint_one("src/lp/fixture.cpp",
               "void f() { obs::gauge(\"gpumip.test.labeled.total\","
               " {{\"Rank\", \"0\"}}).set(1.0); }\n",
               doc_options()),
      "R4"));
}

TEST(LintR4, LabeledFamiliesDocumentInKeyOnlyForm) {
  // Documented family gpumip.test.labeled.total{method,rank}: a call site
  // with those keys (any order, runtime values allowed) is quiet...
  EXPECT_TRUE(lint_one("src/lp/fixture.cpp",
                       "void f(const std::string& r) {"
                       " obs::counter(\"gpumip.test.labeled.total\","
                       " {{\"rank\", r}, {\"method\", \"pdhg\"}}).add(1); }\n",
                       doc_options())
                  .empty());
  EXPECT_TRUE(lint_one("src/lp/fixture.cpp",
                       "void f() { GPUMIP_OBS_COUNT_L(\"gpumip.test.labeled.total\","
                       " {\"method\", \"x\"}, {\"rank\", \"0\"}); }\n",
                       doc_options())
                  .empty());
  // ...while an undocumented key set fires, and so does a labeled use of a
  // name only documented bare.
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp",
                                "void f() { GPUMIP_OBS_COUNT_L(\"gpumip.test.labeled.total\","
                                " {\"phase\", \"x\"}); }\n",
                                doc_options()),
                       "R4"));
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp",
                                "void f() { GPUMIP_OBS_COUNT_L(\"gpumip.test.documented.total\","
                                " {\"method\", \"x\"}); }\n",
                                doc_options()),
                       "R4"));
}

// ---- Suppressions ----------------------------------------------------------

TEST(LintSuppress, JustifiedEntrySilencesAndIsMarkedUsed) {
  std::vector<lint::Finding> parse_findings;
  auto sups = lint::parse_suppressions(
      "# comment line\n"
      "R2 lp/fixture.cpp std::memcpy -- host-only fixture serialization\n",
      "(suppressions)", parse_findings);
  ASSERT_TRUE(parse_findings.empty());
  ASSERT_EQ(sups.size(), 1u);
  const auto findings = lint::run_lint(
      {{"src/lp/fixture.cpp", "void f() { std::memcpy(d, s, n); }\n"}}, doc_options(), sups);
  EXPECT_TRUE(findings.empty());
  EXPECT_TRUE(sups[0].used);
}

TEST(LintSuppress, StaleEntryIsAFinding) {
  std::vector<lint::Finding> parse_findings;
  auto sups = lint::parse_suppressions("R2 lp/fixture.cpp std::memcpy -- excuse with no offender\n",
                                       "(suppressions)", parse_findings);
  const auto findings =
      lint::run_lint({{"src/lp/clean.cpp", "void f() {}\n"}}, doc_options(), sups);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "SUP");
  EXPECT_NE(findings[0].message.find("stale"), std::string::npos);
}

TEST(LintSuppress, MissingJustificationIsRejected) {
  std::vector<lint::Finding> parse_findings;
  auto sups =
      lint::parse_suppressions("R2 lp/fixture.cpp std::memcpy\n", "(suppressions)", parse_findings);
  EXPECT_TRUE(sups.empty());
  ASSERT_EQ(parse_findings.size(), 1u);
  EXPECT_EQ(parse_findings[0].rule, "SUP");
}

TEST(LintSuppress, WrongRuleOrFileDoesNotMatch) {
  std::vector<lint::Finding> parse_findings;
  auto sups = lint::parse_suppressions(
      "R1 lp/fixture.cpp std::memcpy -- wrong rule\n"
      "R2 mip/other.cpp std::memcpy -- wrong file\n",
      "(suppressions)", parse_findings);
  const auto findings = lint::run_lint(
      {{"src/lp/fixture.cpp", "void f() { std::memcpy(d, s, n); }\n"}}, doc_options(), sups);
  // The R2 finding survives and both entries are reported stale.
  EXPECT_TRUE(has_rule(findings, "R2"));
  EXPECT_EQ(std::count_if(findings.begin(), findings.end(),
                          [](const lint::Finding& f) { return f.rule == "SUP"; }),
            2);
}

// ---- Lexer regressions ------------------------------------------------------
// The scan is the layer every rule trusts: a literal that leaks into `clean`
// produces phantom findings, a swallowed region hides real ones.

namespace {

lint::Scanned scan_fixture(const lint::SourceFile& file) {
  std::vector<lint::Finding> findings;
  lint::Scanned scanned = lint::scan(file, findings);
  EXPECT_TRUE(findings.empty());
  return scanned;
}

}  // namespace

TEST(LintLexer, DigitSeparatorsDoNotOpenCharLiterals) {
  // If 1'000'000 opened a char literal, everything up to the next quote
  // (including the allocation) would be blanked out of `clean`.
  const lint::SourceFile file{"src/fix.cpp",
                              "int big = 1'000'000;\nauto p = std::make_unique<int>(big);\n"};
  const auto scanned = scan_fixture(file);
  EXPECT_NE(lint::find_word(scanned.clean, "make_unique", 0), std::string::npos);
}

TEST(LintLexer, RawStringPrefixesAreBlanked) {
  for (const char* prefix : {"R", "LR", "uR", "u8R", "UR"}) {
    const std::string code =
        std::string("auto s = ") + prefix + "\"(v.push_back(1))\";\nmarker();\n";
    const lint::SourceFile file{"src/fix.cpp", code};
    const auto scanned = scan_fixture(file);
    EXPECT_EQ(lint::find_word(scanned.clean, "push_back", 0), std::string::npos) << prefix;
    EXPECT_NE(lint::find_word(scanned.clean, "marker", 0), std::string::npos) << prefix;
  }
}

TEST(LintLexer, EscapedQuotesStayInsideTheLiteral) {
  const lint::SourceFile file{"src/fix.cpp",
                              "const char* s = \"quote \\\" v.push_back(1)\";\nmarker();\n"};
  const auto scanned = scan_fixture(file);
  EXPECT_EQ(lint::find_word(scanned.clean, "push_back", 0), std::string::npos);
  EXPECT_NE(lint::find_word(scanned.clean, "marker", 0), std::string::npos);
}

TEST(LintLexer, BlockCommentsPreserveLineStructure) {
  const lint::SourceFile file{"src/fix.cpp", "int a;\n/* b\nc */ int d;\nmarker();\n"};
  const auto scanned = scan_fixture(file);
  const std::size_t at = lint::find_word(scanned.clean, "marker", 0);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(lint::line_of(scanned, at), 4);
  EXPECT_EQ(scanned.clean.size(), file.content.size());
}

TEST(LintLexer, AnnotationCoversItsLineAndTheLineBelow) {
  const lint::SourceFile file{
      "src/fix.cpp", "// gpumip-lint: hot-alloc(fixture reason)\nv.push_back(1);\nother();\n"};
  const auto scanned = scan_fixture(file);
  EXPECT_TRUE(lint::has_annotation(scanned, 1, "hot-alloc"));
  EXPECT_TRUE(lint::has_annotation(scanned, 2, "hot-alloc"));
  EXPECT_FALSE(lint::has_annotation(scanned, 3, "hot-alloc"));
  EXPECT_FALSE(lint::has_annotation(scanned, 2, "hot-copy"));
}

// ---- Call-graph edge cases --------------------------------------------------
// Name-based resolution must merge what it cannot distinguish (overloads,
// templates) and widen for indirection (address-taken, std::function) while
// excluding the two site classes that can never be repo code.

namespace {

struct Graphed {
  std::vector<lint::SourceFile> files;
  std::vector<lint::Scanned> scanned;
  std::vector<lint::FunctionDecl> functions;
  lint::CallGraph graph;
};

Graphed build_graph(std::vector<lint::SourceFile> files) {
  Graphed g;
  g.files = std::move(files);
  std::vector<lint::Finding> findings;
  for (const auto& f : g.files) g.scanned.push_back(lint::scan(f, findings));
  g.functions = lint::index_functions(g.scanned);
  g.graph = lint::build_call_graph(g.scanned, g.functions);
  return g;
}

std::vector<int> fn_indices(const Graphed& g, const std::string& qualified) {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(g.functions.size()); ++i) {
    if (g.functions[static_cast<std::size_t>(i)].qualified == qualified) out.push_back(i);
  }
  return out;
}

bool has_edge(const Graphed& g, int from, int to) {
  const auto& e = g.graph.edges[static_cast<std::size_t>(from)];
  return std::find(e.begin(), e.end(), to) != e.end();
}

}  // namespace

TEST(LintCallGraph, OverloadSetsMergeUnderOneName) {
  auto g = build_graph({{"src/fix.cpp",
                         "void send(int a) { }\n"
                         "void send(int a, int b) { }\n"
                         "void caller() { send(1); }\n"}});
  const auto sends = fn_indices(g, "send");
  const auto callers = fn_indices(g, "caller");
  ASSERT_EQ(sends.size(), 2u);
  ASSERT_EQ(callers.size(), 1u);
  // One call site, edges to BOTH overloads: the over-approximation.
  EXPECT_TRUE(has_edge(g, callers[0], sends[0]));
  EXPECT_TRUE(has_edge(g, callers[0], sends[1]));
}

TEST(LintCallGraph, ExplicitTemplateArgumentsResolve) {
  auto g = build_graph({{"src/fix.cpp",
                         "template <typename T>\n"
                         "T twice(T v) { return v + v; }\n"
                         "int caller() { return twice<int>(2); }\n"}});
  const auto twice = fn_indices(g, "twice");
  const auto callers = fn_indices(g, "caller");
  ASSERT_EQ(twice.size(), 1u);
  ASSERT_EQ(callers.size(), 1u);
  EXPECT_TRUE(has_edge(g, callers[0], twice[0]));
}

TEST(LintCallGraph, AddressTakenFunctionsAreMarked) {
  auto g = build_graph({{"src/fix.cpp",
                         "void on_ready() { }\n"
                         "void install(void (*cb)()) { }\n"
                         "void setup() { install(on_ready); }\n"}});
  const auto ready = fn_indices(g, "on_ready");
  const auto install = fn_indices(g, "install");
  const auto setup = fn_indices(g, "setup");
  ASSERT_EQ(ready.size(), 1u);
  // Mentioned without parens at the call site -> address taken, no direct edge.
  EXPECT_TRUE(g.graph.address_taken[static_cast<std::size_t>(ready[0])]);
  EXPECT_TRUE(has_edge(g, setup[0], install[0]));
  EXPECT_FALSE(has_edge(g, setup[0], ready[0]));
}

TEST(LintCallGraph, StdFunctionDispatchIsConservative) {
  auto g = build_graph({{"src/fix.cpp",
                         "void handler() { }\n"
                         "void dispatch(const std::function<void()>& f) { f(); }\n"
                         "void wire() { dispatch(handler); }\n"}});
  const auto handler = fn_indices(g, "handler");
  const auto dispatch = fn_indices(g, "dispatch");
  ASSERT_EQ(dispatch.size(), 1u);
  // dispatch invokes a std::function value; traversals must treat it as a
  // call to every address-taken function (handler, bound in wire).
  EXPECT_TRUE(g.graph.calls_function_object[static_cast<std::size_t>(dispatch[0])]);
  EXPECT_TRUE(g.graph.address_taken[static_cast<std::size_t>(handler[0])]);
}

TEST(LintCallGraph, StdQualifiedAndContainerProtocolSitesAreExcluded) {
  auto g = build_graph({{"src/fix.cpp",
                         "void sort(int* a) { }\n"
                         "int size() { return 3; }\n"
                         "void caller(std::vector<int>& v) {\n"
                         "  std::sort(v.begin(), v.end());\n"
                         "  auto n = v.size();\n"
                         "  (void)n;\n"
                         "}\n"}});
  const auto sort = fn_indices(g, "sort");
  const auto size = fn_indices(g, "size");
  const auto callers = fn_indices(g, "caller");
  ASSERT_EQ(callers.size(), 1u);
  // `std::sort` can never be the repo's sort; `v.size()` is the container
  // protocol. Neither may produce an edge.
  EXPECT_FALSE(has_edge(g, callers[0], sort[0]));
  EXPECT_FALSE(has_edge(g, callers[0], size[0]));
}

// ---- R6-R9: hot-path rules over the manifest -------------------------------

namespace {

lint::Options hot_options(const std::string& manifest) {
  lint::Options options = doc_options();
  options.hotpaths = manifest;
  options.hotpaths_path = "hotpaths.txt";
  return options;
}

constexpr const char* kObs = "GPUMIP_OBS_COUNT(\"gpumip.test.documented.total\");";

}  // namespace

TEST(LintR6, AllocationReachableThroughTheGraphFires) {
  const std::string code =
      "void helper(std::vector<int>& v) { v.push_back(1); }\n"
      "void hot_root(std::vector<int>& v) { " + std::string(kObs) + " helper(v); }\n";
  const auto findings =
      lint_one("src/fix.cpp", code, hot_options("root hot_root -- fixture\n"));
  ASSERT_TRUE(has_rule(findings, "R6"));
  // The finding names the call chain from the root.
  bool chain_shown = false;
  for (const auto& f : findings) {
    if (f.rule == "R6" && f.message.find("hot_root -> helper") != std::string::npos) {
      chain_shown = true;
    }
  }
  EXPECT_TRUE(chain_shown);
  // Allocations in the root itself fire too; indexing preallocated storage
  // is not an allocation.
  const auto root_only = [](const std::string& stmt) {
    return "void hot_root(std::vector<int>& v) { " + std::string(kObs) + " " + stmt + " }\n";
  };
  for (const char* alloc : {"v.push_back(1);", "auto* p = new int(3); use(p);"}) {
    EXPECT_TRUE(has_rule(lint_one("src/fix.cpp", root_only(alloc),
                                  hot_options("root hot_root -- fixture\n")),
                         "R6"))
        << alloc;
  }
  EXPECT_FALSE(has_rule(lint_one("src/fix.cpp", root_only("v[0] = v[0] * 2;"),
                                 hot_options("root hot_root -- fixture\n")),
                        "R6"));
  // A std::function call is conservatively an edge to every address-taken
  // function, so the traversal reaches target_fn.
  const std::string dispatch =
      "void target_fn() { auto* p = new int(1); use(p); }\n"
      "void hot_root() {\n"
      "  " + std::string(kObs) + "\n"
      "  std::function<void()> cb = target_fn;  // gpumip-lint: hot-alloc(fixture setup)\n"
      "  cb();\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_one("src/fix.cpp", dispatch, hot_options("root hot_root -- fixture\n")),
                       "R6"));
}

TEST(LintR6, HotAllocAnnotationWaivesTheSite) {
  const std::string code =
      "void helper(std::vector<int>& v) {\n"
      "  // gpumip-lint: hot-alloc(fixture reason)\n"
      "  v.push_back(1);\n"
      "}\n"
      "void hot_root(std::vector<int>& v) { " + std::string(kObs) + " helper(v); }\n";
  EXPECT_FALSE(has_rule(lint_one("src/fix.cpp", code, hot_options("root hot_root -- fixture\n")),
                        "R6"));
  // Allocations inside a throw statement are on the error path: exempt.
  EXPECT_FALSE(has_rule(
      lint_one("src/fix.cpp",
               "void hot_root() { " + std::string(kObs) +
                   " if (bad) throw FixtureError(std::string(\"context\")); }\n",
               hot_options("root hot_root -- fixture\n")),
      "R6"));
}

TEST(LintR6, StopEntriesPruneTheTraversal) {
  const std::string code =
      "void helper(std::vector<int>& v) { v.push_back(1); }\n"
      "void hot_root(std::vector<int>& v) { " + std::string(kObs) + " helper(v); }\n";
  EXPECT_FALSE(has_rule(
      lint_one("src/fix.cpp", code,
               hot_options("root hot_root -- fixture\nstop helper -- fixture\n")),
      "R6"));
}

TEST(LintR6, ClassWildcardStopMatchesQualifiedDefinitions) {
  const std::string code =
      "void Util::grow(std::vector<int>& v) { v.push_back(1); }\n"
      "void hot_root(Util& u, std::vector<int>& v) { " + std::string(kObs) + " u.grow(v); }\n";
  EXPECT_TRUE(has_rule(lint_one("src/fix.cpp", code, hot_options("root hot_root -- fixture\n")),
                       "R6"));
  EXPECT_FALSE(has_rule(
      lint_one("src/fix.cpp", code,
               hot_options("root hot_root -- fixture\nstop Util::* -- fixture\n")),
      "R6"));
}

TEST(LintR7, ByValuePayloadPassAndReturnFire) {
  const std::string code =
      "Message make_reply() { return Message{}; }\n"
      "void hot_root(Message m) { " + std::string(kObs) + " make_reply(); }\n";
  const auto findings = lint_one(
      "src/fix.cpp", code,
      hot_options("root hot_root -- fixture\npayload Message -- fixture\n"));
  int r7 = 0;
  for (const auto& f : findings) {
    if (f.rule == "R7") ++r7;
  }
  EXPECT_EQ(r7, 2);  // passed into hot_root, returned from make_reply
}

TEST(LintR7, ReferencesAndHotCopyWaiverAreQuiet) {
  const std::string by_ref =
      "void hot_root(const Message& m) { " + std::string(kObs) + " }\n";
  EXPECT_FALSE(has_rule(
      lint_one("src/fix.cpp", by_ref,
               hot_options("root hot_root -- fixture\npayload Message -- fixture\n")),
      "R7"));
  const std::string waived =
      "// gpumip-lint: hot-copy(fixture reason)\n"
      "void hot_root(Message m) { " + std::string(kObs) + " }\n";
  EXPECT_FALSE(has_rule(
      lint_one("src/fix.cpp", waived,
               hot_options("root hot_root -- fixture\npayload Message -- fixture\n")),
      "R7"));
  // Functions no root reaches are not on a hot path.
  const std::string unreachable =
      "void cold(Message m) { use(m); }\n"
      "void hot_root() { " + std::string(kObs) + " work(); }\n";
  EXPECT_FALSE(has_rule(
      lint_one("src/fix.cpp", unreachable,
               hot_options("root hot_root -- fixture\npayload Message -- fixture\n")),
      "R7"));
}

TEST(LintR8, BlockingFiresOnlyUnderWaveRoots) {
  const std::string code =
      "void hot_wave(std::mutex& mu) { " + std::string(kObs) + " mu.lock(); }\n";
  EXPECT_TRUE(
      has_rule(lint_one("src/fix.cpp", code, hot_options("wave hot_wave -- fixture\n")), "R8"));
  // The same body under a plain root is legal: only waves ban blocking.
  EXPECT_FALSE(
      has_rule(lint_one("src/fix.cpp", code, hot_options("root hot_wave -- fixture\n")), "R8"));
  // A hot-block annotation with a reason waives the site.
  const std::string waived = "void hot_wave(std::mutex& mu) { " + std::string(kObs) +
                             "\n  mu.lock();  // gpumip-lint: hot-block(fixture: uncontended)\n}\n";
  EXPECT_FALSE(
      has_rule(lint_one("src/fix.cpp", waived, hot_options("wave hot_wave -- fixture\n")), "R8"));
}

TEST(LintR8, ThreadJoinFiresAndWaiverQuiets) {
  const std::string code =
      "void hot_wave(std::thread& t) { " + std::string(kObs) + " t.join(); }\n";
  EXPECT_TRUE(
      has_rule(lint_one("src/fix.cpp", code, hot_options("wave hot_wave -- fixture\n")), "R8"));
  const std::string waived = "void hot_wave(std::thread& t) { " + std::string(kObs) +
                             "\n  t.join();  // gpumip-lint: hot-block(fixture: before the wave)\n}\n";
  EXPECT_FALSE(
      has_rule(lint_one("src/fix.cpp", waived, hot_options("wave hot_wave -- fixture\n")), "R8"));
}

TEST(LintR8, ManifestDeclaredBlockingPrimitiveFires) {
  const std::string code =
      "void hot_wave() { " + std::string(kObs) + " drain_all(); }\n"
      "void drain_all() { }\n";
  EXPECT_TRUE(has_rule(
      lint_one("src/fix.cpp", code,
               hot_options("wave hot_wave -- fixture\nblocking drain_all -- fixture\n")),
      "R8"));
}

TEST(LintR9, UninstrumentedRootFiresAndObsSiteQuiets) {
  EXPECT_TRUE(has_rule(lint_one("src/fix.cpp", "void hot_root() { work(); }\n",
                                hot_options("root hot_root -- fixture\n")),
                       "R9"));
  EXPECT_FALSE(has_rule(
      lint_one("src/fix.cpp", "void hot_root() { " + std::string(kObs) + " }\n",
               hot_options("root hot_root -- fixture\n")),
      "R9"));
}

TEST(LintHot, StaleManifestEntryIsAFinding) {
  const auto findings =
      lint_one("src/fix.cpp", "void present() { }\n",
               hot_options("root vanished_fn -- this entry matches nothing\n"));
  ASSERT_TRUE(has_rule(findings, "HOT"));
  // A manifest whose every entry matches the code is quiet.
  EXPECT_FALSE(has_rule(
      lint_one("src/fix.cpp", "void present() { " + std::string(kObs) + " }\nvoid cold() { }\n",
               hot_options("root present -- fixture\nstop cold -- fixture\n")),
      "HOT"));
}

TEST(LintHot, MalformedManifestLinesAreFindings) {
  const std::string code = "void hot_root() { " + std::string(kObs) + " }\n";
  // Unknown kind.
  EXPECT_TRUE(has_rule(
      lint_one("src/fix.cpp", code, hot_options("banana hot_root -- fixture\n")), "HOT"));
  // Missing justification separator.
  EXPECT_TRUE(
      has_rule(lint_one("src/fix.cpp", code, hot_options("root hot_root\n")), "HOT"));
}

// ---- CFG builder and dataflow engine ----------------------------------------

TEST(LintCfg, LambdaBodiesAreCarvedIntoSeparateGraphs) {
  std::vector<lint::Finding> fs;
  const lint::SourceFile src{"src/fix.cpp",
                             "void f() { auto cb = [&](int k) { g(k); }; cb(1); h(); }\n"};
  const lint::Scanned scanned = lint::scan(src, fs);
  const auto functions = lint::index_functions({scanned});
  ASSERT_EQ(functions.size(), 1u);
  const auto graphs = lint::build_cfgs(scanned.clean, functions[0].body_begin,
                                       functions[0].body_end, {});
  // The function's own graph plus one graph for the lambda body.
  ASSERT_EQ(graphs.size(), 2u);
  // The lambda body is recorded as carved in the enclosing graph, so
  // statement scans in the function skip it.
  ASSERT_EQ(graphs[0].carved.size(), 1u);
  EXPECT_TRUE(graphs[1].carved.empty());
}

TEST(LintCfg, NoreturnNamesAreCollectedFromAttributes) {
  std::vector<lint::Finding> fs;
  const lint::SourceFile src{
      "src/fix.cpp", "[[noreturn]] void die(int code);\nvoid f() { die(2); }\n"};
  const lint::Scanned scanned = lint::scan(src, fs);
  const auto names = lint::collect_noreturn_names({scanned});
  EXPECT_TRUE(names.count("die") != 0);
  EXPECT_TRUE(names.count("abort") != 0);  // seeded std terminators
}

TEST(LintDataflow, JoinIsKeywiseOrAndFixpointCoversBranches) {
  // Diamond: entry -> {left, right} -> exit. Each arm sets its own key;
  // the exit's IN state must hold the union (may-analysis join).
  lint::Cfg cfg;
  cfg.nodes.resize(4);
  cfg.entry = 0;
  cfg.exit = 1;
  cfg.nodes[0].succ = {2, 3};
  cfg.nodes[2].stmts.push_back({10, 11, lint::StmtKind::kPlain});
  cfg.nodes[2].succ = {1};
  cfg.nodes[3].stmts.push_back({20, 21, lint::StmtKind::kPlain});
  cfg.nodes[3].succ = {1};
  const auto in = lint::fixpoint(
      cfg, {{"seed", 1u}}, [](const lint::CfgStmt& s, lint::AbstractState& st) {
        if (s.begin == 10) {
          st["left"] |= 1u;
        } else {
          st["right"] |= 2u;
        }
      });
  ASSERT_EQ(in.size(), 4u);
  EXPECT_EQ(in[1].at("seed"), 1u);
  EXPECT_EQ(in[1].at("left"), 1u);
  EXPECT_EQ(in[1].at("right"), 2u);
  // The arms do not see each other's facts.
  EXPECT_EQ(in[2].count("left"), 0u);
  EXPECT_EQ(in[3].count("right"), 0u);
}

// ---- R12: unbalanced instrumentation spans ----------------------------------

namespace {
const char* kBeg = "GPUMIP_TRACE_BEGIN(\"gpumip.fix.span\", 0);";
const char* kEnd = "GPUMIP_TRACE_END(\"gpumip.fix.span\");";
}  // namespace

TEST(LintR12, EarlyReturnInsideOpenSpanFires) {
  const auto findings = lint_one(
      "src/fix.cpp",
      std::string("void f() { ") + kBeg + " if (c) return; " + kEnd + " }\n", doc_options());
  ASSERT_TRUE(has_rule(findings, "R12"));
  // Falling off the end of the body with the span open fires too.
  EXPECT_TRUE(has_rule(
      lint_one("src/fix.cpp", std::string("void f() { ") + kBeg + " work(); }\n", doc_options()),
      "R12"));
}

TEST(LintR12, BalancedSpanIsQuiet) {
  const auto findings = lint_one(
      "src/fix.cpp",
      std::string("void f() { if (c) return; ") + kBeg + " work(); " + kEnd + " }\n",
      doc_options());
  EXPECT_FALSE(has_rule(findings, "R12"));
}

TEST(LintR12, SwitchFallthroughUnbalancesTheSpan) {
  const auto findings = lint_one("src/fix.cpp",
                                 std::string("void f(int k) {\n"
                                             "  switch (k) {\n"
                                             "    case 0: ") +
                                     kBeg + " case 1: " + kEnd +
                                     " break;\n"
                                     "  }\n"
                                     "}\n",
                                 doc_options());
  EXPECT_TRUE(has_rule(findings, "R12"));
}

TEST(LintR12, ThrowAndNoreturnCallsEscapeTheSpan) {
  EXPECT_TRUE(has_rule(
      lint_one("src/fix.cpp",
               std::string("void f() { ") + kBeg + " if (bad) throw Error(); " + kEnd + " }\n",
               doc_options()),
      "R12"));
  EXPECT_TRUE(has_rule(
      lint_one("src/fix.cpp",
               std::string("[[noreturn]] void die();\nvoid f() { ") + kBeg +
                   " if (bad) die(); " + kEnd + " }\n",
               doc_options()),
      "R12"));
}

TEST(LintR12, LoopBackEdgeCarriesTheSpanDepth) {
  // The END closes the span on the first iteration only: the back edge
  // brings depth zero to it on the second.
  const auto looped = lint_one("src/fix.cpp",
                               std::string("void f() {\n  ") + kBeg +
                                   "\n"
                                   "  while (go()) {\n"
                                   "    " +
                                   kEnd +
                                   "\n"
                                   "  }\n"
                                   "}\n",
                               doc_options());
  const bool underflow_in_loop =
      std::any_of(looped.begin(), looped.end(), [](const lint::Finding& f) {
        return f.rule == "R12" && f.line == 4 &&
               f.message.find("no GPUMIP_TRACE_BEGIN open on some path") != std::string::npos;
      });
  EXPECT_TRUE(underflow_in_loop);
  // Reopening at the bottom of the body keeps the depth at one around the
  // back edge: quiet.
  EXPECT_FALSE(has_rule(lint_one("src/fix.cpp",
                                 std::string("void f() { ") + kBeg + " while (go()) { " + kEnd +
                                     " " + kBeg + " } " + kEnd + " }\n",
                                 doc_options()),
                        "R12"));
}

TEST(LintR12, LambdaBodiesBalanceSeparately) {
  // Balanced in both the function and its lambda: quiet. A lambda that
  // leaves its span open fires even though the enclosing function is
  // balanced.
  EXPECT_FALSE(has_rule(
      lint_one("src/fix.cpp",
               std::string("void f() { auto cb = []() { ") + kBeg + " " + kEnd + " }; " + kBeg +
                   " cb(); " + kEnd + " }\n",
               doc_options()),
      "R12"));
  EXPECT_TRUE(has_rule(lint_one("src/fix.cpp",
                                std::string("void f() { auto cb = []() { ") + kBeg +
                                    " }; cb(); " + kBeg + " " + kEnd + " }\n",
                                doc_options()),
                       "R12"));
}

TEST(LintR12, RaiiSpanFormsAreExempt) {
  const auto findings = lint_one(
      "src/fix.cpp",
      "void f() { GPUMIP_TRACE_SCOPE(\"gpumip.fix.span\", 0); if (c) return; work(); }\n",
      doc_options());
  EXPECT_FALSE(has_rule(findings, "R12"));
}

TEST(LintR12, SpanOkAnnotationWaives) {
  const auto findings =
      lint_one("src/fix.cpp",
               std::string("void f() { ") + kBeg +
                   "\n"
                   "  if (c) return;  // gpumip-lint: span-ok(fixture: caller closes)\n"
                   "  " +
                   kEnd + " }\n",
               doc_options());
  EXPECT_FALSE(has_rule(findings, "R12"));
}

TEST(LintR12, SuppressionRoundTrip) {
  std::vector<lint::Finding> parse_findings;
  auto sups = lint::parse_suppressions("R12 fix.cpp return -- fixture: span closed by caller\n",
                                       "(suppressions)", parse_findings);
  ASSERT_TRUE(parse_findings.empty());
  auto findings = lint::run_lint(
      {{"src/fix.cpp",
        std::string("void f() { ") + kBeg + " if (c) return; " + kEnd + " }\n"}},
      doc_options(), sups);
  EXPECT_FALSE(has_rule(findings, "R12"));
  EXPECT_TRUE(sups[0].used);
}

// ---- Token index (the shared word-position cache) ---------------------------

TEST(LintLexer, WordIndexMatchesWholeWordSearch) {
  std::vector<lint::Finding> fs;
  const lint::SourceFile src{"src/fix.cpp",
                             "int move_count;\nvoid f() { auto x = std::move(v); }\n"
                             "// move in a comment\nconst char* s = \"move in a literal\";\n"};
  const lint::Scanned scanned = lint::scan(src, fs);
  const auto& positions = lint::word_positions(scanned, "move");
  // Exactly the one code occurrence: not the identifier move_count, not the
  // comment, not the string literal.
  ASSERT_EQ(positions.size(), 1u);
  EXPECT_EQ(lint::find_word(scanned.clean, "move", 0), positions[0]);
  EXPECT_TRUE(lint::word_positions(scanned, "absent_word").empty());
}

// ---- R14: tag-protocol coverage --------------------------------------------

TEST(LintR14, UnhandledSentTagFires) {
  const auto findings = lint_one(
      "src/parallel/fixture.cpp", "void p(Comm& c) { c.send(1, kTagPing, payload); }\n",
      doc_options());
  ASSERT_TRUE(has_rule(findings, "R14"));
}

TEST(LintR14, ComparedOrCaseHandledTagIsQuiet) {
  const std::string send_site = "void p(Comm& c) { c.send(1, kTagPing, payload); }\n";
  EXPECT_FALSE(has_rule(
      lint_one("src/parallel/fixture.cpp",
               send_site +
                   "void q(Comm& c) { Message m = c.recv(); if (m.tag == kTagPing) { on(m); } }\n",
               doc_options()),
      "R14"));
  EXPECT_FALSE(has_rule(
      lint_one("src/parallel/fixture.cpp",
               send_site + "void q(int t) { switch (t) { case kTagPing: on(); break; } }\n",
               doc_options()),
      "R14"));
  EXPECT_FALSE(has_rule(
      lint_one("src/parallel/fixture.cpp",
               "// gpumip-lint: wire-ok(peer handles it in another repo)\n" + send_site,
               doc_options()),
      "R14"));
}

TEST(LintR14, DeserializerWithoutExhaustedCheckFires) {
  const auto findings = lint_one(
      "src/parallel/fixture.cpp",
      "int decode_one(std::span<const std::byte> p) { ByteReader r(p); return r.read<int>(); }\n",
      doc_options());
  EXPECT_TRUE(has_rule(findings, "R14"));
}

TEST(LintR14, ExhaustedCheckOrWireOkQuiets) {
  EXPECT_FALSE(has_rule(lint_one("src/parallel/fixture.cpp",
                                 "int decode_one(std::span<const std::byte> p) {\n"
                                 "  ByteReader r(p);\n"
                                 "  int v = r.read<int>();\n"
                                 "  check_protocol(r.exhausted(), \"trailing bytes\");\n"
                                 "  return v;\n"
                                 "}\n",
                                 doc_options()),
                        "R14"));
  EXPECT_FALSE(has_rule(lint_one("src/parallel/fixture.cpp",
                                 "int decode_one(std::span<const std::byte> p) {\n"
                                 "  // gpumip-lint: wire-ok(framing layer validates length)\n"
                                 "  ByteReader r(p);\n"
                                 "  return r.read<int>();\n"
                                 "}\n",
                                 doc_options()),
                        "R14"));
}

// ---- R15: replay-determinism hazards ---------------------------------------

TEST(LintR15, WallClockInScopeFires) {
  const std::string code =
      "double now_s() { return std::chrono::steady_clock::now().time_since_epoch().count(); }\n";
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp", code, doc_options()), "R15"));
  // bench/ is outside the determinism scope (src/).
  EXPECT_FALSE(has_rule(lint_one("bench/fixture.cpp", code, doc_options()), "R15"));
}

TEST(LintR15, UnorderedIterationFiresOrderedMapIsQuiet) {
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp",
                                "std::unordered_map<int, double> table_;\n"
                                "void dump() { for (const auto& kv : table_) { emit(kv); } }\n",
                                doc_options()),
                       "R15"));
  EXPECT_FALSE(has_rule(lint_one("src/lp/fixture.cpp",
                                 "std::map<int, double> table_;\n"
                                 "void dump() { for (const auto& kv : table_) { emit(kv); } }\n",
                                 doc_options()),
                        "R15"));
}

TEST(LintR15, CustomDeterminismScopeIsHonored) {
  // The determinism scope is src/: tools may draw entropy, the solve may not.
  const std::string code = "void f() { std::random_device rd; use(rd()); }\n";
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp", code, doc_options()), "R15"));
  EXPECT_FALSE(has_rule(lint_one("tools/fixture.cpp", code, doc_options()), "R15"));
}

TEST(LintR15, DeterminismOkAnnotationWaives) {
  const auto findings = lint_one(
      "src/lp/fixture.cpp",
      "std::unordered_map<int, double> table_;\n"
      "void dump() {\n"
      "  // gpumip-lint: determinism-ok(debug dump, never feeds the solve)\n"
      "  for (const auto& kv : table_) { emit(kv); }\n"
      "}\n",
      doc_options());
  EXPECT_FALSE(has_rule(findings, "R15"));
}

// ---- R16: seed plumbing ----------------------------------------------------

TEST(LintR16, DefaultConstructedEngineFires) {
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp",
                                "void f() { std::mt19937_64 gen; use(gen()); }\n", doc_options()),
                       "R16"));
  EXPECT_TRUE(has_rule(lint_one("src/lp/fixture.cpp",
                                "void f() { Rng rng; use(rng.uniform(0.0, 1.0)); }\n",
                                doc_options()),
                       "R16"));
}

TEST(LintR16, DefaultConstructingGrowthOfAnEngineContainerFires) {
  // The container's element type names the engine; the growth call does not.
  EXPECT_TRUE(has_rule(lint_one("src/parallel/fixture.cpp",
                                "struct S {\n"
                                "  std::vector<std::mt19937_64> rngs_;\n"
                                "  void grow() { rngs_.emplace_back(); }\n"
                                "};\n",
                                doc_options()),
                       "R16"));
  EXPECT_TRUE(has_rule(lint_one("src/parallel/fixture.cpp",
                                "void f(std::size_t n) {\n"
                                "  std::vector<Rng> rngs;\n"
                                "  rngs.resize(n);\n"
                                "}\n",
                                doc_options()),
                       "R16"));
  EXPECT_FALSE(has_rule(lint_one("src/parallel/fixture.cpp",
                                 "struct S {\n"
                                 "  std::vector<std::mt19937_64> rngs_;\n"
                                 "  void grow(std::uint64_t seed) {\n"
                                 "    rngs_.emplace_back(seed);\n"
                                 "    rngs_.resize(4, std::mt19937_64(seed));\n"
                                 "  }\n"
                                 "};\n",
                                 doc_options()),
                        "R16"));
}

TEST(LintR16, SeededEngineAndCtorInitMemberAreQuiet) {
  EXPECT_FALSE(has_rule(
      lint_one("src/lp/fixture.cpp",
               "void f(std::uint64_t seed) { std::mt19937_64 gen(seed); use(gen()); }\n",
               doc_options()),
      "R16"));
  EXPECT_FALSE(has_rule(lint_one("src/lp/fixture.cpp",
                                 "struct S {\n"
                                 "  explicit S(std::uint64_t seed) : engine_(seed) {}\n"
                                 "  std::mt19937_64 engine_;\n"
                                 "};\n",
                                 doc_options()),
                        "R16"));
  EXPECT_FALSE(has_rule(
      lint_one("src/lp/fixture.cpp",
               "void f() {\n"
               "  std::mt19937_64 gen;  // gpumip-lint: determinism-ok(fixture: never replayed)\n"
               "  use(gen());\n"
               "}\n",
               doc_options()),
      "R16"));
}
