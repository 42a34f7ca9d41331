#include <gtest/gtest.h>

#include "ast/parser.h"
#include "corpus/amplify.h"
#include "corpus/pipeline.h"
#include "lex/lexer.h"
#include "obs/metrics.h"
#include "sema/sema.h"
#include "taint/analyzer.h"

namespace fsdep::taint {
namespace {

using namespace ast;

struct Setup {
  std::unique_ptr<TranslationUnit> tu;
  std::unique_ptr<sema::Sema> sema;
  std::unique_ptr<Analyzer> analyzer;
};

Setup analyze(const std::string& text, const std::vector<Seed>& seeds,
              AnalysisOptions options = {}) {
  static SourceManager sm;
  static DiagnosticEngine diags;
  diags.clear();
  const FileId file = sm.addBuffer("t.c", text);
  lex::Lexer lexer(sm, file, diags);
  Parser parser(lexer.lexAll(), diags);
  Setup s;
  s.tu = parser.parseTranslationUnit("t.c");
  EXPECT_FALSE(diags.hasErrors()) << diags.render(sm);
  s.sema = std::make_unique<sema::Sema>(*s.tu, diags);
  s.sema->run();
  s.analyzer = std::make_unique<Analyzer>(*s.tu, *s.sema, options);
  for (const Seed& seed : seeds) s.analyzer->addSeed(seed);
  s.analyzer->run();
  return s;
}

/// Labels of variable `name` at function exit (last block's entry state,
/// conservative but deterministic for straight-line code).
std::set<std::string> exitLabels(const Setup& s, const std::string& fn_name,
                                 const std::string& var_name) {
  const FunctionTaint* ft = s.analyzer->resultFor(fn_name);
  EXPECT_NE(ft, nullptr);
  std::set<std::string> out;
  auto collect = [&](const TaintState& state) {
    for (const auto& [var, labels] : state.vars) {
      if (var->name != var_name) continue;
      for (const LabelId id : labels) out.insert(s.analyzer->labels().name(id));
    }
  };
  collect(ft->exit_state);
  for (const TaintState& state : ft->block_entry) collect(state);
  return out;
}

TEST(Taint, SeedSticksToVariable) {
  const auto s = analyze(
      "void f(void) { long blocksize = 0; blocksize = 4096; long done = blocksize; }",
      {{"f", "blocksize", "mke2fs.blocksize"}});
  const auto labels = exitLabels(s, "f", "done");
  EXPECT_TRUE(labels.contains("param:mke2fs.blocksize"))
      << "sticky seed must survive a constant overwrite";
}

TEST(Taint, PropagatesThroughArithmetic) {
  const auto s = analyze(
      "void f(void) { long size = 0; long blocks = size / 1024 + 7; }",
      {{"f", "size", "tool.size"}});
  EXPECT_TRUE(exitLabels(s, "f", "blocks").contains("param:tool.size"));
}

TEST(Taint, NoFalsePropagation) {
  const auto s = analyze(
      "void f(void) { long tainted = 0; long clean = 5 * 3; }",
      {{"f", "tainted", "tool.x"}});
  EXPECT_TRUE(exitLabels(s, "f", "clean").empty());
}

TEST(Taint, CallArgumentsTaintResultIntraMode) {
  const auto s = analyze(
      "long helper(long v);\n"
      "void f(void) { long p = 0; long out = helper(p); }",
      {{"f", "p", "tool.p"}});
  EXPECT_TRUE(exitLabels(s, "f", "out").contains("param:tool.p"));
}

TEST(Taint, OutParameterPropagation) {
  const auto s = analyze(
      "void parse(long *dst, long src);\n"
      "void f(void) { long p = 0; long result = 0; parse(&result, p); }",
      {{"f", "p", "tool.p"}});
  EXPECT_TRUE(exitLabels(s, "f", "result").contains("param:tool.p"));
}

TEST(Taint, ConditionalCarriesConditionLabels) {
  // The controlled implicit flow: `flag ? MASK : 0` must carry the
  // flag's label (feature-bitmap idiom).
  const auto s = analyze(
      "void f(void) { int flag = 0; long mask = flag ? 16 : 0; }",
      {{"f", "flag", "tool.flag"}});
  EXPECT_TRUE(exitLabels(s, "f", "mask").contains("param:tool.flag"));
}

TEST(Taint, FieldWritesAreRecorded) {
  const auto s = analyze(
      "struct sb { unsigned int blocks; };\n"
      "void f(struct sb *s) { long size = 0; s->blocks = size; }",
      {{"f", "size", "mke2fs.size"}});
  const auto& writes = s.analyzer->fieldWrites();
  const auto it = writes.find("sb.blocks");
  ASSERT_NE(it, writes.end());
  std::set<std::string> names;
  for (const LabelId id : it->second) names.insert(s.analyzer->labels().name(id));
  EXPECT_TRUE(names.contains("param:mke2fs.size"));
}

TEST(Taint, FieldReadsCarryBridgeLabel) {
  const auto s = analyze(
      "struct sb { unsigned int blocks; };\n"
      "void f(struct sb *s) { long copy = s->blocks; }",
      {});
  EXPECT_TRUE(exitLabels(s, "f", "copy").contains("field:sb.blocks"));
}

TEST(Taint, FieldBridgingCanBeDisabled) {
  AnalysisOptions options;
  options.field_bridging = false;
  const auto s = analyze(
      "struct sb { unsigned int blocks; };\n"
      "void f(struct sb *s) { long copy = s->blocks; }",
      {}, options);
  EXPECT_TRUE(exitLabels(s, "f", "copy").empty());
}

TEST(Taint, CompoundOrAssignEventKeepsOnlyRhsLabels) {
  const auto s = analyze(
      "struct sb { unsigned int compat; };\n"
      "void f(struct sb *s) {\n"
      "  int a = 0; int b = 0;\n"
      "  s->compat |= (a ? 4 : 0);\n"
      "  s->compat |= (b ? 16 : 0);\n"
      "}",
      {{"f", "a", "tool.a"}, {"f", "b", "tool.b"}});
  // The second event must carry only b's label, not a's (no smearing
  // through the old field value).
  bool found_b_event = false;
  for (const WriteEvent* e : s.analyzer->writeEvents()) {
    if (!e->is_field) continue;
    std::set<std::string> names;
    for (const LabelId id : e->labels) names.insert(s.analyzer->labels().name(id));
    if (names.contains("param:tool.b")) {
      found_b_event = true;
      EXPECT_FALSE(names.contains("param:tool.a"));
    }
  }
  EXPECT_TRUE(found_b_event);
}

TEST(Taint, BranchMergeUnionsStates) {
  const auto s = analyze(
      "void f(int which) {\n"
      "  long a = 0; long b = 0; long out = 0;\n"
      "  if (which) { out = a; } else { out = b; }\n"
      "  long sink = out;\n"
      "}",
      {{"f", "a", "tool.a"}, {"f", "b", "tool.b"}});
  const auto labels = exitLabels(s, "f", "sink");
  EXPECT_TRUE(labels.contains("param:tool.a"));
  EXPECT_TRUE(labels.contains("param:tool.b"));
}

TEST(Taint, LoopReachesFixpoint) {
  const auto s = analyze(
      "void f(void) {\n"
      "  long seedv = 0; long acc = 0;\n"
      "  for (int i = 0; i < 4; i = i + 1) { acc = acc + seedv; }\n"
      "  long sink = acc;\n"
      "}",
      {{"f", "seedv", "tool.s"}});
  EXPECT_TRUE(exitLabels(s, "f", "sink").contains("param:tool.s"));
}

TEST(Taint, ReturnLabels) {
  const auto s = analyze("long f(void) { long p = 0; return p + 1; }",
                         {{"f", "p", "tool.p"}});
  const FunctionTaint* ft = s.analyzer->resultFor("f");
  ASSERT_NE(ft, nullptr);
  std::set<std::string> names;
  for (const LabelId id : ft->return_labels) names.insert(s.analyzer->labels().name(id));
  EXPECT_TRUE(names.contains("param:tool.p"));
}

TEST(Taint, InterProceduralReturnFlow) {
  const std::string code =
      "long helper(long v) { return v * 2; }\n"
      "void f(void) { long p = 0; long out = helper(p); }";
  // Intra mode already unions arg labels; the stronger check is that a
  // field read inside the callee surfaces only in inter mode.
  const std::string code2 =
      "struct sb { unsigned int blocks; };\n"
      "long read_blocks(struct sb *s) { return s->blocks; }\n"
      "void f(struct sb *s) { long out = read_blocks(s); }";
  {
    const auto s = analyze(code2, {});
    EXPECT_FALSE(exitLabels(s, "f", "out").contains("field:sb.blocks"))
        << "intra mode must not see through the accessor";
  }
  {
    AnalysisOptions options;
    options.inter_procedural = true;
    const auto s = analyze(code2, {}, options);
    EXPECT_TRUE(exitLabels(s, "f", "out").contains("field:sb.blocks"))
        << "inter mode must propagate the accessor's field read";
  }
  (void)code;
}

TEST(Taint, InterProceduralParameterBinding) {
  AnalysisOptions options;
  options.inter_procedural = true;
  const auto s = analyze(
      "struct sb { unsigned int blocks; };\n"
      "void store(struct sb *s, long value) { s->blocks = value; }\n"
      "void f(struct sb *s) { long size = 0; store(s, size); }",
      {{"f", "size", "mke2fs.size"}}, options);
  const auto& writes = s.analyzer->fieldWrites();
  const auto it = writes.find("sb.blocks");
  ASSERT_NE(it, writes.end());
  std::set<std::string> names;
  for (const LabelId id : it->second) names.insert(s.analyzer->labels().name(id));
  EXPECT_TRUE(names.contains("param:mke2fs.size"))
      << "argument labels must bind to callee parameters in inter mode";
}

TEST(Taint, InterProceduralChainHasNoPassCap) {
  // Callees are defined before their callers, so each worklist round
  // carries the seed one call deeper: the store sits 16 calls below
  // main(), beyond any fixed number of whole-program passes.
  std::string code =
      "struct tool_sb { long s_blocks; };\n"
      "void f16(struct tool_sb *sb, long v) { sb->s_blocks = v; }\n";
  for (int i = 15; i >= 1; --i) {
    code += "void f" + std::to_string(i) + "(struct tool_sb *sb, long v) { f" +
            std::to_string(i + 1) + "(sb, v); }\n";
  }
  code +=
      "int main(int argc, char **argv, struct tool_sb *sb) {\n"
      "  long blocks = 0; f1(sb, blocks); return 0;\n"
      "}\n";
  AnalysisOptions options;
  options.inter_procedural = true;
  const auto s = analyze(code, {{"main", "blocks", "tool.blocks"}}, options);
  const auto writes = s.analyzer->fieldWrites();
  const auto it = writes.find("tool_sb.s_blocks");
  ASSERT_NE(it, writes.end());
  EXPECT_EQ(labelSetToString(s.analyzer->labels(), it->second), "{param:tool.blocks}");
  bool stored = false;
  for (const WriteEvent* e : s.analyzer->writeEvents()) {
    if (e->object != "tool_sb.s_blocks") continue;
    stored = true;
    EXPECT_EQ(e->fn->name, "f16");
    EXPECT_EQ(labelSetToString(s.analyzer->labels(), e->labels), "{param:tool.blocks}");
  }
  EXPECT_TRUE(stored) << "the deepest callee's store must be a tainted write";
}

TEST(Taint, MutualRecursionConverges) {
  // The label is born in pong and reaches ping only through pong's
  // return summary (no call argument carries it), then travels back
  // into pong through ping's: both summaries must settle on it.
  AnalysisOptions options;
  options.inter_procedural = true;
  const auto s = analyze(
      "long pong(int n);\n"
      "long ping(int n) { return pong(n - 1); }\n"
      "long pong(int n) { long depth = 0; if (n > 0) return ping(n); return depth; }\n"
      "int main(int argc, char **argv) { long out = ping(argc); return 0; }\n",
      {{"pong", "depth", "tool.depth"}}, options);
  for (const char* fn : {"ping", "pong"}) {
    const FunctionTaint* ft = s.analyzer->resultFor(fn);
    ASSERT_NE(ft, nullptr) << fn;
    EXPECT_EQ(labelSetToString(s.analyzer->labels(), ft->return_labels), "{param:tool.depth}")
        << fn;
  }
  EXPECT_TRUE(exitLabels(s, "main", "out").contains("param:tool.depth"));
}

/// Analyzes every function of the 12 seed components and of the
/// factor-50 amplified corpus, intra and inter: where the analysis caps
/// must prove unreachable.
void analyzeEveryCorpusComponent() {
  std::vector<std::string> names;
  for (const corpus::FileSystem& fs : corpus::fileSystems()) {
    for (const corpus::Component& component : fs.components) names.push_back(component.name);
  }
  for (const std::string& n : corpus::amplifyCorpus({.factor = 50, .seed = 42})) {
    names.push_back(n);
  }
  for (const bool inter : {false, true}) {
    AnalysisOptions options;
    options.inter_procedural = inter;
    for (const std::string& name : names) corpus::AnalyzedComponent(name, options).analyze({});
  }
}

TEST(Taint, FixpointValveNeverTripsOnTheCorpora) {
  // The per-function fixpoint stops after 64 CFG sweeps even if states
  // still grow (an observation of 65 lands in the overflow bucket). It
  // is the engine's last cap, so it must be unreachable on every seed
  // component and on the amplified corpus, intra and inter.
  obs::Histogram& sweeps = obs::Registry::global().histogram(
      "taint.fixpoint_iterations", {}, {1, 2, 3, 4, 6, 8, 16, 32, 64});
  sweeps.reset();
  analyzeEveryCorpusComponent();
  EXPECT_GT(sweeps.count(), 0u);
  EXPECT_EQ(sweeps.bucketValue(sweeps.bucketCount() - 1), 0u)
      << "a function was still growing after 64 sweeps";
}

TEST(Taint, TraceCapNeverTruncatesOnTheCorpora) {
  // A trace keeps at most 24 steps per object and counts each step past
  // that in taint.trace_truncations. The cap must be unreachable on every
  // seed component and on the amplified corpus, intra and inter.
  obs::Counter& truncations = obs::Registry::global().counter("taint.trace_truncations");
  truncations.reset();
  analyzeEveryCorpusComponent();
  EXPECT_EQ(truncations.value(), 0u) << "a taint trace outgrew the 24-step cap";
}

TEST(Taint, TraceCapCountsTheStepsItDrops) {
  // 30 tainted assignment sites of one variable: the first 24 steps are
  // kept and the other 6 are counted.
  std::string body = "void f(void) { long p = 0; long q = 0;";
  for (int i = 0; i < 30; ++i) body += " q = p + " + std::to_string(i) + ";";
  obs::Counter& truncations = obs::Registry::global().counter("taint.trace_truncations");
  truncations.reset();
  const auto s = analyze(body + " }", {{"f", "p", "tool.p"}});
  const auto* trace = s.analyzer->traceFor("f.q");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->size(), 24u);
  EXPECT_EQ(truncations.value(), 6u);
}

TEST(Taint, TracesRecordPropagationSteps) {
  const auto s = analyze(
      "void f(void) { long p = 0; long q = p + 1; long r = q * 2; }",
      {{"f", "p", "tool.p"}});
  const auto* trace_q = s.analyzer->traceFor("f.q");
  ASSERT_NE(trace_q, nullptr);
  ASSERT_FALSE(trace_q->empty());
  EXPECT_NE(trace_q->front().text.find("p + 1"), std::string::npos);
  const auto* trace_r = s.analyzer->traceFor("f.r");
  ASSERT_NE(trace_r, nullptr);
  EXPECT_NE(trace_r->front().text.find("q * 2"), std::string::npos);
}

TEST(Taint, SelectedFunctionsOnly) {
  static SourceManager sm;
  static DiagnosticEngine diags;
  diags.clear();
  const FileId file = sm.addBuffer(
      "sel.c", "void a(void) { long x = 0; }\nvoid b(void) { long y = 0; }");
  lex::Lexer lexer(sm, file, diags);
  Parser parser(lexer.lexAll(), diags);
  auto tu = parser.parseTranslationUnit("sel.c");
  sema::Sema sema_obj(*tu, diags);
  sema_obj.run();
  Analyzer analyzer(*tu, sema_obj);
  analyzer.run({tu->findFunction("a")});
  EXPECT_NE(analyzer.resultFor("a"), nullptr);
  EXPECT_EQ(analyzer.resultFor("b"), nullptr);
}

TEST(Taint, SeedOnMissingVariableIsIgnored) {
  const auto s = analyze("void f(void) { long real_var = 0; }",
                         {{"f", "ghost", "tool.ghost"}, {"f", "real_var", "tool.real"}});
  const FunctionTaint* ft = s.analyzer->resultFor("f");
  ASSERT_NE(ft, nullptr);
  bool ghost_seen = false;
  for (const auto& [var, labels] : ft->exit_state.vars) {
    for (const LabelId id : labels) {
      ghost_seen |= s.analyzer->labels().name(id) == "param:tool.ghost";
    }
  }
  EXPECT_FALSE(ghost_seen);
  EXPECT_TRUE(exitLabels(s, "f", "real_var").contains("param:tool.real"));
}

TEST(Taint, SeedOnGlobalVariable) {
  const auto s = analyze(
      "long global_opt;\n"
      "void f(void) { long copy = global_opt; }",
      {{"f", "global_opt", "tool.global"}});
  EXPECT_TRUE(exitLabels(s, "f", "copy").contains("param:tool.global"));
}

TEST(Taint, RerunClearsPreviousState) {
  static SourceManager sm;
  static DiagnosticEngine diags;
  diags.clear();
  const FileId file = sm.addBuffer(
      "rerun.c", "void a(void) { long x = 0; long y = x; }\nvoid b(void) { long z = 1; }");
  lex::Lexer lexer(sm, file, diags);
  ast::Parser parser(lexer.lexAll(), diags);
  auto tu = parser.parseTranslationUnit("rerun.c");
  sema::Sema sema_obj(*tu, diags);
  sema_obj.run();
  Analyzer analyzer(*tu, sema_obj);
  analyzer.addSeed({"a", "x", "tool.x"});
  analyzer.run({tu->findFunction("a")});
  EXPECT_FALSE(analyzer.writeEvents().empty());
  analyzer.run({tu->findFunction("b")});
  EXPECT_EQ(analyzer.resultFor("a"), nullptr) << "results must reset per run";
  EXPECT_NE(analyzer.resultFor("b"), nullptr);
  EXPECT_TRUE(analyzer.writeEvents().empty()) << "write events must reset per run";
}

TEST(Taint, SwitchCaseAssignmentsPropagate) {
  const auto s = analyze(
      "void f(int c) {\n"
      "  long p = 0; long out = 0;\n"
      "  switch (c) {\n"
      "    case 1: out = p; break;\n"
      "    default: out = 0; break;\n"
      "  }\n"
      "  long sink = out;\n"
      "}",
      {{"f", "p", "tool.p"}});
  EXPECT_TRUE(exitLabels(s, "f", "sink").contains("param:tool.p"));
}

TEST(Taint, CastPreservesLabels) {
  const auto s = analyze(
      "typedef unsigned int u32;\n"
      "void f(void) { long p = 0; long out = (u32)p; }",
      {{"f", "p", "tool.p"}});
  EXPECT_TRUE(exitLabels(s, "f", "out").contains("param:tool.p"));
}

}  // namespace
}  // namespace fsdep::taint
