#include <gtest/gtest.h>

#include "ast/parser.h"
#include "extract/extractor.h"
#include "lex/lexer.h"
#include "sema/sema.h"

namespace fsdep::extract {
namespace {

using model::ConstraintOp;
using model::DepKind;
using model::Dependency;

/// One self-contained analyzed component for extraction tests.
struct MiniComponent {
  std::string name;
  std::unique_ptr<ast::TranslationUnit> tu;
  std::unique_ptr<sema::Sema> sema;
  std::unique_ptr<taint::Analyzer> analyzer;

  MiniComponent(std::string component, const std::string& text,
                const std::vector<taint::Seed>& seeds, taint::AnalysisOptions options = {}) {
    name = std::move(component);
    static SourceManager sm;
    static DiagnosticEngine diags;
    diags.clear();
    const FileId file = sm.addBuffer(name + ".c", text);
    lex::Lexer lexer(sm, file, diags);
    ast::Parser parser(lexer.lexAll(), diags);
    tu = parser.parseTranslationUnit(name + ".c");
    EXPECT_FALSE(diags.hasErrors()) << diags.render(sm);
    sema = std::make_unique<sema::Sema>(*tu, diags);
    sema->run();
    analyzer = std::make_unique<taint::Analyzer>(*tu, *sema, options);
    for (const taint::Seed& seed : seeds) analyzer->addSeed(seed);
    analyzer->run();
  }

  [[nodiscard]] ComponentRun run() const {
    return ComponentRun{name, false, analyzer.get(), sema.get()};
  }
};

ExtractOptions defaultOptions() {
  ExtractOptions o;
  o.metadata_owner = "kernel";
  o.parser_types = {{"parse_num", "integer"}, {"parse_size", "size"}};
  o.error_functions = {"usage", "fatal_error"};
  return o;
}

const Dependency* findByKey(const std::vector<Dependency>& deps, const Dependency& probe) {
  for (const Dependency& d : deps) {
    if (d.dedupKey() == probe.dedupKey()) return &d;
  }
  return nullptr;
}

TEST(Extract, SdDataTypeFromParserCall) {
  MiniComponent c("tool",
                  "void usage(void);\n"
                  "long parse_num(char *s);\n"
                  "char *optarg;\n"
                  "void main_fn(void) { long bs = 0; bs = parse_num(optarg); }",
                  {{"main_fn", "bs", "tool.blocksize"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].kind, DepKind::SdDataType);
  EXPECT_EQ(deps[0].param, "tool.blocksize");
  EXPECT_EQ(deps[0].type_name, "integer");
}

TEST(Extract, SdRangeFromGuards) {
  MiniComponent c("tool",
                  "void usage(void);\n"
                  "void main_fn(void) {\n"
                  "  long bs = 4096;\n"
                  "  if (bs < 1024 || bs > 65536) { usage(); }\n"
                  "}",
                  {{"main_fn", "bs", "tool.blocksize"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].kind, DepKind::SdValueRange);
  EXPECT_EQ(deps[0].op, ConstraintOp::InRange);
  EXPECT_EQ(deps[0].low, 1024);
  EXPECT_EQ(deps[0].high, 65536);
}

TEST(Extract, SdRangeBoundsMergeAcrossGuards) {
  MiniComponent c("tool",
                  "void usage(void);\n"
                  "void main_fn(void) {\n"
                  "  long v = 0;\n"
                  "  if (v < 10) { usage(); }\n"
                  "  if (v > 100) { usage(); }\n"
                  "  if (v > 200) { usage(); }\n"
                  "}",
                  {{"main_fn", "v", "tool.v"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].low, 10);
  EXPECT_EQ(deps[0].high, 100) << "the tighter bound wins";
}

TEST(Extract, SdRangeErrorOnFalseArm) {
  MiniComponent c("tool",
                  "void usage(void);\n"
                  "void main_fn(void) {\n"
                  "  long v = 0;\n"
                  "  if (v >= 8) { v = v + 1; } else { usage(); }\n"
                  "}",
                  {{"main_fn", "v", "tool.v"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].low, 8);
}

TEST(Extract, SdMultipleOfAndPowerOfTwo) {
  MiniComponent c("tool",
                  "void usage(void);\n"
                  "void main_fn(void) {\n"
                  "  long g = 0; long f = 0;\n"
                  "  if (g % 8) { usage(); }\n"
                  "  if (f & (f - 1)) { usage(); }\n"
                  "}",
                  {{"main_fn", "g", "tool.g"}, {"main_fn", "f", "tool.f"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  ASSERT_EQ(deps.size(), 2u);
  const Dependency* g_dep = nullptr;
  const Dependency* f_dep = nullptr;
  for (const Dependency& d : deps) {
    if (d.param == "tool.g") g_dep = &d;
    if (d.param == "tool.f") f_dep = &d;
  }
  ASSERT_NE(g_dep, nullptr);
  EXPECT_EQ(g_dep->op, ConstraintOp::MultipleOf);
  EXPECT_EQ(g_dep->low, 8);
  ASSERT_NE(f_dep, nullptr);
  EXPECT_EQ(f_dep->op, ConstraintOp::PowerOfTwo);
}

TEST(Extract, CpdControlExcludes) {
  MiniComponent c("tool",
                  "void fatal_error(const char *m);\n"
                  "void main_fn(void) {\n"
                  "  int a = 0; int b = 0;\n"
                  "  if (a && b) { fatal_error(\"no\"); }\n"
                  "}",
                  {{"main_fn", "a", "tool.a"}, {"main_fn", "b", "tool.b"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].kind, DepKind::CpdControl);
  EXPECT_EQ(deps[0].op, ConstraintOp::Excludes);
}

TEST(Extract, CpdControlRequires) {
  MiniComponent c("tool",
                  "void fatal_error(const char *m);\n"
                  "void main_fn(void) {\n"
                  "  int child = 0; int parent = 0;\n"
                  "  if (child && !parent) { fatal_error(\"no\"); }\n"
                  "}",
                  {{"main_fn", "child", "tool.child"}, {"main_fn", "parent", "tool.parent"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].op, ConstraintOp::Requires);
  EXPECT_EQ(deps[0].param, "tool.child");
  EXPECT_EQ(deps[0].other_param, "tool.parent");
}

TEST(Extract, CpdValueComparison) {
  MiniComponent c("tool",
                  "void usage(void);\n"
                  "void main_fn(void) {\n"
                  "  long inode = 0; long block = 0;\n"
                  "  if (inode > block) { usage(); }\n"
                  "}",
                  {{"main_fn", "inode", "tool.inode"}, {"main_fn", "block", "tool.block"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].kind, DepKind::CpdValue);
  EXPECT_EQ(deps[0].op, ConstraintOp::Le);
  EXPECT_EQ(deps[0].param, "tool.inode");
  EXPECT_EQ(deps[0].other_param, "tool.block");
}

// Shared metadata bridging between two components.
struct BridgedPair {
  MiniComponent writer;
  MiniComponent reader;

  /// `bridging = false` analyzes both sides without field bridging (the
  /// ablation knob, which extraction follows).
  explicit BridgedPair(const std::string& reader_code,
                       const std::vector<taint::Seed>& reader_seeds, bool bridging = true)
      : writer("mke2fs",
               "struct super { unsigned int blocks; unsigned int compat; };\n"
               "void write_super(struct super *sb) {\n"
               "  long size = 0; int featurex = 0;\n"
               "  sb->blocks = size;\n"
               "  sb->compat |= (featurex ? 16 : 0);\n"
               "}",
               {{"write_super", "size", "mke2fs.size"},
                {"write_super", "featurex", "mke2fs.featurex"}},
               {.field_bridging = bridging}),
        reader("resize2fs",
               "struct super { unsigned int blocks; unsigned int compat; };\n"
               "void grow(struct super *sb);\nvoid shrink(struct super *sb);\n"
               "void fatal_error(const char *m);\n" +
                   reader_code,
               reader_seeds, {.field_bridging = bridging}) {}

  [[nodiscard]] std::vector<Dependency> extract() const {
    return extractDependencies({writer.run(), reader.run()}, defaultOptions());
  }
};

TEST(Extract, CcdValueThroughBridge) {
  BridgedPair pair(
      "void check(struct super *sb) {\n"
      "  long target = 0;\n"
      "  if (target < sb->blocks) { fatal_error(\"too small\"); }\n"
      "}",
      {{"check", "target", "resize2fs.size"}});
  const auto deps = pair.extract();
  Dependency probe;
  probe.kind = DepKind::CcdValue;
  probe.op = ConstraintOp::Ge;
  probe.param = "resize2fs.size";
  probe.other_param = "mke2fs.size";
  const Dependency* found = findByKey(deps, probe);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->bridge_field, "super.blocks");
}

TEST(Extract, CcdControlThroughMaskedBridge) {
  BridgedPair pair(
      "void check(struct super *sb) {\n"
      "  int online = 0;\n"
      "  if (online && !(sb->compat & 16)) { fatal_error(\"need featurex\"); }\n"
      "}",
      {{"check", "online", "resize2fs.online"}});
  const auto deps = pair.extract();
  Dependency probe;
  probe.kind = DepKind::CcdControl;
  probe.op = ConstraintOp::Requires;
  probe.param = "resize2fs.online";
  probe.other_param = "mke2fs.featurex";
  EXPECT_NE(findByKey(deps, probe), nullptr);
}

TEST(Extract, MaskMismatchDoesNotBridge) {
  BridgedPair pair(
      "void check(struct super *sb) {\n"
      "  int online = 0;\n"
      "  if (online && !(sb->compat & 4)) { fatal_error(\"other bit\"); }\n"
      "}",
      {{"check", "online", "resize2fs.online"}});
  const auto deps = pair.extract();
  for (const Dependency& d : deps) {
    EXPECT_NE(d.other_param, "mke2fs.featurex")
        << "bit 4 test must not match the featurex writer of bit 16";
  }
}

TEST(Extract, RunsSharingAnAnalyzerMatchTheSerialResult) {
  // The rules may intern labels into a run's analyzer, so runs sharing
  // one are extracted on one thread whatever the worker count.
  BridgedPair pair(
      "void check(struct super *sb) {\n"
      "  long target = 0;\n"
      "  if (target < sb->blocks) { fatal_error(\"too small\"); }\n"
      "}",
      {{"check", "target", "resize2fs.size"}});
  const std::vector<ComponentRun> runs{pair.writer.run(), pair.reader.run(), pair.reader.run(),
                                       pair.writer.run()};
  const auto render = [](const std::vector<Dependency>& deps) {
    std::string out;
    for (const Dependency& d : deps) {
      out += d.id + " " + d.summary() + "\n";
      for (const std::string& step : d.trace) out += "  " + step + "\n";
    }
    return out;
  };
  const std::string serial = render(extractDependencies(runs, defaultOptions(), 1));
  EXPECT_NE(serial.find("ccd-value-resize2fs-size-mke2fs-size"), std::string::npos) << serial;
  EXPECT_EQ(render(extractDependencies(runs, defaultOptions(), 4)), serial);
}

TEST(Extract, CcdBehavioralFromBranch) {
  BridgedPair pair(
      "void decide(struct super *sb) {\n"
      "  long target = 0;\n"
      "  if (target > sb->blocks) { grow(sb); } else { shrink(sb); }\n"
      "}",
      {{"decide", "target", "resize2fs.size"}});
  const auto deps = pair.extract();
  Dependency probe;
  probe.kind = DepKind::CcdBehavioral;
  probe.op = ConstraintOp::Influences;
  probe.param = "resize2fs.size";
  probe.other_param = "mke2fs.size";
  EXPECT_NE(findByKey(deps, probe), nullptr);
}

TEST(Extract, CcdBehavioralFromDerivation) {
  BridgedPair pair(
      "void derive(struct super *sb) {\n"
      "  long target = 0;\n"
      "  long scaled = target + sb->blocks;\n"
      "  grow(sb);\n"
      "  if (scaled > 0) { shrink(sb); }\n"
      "}",
      {{"derive", "target", "resize2fs.size"}});
  const auto deps = pair.extract();
  Dependency probe;
  probe.kind = DepKind::CcdBehavioral;
  probe.op = ConstraintOp::Influences;
  probe.param = "resize2fs.size";
  probe.other_param = "mke2fs.size";
  EXPECT_NE(findByKey(deps, probe), nullptr);
}

TEST(Extract, BridgingAblationKillsCcd) {
  BridgedPair pair(
      "void decide(struct super *sb) {\n"
      "  long target = 0;\n"
      "  if (target > sb->blocks) { grow(sb); } else { shrink(sb); }\n"
      "}",
      {{"decide", "target", "resize2fs.size"}}, /*bridging=*/false);
  const auto deps = pair.extract();
  for (const Dependency& d : deps) {
    EXPECT_NE(d.level(), model::DepLevel::CrossComponent)
        << "with bridging disabled no CCD may survive: " << d.summary();
  }
}

TEST(Extract, FieldVsConstantBecomesOwnerSd) {
  ExtractOptions o = defaultOptions();
  o.metadata_owner = "ext4";
  MiniComponent c("kernelish",
                  "struct super { unsigned int log_bs; };\n"
                  "void usage(void);\n"
                  "void validate(struct super *sb) {\n"
                  "  if (sb->log_bs > 6) { usage(); }\n"
                  "}",
                  {});
  const auto deps = extractDependencies({c.run()}, o);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].kind, DepKind::SdValueRange);
  EXPECT_EQ(deps[0].param, "ext4.log_bs");
  EXPECT_EQ(deps[0].high, 6);
}

TEST(Extract, LoopConditionsAreIgnored) {
  MiniComponent c("tool",
                  "void usage(void);\n"
                  "void main_fn(void) {\n"
                  "  long n = 0;\n"
                  "  while (n < 100) { n = n + 1; }\n"
                  "}",
                  {{"main_fn", "n", "tool.n"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  EXPECT_TRUE(deps.empty());
}

TEST(Extract, SwitchDispatchIsIgnored) {
  MiniComponent c("tool",
                  "void usage(void);\n"
                  "void main_fn(void) {\n"
                  "  long n = 0;\n"
                  "  switch (n) { case 1: usage(); break; default: break; }\n"
                  "}",
                  {{"main_fn", "n", "tool.n"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  EXPECT_TRUE(deps.empty());
}

TEST(Extract, ThreeParameterSumIsSkipped) {
  MiniComponent c("tool",
                  "void usage(void);\n"
                  "void main_fn(void) {\n"
                  "  int a = 0; int b = 0; int d = 0;\n"
                  "  int conflict = a + b + d;\n"
                  "  if (conflict > 1) { usage(); }\n"
                  "}",
                  {{"main_fn", "a", "tool.a"},
                   {"main_fn", "b", "tool.b"},
                   {"main_fn", "d", "tool.d"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  EXPECT_TRUE(deps.empty()) << "ambiguous multi-parameter sums must not be forced into pairs";
}

TEST(Extract, DedupAcrossDuplicateGuards) {
  MiniComponent c("tool",
                  "void usage(void);\n"
                  "void one(void) { int a = 0; int b = 0; if (a && b) usage(); }\n"
                  "void two(void) { int a = 0; int b = 0; if (a && b) usage(); }",
                  {{"one", "a", "tool.a"},
                   {"one", "b", "tool.b"},
                   {"two", "a", "tool.a"},
                   {"two", "b", "tool.b"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  ASSERT_EQ(deps.size(), 1u) << "the same dependency found twice must deduplicate";
}

TEST(Extract, RequiresViaErrorOnFalseArm) {
  MiniComponent c("tool",
                  "void fatal_error(const char *m);\n"
                  "void main_fn(void) {\n"
                  "  int child = 0; int parent = 0;\n"
                  "  if (!child || parent) { child = child; } else { fatal_error(\"no\"); }\n"
                  "}",
                  {{"main_fn", "child", "tool.child"}, {"main_fn", "parent", "tool.parent"}});
  // Error on the false arm: violation = !( !child || parent ) = child && !parent.
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].op, ConstraintOp::Requires);
  EXPECT_EQ(deps[0].param, "tool.child");
  EXPECT_EQ(deps[0].other_param, "tool.parent");
}

TEST(Extract, CcdControlExcludesThroughBridge) {
  BridgedPair pair(
      "void check(struct super *sb) {\n"
      "  int online = 0;\n"
      "  if (online && (sb->compat & 16)) { fatal_error(\"conflict\"); }\n"
      "}",
      {{"check", "online", "resize2fs.online"}});
  const auto deps = pair.extract();
  Dependency probe;
  probe.kind = DepKind::CcdControl;
  probe.op = ConstraintOp::Excludes;
  probe.param = "mke2fs.featurex";
  probe.other_param = "resize2fs.online";
  EXPECT_NE(findByKey(deps, probe), nullptr)
      << "excludes keys are symmetric; either orientation must match";
}

TEST(Extract, BehavioralGuardDedupsWithDerivation) {
  // The same (anchor, writer) pair reached through a guard AND a
  // derivation must stay one dependency.
  BridgedPair pair(
      "void both(struct super *sb) {\n"
      "  long target = 0;\n"
      "  long derived = target + sb->blocks;\n"
      "  if (target > sb->blocks) { grow(sb); } else { shrink(sb); }\n"
      "  if (derived > 0) { grow(sb); }\n"
      "}",
      {{"both", "target", "resize2fs.size"}});
  const auto deps = pair.extract();
  int behavioral_pairs = 0;
  for (const Dependency& d : deps) {
    if (d.kind == DepKind::CcdBehavioral && d.param == "resize2fs.size" &&
        d.other_param == "mke2fs.size") {
      ++behavioral_pairs;
    }
  }
  EXPECT_EQ(behavioral_pairs, 1);
}

TEST(Extract, ErrorGuardViaComErr) {
  ExtractOptions o = defaultOptions();
  o.error_functions.push_back("com_err");
  MiniComponent c("tool",
                  "void com_err(const char *who, const char *m);\n"
                  "void main_fn(void) {\n"
                  "  long v = 0;\n"
                  "  if (v > 100) { com_err(\"tool\", \"too big\"); return; }\n"
                  "}",
                  {{"main_fn", "v", "tool.v"}});
  const auto deps = extractDependencies({c.run()}, o);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].high, 100);
}

TEST(Extract, NegativeReturnCountsAsError) {
  MiniComponent c("tool",
                  "int main_fn(void) {\n"
                  "  long v = 0;\n"
                  "  if (v < 5) { return -22; }\n"
                  "  return 0;\n"
                  "}",
                  {{"main_fn", "v", "tool.v"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].low, 5);
}

TEST(Extract, PositiveReturnIsNotAnError) {
  MiniComponent c("tool",
                  "int main_fn(void) {\n"
                  "  long v = 0;\n"
                  "  if (v < 5) { return 1; }\n"
                  "  return 0;\n"
                  "}",
                  {{"main_fn", "v", "tool.v"}});
  const auto deps = extractDependencies({c.run()}, defaultOptions());
  EXPECT_TRUE(deps.empty()) << "a positive status return must not create a constraint";
}

}  // namespace
}  // namespace fsdep::extract
