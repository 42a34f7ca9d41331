// The compiled Taint-IR interpreter is the default engine; the AST
// statement walk (AnalysisOptions::compile_ir = false, --legacy-walk) is
// kept as the oracle. The two must be observationally identical on the
// seed corpus and on an amplified corpus, intra- and inter-procedural:
// same interned label ids (id order is semantic — rendered sets ascend
// by id and extraction anchors on the smallest id), same write events,
// same field-write bridges, same per-function return labels, same
// first-discovery traces, the same statement-visit counts, and
// byte-identical extracted dependencies at any worker count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/amplify.h"
#include "corpus/pipeline.h"
#include "json/json.h"
#include "model/serialization.h"
#include "taint/label.h"

namespace fsdep::corpus {
namespace {

taint::AnalysisOptions irOpts(bool inter) {
  taint::AnalysisOptions options;
  options.inter_procedural = inter;
  options.compile_ir = true;
  return options;
}

taint::AnalysisOptions walkOpts(bool inter) {
  taint::AnalysisOptions options = irOpts(inter);
  options.compile_ir = false;
  return options;
}

std::vector<std::string> allComponents() {
  std::vector<std::string> names = componentNames();
  for (const std::string& n : xfsComponentNames()) names.push_back(n);
  for (const std::string& n : btrfsComponentNames()) names.push_back(n);
  return names;
}

void expectAnalyzersIdentical(const taint::Analyzer& a, const taint::Analyzer& b,
                              const std::string& name) {
  ASSERT_EQ(a.labels().size(), b.labels().size()) << name;
  for (taint::LabelId id = 0; id < a.labels().size(); ++id) {
    EXPECT_EQ(a.labels().name(id), b.labels().name(id)) << name << " label " << id;
  }

  const auto fields_a = a.fieldWrites();
  const auto fields_b = b.fieldWrites();
  ASSERT_EQ(fields_a.size(), fields_b.size()) << name;
  for (const auto& [key, labels] : fields_a) {
    const auto it = fields_b.find(key);
    ASSERT_NE(it, fields_b.end()) << name << " field " << key;
    EXPECT_EQ(labelSetToString(a.labels(), labels), labelSetToString(b.labels(), it->second))
        << name << " field " << key;
  }

  const auto writes_a = a.writeEvents();
  const auto writes_b = b.writeEvents();
  ASSERT_EQ(writes_a.size(), writes_b.size()) << name;
  for (std::size_t i = 0; i < writes_a.size(); ++i) {
    EXPECT_EQ(writes_a[i]->object, writes_b[i]->object) << name;
    EXPECT_EQ(writes_a[i]->loc.line, writes_b[i]->loc.line) << name;
    EXPECT_EQ(writes_a[i]->loc.column, writes_b[i]->loc.column) << name;
    EXPECT_EQ(writes_a[i]->op, writes_b[i]->op) << name;
    EXPECT_EQ(writes_a[i]->rhs_callee, writes_b[i]->rhs_callee) << name;
    EXPECT_EQ(labelSetToString(a.labels(), writes_a[i]->labels),
              labelSetToString(b.labels(), writes_b[i]->labels))
        << name << " write to " << writes_a[i]->object;
  }

  ASSERT_EQ(a.results().size(), b.results().size()) << name;
  for (std::size_t i = 0; i < a.results().size(); ++i) {
    const taint::FunctionTaint& ra = *a.results()[i];
    const taint::FunctionTaint& rb = *b.results()[i];
    ASSERT_EQ(ra.fn->name, rb.fn->name) << name;
    EXPECT_EQ(labelSetToString(a.labels(), ra.return_labels),
              labelSetToString(b.labels(), rb.return_labels))
        << name << "." << ra.fn->name << " returns";
  }

  // Traces are first-discovery ordered and capped; both engines must
  // discover the same steps in the same order.
  for (const taint::WriteEvent* w : writes_a) {
    const auto* trace_a = a.traceFor(w->object);
    const auto* trace_b = b.traceFor(w->object);
    ASSERT_NE(trace_a, nullptr) << name << " " << w->object;
    ASSERT_NE(trace_b, nullptr) << name << " " << w->object;
    ASSERT_EQ(trace_a->size(), trace_b->size()) << name << " " << w->object;
    for (std::size_t i = 0; i < trace_a->size(); ++i) {
      EXPECT_EQ((*trace_a)[i].text, (*trace_b)[i].text) << name << " " << w->object;
      EXPECT_EQ((*trace_a)[i].loc.line, (*trace_b)[i].loc.line) << name << " " << w->object;
    }
  }

  // The IR mirrors the per-block statement totals into the same visit
  // counter the AST walk increments per statement, and the worklist
  // skips the same analyses (staleness is engine-independent state).
  EXPECT_EQ(a.stmtVisits(), b.stmtVisits()) << name;
  EXPECT_EQ(a.concreteSkips(), b.concreteSkips()) << name;
  EXPECT_GT(a.irInstrs(), 0u) << name;
  EXPECT_EQ(b.irInstrs(), 0u) << name;
}

TEST(IrEquivalence, Table5ByteIdentical) {
  const Table5Result ir = runTable5(irOpts(true), nullptr, {.jobs = 1});
  const Table5Result walk = runTable5(walkOpts(true), nullptr, {.jobs = 1});
  EXPECT_EQ(json::writePretty(model::toJson(ir.unique_deps)),
            json::writePretty(model::toJson(walk.unique_deps)));
  EXPECT_EQ(formatTable5(ir), formatTable5(walk));
}

TEST(IrEquivalence, PerScenarioDependenciesByteIdentical) {
  for (const bool inter : {false, true}) {
    for (const Scenario& s : scenarios()) {
      const std::vector<model::Dependency> ir = runScenario(s, irOpts(inter), nullptr, {.jobs = 1});
      const std::vector<model::Dependency> walk =
          runScenario(s, walkOpts(inter), nullptr, {.jobs = 1});
      EXPECT_EQ(json::writePretty(model::toJson(ir)), json::writePretty(model::toJson(walk)))
          << "scenario " << s.id << (inter ? " inter" : " intra");
    }
  }
}

// All-functions mode (no pre-selection) over every component of all
// three seed ecosystems, in both taint modes.
TEST(IrEquivalence, WholeComponentAnalyzerStateIdentical) {
  for (const bool inter : {false, true}) {
    for (const std::string& name : allComponents()) {
      AnalyzedComponent ir(name, irOpts(inter));
      ir.analyze({});
      AnalyzedComponent walk(name, walkOpts(inter));
      walk.analyze({});
      expectAnalyzersIdentical(ir.analyzer(), walk.analyzer(),
                               name + (inter ? " inter" : " intra"));
    }
  }
}

// The amplified corpus stresses what the seed cannot: hundreds of
// generated functions per ecosystem, with call chains and recursive
// pairs, flowing through the inter-procedural worklist over compiled IR.
TEST(IrEquivalence, AmplifiedCorpusByteIdentical) {
  const std::vector<std::string> names = amplifyCorpus({.factor = 50, .seed = 42});
  for (const bool inter : {false, true}) {
    for (const std::string& name : names) {
      AnalyzedComponent ir(name, irOpts(inter));
      ir.analyze({});
      AnalyzedComponent walk(name, walkOpts(inter));
      walk.analyze({});
      expectAnalyzersIdentical(ir.analyzer(), walk.analyzer(),
                               name + (inter ? " inter" : " intra"));
    }
  }
}

// The compiled programs live in a shared per-component cache that pool
// workers hit concurrently; results must not depend on the worker count
// or on which run compiled the streams (serial ≡ parallel, ×3).
TEST(IrEquivalence, SerialEqualsParallelTimesThree) {
  const Table5Result serial = runTable5(irOpts(true), nullptr, {.jobs = 1});
  const std::string expected = formatTable5(serial);
  const std::string expected_deps = json::writePretty(model::toJson(serial.unique_deps));
  for (int round = 0; round < 3; ++round) {
    const Table5Result parallel = runTable5(irOpts(true), nullptr, {.jobs = 4});
    EXPECT_EQ(formatTable5(parallel), expected) << "round " << round;
    EXPECT_EQ(json::writePretty(model::toJson(parallel.unique_deps)), expected_deps)
        << "round " << round;
  }
}

}  // namespace
}  // namespace fsdep::corpus
