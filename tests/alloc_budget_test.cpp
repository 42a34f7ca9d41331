// Heap-allocation budgets of the analysis core. Global operator new is
// replaced with a counting one, and the test counts the allocations each
// layer makes over the seed components and the factor-5 amplified
// corpus: sema, CFG construction plus IR lowering (ir::compile), and the
// taint run (Analyzer::run over already-compiled functions, intra and
// inter). Each budget is per unit of work — per expression, per CFG
// block, per block visit — with room to spare, so a different standard
// library does not flip it; what it catches is a layer going back to
// allocating per node, per edge or per fixpoint visit.
//
// The counter is process-wide, so the test must run serially: it uses no
// thread pool, and nothing else runs while a window is open.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "corpus/amplify.h"
#include "corpus/corpus.h"
#include "lex/preprocessor.h"
#include "sema/sema.h"
#include "taint/analyzer.h"
#include "taint/ir.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* countedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fsdep {
namespace {

using namespace ast;

/// Allocations made while `fn` runs.
template <typename Fn>
std::uint64_t allocationsIn(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

std::uint64_t countExprs(const Expr* e);

std::uint64_t countExprs(const std::vector<ExprPtr>& exprs) {
  std::uint64_t n = 0;
  for (const ExprPtr& e : exprs) n += countExprs(e.get());
  return n;
}

std::uint64_t countExprs(const Expr* e) {
  if (e == nullptr) return 0;
  switch (e->kind()) {
    case ExprKind::Unary: return 1 + countExprs(static_cast<const UnaryExpr*>(e)->operand.get());
    case ExprKind::Binary: {
      const auto* b = static_cast<const BinaryExpr*>(e);
      return 1 + countExprs(b->lhs.get()) + countExprs(b->rhs.get());
    }
    case ExprKind::Conditional: {
      const auto* c = static_cast<const ConditionalExpr*>(e);
      return 1 + countExprs(c->cond.get()) + countExprs(c->then_expr.get()) +
             countExprs(c->else_expr.get());
    }
    case ExprKind::Call: return 1 + countExprs(static_cast<const CallExpr*>(e)->args);
    case ExprKind::Member: return 1 + countExprs(static_cast<const MemberExpr*>(e)->base.get());
    case ExprKind::Index: {
      const auto* i = static_cast<const IndexExpr*>(e);
      return 1 + countExprs(i->base.get()) + countExprs(i->index.get());
    }
    case ExprKind::Cast: return 1 + countExprs(static_cast<const CastExpr*>(e)->operand.get());
    case ExprKind::InitList: return 1 + countExprs(static_cast<const InitListExpr*>(e)->elements);
    default: return 1;
  }
}

std::uint64_t countExprs(const Stmt* s) {
  if (s == nullptr) return 0;
  switch (s->kind()) {
    case StmtKind::Compound: {
      std::uint64_t n = 0;
      for (const StmtPtr& c : static_cast<const CompoundStmt*>(s)->body) n += countExprs(c.get());
      return n;
    }
    case StmtKind::Decl: {
      std::uint64_t n = 0;
      for (const auto& v : static_cast<const DeclStmt*>(s)->vars) n += countExprs(v->init.get());
      return n;
    }
    case StmtKind::Expr: return countExprs(static_cast<const ExprStmt*>(s)->expr.get());
    case StmtKind::If: {
      const auto* i = static_cast<const IfStmt*>(s);
      return countExprs(i->cond.get()) + countExprs(i->then_stmt.get()) +
             countExprs(i->else_stmt.get());
    }
    case StmtKind::While: {
      const auto* w = static_cast<const WhileStmt*>(s);
      return countExprs(w->cond.get()) + countExprs(w->body.get());
    }
    case StmtKind::DoWhile: {
      const auto* d = static_cast<const DoWhileStmt*>(s);
      return countExprs(d->cond.get()) + countExprs(d->body.get());
    }
    case StmtKind::For: {
      const auto* f = static_cast<const ForStmt*>(s);
      return countExprs(f->init.get()) + countExprs(f->cond.get()) + countExprs(f->inc.get()) +
             countExprs(f->body.get());
    }
    case StmtKind::Switch: {
      const auto* w = static_cast<const SwitchStmt*>(s);
      std::uint64_t n = countExprs(w->cond.get());
      for (const auto& c : w->cases) n += countExprs(c.get());
      return n;
    }
    case StmtKind::Case: {
      const auto* c = static_cast<const CaseStmt*>(s);
      std::uint64_t n = countExprs(c->value.get());
      for (const StmtPtr& b : c->body) n += countExprs(b.get());
      return n;
    }
    case StmtKind::Return: return countExprs(static_cast<const ReturnStmt*>(s)->value.get());
    default: return 0;
  }
}

/// Allocations and units of work of each layer, summed over components.
struct Tally {
  std::uint64_t sema_allocs = 0;
  std::uint64_t exprs = 0;
  std::uint64_t cfg_ir_allocs = 0;
  std::uint64_t blocks = 0;
  std::uint64_t taint_allocs = 0;
  std::uint64_t visits = 0;

  void add(const std::string& component) {
    SourceManager sm;
    DiagnosticEngine diags;
    const FileId file =
        sm.addBuffer(component + ".c", std::string(corpus::componentSource(component)));
    lex::Preprocessor pp(sm, diags,
                         [](std::string_view header) { return corpus::headerSource(header); });
    Parser parser(pp.tokenize(file), diags);
    const std::unique_ptr<TranslationUnit> tu = parser.parseTranslationUnit(component + ".c");
    ASSERT_FALSE(diags.hasErrors()) << component;

    sema::Sema sema(*tu, diags);
    sema_allocs += allocationsIn([&] { ASSERT_TRUE(sema.run()) << component; });
    for (const DeclPtr& d : tu->decls) {
      if (d->kind() == DeclKind::Function) {
        exprs += countExprs(static_cast<const FunctionDecl&>(*d).body.get());
      } else if (d->kind() == DeclKind::Var) {
        exprs += countExprs(static_cast<const VarDecl&>(*d).init.get());
      }
    }

    auto cache = std::make_shared<taint::ir::IrCache>();
    for (const FunctionDecl* fn : tu->functions()) {
      if (!fn->isDefinition()) continue;
      std::shared_ptr<const taint::ir::CompiledFunction> compiled;
      cfg_ir_allocs += allocationsIn([&] { compiled = cache->getOrCompile(*fn); });
      blocks += compiled->cfg->size();
    }

    const std::vector<taint::Seed> seeds = corpus::componentSeeds(component);
    for (const bool inter : {false, true}) {
      taint::AnalysisOptions options;
      options.inter_procedural = inter;
      taint::Analyzer analyzer(*tu, sema, options);
      analyzer.setIrCache(cache);
      for (const taint::Seed& seed : seeds) analyzer.addSeed(seed);
      taint_allocs += allocationsIn([&] { analyzer.run(); });
      visits += analyzer.irVisits();
    }
  }

  void print(const char* corpus_name) const {
    std::printf("%s: sema %llu allocs / %llu exprs, cfg+ir %llu / %llu blocks, "
                "taint run %llu / %llu block visits\n",
                corpus_name, static_cast<unsigned long long>(sema_allocs),
                static_cast<unsigned long long>(exprs),
                static_cast<unsigned long long>(cfg_ir_allocs),
                static_cast<unsigned long long>(blocks),
                static_cast<unsigned long long>(taint_allocs),
                static_cast<unsigned long long>(visits));
  }
};

// Allocations per unit of work. On these corpora the layers that kept
// per-expression types in a map, per-block std::vectors and per-visit
// state copies measured 1.4-1.6 per expression (sema), 5.6-6.4 per CFG
// block (CFG + IR) and 9.6-11.5 per block visit (taint run); the
// arena-backed ones 0.26-0.34, 1.5-2.6 and 4.0-4.9. Each budget sits
// about a third above the second range and below the first.
constexpr double kSemaPerExpr = 0.7;
constexpr double kCfgIrPerBlock = 4.0;
constexpr double kTaintPerVisit = 7.0;

void expectWithinBudget(const Tally& t) {
  ASSERT_GT(t.exprs, 0u);
  ASSERT_GT(t.blocks, 0u);
  ASSERT_GT(t.visits, 0u);
  EXPECT_LE(static_cast<double>(t.sema_allocs), kSemaPerExpr * static_cast<double>(t.exprs));
  EXPECT_LE(static_cast<double>(t.cfg_ir_allocs),
            kCfgIrPerBlock * static_cast<double>(t.blocks));
  EXPECT_LE(static_cast<double>(t.taint_allocs),
            kTaintPerVisit * static_cast<double>(t.visits));
}

TEST(AllocBudget, SeedComponents) {
  Tally tally;
  for (const corpus::FileSystem& fs : corpus::fileSystems()) {
    for (const corpus::Component& component : fs.components) {
      tally.add(component.name);
      if (HasFatalFailure()) return;
    }
  }
  tally.print("seed");
  expectWithinBudget(tally);
}

TEST(AllocBudget, AmplifiedCorpus) {
  Tally tally;
  for (const std::string& name : corpus::amplifyCorpus({.factor = 5, .seed = 42})) {
    tally.add(name);
    if (HasFatalFailure()) return;
  }
  tally.print("factor 5");
  expectWithinBudget(tally);
}

}  // namespace
}  // namespace fsdep
