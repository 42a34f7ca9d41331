#include <gtest/gtest.h>

#include "ast/parser.h"
#include "lex/lexer.h"
#include "sema/sema.h"

namespace fsdep::sema {
namespace {

using namespace ast;

struct Analyzed {
  std::unique_ptr<TranslationUnit> tu;
  std::unique_ptr<Sema> sema;
  bool ok = false;
};

Analyzed analyze(const std::string& text) {
  static SourceManager sm;
  static DiagnosticEngine diags;
  diags.clear();
  const FileId file = sm.addBuffer("t.c", text);
  lex::Lexer lexer(sm, file, diags);
  Parser parser(lexer.lexAll(), diags);
  Analyzed a;
  a.tu = parser.parseTranslationUnit("t.c");
  a.sema = std::make_unique<Sema>(*a.tu, diags);
  a.ok = a.sema->run();
  return a;
}

/// First DeclRef with the given name anywhere under `expr`.
const DeclRefExpr* findRef(const Expr& expr, const std::string& name) {
  switch (expr.kind()) {
    case ExprKind::DeclRef: {
      const auto& ref = static_cast<const DeclRefExpr&>(expr);
      return ref.name == name ? &ref : nullptr;
    }
    case ExprKind::Binary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      if (const auto* r = findRef(*b.lhs, name)) return r;
      return findRef(*b.rhs, name);
    }
    case ExprKind::Member:
      return findRef(*static_cast<const MemberExpr&>(expr).base, name);
    case ExprKind::Unary:
      return findRef(*static_cast<const UnaryExpr&>(expr).operand, name);
    default:
      return nullptr;
  }
}

TEST(Sema, ResolvesLocalsAndParams) {
  const auto a = analyze("long f(long p) { long x = p + 1; return x; }");
  ASSERT_TRUE(a.ok);
  const FunctionDecl* fn = a.tu->findFunction("f");
  const auto* decl_stmt = static_cast<const DeclStmt*>(
      static_cast<const CompoundStmt*>(fn->body.get())->body.at(0).get());
  const DeclRefExpr* p_ref = findRef(*decl_stmt->vars.at(0)->init, "p");
  ASSERT_NE(p_ref, nullptr);
  EXPECT_EQ(p_ref->decl, fn->params.at(0).get());
}

TEST(Sema, ResolvesGlobals) {
  const auto a = analyze("long counter;\nvoid f(void) { counter = counter + 1; }");
  ASSERT_TRUE(a.ok);
  const VarDecl* global = a.tu->findGlobal("counter");
  const FunctionDecl* fn = a.tu->findFunction("f");
  const auto* stmt = static_cast<const ExprStmt*>(
      static_cast<const CompoundStmt*>(fn->body.get())->body.at(0).get());
  const DeclRefExpr* ref = findRef(*stmt->expr, "counter");
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->decl, global);
}

TEST(Sema, InnerScopeShadowsOuter) {
  const auto a = analyze("void f(void) { long x = 1; { long x = 2; x = 3; } }");
  ASSERT_TRUE(a.ok);
  const FunctionDecl* fn = a.tu->findFunction("f");
  const auto& body = static_cast<const CompoundStmt&>(*fn->body);
  const auto* outer_decl = static_cast<const DeclStmt*>(body.body.at(0).get());
  const auto& inner = static_cast<const CompoundStmt&>(*body.body.at(1));
  const auto* inner_decl = static_cast<const DeclStmt*>(inner.body.at(0).get());
  const auto* assign = static_cast<const ExprStmt*>(inner.body.at(1).get());
  const DeclRefExpr* ref = findRef(*assign->expr, "x");
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->decl, inner_decl->vars.at(0).get());
  EXPECT_NE(ref->decl, outer_decl->vars.at(0).get());
}

TEST(Sema, ResolvesEnumConstants) {
  const auto a = analyze("enum e { GREEN = 5 };\nvoid f(void) { long x = GREEN; }");
  ASSERT_TRUE(a.ok);
  const FunctionDecl* fn = a.tu->findFunction("f");
  const auto* decl = static_cast<const DeclStmt*>(
      static_cast<const CompoundStmt*>(fn->body.get())->body.at(0).get());
  const DeclRefExpr* ref = findRef(*decl->vars.at(0)->init, "GREEN");
  ASSERT_NE(ref, nullptr);
  EXPECT_TRUE(ref->is_enum_constant);
  EXPECT_EQ(ref->enum_value, 5);
}

TEST(Sema, ImplicitEnumValuesIncrement) {
  const auto a = analyze("enum e { A = 10, B, C = 20, D };\nint z;");
  ASSERT_TRUE(a.ok);
  const auto* e = static_cast<const EnumDecl*>(a.tu->decls.at(0).get());
  EXPECT_EQ(e->enumerators[1].value, 11);
  EXPECT_EQ(e->enumerators[3].value, 21);
}

TEST(Sema, BindsStructMembersThroughPointer) {
  const auto a = analyze(
      "struct sb { unsigned int blocks; };\n"
      "unsigned int f(struct sb *s) { return s->blocks; }");
  ASSERT_TRUE(a.ok);
  const FunctionDecl* fn = a.tu->findFunction("f");
  const auto* ret = static_cast<const ReturnStmt*>(
      static_cast<const CompoundStmt*>(fn->body.get())->body.at(0).get());
  const auto& member = static_cast<const MemberExpr&>(*ret->value);
  ASSERT_NE(member.record, nullptr);
  EXPECT_EQ(member.record->name, "sb");
  ASSERT_NE(member.field, nullptr);
  EXPECT_EQ(member.field->name, "blocks");
}

TEST(Sema, BindsMembersThroughTypedef) {
  const auto a = analyze(
      "struct sb { int x; };\n"
      "typedef struct sb sb_t;\n"
      "int f(sb_t *s) { return s->x; }");
  ASSERT_TRUE(a.ok);
  const FunctionDecl* fn = a.tu->findFunction("f");
  const auto* ret = static_cast<const ReturnStmt*>(
      static_cast<const CompoundStmt*>(fn->body.get())->body.at(0).get());
  const auto& member = static_cast<const MemberExpr&>(*ret->value);
  ASSERT_NE(member.field, nullptr);
  EXPECT_EQ(member.field->name, "x");
}

TEST(Sema, UnknownFieldIsAnError) {
  const auto a = analyze("struct sb { int x; };\nint f(struct sb *s) { return s->nope; }");
  EXPECT_FALSE(a.ok);
}

TEST(Sema, BindsCallees) {
  const auto a = analyze("long helper(long v) { return v; }\nlong f(void) { return helper(1); }");
  ASSERT_TRUE(a.ok);
  const FunctionDecl* fn = a.tu->findFunction("f");
  const auto* ret = static_cast<const ReturnStmt*>(
      static_cast<const CompoundStmt*>(fn->body.get())->body.at(0).get());
  const auto& call = static_cast<const CallExpr&>(*ret->value);
  ASSERT_NE(call.callee_decl, nullptr);
  EXPECT_EQ(call.callee_decl->name, "helper");
}

TEST(Sema, ConstantFolding) {
  const auto a = analyze("enum e { K = 6 };\nint z;");
  ASSERT_TRUE(a.ok);

  auto fold = [&](const std::string& text) {
    const auto b = analyze("enum e { K = 6 };\nlong v = " + text + ";");
    const auto* var = static_cast<const VarDecl*>(b.tu->decls.at(1).get());
    return b.sema->foldConstant(*var->init);
  };

  EXPECT_EQ(fold("1 + 2 * 3"), 7);
  EXPECT_EQ(fold("(1 << 10) - 1"), 1023);
  EXPECT_EQ(fold("K * 2"), 12);
  EXPECT_EQ(fold("-K"), -6);
  EXPECT_EQ(fold("~0"), -1);
  EXPECT_EQ(fold("!0"), 1);
  EXPECT_EQ(fold("10 / 3"), 3);
  EXPECT_EQ(fold("10 % 3"), 1);
  EXPECT_EQ(fold("1 ? 11 : 22"), 11);
  EXPECT_EQ(fold("0 ? 11 : 22"), 22);
  EXPECT_EQ(fold("5 > 3"), 1);
  EXPECT_FALSE(fold("1 / 0").has_value());
}

TEST(Sema, FoldingNonConstantsFails) {
  const auto a = analyze("long g;\nlong v = g + 1;");
  const auto* var = static_cast<const VarDecl*>(a.tu->decls.at(1).get());
  EXPECT_FALSE(a.sema->foldConstant(*var->init).has_value());
}

TEST(Sema, TypeOfMemberIsFieldType) {
  const auto a = analyze(
      "typedef unsigned short u16;\n"
      "struct sb { u16 magic; };\n"
      "int f(struct sb *s) { return s->magic; }");
  ASSERT_TRUE(a.ok);
  const FunctionDecl* fn = a.tu->findFunction("f");
  const auto* ret = static_cast<const ReturnStmt*>(
      static_cast<const CompoundStmt*>(fn->body.get())->body.at(0).get());
  const ExprType& type = ret->value->sema_type;
  ASSERT_TRUE(type.resolved);
  EXPECT_EQ(type.base, BaseTypeKind::Short);
  EXPECT_TRUE(type.is_unsigned);
}

TEST(Sema, UndeclaredIdentifierIsOnlyAWarning) {
  const auto a = analyze("void f(void) { mystery = 1; }");
  EXPECT_TRUE(a.ok) << "unknown identifiers must not abort analysis of C-like code";
}

}  // namespace
}  // namespace fsdep::sema
