#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ast/dump.h"
#include "ast/parser.h"
#include "lex/lexer.h"

namespace fsdep::ast {
namespace {

struct Parsed {
  std::unique_ptr<TranslationUnit> tu;
  bool had_errors = false;
};

Parsed parseText(const std::string& text) {
  static SourceManager sm;
  DiagnosticEngine diags;
  const FileId file = sm.addBuffer("test.c", text);
  lex::Lexer lexer(sm, file, diags);
  Parser parser(lexer.lexAll(), diags);
  Parsed result;
  result.tu = parser.parseTranslationUnit("test.c");
  result.had_errors = diags.hasErrors();
  return result;
}

const FunctionDecl* onlyFunction(const Parsed& p) {
  for (const DeclPtr& d : p.tu->decls) {
    if (d->kind() == DeclKind::Function) return static_cast<const FunctionDecl*>(d.get());
  }
  return nullptr;
}

TEST(Parser, GlobalVariable) {
  const auto p = parseText("int count = 42;");
  EXPECT_FALSE(p.had_errors);
  const VarDecl* var = static_cast<const VarDecl*>(p.tu->decls.at(0).get());
  EXPECT_EQ(var->name, "count");
  EXPECT_TRUE(var->is_global);
  ASSERT_NE(var->init, nullptr);
  EXPECT_EQ(exprToString(*var->init), "42");
}

TEST(Parser, FunctionWithParams) {
  const auto p = parseText("long add(long a, long b) { return a + b; }");
  EXPECT_FALSE(p.had_errors);
  const FunctionDecl* fn = onlyFunction(p);
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->name, "add");
  ASSERT_EQ(fn->params.size(), 2u);
  EXPECT_EQ(fn->params[0]->name, "a");
  EXPECT_TRUE(fn->params[0]->is_parameter);
  EXPECT_TRUE(fn->isDefinition());
}

TEST(Parser, Prototype) {
  const auto p = parseText("int getopt(int argc, char **argv, const char *optstring);");
  EXPECT_FALSE(p.had_errors);
  const FunctionDecl* fn = onlyFunction(p);
  ASSERT_NE(fn, nullptr);
  EXPECT_FALSE(fn->isDefinition());
  EXPECT_EQ(fn->params[1]->type.pointer_depth, 2);
}

TEST(Parser, VariadicFunction) {
  const auto p = parseText("int printf(const char *fmt, ...);");
  EXPECT_FALSE(p.had_errors);
  EXPECT_TRUE(onlyFunction(p)->is_variadic);
}

TEST(Parser, StructDefinition) {
  const auto p = parseText("struct sb { unsigned int blocks; unsigned short magic, state; char name[16]; };");
  EXPECT_FALSE(p.had_errors);
  const auto* record = static_cast<const RecordDecl*>(p.tu->decls.at(0).get());
  ASSERT_EQ(record->fields.size(), 4u);
  EXPECT_EQ(record->fields[0].name, "blocks");
  EXPECT_EQ(record->fields[1].name, "magic");
  EXPECT_EQ(record->fields[2].name, "state");
  EXPECT_TRUE(record->fields[3].type.is_array);
  EXPECT_EQ(record->fields[3].type.array_size, 16);
  EXPECT_NE(record->findField("magic"), nullptr);
  EXPECT_EQ(record->findField("missing"), nullptr);
}

TEST(Parser, EnumWithValues) {
  const auto p = parseText("enum flags { A = 1, B = 2, C = 4, D };");
  EXPECT_FALSE(p.had_errors);
  const auto* e = static_cast<const EnumDecl*>(p.tu->decls.at(0).get());
  ASSERT_EQ(e->enumerators.size(), 4u);
  EXPECT_EQ(e->enumerators[0].name, "A");
  ASSERT_NE(e->enumerators[2].value_expr, nullptr);
  EXPECT_EQ(e->enumerators[3].value_expr, nullptr);
}

TEST(Parser, TypedefIntroducesTypeName) {
  const auto p = parseText("typedef unsigned int u32;\nu32 counter = 0;");
  EXPECT_FALSE(p.had_errors);
  ASSERT_EQ(p.tu->decls.size(), 2u);
  const auto* var = static_cast<const VarDecl*>(p.tu->decls.at(1).get());
  EXPECT_EQ(var->type.base, BaseTypeKind::Typedef);
  EXPECT_EQ(var->type.name, "u32");
}

TEST(Parser, PrecedenceMultiplicationBeforeAddition) {
  const auto p = parseText("int x = 1 + 2 * 3;");
  const auto* var = static_cast<const VarDecl*>(p.tu->decls.at(0).get());
  EXPECT_EQ(exprToString(*var->init), "1 + (2 * 3)");
}

TEST(Parser, PrecedenceLogicalVsBitwise) {
  const auto p = parseText("int x = a & b && c | d;");
  const auto* var = static_cast<const VarDecl*>(p.tu->decls.at(0).get());
  EXPECT_EQ(exprToString(*var->init), "(a & b) && (c | d)");
}

TEST(Parser, PrecedenceShiftVsRelational) {
  const auto p = parseText("int x = a << 2 < b;");
  const auto* var = static_cast<const VarDecl*>(p.tu->decls.at(0).get());
  EXPECT_EQ(exprToString(*var->init), "(a << 2) < b");
}

TEST(Parser, AssignmentIsRightAssociative) {
  const auto p = parseText("void f(void) { a = b = c; }");
  EXPECT_FALSE(p.had_errors);
  const std::string dump = dumpDecl(*p.tu->decls.at(0));
  EXPECT_NE(dump.find("a = (b = c)"), std::string::npos);
}

TEST(Parser, ConditionalExpression) {
  const auto p = parseText("int x = a ? b : c ? d : e;");
  const auto* var = static_cast<const VarDecl*>(p.tu->decls.at(0).get());
  EXPECT_EQ(exprToString(*var->init), "a ? b : (c ? d : e)");
}

TEST(Parser, MemberAccessChains) {
  const auto p = parseText("void f(struct sb *s) { s->inner.count = 1; }");
  EXPECT_FALSE(p.had_errors);
  const std::string dump = dumpDecl(*p.tu->decls.at(0));
  EXPECT_NE(dump.find("s->inner.count = 1"), std::string::npos);
}

TEST(Parser, CallsAndIndexing) {
  const auto p = parseText("void f(void) { g(a, b[i], h()); }");
  EXPECT_FALSE(p.had_errors);
  const std::string dump = dumpDecl(*p.tu->decls.at(0));
  EXPECT_NE(dump.find("g(a, b[i], h())"), std::string::npos);
}

TEST(Parser, CastVsParenthesizedExpr) {
  const auto p = parseText("typedef unsigned int u32;\nvoid f(void) { long a = (u32)x; long b = (x) + 1; }");
  EXPECT_FALSE(p.had_errors);
  const std::string dump = dumpDecl(*p.tu->decls.at(1));
  EXPECT_NE(dump.find("(u32)x"), std::string::npos);
  EXPECT_NE(dump.find("x + 1"), std::string::npos);
}

TEST(Parser, SizeofBothForms) {
  const auto p = parseText("void f(void) { long a = sizeof(int); long b = sizeof(a); }");
  EXPECT_FALSE(p.had_errors);
  const std::string dump = dumpDecl(*p.tu->decls.at(0));
  EXPECT_NE(dump.find("sizeof(int)"), std::string::npos);
  EXPECT_NE(dump.find("sizeof(a)"), std::string::npos);
}

TEST(Parser, IfElseChain) {
  const auto p = parseText(
      "void f(int x) { if (x > 1) { g(); } else if (x < 0) h(); else { k(); } }");
  EXPECT_FALSE(p.had_errors);
  const std::string dump = dumpDecl(*p.tu->decls.at(0));
  EXPECT_NE(dump.find("IfStmt x > 1"), std::string::npos);
  EXPECT_NE(dump.find("IfStmt x < 0"), std::string::npos);
}

TEST(Parser, Loops) {
  const auto p = parseText(
      "void f(void) {\n"
      "  while (a) { a = a - 1; }\n"
      "  do { b = b + 1; } while (b < 10);\n"
      "  for (int i = 0; i < 4; i = i + 1) { work(i); }\n"
      "  for (;;) { break; }\n"
      "}");
  EXPECT_FALSE(p.had_errors);
  const std::string dump = dumpDecl(*p.tu->decls.at(0));
  EXPECT_NE(dump.find("WhileStmt a"), std::string::npos);
  EXPECT_NE(dump.find("DoWhileStmt b < 10"), std::string::npos);
  EXPECT_NE(dump.find("ForStmt cond=i < 4"), std::string::npos);
}

TEST(Parser, SwitchWithCasesAndDefault) {
  const auto p = parseText(
      "void f(int c) {\n"
      "  switch (c) {\n"
      "    case 'a': x = 1; break;\n"
      "    case 'b':\n"
      "    case 'c': x = 2; break;\n"
      "    default: usage(); break;\n"
      "  }\n"
      "}");
  EXPECT_FALSE(p.had_errors);
  const std::string dump = dumpDecl(*p.tu->decls.at(0));
  EXPECT_NE(dump.find("SwitchStmt c"), std::string::npos);
  EXPECT_NE(dump.find("Default"), std::string::npos);
}

TEST(Parser, MultipleDeclaratorsInOneStatement) {
  const auto p = parseText("void f(void) { int a = 1, b, *c; }");
  EXPECT_FALSE(p.had_errors);
  const std::string dump = dumpDecl(*p.tu->decls.at(0));
  EXPECT_NE(dump.find("VarDecl int a = 1"), std::string::npos);
  EXPECT_NE(dump.find("VarDecl int b"), std::string::npos);
  EXPECT_NE(dump.find("VarDecl int* c"), std::string::npos);
}

TEST(Parser, ErrorRecoveryContinuesAfterBadDecl) {
  const auto p = parseText("int good1;\n;;;garbage here!!!;\nint good2;");
  EXPECT_TRUE(p.had_errors);
  EXPECT_NE(p.tu->findGlobal("good1"), nullptr);
  EXPECT_NE(p.tu->findGlobal("good2"), nullptr);
}

TEST(Parser, GotoIsRejected) {
  const auto p = parseText("void f(void) { goto out; }");
  EXPECT_TRUE(p.had_errors);
}

TEST(Parser, FindFunctionPrefersDefinition) {
  const auto p = parseText("int f(void);\nint f(void) { return 1; }");
  EXPECT_FALSE(p.had_errors);
  const FunctionDecl* fn = p.tu->findFunction("f");
  ASSERT_NE(fn, nullptr);
  EXPECT_TRUE(fn->isDefinition());
}

TEST(Parser, AdjacentStringLiteralsConcatenate) {
  const auto p = parseText("void f(void) { g(\"abc\" \"def\"); }");
  EXPECT_FALSE(p.had_errors);
  const std::string dump = dumpDecl(*p.tu->decls.at(0));
  EXPECT_NE(dump.find("\"abcdef\""), std::string::npos);
}

/// Parses `text` and returns its diagnostics (the unit is dropped).
std::vector<Diagnostic> parseDiagnostics(const std::string& text) {
  SourceManager sm;
  DiagnosticEngine diags;
  const FileId file = sm.addBuffer("deep.c", text);
  lex::Lexer lexer(sm, file, diags);
  Parser parser(lexer.lexAll(), diags);
  (void)parser.parseTranslationUnit("deep.c");
  return diags.diagnostics();
}

TEST(Parser, NestingBeyondTheBudgetIsOneDiagnostic) {
  const int depth = 10000;
  const std::string inputs[] = {
      "int f(int a) { return " + std::string(depth, '(') + "a" + std::string(depth, ')') + "; }",
      "int f(int a) { return " + std::string(depth, '!') + "a; }",
      "void f(void) " + std::string(depth, '{') + std::string(depth, '}'),
      "void f(int a) { " + [] {
        std::string chain;
        for (int i = 0; i < depth; ++i) chain += "a = ";
        return chain;
      }() + "1; }",
  };
  for (const std::string& input : inputs) {
    const std::vector<Diagnostic> diags = parseDiagnostics(input + "\nint after;");
    ASSERT_EQ(diags.size(), 1u) << input.substr(0, 40);
    EXPECT_NE(diags[0].message.find("nesting too deep"), std::string::npos) << diags[0].message;
    EXPECT_EQ(diags[0].loc.line, 1u);
  }
}

TEST(Parser, NestingWithinTheBudgetParses) {
  // A parenthesized expression takes three levels (assignment,
  // conditional, unary); the function body's statement takes one more.
  const int parens = (Parser::kMaxNesting - 1) / 3 - 1;
  const auto p = parseText("int f(int a) { return " + std::string(parens, '(') + "a" +
                           std::string(parens, ')') + "; }");
  EXPECT_FALSE(p.had_errors);
  const std::vector<Diagnostic> over = parseDiagnostics(
      "int f(int a) { return " + std::string(parens + 1, '(') + "a" + std::string(parens + 1, ')') +
      "; }");
  ASSERT_EQ(over.size(), 1u);
  EXPECT_NE(over[0].message.find("nesting too deep"), std::string::npos);
}

}  // namespace
}  // namespace fsdep::ast
