// Semantic analysis for the fsdep C subset: name resolution, member
// binding, enum-constant folding, and just enough type inference to know
// which struct a member access lands in. The results are written back into
// the AST (DeclRefExpr::decl, MemberExpr::field, Expr::sema_type, ...) so
// later passes — CFG construction, taint analysis, dependency extraction —
// can navigate the program semantically. Resolving allocates per
// declaration, never per expression: types live in the nodes and scopes
// are one flat stack.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/ast.h"
#include "support/diagnostics.h"

namespace fsdep::sema {

class Sema {
 public:
  Sema(ast::TranslationUnit& tu, DiagnosticEngine& diags);

  /// Runs all of sema over the translation unit. Returns false when hard
  /// errors were found (diags has details).
  bool run();

  /// Folds an integer-constant expression using enum values and literals.
  /// Returns nullopt when the expression is not constant.
  [[nodiscard]] std::optional<std::int64_t> foldConstant(const ast::Expr& expr) const;

  [[nodiscard]] const ast::RecordDecl* findRecord(std::string_view name) const;
  [[nodiscard]] const ast::FunctionDecl* findFunction(std::string_view name) const;

 private:
  void collectTopLevel();
  void resolveFunction(ast::FunctionDecl& fn);
  void resolveStmt(ast::Stmt& stmt, ast::FunctionDecl& fn);
  void resolveExpr(ast::Expr& expr);
  void openScope() { scope_starts_.push_back(scope_vars_.size()); }
  void closeScope();
  void declareVar(ast::VarDecl& var);
  [[nodiscard]] ast::VarDecl* lookupVar(const std::string& name) const;

  /// Computes the semantic type of `expr` once and stores it in the node.
  ast::ExprType computeType(ast::Expr& expr);
  [[nodiscard]] ast::ExprType resolveTypedefs(const ast::TypeSpec& type) const;

  ast::TranslationUnit& tu_;
  DiagnosticEngine& diags_;

  std::unordered_map<std::string, ast::RecordDecl*> records_;
  std::unordered_map<std::string, ast::EnumDecl*> enums_;
  std::unordered_map<std::string, std::int64_t> enum_constants_;
  std::unordered_map<std::string, ast::TypedefDecl*> typedefs_;
  std::unordered_map<std::string, ast::FunctionDecl*> functions_;
  std::unordered_map<std::string, ast::VarDecl*> globals_;
  /// Block scopes of the function being resolved, innermost last: the
  /// variables declared so far, and where each open scope starts.
  std::vector<ast::VarDecl*> scope_vars_;
  std::vector<std::size_t> scope_starts_;
};

}  // namespace fsdep::sema
