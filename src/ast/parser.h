// Recursive-descent parser for the fsdep C subset. Consumes the
// preprocessed token stream and builds a TranslationUnit.
//
// Error handling: the parser reports diagnostics and synchronizes at the
// next ';' or '}' so one bad declaration does not abort the whole file.
// Input nested deeper than kMaxNesting is the exception: it is reported
// once ("nesting too deep") and the rest of the unit is skipped.
//
// The parser copies every name and literal it keeps out of the token
// views, so the AST does not depend on the SourceManager the tokens view.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "lex/token.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace fsdep::ast {

class Parser {
 public:
  Parser(std::vector<lex::Token> tokens, DiagnosticEngine& diags);

  /// Parses a whole translation unit. Check `diags` for errors afterwards.
  std::unique_ptr<TranslationUnit> parseTranslationUnit(std::string name);

  /// Recursion budget shared by statements and expressions: a statement,
  /// an assignment, a conditional and a unary expression each take one
  /// level while they are parsed (a parenthesized expression takes
  /// three). It bounds the parser's stack and the AST's depth, and so the
  /// recursion of every pass over the AST (sema, CFG build, IR lowering,
  /// exprToString).
  static constexpr int kMaxNesting = 1000;

 private:
  /// Thrown when the nesting budget runs out; caught once per unit.
  struct NestingTooDeep {
    SourceLoc loc;
  };
  /// Holds one level of the nesting budget for its scope.
  class NestingGuard {
   public:
    explicit NestingGuard(Parser& parser);
    ~NestingGuard() { --parser_.depth_; }
    NestingGuard(const NestingGuard&) = delete;
    NestingGuard& operator=(const NestingGuard&) = delete;

   private:
    Parser& parser_;
  };

  // Token stream helpers.
  [[nodiscard]] const lex::Token& peek(std::size_t ahead = 0) const;
  const lex::Token& advance();
  [[nodiscard]] bool check(lex::TokenKind kind) const { return peek().kind == kind; }
  bool match(lex::TokenKind kind);
  const lex::Token& expect(lex::TokenKind kind, const char* context);
  /// The current token's text for a diagnostic ("eof" at the end).
  [[nodiscard]] std::string foundText() const;
  void synchronize();

  // Type parsing.
  [[nodiscard]] bool startsType() const;
  TypeSpec parseTypeSpec();
  void parseDeclaratorSuffix(TypeSpec& type);

  // Declarations.
  DeclPtr parseTopLevelDecl();
  DeclPtr parseRecordDecl(SourceLoc loc);
  DeclPtr parseEnumDecl(SourceLoc loc);
  DeclPtr parseTypedefDecl(SourceLoc loc);
  DeclPtr parseFunctionOrVarDecl(bool is_static);
  NodePtr<VarDecl> parseParamDecl();

  // Statements.
  StmtPtr parseStmt();
  StmtPtr parseCompoundStmt();
  StmtPtr parseIfStmt();
  StmtPtr parseWhileStmt();
  StmtPtr parseDoWhileStmt();
  StmtPtr parseForStmt();
  StmtPtr parseSwitchStmt();
  StmtPtr parseReturnStmt();
  NodePtr<DeclStmt> parseDeclStmt();

  // Expressions (precedence climbing).
  ExprPtr parseExpr();
  ExprPtr parseAssignment();
  ExprPtr parseConditional();
  ExprPtr parseBinary(int min_precedence);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  /// Allocates a node in the arena of the unit being parsed.
  template <typename T, typename... Args>
  NodePtr<T> node(Args&&... args) {
    return tu_->make<T>(std::forward<Args>(args)...);
  }

  std::vector<lex::Token> tokens_;
  std::size_t pos_ = 0;
  DiagnosticEngine& diags_;
  TextSet typedef_names_;
  lex::Token eof_;
  int depth_ = 0;  ///< nesting levels held by live NestingGuards
  TranslationUnit* tu_ = nullptr;  ///< unit under construction (node arena)
};

}  // namespace fsdep::ast
