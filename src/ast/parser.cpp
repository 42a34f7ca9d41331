#include "ast/parser.h"

#include <optional>

namespace fsdep::ast {

using lex::Token;
using lex::TokenKind;

Parser::Parser(std::vector<Token> tokens, DiagnosticEngine& diags)
    : tokens_(std::move(tokens)), diags_(diags) {
  eof_.kind = TokenKind::Eof;
  if (!tokens_.empty()) eof_.loc = tokens_.back().loc;
}

const Token& Parser::peek(std::size_t ahead) const {
  const std::size_t i = pos_ + ahead;
  return i < tokens_.size() ? tokens_[i] : eof_;
}

const Token& Parser::advance() {
  const Token& t = peek();
  if (pos_ < tokens_.size()) ++pos_;
  return t;
}

bool Parser::match(TokenKind kind) {
  if (!check(kind)) return false;
  advance();
  return true;
}

const Token& Parser::expect(TokenKind kind, const char* context) {
  if (check(kind)) return advance();
  diags_.error(peek().loc, std::string("expected '") + lex::tokenKindName(kind) + "' " + context +
                               ", found '" + foundText() + "'");
  return eof_;
}

std::string Parser::foundText() const {
  return peek().isEof() ? std::string("eof") : std::string(peek().text);
}

Parser::NestingGuard::NestingGuard(Parser& parser) : parser_(parser) {
  if (++parser_.depth_ > kMaxNesting) {
    --parser_.depth_;
    throw NestingTooDeep{parser_.peek().loc};
  }
}

void Parser::synchronize() {
  int brace_depth = 0;
  while (!peek().isEof()) {
    const TokenKind k = peek().kind;
    if (k == TokenKind::LBrace) ++brace_depth;
    if (k == TokenKind::RBrace) {
      if (brace_depth == 0) {
        advance();
        return;
      }
      --brace_depth;
    }
    if (k == TokenKind::Semicolon && brace_depth == 0) {
      advance();
      return;
    }
    advance();
  }
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

bool Parser::startsType() const {
  switch (peek().kind) {
    case TokenKind::KwVoid:
    case TokenKind::KwChar:
    case TokenKind::KwShort:
    case TokenKind::KwInt:
    case TokenKind::KwLong:
    case TokenKind::KwSigned:
    case TokenKind::KwUnsigned:
    case TokenKind::KwStruct:
    case TokenKind::KwEnum:
    case TokenKind::KwConst:
      return true;
    case TokenKind::Identifier:
      return typedef_names_.contains(peek().text);
    default:
      return false;
  }
}

TypeSpec Parser::parseTypeSpec() {
  TypeSpec type;
  bool saw_base = false;
  bool saw_long = false;

  while (true) {
    switch (peek().kind) {
      case TokenKind::KwConst:
        advance();
        type.is_const = true;
        continue;
      case TokenKind::KwSigned:
        advance();
        continue;
      case TokenKind::KwUnsigned:
        advance();
        type.is_unsigned = true;
        if (!saw_base) type.base = BaseTypeKind::Int;
        saw_base = true;
        continue;
      case TokenKind::KwVoid:
        advance();
        type.base = BaseTypeKind::Void;
        saw_base = true;
        continue;
      case TokenKind::KwChar:
        advance();
        type.base = BaseTypeKind::Char;
        saw_base = true;
        continue;
      case TokenKind::KwShort:
        advance();
        type.base = BaseTypeKind::Short;
        saw_base = true;
        continue;
      case TokenKind::KwInt:
        advance();
        if (!saw_long) type.base = BaseTypeKind::Int;
        saw_base = true;
        continue;
      case TokenKind::KwLong:
        advance();
        type.base = saw_long ? BaseTypeKind::LongLong : BaseTypeKind::Long;
        saw_long = true;
        saw_base = true;
        continue;
      case TokenKind::KwStruct: {
        advance();
        type.base = BaseTypeKind::Struct;
        type.name = expect(TokenKind::Identifier, "after 'struct'").text;
        saw_base = true;
        continue;
      }
      case TokenKind::KwEnum: {
        advance();
        type.base = BaseTypeKind::Enum;
        type.name = expect(TokenKind::Identifier, "after 'enum'").text;
        saw_base = true;
        continue;
      }
      case TokenKind::Identifier:
        if (!saw_base && typedef_names_.contains(peek().text)) {
          type.base = BaseTypeKind::Typedef;
          type.name = advance().text;
          saw_base = true;
          continue;
        }
        break;
      default:
        break;
    }
    break;
  }

  while (match(TokenKind::Star)) {
    ++type.pointer_depth;
    while (match(TokenKind::KwConst)) type.is_const = true;
  }
  return type;
}

void Parser::parseDeclaratorSuffix(TypeSpec& type) {
  if (match(TokenKind::LBracket)) {
    type.is_array = true;
    if (check(TokenKind::IntLiteral)) {
      type.array_size = advance().int_value;
    }
    expect(TokenKind::RBracket, "to close array declarator");
  }
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

std::unique_ptr<TranslationUnit> Parser::parseTranslationUnit(std::string name) {
  auto tu = std::make_unique<TranslationUnit>();
  tu_ = tu.get();
  tu->name = std::move(name);
  try {
    while (!peek().isEof()) {
      DeclPtr decl = parseTopLevelDecl();
      if (decl != nullptr) tu->decls.push_back(std::move(decl));
    }
  } catch (const NestingTooDeep& e) {
    diags_.error(e.loc, "nesting too deep: more than " + std::to_string(kMaxNesting) +
                            " levels of statements and expressions");
  }
  return tu;
}

DeclPtr Parser::parseTopLevelDecl() {
  const SourceLoc loc = peek().loc;

  if (match(TokenKind::KwTypedef)) return parseTypedefDecl(loc);
  if (check(TokenKind::KwStruct) && peek(1).is(TokenKind::Identifier) &&
      peek(2).is(TokenKind::LBrace)) {
    return parseRecordDecl(loc);
  }
  if (check(TokenKind::KwEnum) &&
      ((peek(1).is(TokenKind::Identifier) && peek(2).is(TokenKind::LBrace)) ||
       peek(1).is(TokenKind::LBrace))) {
    return parseEnumDecl(loc);
  }
  if (match(TokenKind::KwExtern)) {
    // extern declarations: parse and drop the body-less decl.
    TypeSpec type = parseTypeSpec();
    (void)type;
    while (!peek().isEof() && !check(TokenKind::Semicolon)) advance();
    expect(TokenKind::Semicolon, "after extern declaration");
    return nullptr;
  }
  bool is_static = match(TokenKind::KwStatic);
  if (!startsType()) {
    diags_.error(loc, "expected a declaration, found '" + foundText() + "'");
    synchronize();
    return nullptr;
  }
  return parseFunctionOrVarDecl(is_static);
}

DeclPtr Parser::parseRecordDecl(SourceLoc loc) {
  expect(TokenKind::KwStruct, "at struct definition");
  auto record = node<RecordDecl>();
  record->loc = loc;
  record->name = expect(TokenKind::Identifier, "as struct name").text;
  expect(TokenKind::LBrace, "to open struct body");
  while (!check(TokenKind::RBrace) && !peek().isEof()) {
    FieldDecl field;
    field.loc = peek().loc;
    field.type = parseTypeSpec();
    field.name = expect(TokenKind::Identifier, "as field name").text;
    parseDeclaratorSuffix(field.type);
    record->fields.push_back(std::move(field));
    // Additional declarators share the base type: "u32 a, b;".
    while (match(TokenKind::Comma)) {
      FieldDecl more;
      more.loc = peek().loc;
      more.type = record->fields.back().type;
      more.type.is_array = false;
      more.type.array_size = 0;
      while (match(TokenKind::Star)) ++more.type.pointer_depth;
      more.name = expect(TokenKind::Identifier, "as field name").text;
      parseDeclaratorSuffix(more.type);
      record->fields.push_back(std::move(more));
    }
    expect(TokenKind::Semicolon, "after struct field");
  }
  expect(TokenKind::RBrace, "to close struct body");
  expect(TokenKind::Semicolon, "after struct definition");
  return record;
}

DeclPtr Parser::parseEnumDecl(SourceLoc loc) {
  expect(TokenKind::KwEnum, "at enum definition");
  auto decl = node<EnumDecl>();
  decl->loc = loc;
  if (check(TokenKind::Identifier)) decl->name = advance().text;
  expect(TokenKind::LBrace, "to open enum body");
  while (!check(TokenKind::RBrace) && !peek().isEof()) {
    Enumerator e;
    e.loc = peek().loc;
    e.name = expect(TokenKind::Identifier, "as enumerator name").text;
    if (match(TokenKind::Assign)) e.value_expr = parseConditional();
    decl->enumerators.push_back(std::move(e));
    if (!match(TokenKind::Comma)) break;
  }
  expect(TokenKind::RBrace, "to close enum body");
  expect(TokenKind::Semicolon, "after enum definition");
  return decl;
}

DeclPtr Parser::parseTypedefDecl(SourceLoc loc) {
  auto decl = node<TypedefDecl>();
  decl->loc = loc;
  decl->underlying = parseTypeSpec();
  decl->name = expect(TokenKind::Identifier, "as typedef name").text;
  parseDeclaratorSuffix(decl->underlying);
  expect(TokenKind::Semicolon, "after typedef");
  typedef_names_.insert(decl->name);
  return decl;
}

DeclPtr Parser::parseFunctionOrVarDecl(bool is_static) {
  const SourceLoc loc = peek().loc;
  TypeSpec type = parseTypeSpec();
  const std::string name(expect(TokenKind::Identifier, "as declaration name").text);

  if (check(TokenKind::LParen)) {
    auto fn = node<FunctionDecl>();
    fn->loc = loc;
    fn->name = name;
    fn->return_type = std::move(type);
    fn->is_static = is_static;
    expect(TokenKind::LParen, "to open parameter list");
    if (!check(TokenKind::RParen)) {
      if (check(TokenKind::KwVoid) && peek(1).is(TokenKind::RParen)) {
        advance();  // (void)
      } else {
        while (true) {
          if (match(TokenKind::Ellipsis)) {
            fn->is_variadic = true;
            break;
          }
          fn->params.push_back(parseParamDecl());
          if (!match(TokenKind::Comma)) break;
        }
      }
    }
    expect(TokenKind::RParen, "to close parameter list");
    if (match(TokenKind::Semicolon)) return fn;  // prototype
    fn->body = parseCompoundStmt();
    for (auto& p : fn->params) p->owner = fn.get();
    return fn;
  }

  // Global variable(s). Only the first declarator becomes the returned decl;
  // extra comma declarators are rare at file scope in the corpus.
  auto var = node<VarDecl>();
  var->loc = loc;
  var->name = name;
  var->type = std::move(type);
  var->is_global = true;
  var->is_static = is_static;
  parseDeclaratorSuffix(var->type);
  if (match(TokenKind::Assign)) {
    var->init = check(TokenKind::LBrace) ? parsePrimary() : parseAssignment();
  }
  expect(TokenKind::Semicolon, "after global variable");
  return var;
}

NodePtr<VarDecl> Parser::parseParamDecl() {
  auto param = node<VarDecl>();
  param->loc = peek().loc;
  param->is_parameter = true;
  param->type = parseTypeSpec();
  if (check(TokenKind::Identifier)) param->name = advance().text;
  parseDeclaratorSuffix(param->type);
  return param;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

StmtPtr Parser::parseCompoundStmt() {
  auto compound = node<CompoundStmt>();
  compound->loc = peek().loc;
  expect(TokenKind::LBrace, "to open block");
  while (!check(TokenKind::RBrace) && !peek().isEof()) {
    StmtPtr s = parseStmt();
    if (s != nullptr) compound->body.push_back(std::move(s));
  }
  expect(TokenKind::RBrace, "to close block");
  return compound;
}

StmtPtr Parser::parseStmt() {
  const NestingGuard guard(*this);
  const SourceLoc loc = peek().loc;
  switch (peek().kind) {
    case TokenKind::LBrace: return parseCompoundStmt();
    case TokenKind::KwIf: return parseIfStmt();
    case TokenKind::KwWhile: return parseWhileStmt();
    case TokenKind::KwDo: return parseDoWhileStmt();
    case TokenKind::KwFor: return parseForStmt();
    case TokenKind::KwSwitch: return parseSwitchStmt();
    case TokenKind::KwReturn: return parseReturnStmt();
    case TokenKind::KwBreak: {
      advance();
      expect(TokenKind::Semicolon, "after 'break'");
      auto s = node<BreakStmt>();
      s->loc = loc;
      return s;
    }
    case TokenKind::KwContinue: {
      advance();
      expect(TokenKind::Semicolon, "after 'continue'");
      auto s = node<ContinueStmt>();
      s->loc = loc;
      return s;
    }
    case TokenKind::Semicolon: {
      advance();
      auto s = node<NullStmt>();
      s->loc = loc;
      return s;
    }
    case TokenKind::KwGoto:
      diags_.error(loc, "'goto' is not supported by the fsdep C subset");
      synchronize();
      return nullptr;
    default:
      break;
  }

  if (startsType() && !(check(TokenKind::Identifier) && peek(1).is(TokenKind::LParen))) {
    return parseDeclStmt();
  }

  auto s = node<ExprStmt>(parseExpr());
  s->loc = loc;
  expect(TokenKind::Semicolon, "after expression statement");
  return s;
}

NodePtr<DeclStmt> Parser::parseDeclStmt() {
  auto stmt = node<DeclStmt>();
  stmt->loc = peek().loc;
  const TypeSpec base = parseTypeSpec();
  while (true) {
    auto var = node<VarDecl>();
    var->loc = peek().loc;
    var->type = base;
    if (stmt->vars.empty()) {
      // First declarator already consumed pointer stars in parseTypeSpec.
    } else {
      var->type.pointer_depth = 0;
      while (match(TokenKind::Star)) ++var->type.pointer_depth;
    }
    var->name = expect(TokenKind::Identifier, "as variable name").text;
    parseDeclaratorSuffix(var->type);
    if (match(TokenKind::Assign)) {
      var->init = check(TokenKind::LBrace) ? parsePrimary() : parseAssignment();
    }
    stmt->vars.push_back(std::move(var));
    if (!match(TokenKind::Comma)) break;
  }
  expect(TokenKind::Semicolon, "after declaration");
  return stmt;
}

StmtPtr Parser::parseIfStmt() {
  auto stmt = node<IfStmt>();
  stmt->loc = peek().loc;
  expect(TokenKind::KwIf, "at if statement");
  expect(TokenKind::LParen, "after 'if'");
  stmt->cond = parseExpr();
  expect(TokenKind::RParen, "to close if condition");
  stmt->then_stmt = parseStmt();
  if (match(TokenKind::KwElse)) stmt->else_stmt = parseStmt();
  return stmt;
}

StmtPtr Parser::parseWhileStmt() {
  auto stmt = node<WhileStmt>();
  stmt->loc = peek().loc;
  expect(TokenKind::KwWhile, "at while statement");
  expect(TokenKind::LParen, "after 'while'");
  stmt->cond = parseExpr();
  expect(TokenKind::RParen, "to close while condition");
  stmt->body = parseStmt();
  return stmt;
}

StmtPtr Parser::parseDoWhileStmt() {
  auto stmt = node<DoWhileStmt>();
  stmt->loc = peek().loc;
  expect(TokenKind::KwDo, "at do statement");
  stmt->body = parseStmt();
  expect(TokenKind::KwWhile, "after do body");
  expect(TokenKind::LParen, "after 'while'");
  stmt->cond = parseExpr();
  expect(TokenKind::RParen, "to close do-while condition");
  expect(TokenKind::Semicolon, "after do-while");
  return stmt;
}

StmtPtr Parser::parseForStmt() {
  auto stmt = node<ForStmt>();
  stmt->loc = peek().loc;
  expect(TokenKind::KwFor, "at for statement");
  expect(TokenKind::LParen, "after 'for'");
  if (!match(TokenKind::Semicolon)) {
    if (startsType()) {
      stmt->init = parseDeclStmt();
    } else {
      auto init = node<ExprStmt>(parseExpr());
      init->loc = stmt->loc;
      stmt->init = std::move(init);
      expect(TokenKind::Semicolon, "after for-init");
    }
  }
  if (!check(TokenKind::Semicolon)) stmt->cond = parseExpr();
  expect(TokenKind::Semicolon, "after for-condition");
  if (!check(TokenKind::RParen)) stmt->inc = parseExpr();
  expect(TokenKind::RParen, "to close for header");
  stmt->body = parseStmt();
  return stmt;
}

StmtPtr Parser::parseSwitchStmt() {
  auto stmt = node<SwitchStmt>();
  stmt->loc = peek().loc;
  expect(TokenKind::KwSwitch, "at switch statement");
  expect(TokenKind::LParen, "after 'switch'");
  stmt->cond = parseExpr();
  expect(TokenKind::RParen, "to close switch condition");
  expect(TokenKind::LBrace, "to open switch body");
  while (!check(TokenKind::RBrace) && !peek().isEof()) {
    auto case_stmt = node<CaseStmt>();
    case_stmt->loc = peek().loc;
    if (match(TokenKind::KwCase)) {
      case_stmt->value = parseConditional();
      expect(TokenKind::Colon, "after case value");
    } else if (match(TokenKind::KwDefault)) {
      case_stmt->is_default = true;
      expect(TokenKind::Colon, "after 'default'");
    } else {
      diags_.error(peek().loc, "expected 'case' or 'default' in switch body");
      synchronize();
      break;
    }
    while (!check(TokenKind::KwCase) && !check(TokenKind::KwDefault) &&
           !check(TokenKind::RBrace) && !peek().isEof()) {
      StmtPtr s = parseStmt();
      if (s != nullptr) case_stmt->body.push_back(std::move(s));
    }
    stmt->cases.push_back(std::move(case_stmt));
  }
  expect(TokenKind::RBrace, "to close switch body");
  return stmt;
}

StmtPtr Parser::parseReturnStmt() {
  auto stmt = node<ReturnStmt>();
  stmt->loc = peek().loc;
  expect(TokenKind::KwReturn, "at return statement");
  if (!check(TokenKind::Semicolon)) stmt->value = parseExpr();
  expect(TokenKind::Semicolon, "after return");
  return stmt;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

ExprPtr Parser::parseExpr() { return parseAssignment(); }

ExprPtr Parser::parseAssignment() {
  const NestingGuard guard(*this);
  ExprPtr lhs = parseConditional();
  BinaryOp op;
  switch (peek().kind) {
    case TokenKind::Assign: op = BinaryOp::Assign; break;
    case TokenKind::PlusAssign: op = BinaryOp::AddAssign; break;
    case TokenKind::MinusAssign: op = BinaryOp::SubAssign; break;
    case TokenKind::StarAssign: op = BinaryOp::MulAssign; break;
    case TokenKind::SlashAssign: op = BinaryOp::DivAssign; break;
    case TokenKind::PercentAssign: op = BinaryOp::RemAssign; break;
    case TokenKind::AmpAssign: op = BinaryOp::AndAssign; break;
    case TokenKind::PipeAssign: op = BinaryOp::OrAssign; break;
    case TokenKind::CaretAssign: op = BinaryOp::XorAssign; break;
    case TokenKind::ShlAssign: op = BinaryOp::ShlAssign; break;
    case TokenKind::ShrAssign: op = BinaryOp::ShrAssign; break;
    default: return lhs;
  }
  const SourceLoc loc = advance().loc;
  ExprPtr rhs = parseAssignment();  // right associative
  auto e = node<BinaryExpr>(op, std::move(lhs), std::move(rhs));
  e->loc = loc;
  return e;
}

ExprPtr Parser::parseConditional() {
  const NestingGuard guard(*this);
  ExprPtr cond = parseBinary(0);
  if (!check(TokenKind::Question)) return cond;
  const SourceLoc loc = advance().loc;
  ExprPtr then_expr = parseExpr();
  expect(TokenKind::Colon, "in conditional expression");
  ExprPtr else_expr = parseConditional();
  auto e = node<ConditionalExpr>(std::move(cond), std::move(then_expr), std::move(else_expr));
  e->loc = loc;
  return e;
}

namespace {

struct BinOpInfo {
  BinaryOp op;
  int precedence;
};

// Higher number binds tighter. Mirrors C except the comma operator, which
// the subset omits.
std::optional<BinOpInfo> binOpFor(TokenKind kind) {
  switch (kind) {
    case TokenKind::PipePipe: return BinOpInfo{BinaryOp::LogicalOr, 1};
    case TokenKind::AmpAmp: return BinOpInfo{BinaryOp::LogicalAnd, 2};
    case TokenKind::Pipe: return BinOpInfo{BinaryOp::BitOr, 3};
    case TokenKind::Caret: return BinOpInfo{BinaryOp::BitXor, 4};
    case TokenKind::Amp: return BinOpInfo{BinaryOp::BitAnd, 5};
    case TokenKind::EqualEqual: return BinOpInfo{BinaryOp::Eq, 6};
    case TokenKind::BangEqual: return BinOpInfo{BinaryOp::Ne, 6};
    case TokenKind::Less: return BinOpInfo{BinaryOp::Lt, 7};
    case TokenKind::LessEqual: return BinOpInfo{BinaryOp::Le, 7};
    case TokenKind::Greater: return BinOpInfo{BinaryOp::Gt, 7};
    case TokenKind::GreaterEqual: return BinOpInfo{BinaryOp::Ge, 7};
    case TokenKind::Shl: return BinOpInfo{BinaryOp::Shl, 8};
    case TokenKind::Shr: return BinOpInfo{BinaryOp::Shr, 8};
    case TokenKind::Plus: return BinOpInfo{BinaryOp::Add, 9};
    case TokenKind::Minus: return BinOpInfo{BinaryOp::Sub, 9};
    case TokenKind::Star: return BinOpInfo{BinaryOp::Mul, 10};
    case TokenKind::Slash: return BinOpInfo{BinaryOp::Div, 10};
    case TokenKind::Percent: return BinOpInfo{BinaryOp::Rem, 10};
    default: return std::nullopt;
  }
}

}  // namespace

ExprPtr Parser::parseBinary(int min_precedence) {
  ExprPtr lhs = parseUnary();
  while (true) {
    const auto info = binOpFor(peek().kind);
    if (!info || info->precedence < min_precedence) return lhs;
    const SourceLoc loc = advance().loc;
    ExprPtr rhs = parseBinary(info->precedence + 1);
    auto e = node<BinaryExpr>(info->op, std::move(lhs), std::move(rhs));
    e->loc = loc;
    lhs = std::move(e);
  }
}

ExprPtr Parser::parseUnary() {
  const NestingGuard guard(*this);
  const SourceLoc loc = peek().loc;
  UnaryOp op;
  switch (peek().kind) {
    case TokenKind::Plus: op = UnaryOp::Plus; break;
    case TokenKind::Minus: op = UnaryOp::Minus; break;
    case TokenKind::Bang: op = UnaryOp::Not; break;
    case TokenKind::Tilde: op = UnaryOp::BitNot; break;
    case TokenKind::Star: op = UnaryOp::Deref; break;
    case TokenKind::Amp: op = UnaryOp::AddrOf; break;
    case TokenKind::PlusPlus: op = UnaryOp::PreInc; break;
    case TokenKind::MinusMinus: op = UnaryOp::PreDec; break;
    case TokenKind::KwSizeof: {
      advance();
      if (check(TokenKind::LParen) && pos_ + 1 < tokens_.size()) {
        // sizeof(type) vs sizeof(expr): look at the token after '('.
        const std::size_t save = pos_;
        advance();
        if (startsType()) {
          TypeSpec type = parseTypeSpec();
          expect(TokenKind::RParen, "to close sizeof");
          auto e = node<SizeofTypeExpr>(std::move(type));
          e->loc = loc;
          return e;
        }
        pos_ = save;
      }
      ExprPtr operand = parseUnary();
      auto e = node<UnaryExpr>(UnaryOp::SizeofExpr, std::move(operand));
      e->loc = loc;
      return e;
    }
    case TokenKind::LParen:
      // Cast vs parenthesized expression.
      if (pos_ + 1 < tokens_.size()) {
        const std::size_t save = pos_;
        advance();
        if (startsType()) {
          TypeSpec type = parseTypeSpec();
          if (check(TokenKind::RParen)) {
            advance();
            ExprPtr operand = parseUnary();
            auto e = node<CastExpr>(std::move(type), std::move(operand));
            e->loc = loc;
            return e;
          }
        }
        pos_ = save;
      }
      return parsePostfix();
    default:
      return parsePostfix();
  }
  advance();
  ExprPtr operand = parseUnary();
  auto e = node<UnaryExpr>(op, std::move(operand));
  e->loc = loc;
  return e;
}

ExprPtr Parser::parsePostfix() {
  ExprPtr expr = parsePrimary();
  while (true) {
    const SourceLoc loc = peek().loc;
    if (match(TokenKind::LParen)) {
      std::string callee;
      if (expr->kind() == ExprKind::DeclRef) {
        callee = static_cast<DeclRefExpr*>(expr.get())->name;
      } else {
        diags_.error(loc, "indirect calls are not supported by the fsdep C subset");
      }
      std::vector<ExprPtr> args;
      if (!check(TokenKind::RParen)) {
        do {
          args.push_back(parseAssignment());
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "to close call");
      auto call = node<CallExpr>(std::move(callee), std::move(args));
      call->loc = loc;
      expr = std::move(call);
    } else if (match(TokenKind::LBracket)) {
      ExprPtr index = parseExpr();
      expect(TokenKind::RBracket, "to close subscript");
      auto e = node<IndexExpr>(std::move(expr), std::move(index));
      e->loc = loc;
      expr = std::move(e);
    } else if (check(TokenKind::Dot) || check(TokenKind::Arrow)) {
      const bool is_arrow = advance().kind == TokenKind::Arrow;
      std::string member(expect(TokenKind::Identifier, "as member name").text);
      auto e = node<MemberExpr>(std::move(expr), std::move(member), is_arrow);
      e->loc = loc;
      expr = std::move(e);
    } else if (check(TokenKind::PlusPlus) || check(TokenKind::MinusMinus)) {
      const UnaryOp op = advance().kind == TokenKind::PlusPlus ? UnaryOp::PostInc : UnaryOp::PostDec;
      auto e = node<UnaryExpr>(op, std::move(expr));
      e->loc = loc;
      expr = std::move(e);
    } else {
      return expr;
    }
  }
}

ExprPtr Parser::parsePrimary() {
  const SourceLoc loc = peek().loc;
  switch (peek().kind) {
    case TokenKind::IntLiteral:
    case TokenKind::CharLiteral: {
      const Token& t = advance();
      auto e = node<IntLiteralExpr>(t.int_value);
      e->loc = loc;
      return e;
    }
    case TokenKind::StringLiteral: {
      std::string value(advance().text);
      // Adjacent string literal concatenation.
      while (check(TokenKind::StringLiteral)) value += advance().text;
      auto e = node<StringLiteralExpr>(std::move(value));
      e->loc = loc;
      return e;
    }
    case TokenKind::Identifier: {
      auto e = node<DeclRefExpr>(std::string(advance().text));
      e->loc = loc;
      return e;
    }
    case TokenKind::LParen: {
      advance();
      ExprPtr inner = parseExpr();
      expect(TokenKind::RParen, "to close parenthesized expression");
      return inner;
    }
    case TokenKind::LBrace: {
      advance();
      std::vector<ExprPtr> elements;
      if (!check(TokenKind::RBrace)) {
        do {
          if (check(TokenKind::RBrace)) break;  // trailing comma
          elements.push_back(parseAssignment());
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RBrace, "to close initializer list");
      auto e = node<InitListExpr>(std::move(elements));
      e->loc = loc;
      return e;
    }
    default: {
      diags_.error(loc, "expected an expression, found '" + foundText() + "'");
      advance();
      auto e = node<IntLiteralExpr>(0);
      e->loc = loc;
      return e;
    }
  }
}

}  // namespace fsdep::ast
