// Abstract syntax tree for the fsdep C subset.
//
// Ownership: node *storage* lives in the TranslationUnit's arena; node
// *lifetime* is owned by the parent through ArenaPtr (a unique_ptr whose
// deleter runs the destructor but returns no memory). Freeing a whole TU
// is one arena teardown instead of a pointer-chasing delete cascade, and
// parsing allocates by bumping a pointer. Cross references
// (DeclRef -> VarDecl, Member -> FieldDecl) are non-owning raw pointers
// filled in by sema.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/arena.h"
#include "support/source_location.h"

namespace fsdep::ast {

class Expr;
class Stmt;
class FunctionDecl;
class RecordDecl;
struct FieldDecl;
class VarDecl;

// ---------------------------------------------------------------------------
// Syntactic types
// ---------------------------------------------------------------------------

enum class BaseTypeKind : std::uint8_t {
  Void, Char, Short, Int, Long, LongLong,
  Struct,   ///< struct `name`
  Enum,     ///< enum `name`
  Typedef,  ///< typedef `name`
};

/// A syntactic type: base kind + signedness + pointer depth + array bound.
/// Good enough for the subset (no function pointers, no multi-dim arrays).
struct TypeSpec {
  BaseTypeKind base = BaseTypeKind::Int;
  bool is_unsigned = false;
  bool is_const = false;
  std::string name;          ///< for Struct/Enum/Typedef
  int pointer_depth = 0;
  bool is_array = false;
  std::int64_t array_size = 0;  ///< 0 for unsized arrays

  [[nodiscard]] std::string spelling() const;
};

/// An expression's type as sema resolved it: a TypeSpec with typedefs
/// flattened away, written into the node (like DeclRefExpr::decl) in 24
/// bytes. It owns nothing: `name` points at the TypeSpec::name it was
/// resolved from, which the translation unit keeps alive.
struct ExprType {
  const std::string* name = nullptr;  ///< null for types sema built itself
  std::int64_t array_size = 0;
  std::int32_t pointer_depth = 0;
  BaseTypeKind base = BaseTypeKind::Int;
  bool is_unsigned : 1 = false;
  bool is_const : 1 = false;
  bool is_array : 1 = false;
  bool resolved : 1 = false;  ///< set once sema has typed the expression
};
static_assert(sizeof(ExprType) == 24);

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : std::uint8_t {
  IntLiteral, StringLiteral, DeclRef, Unary, Binary, Conditional,
  Call, Member, Index, Cast, SizeofType, InitList,
};

enum class UnaryOp : std::uint8_t {
  Plus, Minus, Not, BitNot, Deref, AddrOf, PreInc, PreDec, PostInc, PostDec, SizeofExpr,
};

enum class BinaryOp : std::uint8_t {
  Add, Sub, Mul, Div, Rem,
  Shl, Shr, BitAnd, BitOr, BitXor,
  LogicalAnd, LogicalOr,
  Lt, Le, Gt, Ge, Eq, Ne,
  Assign, AddAssign, SubAssign, MulAssign, DivAssign, RemAssign,
  AndAssign, OrAssign, XorAssign, ShlAssign, ShrAssign,
};

[[nodiscard]] bool isAssignment(BinaryOp op);
[[nodiscard]] bool isComparison(BinaryOp op);
const char* unaryOpSpelling(UnaryOp op);
const char* binaryOpSpelling(BinaryOp op);

class Expr {
 public:
  virtual ~Expr() = default;
  [[nodiscard]] ExprKind kind() const { return kind_; }
  SourceLoc loc;
  /// Filled by sema.
  ExprType sema_type;

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}

 private:
  ExprKind kind_;
};

/// Owning pointer to an arena-backed AST node. The owning
/// TranslationUnit's arena must outlive the pointer.
template <typename T>
using NodePtr = fsdep::ArenaPtr<T>;

using ExprPtr = NodePtr<Expr>;

class IntLiteralExpr final : public Expr {
 public:
  explicit IntLiteralExpr(std::int64_t value) : Expr(ExprKind::IntLiteral), value(value) {}
  std::int64_t value;
};

class StringLiteralExpr final : public Expr {
 public:
  explicit StringLiteralExpr(std::string value)
      : Expr(ExprKind::StringLiteral), value(std::move(value)) {}
  std::string value;
};

class DeclRefExpr final : public Expr {
 public:
  explicit DeclRefExpr(std::string name) : Expr(ExprKind::DeclRef), name(std::move(name)) {}
  std::string name;
  /// Filled by sema: the variable this name resolves to (null for enum
  /// constants and function names).
  const VarDecl* decl = nullptr;
  /// Filled by sema when the name is an enumerator: its constant value.
  bool is_enum_constant = false;
  std::int64_t enum_value = 0;
};

class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expr(ExprKind::Unary), op(op), operand(std::move(operand)) {}
  UnaryOp op;
  ExprPtr operand;
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::Binary), op(op), lhs(std::move(lhs)), rhs(std::move(rhs)) {}
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

class ConditionalExpr final : public Expr {
 public:
  ConditionalExpr(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr)
      : Expr(ExprKind::Conditional),
        cond(std::move(cond)),
        then_expr(std::move(then_expr)),
        else_expr(std::move(else_expr)) {}
  ExprPtr cond;
  ExprPtr then_expr;
  ExprPtr else_expr;
};

class CallExpr final : public Expr {
 public:
  CallExpr(std::string callee, std::vector<ExprPtr> args)
      : Expr(ExprKind::Call), callee(std::move(callee)), args(std::move(args)) {}
  std::string callee;
  std::vector<ExprPtr> args;
  /// Filled by sema when the callee is defined in the same translation unit.
  const FunctionDecl* callee_decl = nullptr;
};

class MemberExpr final : public Expr {
 public:
  MemberExpr(ExprPtr base, std::string member, bool is_arrow)
      : Expr(ExprKind::Member), base(std::move(base)), member(std::move(member)), is_arrow(is_arrow) {}
  ExprPtr base;
  std::string member;
  bool is_arrow;
  /// Filled by sema.
  const RecordDecl* record = nullptr;
  const FieldDecl* field = nullptr;
};

class IndexExpr final : public Expr {
 public:
  IndexExpr(ExprPtr base, ExprPtr index)
      : Expr(ExprKind::Index), base(std::move(base)), index(std::move(index)) {}
  ExprPtr base;
  ExprPtr index;
};

class CastExpr final : public Expr {
 public:
  CastExpr(TypeSpec type, ExprPtr operand)
      : Expr(ExprKind::Cast), type(std::move(type)), operand(std::move(operand)) {}
  TypeSpec type;
  ExprPtr operand;
};

class SizeofTypeExpr final : public Expr {
 public:
  explicit SizeofTypeExpr(TypeSpec type) : Expr(ExprKind::SizeofType), type(std::move(type)) {}
  TypeSpec type;
};

class InitListExpr final : public Expr {
 public:
  explicit InitListExpr(std::vector<ExprPtr> elements)
      : Expr(ExprKind::InitList), elements(std::move(elements)) {}
  std::vector<ExprPtr> elements;
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

enum class DeclKind : std::uint8_t { Var, Function, Record, Enum, Typedef };

class Decl {
 public:
  virtual ~Decl() = default;
  [[nodiscard]] DeclKind kind() const { return kind_; }
  std::string name;
  SourceLoc loc;

 protected:
  explicit Decl(DeclKind kind) : kind_(kind) {}

 private:
  DeclKind kind_;
};

using DeclPtr = NodePtr<Decl>;

class VarDecl final : public Decl {
 public:
  VarDecl() : Decl(DeclKind::Var) {}
  TypeSpec type;
  ExprPtr init;                 ///< may be null
  bool is_parameter = false;
  bool is_global = false;
  bool is_static = false;
  const FunctionDecl* owner = nullptr;  ///< enclosing function, null for globals
};

struct FieldDecl {
  std::string name;
  TypeSpec type;
  SourceLoc loc;
};

class RecordDecl final : public Decl {
 public:
  RecordDecl() : Decl(DeclKind::Record) {}
  std::vector<FieldDecl> fields;
  [[nodiscard]] const FieldDecl* findField(std::string_view field_name) const {
    for (const FieldDecl& f : fields) {
      if (f.name == field_name) return &f;
    }
    return nullptr;
  }
};

struct Enumerator {
  std::string name;
  ExprPtr value_expr;  ///< may be null (implicit previous+1)
  std::int64_t value = 0;  ///< folded by sema
  SourceLoc loc;
};

class EnumDecl final : public Decl {
 public:
  EnumDecl() : Decl(DeclKind::Enum) {}
  std::vector<Enumerator> enumerators;
};

class TypedefDecl final : public Decl {
 public:
  TypedefDecl() : Decl(DeclKind::Typedef) {}
  TypeSpec underlying;
};

class FunctionDecl final : public Decl {
 public:
  FunctionDecl() : Decl(DeclKind::Function) {}
  TypeSpec return_type;
  std::vector<NodePtr<VarDecl>> params;
  bool is_variadic = false;
  bool is_static = false;
  NodePtr<Stmt> body;  ///< null for prototypes

  [[nodiscard]] bool isDefinition() const { return body != nullptr; }
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : std::uint8_t {
  Compound, Decl, Expr, If, While, DoWhile, For, Switch, Case,
  Break, Continue, Return, Null,
};

class Stmt {
 public:
  virtual ~Stmt() = default;
  [[nodiscard]] StmtKind kind() const { return kind_; }
  SourceLoc loc;

 protected:
  explicit Stmt(StmtKind kind) : kind_(kind) {}

 private:
  StmtKind kind_;
};

using StmtPtr = NodePtr<Stmt>;

class CompoundStmt final : public Stmt {
 public:
  CompoundStmt() : Stmt(StmtKind::Compound) {}
  std::vector<StmtPtr> body;
};

class DeclStmt final : public Stmt {
 public:
  DeclStmt() : Stmt(StmtKind::Decl) {}
  std::vector<NodePtr<VarDecl>> vars;
};

class ExprStmt final : public Stmt {
 public:
  explicit ExprStmt(ExprPtr expr) : Stmt(StmtKind::Expr), expr(std::move(expr)) {}
  ExprPtr expr;
};

class IfStmt final : public Stmt {
 public:
  IfStmt() : Stmt(StmtKind::If) {}
  ExprPtr cond;
  StmtPtr then_stmt;
  StmtPtr else_stmt;  ///< may be null
};

class WhileStmt final : public Stmt {
 public:
  WhileStmt() : Stmt(StmtKind::While) {}
  ExprPtr cond;
  StmtPtr body;
};

class DoWhileStmt final : public Stmt {
 public:
  DoWhileStmt() : Stmt(StmtKind::DoWhile) {}
  StmtPtr body;
  ExprPtr cond;
};

class ForStmt final : public Stmt {
 public:
  ForStmt() : Stmt(StmtKind::For) {}
  StmtPtr init;  ///< DeclStmt, ExprStmt, or null
  ExprPtr cond;  ///< may be null
  ExprPtr inc;   ///< may be null
  StmtPtr body;
};

class CaseStmt final : public Stmt {
 public:
  CaseStmt() : Stmt(StmtKind::Case) {}
  bool is_default = false;
  ExprPtr value;  ///< null for default
  std::vector<StmtPtr> body;
};

class SwitchStmt final : public Stmt {
 public:
  SwitchStmt() : Stmt(StmtKind::Switch) {}
  ExprPtr cond;
  std::vector<NodePtr<CaseStmt>> cases;
};

class BreakStmt final : public Stmt {
 public:
  BreakStmt() : Stmt(StmtKind::Break) {}
};

class ContinueStmt final : public Stmt {
 public:
  ContinueStmt() : Stmt(StmtKind::Continue) {}
};

class ReturnStmt final : public Stmt {
 public:
  ReturnStmt() : Stmt(StmtKind::Return) {}
  ExprPtr value;  ///< may be null
};

class NullStmt final : public Stmt {
 public:
  NullStmt() : Stmt(StmtKind::Null) {}
};

// ---------------------------------------------------------------------------
// Translation unit
// ---------------------------------------------------------------------------

class TranslationUnit {
 public:
  /// Node storage. Declared first so it is destroyed *after* `decls`
  /// (members are destroyed in reverse order): node destructors run via
  /// ArenaPtr while their storage is still mapped.
  fsdep::Arena arena;

  std::string name;  ///< usually the main file name
  std::vector<DeclPtr> decls;

  /// Allocates an AST node in this unit's arena.
  template <typename T, typename... Args>
  NodePtr<T> make(Args&&... args) {
    return NodePtr<T>(arena.make<T>(std::forward<Args>(args)...));
  }

  [[nodiscard]] const FunctionDecl* findFunction(std::string_view fn_name) const;
  [[nodiscard]] const RecordDecl* findRecord(std::string_view record_name) const;
  [[nodiscard]] const VarDecl* findGlobal(std::string_view var_name) const;
  [[nodiscard]] std::vector<const FunctionDecl*> functions() const;
};

/// Renders an expression back to (approximately) C source; used for taint
/// traces and dependency descriptions.
std::string exprToString(const Expr& expr);

}  // namespace fsdep::ast
