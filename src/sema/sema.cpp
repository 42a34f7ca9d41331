#include "sema/sema.h"

namespace fsdep::sema {

using namespace ast;

Sema::Sema(TranslationUnit& tu, DiagnosticEngine& diags) : tu_(tu), diags_(diags) {}

bool Sema::run() {
  collectTopLevel();
  for (DeclPtr& d : tu_.decls) {
    if (d->kind() == DeclKind::Function) {
      auto& fn = static_cast<FunctionDecl&>(*d);
      if (fn.isDefinition()) resolveFunction(fn);
    } else if (d->kind() == DeclKind::Var) {
      auto& var = static_cast<VarDecl&>(*d);
      if (var.init != nullptr) resolveExpr(*var.init);
    }
  }
  return !diags_.hasErrors();
}

void Sema::collectTopLevel() {
  for (DeclPtr& d : tu_.decls) {
    switch (d->kind()) {
      case DeclKind::Record:
        records_[d->name] = static_cast<RecordDecl*>(d.get());
        break;
      case DeclKind::Enum: {
        auto& e = static_cast<EnumDecl&>(*d);
        enums_[e.name] = &e;
        std::int64_t next = 0;
        for (Enumerator& en : e.enumerators) {
          if (en.value_expr != nullptr) {
            if (auto v = foldConstant(*en.value_expr)) {
              en.value = *v;
            } else {
              diags_.error(en.loc, "enumerator '" + en.name + "' is not a constant expression");
              en.value = next;
            }
          } else {
            en.value = next;
          }
          next = en.value + 1;
          enum_constants_[en.name] = en.value;
        }
        break;
      }
      case DeclKind::Typedef:
        typedefs_[d->name] = static_cast<TypedefDecl*>(d.get());
        break;
      case DeclKind::Function: {
        auto& fn = static_cast<FunctionDecl&>(*d);
        // A definition supersedes earlier prototypes.
        auto [it, inserted] = functions_.try_emplace(fn.name, &fn);
        if (!inserted && fn.isDefinition()) it->second = &fn;
        break;
      }
      case DeclKind::Var:
        globals_[d->name] = static_cast<VarDecl*>(d.get());
        break;
    }
  }
}

namespace {

/// The type a declared TypeSpec spells, before typedef resolution.
ExprType typeFrom(const TypeSpec& spec) {
  ExprType t;
  t.name = &spec.name;
  t.array_size = spec.array_size;
  t.pointer_depth = spec.pointer_depth;
  t.base = spec.base;
  t.is_unsigned = spec.is_unsigned;
  t.is_const = spec.is_const;
  t.is_array = spec.is_array;
  return t;
}

}  // namespace

ExprType Sema::resolveTypedefs(const TypeSpec& type) const {
  ExprType out = typeFrom(type);
  int guard = 0;
  while (out.base == BaseTypeKind::Typedef && guard++ < 16) {
    const auto it = typedefs_.find(*out.name);
    if (it == typedefs_.end()) break;
    const ExprType outer = out;
    out = typeFrom(it->second->underlying);
    out.pointer_depth += outer.pointer_depth;
    if (outer.is_array) {
      out.is_array = true;
      out.array_size = outer.array_size;
    }
  }
  return out;
}

void Sema::closeScope() {
  scope_vars_.resize(scope_starts_.back());
  scope_starts_.pop_back();
}

void Sema::declareVar(VarDecl& var) {
  if (!scope_starts_.empty()) scope_vars_.push_back(&var);
}

VarDecl* Sema::lookupVar(const std::string& name) const {
  // Innermost first, and the latest declaration within a scope wins.
  for (auto it = scope_vars_.rbegin(); it != scope_vars_.rend(); ++it) {
    if ((*it)->name == name) return *it;
  }
  const auto g = globals_.find(name);
  return g != globals_.end() ? g->second : nullptr;
}

void Sema::resolveFunction(FunctionDecl& fn) {
  openScope();
  for (auto& p : fn.params) {
    p->owner = &fn;
    declareVar(*p);
  }
  resolveStmt(*fn.body, fn);
  closeScope();
}

void Sema::resolveStmt(Stmt& stmt, FunctionDecl& fn) {
  switch (stmt.kind()) {
    case StmtKind::Compound: {
      openScope();
      for (StmtPtr& s : static_cast<CompoundStmt&>(stmt).body) resolveStmt(*s, fn);
      closeScope();
      break;
    }
    case StmtKind::Decl: {
      for (auto& var : static_cast<DeclStmt&>(stmt).vars) {
        var->owner = &fn;
        if (var->init != nullptr) resolveExpr(*var->init);
        declareVar(*var);
      }
      break;
    }
    case StmtKind::Expr:
      resolveExpr(*static_cast<ExprStmt&>(stmt).expr);
      break;
    case StmtKind::If: {
      auto& s = static_cast<IfStmt&>(stmt);
      resolveExpr(*s.cond);
      resolveStmt(*s.then_stmt, fn);
      if (s.else_stmt != nullptr) resolveStmt(*s.else_stmt, fn);
      break;
    }
    case StmtKind::While: {
      auto& s = static_cast<WhileStmt&>(stmt);
      resolveExpr(*s.cond);
      resolveStmt(*s.body, fn);
      break;
    }
    case StmtKind::DoWhile: {
      auto& s = static_cast<DoWhileStmt&>(stmt);
      resolveStmt(*s.body, fn);
      resolveExpr(*s.cond);
      break;
    }
    case StmtKind::For: {
      auto& s = static_cast<ForStmt&>(stmt);
      openScope();
      if (s.init != nullptr) resolveStmt(*s.init, fn);
      if (s.cond != nullptr) resolveExpr(*s.cond);
      if (s.inc != nullptr) resolveExpr(*s.inc);
      resolveStmt(*s.body, fn);
      closeScope();
      break;
    }
    case StmtKind::Switch: {
      auto& s = static_cast<SwitchStmt&>(stmt);
      resolveExpr(*s.cond);
      for (auto& c : s.cases) resolveStmt(*c, fn);
      break;
    }
    case StmtKind::Case: {
      auto& s = static_cast<CaseStmt&>(stmt);
      if (s.value != nullptr) resolveExpr(*s.value);
      for (StmtPtr& b : s.body) resolveStmt(*b, fn);
      break;
    }
    case StmtKind::Return: {
      auto& s = static_cast<ReturnStmt&>(stmt);
      if (s.value != nullptr) resolveExpr(*s.value);
      break;
    }
    case StmtKind::Break:
    case StmtKind::Continue:
    case StmtKind::Null:
      break;
  }
}

void Sema::resolveExpr(Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::IntLiteral:
    case ExprKind::StringLiteral:
      break;
    case ExprKind::DeclRef: {
      auto& ref = static_cast<DeclRefExpr&>(expr);
      if (VarDecl* var = lookupVar(ref.name)) {
        ref.decl = var;
      } else if (const auto ec = enum_constants_.find(ref.name); ec != enum_constants_.end()) {
        ref.is_enum_constant = true;
        ref.enum_value = ec->second;
      } else if (!functions_.contains(ref.name)) {
        diags_.warning(expr.loc, "use of undeclared identifier '" + ref.name + "'");
      }
      break;
    }
    case ExprKind::Unary:
      resolveExpr(*static_cast<UnaryExpr&>(expr).operand);
      break;
    case ExprKind::Binary: {
      auto& b = static_cast<BinaryExpr&>(expr);
      resolveExpr(*b.lhs);
      resolveExpr(*b.rhs);
      break;
    }
    case ExprKind::Conditional: {
      auto& c = static_cast<ConditionalExpr&>(expr);
      resolveExpr(*c.cond);
      resolveExpr(*c.then_expr);
      resolveExpr(*c.else_expr);
      break;
    }
    case ExprKind::Call: {
      auto& call = static_cast<CallExpr&>(expr);
      const auto it = functions_.find(call.callee);
      if (it != functions_.end()) call.callee_decl = it->second;
      for (ExprPtr& a : call.args) resolveExpr(*a);
      break;
    }
    case ExprKind::Member: {
      auto& m = static_cast<MemberExpr&>(expr);
      resolveExpr(*m.base);
      ExprType base_type = computeType(*m.base);
      if (m.is_arrow && base_type.pointer_depth > 0) --base_type.pointer_depth;
      if (base_type.base == BaseTypeKind::Struct && base_type.pointer_depth == 0) {
        const std::string& record_name = *base_type.name;  // a Struct type is always spelled
        const auto rec = records_.find(record_name);
        if (rec != records_.end()) {
          m.record = rec->second;
          m.field = rec->second->findField(m.member);
          if (m.field == nullptr) {
            diags_.error(expr.loc, "no field '" + m.member + "' in struct " + record_name);
          }
        } else {
          diags_.warning(expr.loc, "member access into unknown struct " + record_name);
        }
      } else {
        diags_.warning(expr.loc, "member access on non-struct expression");
      }
      break;
    }
    case ExprKind::Index: {
      auto& i = static_cast<IndexExpr&>(expr);
      resolveExpr(*i.base);
      resolveExpr(*i.index);
      break;
    }
    case ExprKind::Cast:
      resolveExpr(*static_cast<CastExpr&>(expr).operand);
      break;
    case ExprKind::SizeofType:
      break;
    case ExprKind::InitList:
      for (ExprPtr& e : static_cast<InitListExpr&>(expr).elements) resolveExpr(*e);
      break;
  }
  computeType(expr);
}

ExprType Sema::computeType(Expr& expr) {
  if (expr.sema_type.resolved) return expr.sema_type;

  ExprType type;  // defaults to int
  switch (expr.kind()) {
    case ExprKind::IntLiteral:
      type.base = BaseTypeKind::Long;
      break;
    case ExprKind::StringLiteral:
      type.base = BaseTypeKind::Char;
      type.pointer_depth = 1;
      type.is_const = true;
      break;
    case ExprKind::DeclRef: {
      const auto& ref = static_cast<const DeclRefExpr&>(expr);
      if (ref.decl != nullptr) type = resolveTypedefs(ref.decl->type);
      break;
    }
    case ExprKind::Unary: {
      auto& u = static_cast<UnaryExpr&>(expr);
      ExprType inner = computeType(*u.operand);
      switch (u.op) {
        case UnaryOp::Deref:
          if (inner.pointer_depth > 0) --inner.pointer_depth;
          else if (inner.is_array) inner.is_array = false;
          type = inner;
          break;
        case UnaryOp::AddrOf:
          ++inner.pointer_depth;
          type = inner;
          break;
        case UnaryOp::Not:
          type.base = BaseTypeKind::Int;
          break;
        case UnaryOp::SizeofExpr:
          type.base = BaseTypeKind::Long;
          type.is_unsigned = true;
          break;
        default:
          type = inner;
      }
      break;
    }
    case ExprKind::Binary: {
      auto& b = static_cast<BinaryExpr&>(expr);
      if (isComparison(b.op) || b.op == BinaryOp::LogicalAnd || b.op == BinaryOp::LogicalOr) {
        type.base = BaseTypeKind::Int;
      } else if (isAssignment(b.op)) {
        type = computeType(*b.lhs);
      } else {
        // Usual arithmetic conversions, approximated: wider side wins;
        // pointer arithmetic keeps the pointer type.
        const ExprType lhs = computeType(*b.lhs);
        const ExprType rhs = computeType(*b.rhs);
        if (lhs.pointer_depth > 0 || lhs.is_array) type = lhs;
        else if (rhs.pointer_depth > 0 || rhs.is_array) type = rhs;
        else type = static_cast<int>(lhs.base) >= static_cast<int>(rhs.base) ? lhs : rhs;
      }
      break;
    }
    case ExprKind::Conditional: {
      auto& c = static_cast<ConditionalExpr&>(expr);
      type = computeType(*c.then_expr);
      break;
    }
    case ExprKind::Call: {
      const auto& call = static_cast<const CallExpr&>(expr);
      if (call.callee_decl != nullptr) type = resolveTypedefs(call.callee_decl->return_type);
      else type.base = BaseTypeKind::Long;  // unknown externals: assume integral
      break;
    }
    case ExprKind::Member: {
      const auto& m = static_cast<const MemberExpr&>(expr);
      if (m.field != nullptr) type = resolveTypedefs(m.field->type);
      break;
    }
    case ExprKind::Index: {
      auto& i = static_cast<IndexExpr&>(expr);
      ExprType base = computeType(*i.base);
      if (base.is_array) {
        base.is_array = false;
        base.array_size = 0;
      } else if (base.pointer_depth > 0) {
        --base.pointer_depth;
      }
      type = base;
      break;
    }
    case ExprKind::Cast:
      type = resolveTypedefs(static_cast<const CastExpr&>(expr).type);
      break;
    case ExprKind::SizeofType:
      type.base = BaseTypeKind::Long;
      type.is_unsigned = true;
      break;
    case ExprKind::InitList:
      break;
  }
  type.resolved = true;
  expr.sema_type = type;
  return type;
}

std::optional<std::int64_t> Sema::foldConstant(const Expr& expr) const {
  switch (expr.kind()) {
    case ExprKind::IntLiteral:
      return static_cast<const IntLiteralExpr&>(expr).value;
    case ExprKind::DeclRef: {
      const auto& ref = static_cast<const DeclRefExpr&>(expr);
      if (ref.is_enum_constant) return ref.enum_value;
      const auto it = enum_constants_.find(ref.name);
      if (it != enum_constants_.end()) return it->second;
      return std::nullopt;
    }
    case ExprKind::Unary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      const auto inner = foldConstant(*u.operand);
      if (!inner) return std::nullopt;
      switch (u.op) {
        case UnaryOp::Plus: return *inner;
        case UnaryOp::Minus: return -*inner;
        case UnaryOp::Not: return *inner == 0 ? 1 : 0;
        case UnaryOp::BitNot: return ~*inner;
        default: return std::nullopt;
      }
    }
    case ExprKind::Binary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      const auto lhs = foldConstant(*b.lhs);
      const auto rhs = foldConstant(*b.rhs);
      if (!lhs || !rhs) return std::nullopt;
      switch (b.op) {
        case BinaryOp::Add: return *lhs + *rhs;
        case BinaryOp::Sub: return *lhs - *rhs;
        case BinaryOp::Mul: return *lhs * *rhs;
        case BinaryOp::Div: return *rhs != 0 ? std::optional(*lhs / *rhs) : std::nullopt;
        case BinaryOp::Rem: return *rhs != 0 ? std::optional(*lhs % *rhs) : std::nullopt;
        case BinaryOp::Shl: return *lhs << *rhs;
        case BinaryOp::Shr: return *lhs >> *rhs;
        case BinaryOp::BitAnd: return *lhs & *rhs;
        case BinaryOp::BitOr: return *lhs | *rhs;
        case BinaryOp::BitXor: return *lhs ^ *rhs;
        case BinaryOp::Lt: return *lhs < *rhs ? 1 : 0;
        case BinaryOp::Le: return *lhs <= *rhs ? 1 : 0;
        case BinaryOp::Gt: return *lhs > *rhs ? 1 : 0;
        case BinaryOp::Ge: return *lhs >= *rhs ? 1 : 0;
        case BinaryOp::Eq: return *lhs == *rhs ? 1 : 0;
        case BinaryOp::Ne: return *lhs != *rhs ? 1 : 0;
        case BinaryOp::LogicalAnd: return (*lhs != 0 && *rhs != 0) ? 1 : 0;
        case BinaryOp::LogicalOr: return (*lhs != 0 || *rhs != 0) ? 1 : 0;
        default: return std::nullopt;
      }
    }
    case ExprKind::Conditional: {
      const auto& c = static_cast<const ConditionalExpr&>(expr);
      const auto cond = foldConstant(*c.cond);
      if (!cond) return std::nullopt;
      return *cond != 0 ? foldConstant(*c.then_expr) : foldConstant(*c.else_expr);
    }
    case ExprKind::Cast:
      return foldConstant(*static_cast<const CastExpr&>(expr).operand);
    default:
      return std::nullopt;
  }
}

const RecordDecl* Sema::findRecord(std::string_view name) const {
  const auto it = records_.find(std::string(name));
  return it != records_.end() ? it->second : nullptr;
}

const FunctionDecl* Sema::findFunction(std::string_view name) const {
  const auto it = functions_.find(std::string(name));
  return it != functions_.end() ? it->second : nullptr;
}

}  // namespace fsdep::sema
