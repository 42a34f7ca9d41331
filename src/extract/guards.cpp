#include "extract/guards.h"

namespace fsdep::extract {

using namespace ast;

namespace {

BinaryOp invertComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::Lt: return BinaryOp::Ge;
    case BinaryOp::Le: return BinaryOp::Gt;
    case BinaryOp::Gt: return BinaryOp::Le;
    case BinaryOp::Ge: return BinaryOp::Lt;
    case BinaryOp::Eq: return BinaryOp::Ne;
    case BinaryOp::Ne: return BinaryOp::Eq;
    default: return op;
  }
}

Atom makeAtom(const Expr& expr, bool negated) {
  Atom atom;
  atom.expr = &expr;
  atom.negated = negated;
  if (expr.kind() == ExprKind::Binary) {
    const auto& b = static_cast<const BinaryExpr&>(expr);
    if (isComparison(b.op)) {
      atom.is_comparison = true;
      atom.cmp = negated ? invertComparison(b.op) : b.op;
      atom.lhs = b.lhs.get();
      atom.rhs = b.rhs.get();
      atom.negated = false;  // polarity folded into cmp
      // Normalize "x == 0" / "x != 0" back to a flag atom so flag logic
      // sees through the explicit zero comparison.
      const auto* rhs_lit =
          b.rhs->kind() == ExprKind::IntLiteral ? static_cast<const IntLiteralExpr*>(b.rhs.get()) : nullptr;
      if (rhs_lit != nullptr && rhs_lit->value == 0 &&
          (atom.cmp == BinaryOp::Eq || atom.cmp == BinaryOp::Ne)) {
        // Keep comparison fields (the range matcher may want them), but a
        // zero-test is primarily a flag atom:
        atom.is_comparison = false;
        atom.expr = b.lhs.get();
        atom.negated = atom.cmp == BinaryOp::Eq;  // "== 0" means "not set"
      }
      return atom;
    }
  }
  return atom;
}

void dnfImpl(const Expr& e, bool neg, std::vector<Violation>& out);

std::vector<Violation> dnfOf(const Expr& e, bool neg) {
  std::vector<Violation> out;
  dnfImpl(e, neg, out);
  return out;
}

void dnfImpl(const Expr& e, bool neg, std::vector<Violation>& out) {
  if (e.kind() == ExprKind::Unary) {
    const auto& u = static_cast<const UnaryExpr&>(e);
    if (u.op == UnaryOp::Not) {
      dnfImpl(*u.operand, !neg, out);
      return;
    }
  }
  if (e.kind() == ExprKind::Binary) {
    const auto& b = static_cast<const BinaryExpr&>(e);
    const bool conjunctive = (!neg && b.op == BinaryOp::LogicalAnd) ||
                             (neg && b.op == BinaryOp::LogicalOr);
    const bool disjunctive = (!neg && b.op == BinaryOp::LogicalOr) ||
                             (neg && b.op == BinaryOp::LogicalAnd);
    if (conjunctive) {
      // Cross product of the two DNFs.
      const std::vector<Violation> left = dnfOf(*b.lhs, neg);
      const std::vector<Violation> right = dnfOf(*b.rhs, neg);
      for (const Violation& l : left) {
        for (const Violation& r : right) {
          Violation combined = l;
          combined.insert(combined.end(), r.begin(), r.end());
          out.push_back(std::move(combined));
        }
      }
      return;
    }
    if (disjunctive) {
      dnfImpl(*b.lhs, neg, out);
      dnfImpl(*b.rhs, neg, out);
      return;
    }
  }
  out.push_back(Violation{makeAtom(e, neg)});
}

/// True when the block directly signals an error: calls one of the error
/// functions, or returns a negative constant.
bool isErrorBlock(const cfg::BasicBlock& block, const sema::Sema& sema,
                  const std::vector<std::string>& error_functions) {
  auto callsError = [&](const Expr& e, auto&& self) -> bool {
    if (e.kind() == ExprKind::Call) {
      const auto& call = static_cast<const CallExpr&>(e);
      for (const std::string& name : error_functions) {
        if (call.callee == name) return true;
      }
      for (const ExprPtr& a : call.args) {
        if (self(*a, self)) return true;
      }
    }
    return false;
  };
  for (const Stmt* s : block.stmts) {
    if (s->kind() == StmtKind::Expr) {
      if (callsError(*static_cast<const ExprStmt*>(s)->expr, callsError)) return true;
    } else if (s->kind() == StmtKind::Return) {
      const auto* ret = static_cast<const ReturnStmt*>(s);
      if (ret->value != nullptr) {
        if (const auto v = sema.foldConstant(*ret->value); v.has_value() && *v < 0) return true;
        if (ret->value->kind() == ExprKind::Call) {
          const auto& call = static_cast<const CallExpr&>(*ret->value);
          for (const std::string& name : error_functions) {
            if (call.callee == name) return true;
          }
        }
      }
    }
  }
  return false;
}

/// Follows single-successor chains from `start` looking for an error block.
bool leadsToError(const cfg::Cfg& cfg, cfg::BlockId start, const sema::Sema& sema,
                  const std::vector<std::string>& error_functions) {
  cfg::BlockId id = start;
  for (int hops = 0; hops < 4; ++hops) {
    const cfg::BasicBlock& b = cfg.block(id);
    if (isErrorBlock(b, sema, error_functions)) return true;
    if (!b.stmts.empty()) return false;  // does real work: not a bail-out arm
    if (b.successors.size() != 1) return false;
    id = b.successors[0].target;
  }
  return false;
}

}  // namespace

std::vector<Violation> toDnf(const Expr& cond, bool negate) { return dnfOf(cond, negate); }

const MemberExpr* findMemberRead(const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::Member:
      return static_cast<const MemberExpr*>(&expr);
    case ExprKind::Unary:
      return findMemberRead(*static_cast<const UnaryExpr&>(expr).operand);
    case ExprKind::Binary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      if (const MemberExpr* m = findMemberRead(*b.lhs)) return m;
      return findMemberRead(*b.rhs);
    }
    case ExprKind::Cast:
      return findMemberRead(*static_cast<const CastExpr&>(expr).operand);
    case ExprKind::Index:
      return findMemberRead(*static_cast<const IndexExpr&>(expr).base);
    case ExprKind::Call: {
      const auto& call = static_cast<const CallExpr&>(expr);
      for (const ExprPtr& a : call.args) {
        if (const MemberExpr* m = findMemberRead(*a)) return m;
      }
      return nullptr;
    }
    default:
      return nullptr;
  }
}

std::optional<std::int64_t> bitTestMask(const Expr& expr, const sema::Sema& sema) {
  if (expr.kind() != ExprKind::Binary) return std::nullopt;
  const auto& b = static_cast<const BinaryExpr&>(expr);
  if (b.op != BinaryOp::BitAnd) return std::nullopt;
  if (const auto v = sema.foldConstant(*b.rhs)) return v;
  if (const auto v = sema.foldConstant(*b.lhs)) return v;
  return std::nullopt;
}

bool isPowerOfTwoTest(const Expr& expr) {
  if (expr.kind() != ExprKind::Binary) return false;
  const auto& b = static_cast<const BinaryExpr&>(expr);
  if (b.op != BinaryOp::BitAnd) return false;
  auto matches = [](const Expr& x, const Expr& minus) {
    if (minus.kind() != ExprKind::Binary) return false;
    const auto& m = static_cast<const BinaryExpr&>(minus);
    if (m.op != BinaryOp::Sub) return false;
    if (m.rhs->kind() != ExprKind::IntLiteral ||
        static_cast<const IntLiteralExpr&>(*m.rhs).value != 1) {
      return false;
    }
    return exprToString(x) == exprToString(*m.lhs);
  };
  return matches(*b.lhs, *b.rhs) || matches(*b.rhs, *b.lhs);
}

std::vector<Guard> collectGuards(const taint::Analyzer& analyzer, const sema::Sema& sema,
                                 const std::vector<std::string>& error_functions) {
  std::vector<Guard> guards;
  for (const auto& result : analyzer.results()) {
    const cfg::Cfg& cfg = *result->code->cfg;
    for (cfg::BlockId id = 0; id < cfg.size(); ++id) {
      const cfg::BasicBlock& block = cfg.block(id);
      if (block.condition == nullptr || block.is_switch_dispatch || block.is_loop_condition) {
        continue;
      }
      cfg::BlockId true_target = cfg::kInvalidBlock;
      cfg::BlockId false_target = cfg::kInvalidBlock;
      for (const cfg::Edge& e : block.successors) {
        if (e.kind == cfg::EdgeKind::True) true_target = e.target;
        if (e.kind == cfg::EdgeKind::False) false_target = e.target;
      }
      if (true_target == cfg::kInvalidBlock || false_target == cfg::kInvalidBlock) continue;

      const bool err_true = leadsToError(cfg, true_target, sema, error_functions);
      const bool err_false = leadsToError(cfg, false_target, sema, error_functions);

      Guard guard;
      guard.fn = result->fn;
      guard.block = id;
      guard.condition = block.condition;
      guard.state = &result->at_condition[id];
      if (err_true && !err_false) {
        guard.disposition = GuardDisposition::ErrorOnTrue;
        guard.violations = toDnf(*block.condition, /*negate=*/false);
      } else if (err_false && !err_true) {
        guard.disposition = GuardDisposition::ErrorOnFalse;
        guard.violations = toDnf(*block.condition, /*negate=*/true);
      } else if (!err_true && !err_false) {
        guard.disposition = GuardDisposition::Behavioral;
      } else {
        guard.disposition = GuardDisposition::Opaque;
      }
      guards.push_back(guard);
    }
  }
  return guards;
}

}  // namespace fsdep::extract
