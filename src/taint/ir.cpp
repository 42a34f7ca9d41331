#include "taint/ir.h"

#include <span>
#include <utility>

#include "obs/trace.h"

namespace fsdep::taint::ir {

namespace {

using ast::BinaryExpr;
using ast::BinaryOp;
using ast::CallExpr;
using ast::CastExpr;
using ast::ConditionalExpr;
using ast::DeclRefExpr;
using ast::DeclStmt;
using ast::Expr;
using ast::ExprKind;
using ast::ExprStmt;
using ast::FunctionDecl;
using ast::IndexExpr;
using ast::InitListExpr;
using ast::MemberExpr;
using ast::ReturnStmt;
using ast::Stmt;
using ast::StmtKind;
using ast::UnaryExpr;
using ast::UnaryOp;

// One recursion over statements, expressions and assignment targets,
// with values that are statically empty folded away and assignment
// targets pre-resolved. `want` tracks whether the produced value is
// consumed; pure loads for discarded values are elided, but anything
// that interns at runtime (field reads) is emitted regardless, so ids
// are assigned in first-use order whatever the value is used for.
class Lowerer {
 public:
  explicit Lowerer(Program& prog) : prog_(prog) {}

  TempId lowerQuery(const Expr& expr) {
    return lowerExpr(expr, /*effects=*/false, /*want=*/true);
  }

  void lowerBlock(const cfg::BasicBlock& block) {
    BlockRange range;
    range.stmts_begin = here();
    range.stmt_count = static_cast<std::uint32_t>(block.stmts.size());
    for (const Stmt* stmt : block.stmts) lowerStmt(*stmt);
    range.stmts_end = here();
    if (block.inc_expr != nullptr) lowerExpr(*block.inc_expr, true, false);
    range.inc_end = here();
    if (block.condition != nullptr) {
      range.has_condition = true;
      lowerExpr(*block.condition, true, false);
    }
    range.cond_end = here();
    prog_.blocks.push_back(range);
  }

 private:
  [[nodiscard]] std::uint32_t here() const {
    return static_cast<std::uint32_t>(prog_.instrs.size());
  }

  TempId newTemp() { return prog_.num_temps++; }

  Instr& emit(Op op) {
    prog_.instrs.emplace_back();
    Instr& in = prog_.instrs.back();
    in.op = op;
    return in;
  }

  /// Folds a union over possibly-absent values. Reuses `a` as the
  /// destination: expression-tree values have a single consumer, so
  /// in-place growth is safe (multi-consumer call-arg temps are never
  /// passed here as `a` — see the Call case).
  TempId emitUnion(TempId a, TempId b) {
    if (a == kNoTemp) return b;
    if (b == kNoTemp) return a;
    Instr& in = emit(Op::UnionInto);
    in.dst = a;
    in.a = b;
    return a;
  }

  void lowerStmt(const Stmt& stmt) {
    switch (stmt.kind()) {
      case StmtKind::Decl:
        for (const auto& var : static_cast<const DeclStmt&>(stmt).vars) {
          if (var->init == nullptr) continue;
          const TempId src = lowerExpr(*var->init, true, true);
          Instr& in = emit(Op::DeclInit);
          in.a = src;
          in.var = var.get();
          in.site = var.get();
          in.write_key = var->init.get();
          in.rhs = var->init.get();
          in.loc = var->loc;
        }
        break;
      case StmtKind::Expr:
        lowerExpr(*static_cast<const ExprStmt&>(stmt).expr, true, false);
        break;
      case StmtKind::Return: {
        const auto& ret = static_cast<const ReturnStmt&>(stmt);
        if (ret.value == nullptr) break;
        const TempId src = lowerExpr(*ret.value, true, true);
        if (src == kNoTemp) break;
        Instr& in = emit(Op::Return);
        in.a = src;
        break;
      }
      default:
        break;
    }
  }

  void lowerAssign(const Expr& lhs, const Expr* rhs, TempId src, bool strong,
                   bool skip_if_empty, SourceLoc loc, BinaryOp op) {
    switch (lhs.kind()) {
      case ExprKind::DeclRef: {
        const auto& ref = static_cast<const DeclRefExpr&>(lhs);
        if (ref.decl == nullptr) return;
        Instr& in = emit(Op::AssignVar);
        in.a = src;
        in.strong = strong;
        in.skip_if_empty = skip_if_empty;
        in.aop = op;
        in.var = ref.decl;
        in.site = &lhs;
        in.write_key = &lhs;
        in.rhs = rhs;
        in.loc = loc;
        return;
      }
      case ExprKind::Member: {
        const auto& member = static_cast<const MemberExpr&>(lhs);
        if (member.record == nullptr || member.field == nullptr) return;
        Instr& in = emit(Op::AssignField);
        in.a = src;
        in.skip_if_empty = skip_if_empty;
        in.aop = op;
        in.member = &member;
        in.site = &lhs;
        in.write_key = &lhs;
        in.rhs = rhs;
        in.loc = loc;
        return;
      }
      case ExprKind::Index:
        lowerAssign(*static_cast<const IndexExpr&>(lhs).base, rhs, src, false,
                    skip_if_empty, loc, op);
        return;
      case ExprKind::Unary: {
        const auto& unary = static_cast<const UnaryExpr&>(lhs);
        if (unary.op == UnaryOp::Deref || unary.op == UnaryOp::AddrOf) {
          lowerAssign(*unary.operand, rhs, src, false, skip_if_empty, loc, op);
        }
        return;
      }
      case ExprKind::Cast:
        lowerAssign(*static_cast<const CastExpr&>(lhs).operand, rhs, src, strong,
                    skip_if_empty, loc, op);
        return;
      default:
        return;
    }
  }

  TempId lowerExpr(const Expr& expr, bool effects, bool want) {  // NOLINT(misc-no-recursion)
    switch (expr.kind()) {
      case ExprKind::IntLiteral:
      case ExprKind::StringLiteral:
      case ExprKind::SizeofType:
        return kNoTemp;
      case ExprKind::DeclRef: {
        const auto& ref = static_cast<const DeclRefExpr&>(expr);
        if (!want || ref.decl == nullptr) return kNoTemp;
        Instr& in = emit(Op::LoadVar);
        in.dst = newTemp();
        in.var = ref.decl;
        return in.dst;
      }
      case ExprKind::Unary:
        return lowerExpr(*static_cast<const UnaryExpr&>(expr).operand, effects, want);
      case ExprKind::Binary: {
        const auto& bin = static_cast<const BinaryExpr&>(expr);
        if (ast::isAssignment(bin.op)) {
          TempId rhs = lowerExpr(*bin.rhs, effects, effects || want);
          if (effects) {
            lowerAssign(*bin.lhs, bin.rhs.get(), rhs, bin.op == BinaryOp::Assign,
                        false, expr.loc, bin.op);
          }
          if (bin.op != BinaryOp::Assign) {
            // Compound assigns re-read the (already mutated) lhs; the
            // re-read happens even when the value is discarded because a
            // member lhs interns its bridge label here.
            const TempId lhs = lowerExpr(*bin.lhs, false, want);
            if (want) rhs = emitUnion(rhs, lhs);
          }
          return want ? rhs : kNoTemp;
        }
        const TempId lhs = lowerExpr(*bin.lhs, effects, want);
        const TempId rhs = lowerExpr(*bin.rhs, effects, want);
        return want ? emitUnion(lhs, rhs) : kNoTemp;
      }
      case ExprKind::Conditional: {
        const auto& cond = static_cast<const ConditionalExpr&>(expr);
        const TempId c = lowerExpr(*cond.cond, effects, want);
        const TempId t = lowerExpr(*cond.then_expr, effects, want);
        const TempId e = lowerExpr(*cond.else_expr, effects, want);
        return want ? emitUnion(emitUnion(c, t), e) : kNoTemp;
      }
      case ExprKind::Call:
        return lowerCall(static_cast<const CallExpr&>(expr), effects, want);
      case ExprKind::Member: {
        const auto& member = static_cast<const MemberExpr&>(expr);
        lowerExpr(*member.base, effects, false);
        if (member.record == nullptr || member.field == nullptr) return kNoTemp;
        Instr& in = emit(Op::LoadField);
        in.member = &member;
        // Interning still runs for a discarded read; only the load of
        // the label set is skipped.
        in.dst = want ? newTemp() : kNoTemp;
        return in.dst;
      }
      case ExprKind::Index: {
        const auto& index = static_cast<const IndexExpr&>(expr);
        lowerExpr(*index.index, effects, false);
        return lowerExpr(*index.base, effects, want);
      }
      case ExprKind::Cast:
        return lowerExpr(*static_cast<const CastExpr&>(expr).operand, effects, want);
      case ExprKind::InitList: {
        TempId acc = kNoTemp;
        for (const auto& element : static_cast<const InitListExpr&>(expr).elements) {
          const TempId t = lowerExpr(*element, effects, want);
          if (want) acc = emitUnion(acc, t);
        }
        return acc;
      }
    }
    return kNoTemp;
  }

  TempId lowerCall(const CallExpr& call, bool effects, bool want) {
    const FunctionDecl* callee =
        (call.callee_decl != nullptr && call.callee_decl->isDefinition())
            ? call.callee_decl
            : nullptr;
    // Arg values feed out-param stores and callee bindings even when
    // the call result itself is discarded.
    const bool want_args = want || effects;
    // The arg temps sit on a stack shared by nested calls: an argument's
    // own calls push and pop above this call's frame.
    const std::size_t frame = arg_stack_.size();
    for (const auto& arg : call.args) {
      const TempId t = lowerExpr(*arg, effects, want_args);
      arg_stack_.push_back(t);
    }
    const std::span<const TempId> arg_temps(arg_stack_.data() + frame, call.args.size());
    if (effects) {
      // &out arguments receive the union of the *other* args' labels.
      // The accumulation copies into a fresh temp: arg temps are read
      // again below, so they must not be grown in place.
      for (std::size_t i = 0; i < call.args.size(); ++i) {
        const Expr* arg = call.args[i].get();
        if (arg->kind() != ExprKind::Unary) continue;
        const auto& unary = static_cast<const UnaryExpr&>(*arg);
        if (unary.op != UnaryOp::AddrOf) continue;
        TempId others = kNoTemp;
        for (std::size_t j = 0; j < arg_temps.size(); ++j) {
          if (j == i || arg_temps[j] == kNoTemp) continue;
          if (others == kNoTemp) {
            others = newTemp();
            Instr& copy = emit(Op::Copy);
            copy.dst = others;
            copy.a = arg_temps[j];
          } else {
            emitUnion(others, arg_temps[j]);
          }
        }
        if (others == kNoTemp) continue;
        lowerAssign(*unary.operand, nullptr, others, false, /*skip_if_empty=*/true,
                    call.loc, BinaryOp::Assign);
      }
    }
    TempId result = kNoTemp;
    if (callee != nullptr) {
      CallSpec spec;
      spec.callee = callee;
      spec.effects = effects;
      spec.args_begin = static_cast<std::uint32_t>(prog_.call_args.size());
      prog_.call_args.insert(prog_.call_args.end(), arg_temps.begin(), arg_temps.end());
      spec.args_end = static_cast<std::uint32_t>(prog_.call_args.size());
      prog_.calls.push_back(spec);
      Instr& in = emit(Op::Call);
      in.dst = newTemp();
      in.aux = static_cast<std::uint32_t>(prog_.calls.size() - 1);
      result = in.dst;
    } else if (want) {
      // Extern/indirect callee: the result is just the arg-label union.
      // Safe to fold in place — the out-param reads above already
      // executed by the time these unions run.
      for (const TempId t : arg_temps) result = emitUnion(result, t);
    }
    arg_stack_.resize(frame);
    return result;
  }

  Program& prog_;
  std::vector<TempId> arg_stack_;
};

}  // namespace

std::shared_ptr<const CompiledFunction> compile(const ast::FunctionDecl& fn) {
  auto out = std::make_shared<CompiledFunction>();
  out->cfg = cfg::Cfg::build(fn);
  out->rpo = out->cfg->reversePostOrder();
  Program& prog = out->program;
  const std::size_t blocks = out->cfg->size();
  prog.blocks.reserve(blocks);
  Lowerer lowerer(prog);
  for (std::size_t id = 0; id < blocks; ++id) {
    lowerer.lowerBlock(out->cfg->block(static_cast<cfg::BlockId>(id)));
  }
  return out;
}

TempId lowerQuery(const ast::Expr& expr, Program& prog) {
  prog.instrs.clear();
  prog.calls.clear();
  prog.call_args.clear();
  prog.blocks.clear();
  prog.num_temps = 0;
  return Lowerer(prog).lowerQuery(expr);
}

std::shared_ptr<const CompiledFunction> IrCache::getOrCompile(const ast::FunctionDecl& fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(&fn);
    if (it != map_.end()) return it->second;
  }
  std::shared_ptr<const CompiledFunction> compiled;
  {
    obs::Span span("taint", "ir_compile");
    span.arg("function", fn.name);
    compiled = compile(fn);
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = map_.emplace(&fn, std::move(compiled));
  return it->second;
}

std::size_t IrCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace fsdep::taint::ir
