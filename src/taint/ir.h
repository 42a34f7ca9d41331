// Taint-IR: each function's CFG basic blocks lowered once into a flat
// instruction stream, the one form the analyzer executes — fixpoint
// visits, the exit replay and the extractor's label queries alike.
// Lowering is pure — it reads the AST/CFG and interns nothing — so a
// compiled function is shared across analyzer instances (and across warm
// pipeline runs via the component cache). Label and field-key interning
// is a runtime effect of executing the instructions, so ids are assigned
// in first-use order: every field read interns when it executes, even
// when its value is discarded. The golden digests pin that order.
//
// Statically-empty values (literals, sizeof, unresolved decl refs) lower
// to the kNoTemp sentinel and their unions are elided at compile time;
// every remaining instruction writes its destination temp before any
// consumer reads it, so the temp scratchpad is reused across block
// visits without clearing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ast/ast.h"
#include "cfg/cfg.h"

namespace fsdep::taint::ir {

using TempId = std::uint32_t;
inline constexpr TempId kNoTemp = 0xFFFFFFFFu;

enum class Op : std::uint8_t {
  /// temps[dst] = state.varLabels(var). Elided when the value is unused.
  LoadVar,
  /// Field read: interns the field key (and bridge label when bridging
  /// is on) then loads the field's label set. Always executed even for a
  /// discarded value — interning order is semantically visible.
  LoadField,
  /// temps[dst] = temps[a].
  Copy,
  /// temps[dst] |= temps[a].
  UnionInto,
  /// Store to a variable: the DeclRef terminal of an assignment lhs.
  AssignVar,
  /// Store to a struct field: the Member terminal of an assignment lhs.
  AssignField,
  /// Declaration with initializer (strong update + sticky seed merge).
  DeclInit,
  /// Call: unions arg labels, records callee entry bindings, applies
  /// the callee's return summary.
  Call,
  /// Return value sink: function return labels / summary accumulation.
  Return,
};

struct Instr {
  Op op = Op::Copy;
  /// AssignVar: strong (killing) update vs weak union.
  bool strong = false;
  /// Out-param stores happen only when the merged other-arg labels are
  /// non-empty; on an empty source the store, field interning included,
  /// is skipped.
  bool skip_if_empty = false;
  /// Assign ops: the operator recorded on the write event.
  ast::BinaryOp aop = ast::BinaryOp::Assign;
  TempId dst = kNoTemp;
  TempId a = kNoTemp;
  /// Call: index into Program::calls.
  std::uint32_t aux = 0;
  const ast::VarDecl* var = nullptr;          // LoadVar, AssignVar, DeclInit
  const ast::MemberExpr* member = nullptr;    // LoadField, AssignField
  const void* site = nullptr;                 // trace/write dedup key
  const ast::Expr* write_key = nullptr;       // writes_ map key (assigns)
  const ast::Expr* rhs = nullptr;             // rhs expr for traces/events
  SourceLoc loc;
};

struct CallSpec {
  /// Callee with a body, or null (extern / indirect): null collapses the
  /// call to a plain arg-label union at runtime.
  const ast::FunctionDecl* callee = nullptr;
  /// [args_begin, args_end) into Program::call_args; kNoTemp holes keep
  /// argument positions aligned with callee parameters.
  std::uint32_t args_begin = 0;
  std::uint32_t args_end = 0;
  /// False inside a compound-assign lhs re-read: no binding recording.
  bool effects = true;
};

/// Instruction ranges for one basic block. Sections are contiguous:
/// stmts [stmts_begin, stmts_end), inc [stmts_end, inc_end), condition
/// [inc_end, cond_end). The exit-state replay runs the stmts section
/// only; the concrete fixpoint snapshots at_condition before the
/// condition section (has_condition is explicit because a condition can
/// lower to zero instructions but the snapshot must still happen).
struct BlockRange {
  std::uint32_t stmts_begin = 0;
  std::uint32_t stmts_end = 0;
  std::uint32_t inc_end = 0;
  std::uint32_t cond_end = 0;
  /// Statement count of the stmts section, added to the
  /// taint.stmt_visits counter on each visit of the block.
  std::uint32_t stmt_count = 0;
  bool has_condition = false;
};

struct Program {
  std::vector<Instr> instrs;
  std::vector<CallSpec> calls;
  std::vector<TempId> call_args;
  std::vector<BlockRange> blocks;  // indexed by cfg::BlockId
  std::uint32_t num_temps = 0;
};

struct CompiledFunction {
  std::shared_ptr<const cfg::Cfg> cfg;
  std::vector<cfg::BlockId> rpo;
  Program program;
};

/// Builds the CFG for fn and lowers every block. Pure: no interning, no
/// analyzer state — the result depends only on the AST.
std::shared_ptr<const CompiledFunction> compile(const ast::FunctionDecl& fn);

/// Lowers `expr` as a query into `prog`, replacing what it held: effects
/// off, value wanted. The program emits no store and binds no argument,
/// so running it only reads the state it runs against; it still interns
/// every field the expression reads. Returns the temp that holds the
/// expression's labels, or kNoTemp when they are statically empty.
TempId lowerQuery(const ast::Expr& expr, Program& prog);

/// Per-component compilation memo, shared across analyzer instances via
/// the ComponentCache entry so warm runs skip CFG construction and
/// lowering entirely. Thread-safe; a losing racer's compile is discarded
/// (lowering is pure, so duplicates are identical).
class IrCache {
 public:
  std::shared_ptr<const CompiledFunction> getOrCompile(const ast::FunctionDecl& fn);
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<const ast::FunctionDecl*, std::shared_ptr<const CompiledFunction>> map_;
};

}  // namespace fsdep::taint::ir
