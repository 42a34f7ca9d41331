// Control-flow graph for one function of the fsdep C subset.
//
// Blocks carry the statements executed straight-line; a block may end with
// a branch condition whose true/false successors are explicit. The taint
// analysis runs a forward dataflow over this graph, and the dependency
// extractor inspects branch conditions together with what the guarded
// blocks do (error exits vs. normal continuation).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "support/arena.h"

namespace fsdep::cfg {

using BlockId = std::uint32_t;
inline constexpr BlockId kInvalidBlock = 0xFFFFFFFFu;

enum class EdgeKind : std::uint8_t { Fallthrough, True, False, Case, Default };

struct Edge {
  BlockId target = kInvalidBlock;
  EdgeKind kind = EdgeKind::Fallthrough;
  /// For Case edges: the (folded) case value.
  std::int64_t case_value = 0;
};

/// A block's lists live in the owning Cfg's arena (append through
/// Cfg::addStmt / Cfg::addEdge), so building a graph makes no heap
/// allocation per statement or edge.
struct BasicBlock {
  BlockId id = kInvalidBlock;
  /// Straight-line statements: DeclStmt / ExprStmt / ReturnStmt.
  ArenaVector<const ast::Stmt*> stmts;
  /// A for-loop increment expression evaluated in this block (the builder
  /// gives each for-loop a dedicated increment block).
  const ast::Expr* inc_expr = nullptr;
  /// Branch condition if the block ends in a conditional branch; also set
  /// for switch dispatch (the switch operand).
  const ast::Expr* condition = nullptr;
  bool is_switch_dispatch = false;
  /// True when `condition` is a loop condition (while/do-while/for); the
  /// dependency extractor skips those for guard analysis.
  bool is_loop_condition = false;
  ArenaVector<Edge> successors;
  ArenaVector<BlockId> predecessors;
  /// True when the block ends the function (return or falls off the end).
  bool is_exit = false;
};

class Cfg {
 public:
  [[nodiscard]] const BasicBlock& block(BlockId id) const { return *blocks_[id]; }
  [[nodiscard]] BasicBlock& block(BlockId id) { return *blocks_[id]; }
  [[nodiscard]] std::size_t size() const { return blocks_.size(); }
  [[nodiscard]] BlockId entry() const { return entry_; }

  /// Blocks in reverse post-order (good iteration order for forward
  /// dataflow).
  [[nodiscard]] std::vector<BlockId> reversePostOrder() const;

  [[nodiscard]] std::string dump() const;

  /// Builds the CFG of a function definition.
  static std::unique_ptr<Cfg> build(const ast::FunctionDecl& fn);

  /// Low-level construction API, used by the builder and by tests that
  /// assemble graphs by hand.
  BlockId newBlock();
  void addStmt(BlockId id, const ast::Stmt* stmt) { blocks_[id]->stmts.push_back(arena_, stmt); }
  void addEdge(BlockId from, BlockId to, EdgeKind kind, std::int64_t case_value = 0);
  void setEntry(BlockId id) { entry_ = id; }

 private:
  /// Storage of the blocks and of every list in them.
  Arena arena_;
  ArenaVector<BasicBlock*> blocks_;
  BlockId entry_ = kInvalidBlock;
};

}  // namespace fsdep::cfg
