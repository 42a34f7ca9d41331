#include "cfg/cfg.h"

#include <algorithm>

namespace fsdep::cfg {

using namespace ast;

BlockId Cfg::newBlock() {
  BasicBlock* b = arena_.make<BasicBlock>();
  b->id = static_cast<BlockId>(blocks_.size());
  blocks_.push_back(arena_, b);
  return b->id;
}

void Cfg::addEdge(BlockId from, BlockId to, EdgeKind kind, std::int64_t case_value) {
  blocks_[from]->successors.push_back(arena_, Edge{to, kind, case_value});
  blocks_[to]->predecessors.push_back(arena_, from);
}

std::vector<BlockId> Cfg::reversePostOrder() const {
  std::vector<BlockId> post;
  post.reserve(blocks_.size());
  std::vector<bool> visited(blocks_.size(), false);
  // Iterative DFS to avoid deep recursion on long chains.
  struct Frame {
    BlockId id;
    std::size_t next_succ;
  };
  std::vector<Frame> stack;
  stack.reserve(blocks_.size());
  stack.push_back(Frame{entry_, 0});
  visited[entry_] = true;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const BasicBlock& b = *blocks_[f.id];
    if (f.next_succ < b.successors.size()) {
      const BlockId succ = b.successors[f.next_succ++].target;
      if (!visited[succ]) {
        visited[succ] = true;
        stack.push_back(Frame{succ, 0});
      }
    } else {
      post.push_back(f.id);
      stack.pop_back();
    }
  }
  std::reverse(post.begin(), post.end());
  return post;
}

std::string Cfg::dump() const {
  std::string out;
  for (const BasicBlock* b : blocks_) {
    out += "B" + std::to_string(b->id);
    if (b->id == entry_) out += " (entry)";
    if (b->is_exit) out += " (exit)";
    out += ":\n";
    for (const Stmt* s : b->stmts) {
      out += "  ";
      switch (s->kind()) {
        case StmtKind::Expr:
          out += exprToString(*static_cast<const ExprStmt*>(s)->expr);
          break;
        case StmtKind::Decl: {
          const auto* d = static_cast<const DeclStmt*>(s);
          for (const auto& v : d->vars) {
            out += v->type.spelling() + " " + v->name;
            if (v->init != nullptr) out += " = " + exprToString(*v->init);
            out += "; ";
          }
          break;
        }
        case StmtKind::Return: {
          const auto* r = static_cast<const ReturnStmt*>(s);
          out += "return";
          if (r->value != nullptr) out += " " + exprToString(*r->value);
          break;
        }
        default:
          out += "<stmt>";
      }
      out += '\n';
    }
    if (b->condition != nullptr) {
      out += b->is_switch_dispatch ? "  switch " : "  branch ";
      out += exprToString(*b->condition);
      out += '\n';
    }
    for (const Edge& e : b->successors) {
      out += "  -> B" + std::to_string(e.target);
      switch (e.kind) {
        case EdgeKind::True: out += " [true]"; break;
        case EdgeKind::False: out += " [false]"; break;
        case EdgeKind::Case: out += " [case " + std::to_string(e.case_value) + "]"; break;
        case EdgeKind::Default: out += " [default]"; break;
        case EdgeKind::Fallthrough: break;
      }
      out += '\n';
    }
  }
  return out;
}

namespace {

/// Builds a Cfg from a function body, tracking break/continue targets.
class Builder {
 public:
  explicit Builder(Cfg& cfg) : cfg_(cfg) {}

  void run(const FunctionDecl& fn) {
    cfg_.setEntry(cfg_.newBlock());
    current_ = cfg_.entry();
    buildStmt(*fn.body);
    if (current_ != kInvalidBlock) cfg_.block(current_).is_exit = true;
  }

 private:
  // Appends to the current block; a kInvalidBlock current means the code is
  // unreachable (after return/break) — we still build blocks for it so the
  // analysis sees all code, matching what a linter-style tool wants.
  void ensureCurrent() {
    if (current_ == kInvalidBlock) current_ = cfg_.newBlock();
  }

  void buildStmt(const Stmt& stmt) {
    switch (stmt.kind()) {
      case StmtKind::Compound:
        for (const StmtPtr& s : static_cast<const CompoundStmt&>(stmt).body) buildStmt(*s);
        break;
      case StmtKind::Decl:
      case StmtKind::Expr:
        ensureCurrent();
        cfg_.addStmt(current_, &stmt);
        break;
      case StmtKind::Return:
        ensureCurrent();
        cfg_.addStmt(current_, &stmt);
        cfg_.block(current_).is_exit = true;
        current_ = kInvalidBlock;
        break;
      case StmtKind::If: buildIf(static_cast<const IfStmt&>(stmt)); break;
      case StmtKind::While: buildWhile(static_cast<const WhileStmt&>(stmt)); break;
      case StmtKind::DoWhile: buildDoWhile(static_cast<const DoWhileStmt&>(stmt)); break;
      case StmtKind::For: buildFor(static_cast<const ForStmt&>(stmt)); break;
      case StmtKind::Switch: buildSwitch(static_cast<const SwitchStmt&>(stmt)); break;
      case StmtKind::Break:
        if (!break_targets_.empty()) {
          ensureCurrent();
          cfg_.addEdge(current_, break_targets_.back(), EdgeKind::Fallthrough);
          current_ = kInvalidBlock;
        }
        break;
      case StmtKind::Continue:
        if (!continue_targets_.empty()) {
          ensureCurrent();
          cfg_.addEdge(current_, continue_targets_.back(), EdgeKind::Fallthrough);
          current_ = kInvalidBlock;
        }
        break;
      case StmtKind::Case:
        break;  // handled inside buildSwitch
      case StmtKind::Null:
        break;
    }
  }

  void buildIf(const IfStmt& stmt) {
    ensureCurrent();
    const BlockId cond_block = current_;
    cfg_.block(cond_block).condition = stmt.cond.get();

    const BlockId then_block = cfg_.newBlock();
    cfg_.addEdge(cond_block, then_block, EdgeKind::True);
    current_ = then_block;
    buildStmt(*stmt.then_stmt);
    const BlockId then_end = current_;

    BlockId else_end = kInvalidBlock;
    BlockId else_block = kInvalidBlock;
    if (stmt.else_stmt != nullptr) {
      else_block = cfg_.newBlock();
      cfg_.addEdge(cond_block, else_block, EdgeKind::False);
      current_ = else_block;
      buildStmt(*stmt.else_stmt);
      else_end = current_;
    }

    const BlockId join = cfg_.newBlock();
    if (then_end != kInvalidBlock) cfg_.addEdge(then_end, join, EdgeKind::Fallthrough);
    if (stmt.else_stmt != nullptr) {
      if (else_end != kInvalidBlock) cfg_.addEdge(else_end, join, EdgeKind::Fallthrough);
    } else {
      cfg_.addEdge(cond_block, join, EdgeKind::False);
    }
    current_ = join;
  }

  void buildWhile(const WhileStmt& stmt) {
    ensureCurrent();
    const BlockId cond_block = cfg_.newBlock();
    cfg_.addEdge(current_, cond_block, EdgeKind::Fallthrough);
    cfg_.block(cond_block).condition = stmt.cond.get();
    cfg_.block(cond_block).is_loop_condition = true;

    const BlockId body_block = cfg_.newBlock();
    const BlockId exit_block = cfg_.newBlock();
    cfg_.addEdge(cond_block, body_block, EdgeKind::True);
    cfg_.addEdge(cond_block, exit_block, EdgeKind::False);

    break_targets_.push_back(exit_block);
    continue_targets_.push_back(cond_block);
    current_ = body_block;
    buildStmt(*stmt.body);
    if (current_ != kInvalidBlock) cfg_.addEdge(current_, cond_block, EdgeKind::Fallthrough);
    break_targets_.pop_back();
    continue_targets_.pop_back();

    current_ = exit_block;
  }

  void buildDoWhile(const DoWhileStmt& stmt) {
    ensureCurrent();
    const BlockId body_block = cfg_.newBlock();
    cfg_.addEdge(current_, body_block, EdgeKind::Fallthrough);
    const BlockId cond_block = cfg_.newBlock();
    const BlockId exit_block = cfg_.newBlock();
    cfg_.block(cond_block).condition = stmt.cond.get();
    cfg_.block(cond_block).is_loop_condition = true;
    cfg_.addEdge(cond_block, body_block, EdgeKind::True);
    cfg_.addEdge(cond_block, exit_block, EdgeKind::False);

    break_targets_.push_back(exit_block);
    continue_targets_.push_back(cond_block);
    current_ = body_block;
    buildStmt(*stmt.body);
    if (current_ != kInvalidBlock) cfg_.addEdge(current_, cond_block, EdgeKind::Fallthrough);
    break_targets_.pop_back();
    continue_targets_.pop_back();

    current_ = exit_block;
  }

  void buildFor(const ForStmt& stmt) {
    ensureCurrent();
    if (stmt.init != nullptr) buildStmt(*stmt.init);
    ensureCurrent();

    const BlockId cond_block = cfg_.newBlock();
    cfg_.addEdge(current_, cond_block, EdgeKind::Fallthrough);
    const BlockId body_block = cfg_.newBlock();
    const BlockId inc_block = cfg_.newBlock();
    const BlockId exit_block = cfg_.newBlock();

    if (stmt.cond != nullptr) {
      cfg_.block(cond_block).condition = stmt.cond.get();
      cfg_.block(cond_block).is_loop_condition = true;
      cfg_.addEdge(cond_block, body_block, EdgeKind::True);
      cfg_.addEdge(cond_block, exit_block, EdgeKind::False);
    } else {
      cfg_.addEdge(cond_block, body_block, EdgeKind::Fallthrough);
    }

    break_targets_.push_back(exit_block);
    continue_targets_.push_back(inc_block);
    current_ = body_block;
    buildStmt(*stmt.body);
    if (current_ != kInvalidBlock) cfg_.addEdge(current_, inc_block, EdgeKind::Fallthrough);
    break_targets_.pop_back();
    continue_targets_.pop_back();

    if (stmt.inc != nullptr) cfg_.block(inc_block).inc_expr = stmt.inc.get();
    cfg_.addEdge(inc_block, cond_block, EdgeKind::Fallthrough);
    current_ = exit_block;
  }

  Cfg& cfg_;
  BlockId current_ = kInvalidBlock;
  std::vector<BlockId> break_targets_;
  std::vector<BlockId> continue_targets_;

  void buildSwitch(const SwitchStmt& stmt) {
    ensureCurrent();
    const BlockId dispatch = current_;
    cfg_.block(dispatch).condition = stmt.cond.get();
    cfg_.block(dispatch).is_switch_dispatch = true;

    const BlockId exit_block = cfg_.newBlock();
    break_targets_.push_back(exit_block);

    bool has_default = false;
    BlockId prev_case_end = kInvalidBlock;
    for (const auto& c : stmt.cases) {
      const BlockId case_block = cfg_.newBlock();
      if (c->is_default) {
        has_default = true;
        cfg_.addEdge(dispatch, case_block, EdgeKind::Default);
      } else {
        cfg_.addEdge(dispatch, case_block, EdgeKind::Case, 0);
      }
      // Fall-through from the previous case body.
      if (prev_case_end != kInvalidBlock) {
        cfg_.addEdge(prev_case_end, case_block, EdgeKind::Fallthrough);
      }
      current_ = case_block;
      for (const StmtPtr& s : c->body) buildStmt(*s);
      prev_case_end = current_;
    }
    if (prev_case_end != kInvalidBlock) {
      cfg_.addEdge(prev_case_end, exit_block, EdgeKind::Fallthrough);
    }
    if (!has_default) cfg_.addEdge(dispatch, exit_block, EdgeKind::Default);

    break_targets_.pop_back();
    current_ = exit_block;
  }
};

}  // namespace

std::unique_ptr<Cfg> Cfg::build(const FunctionDecl& fn) {
  auto cfg = std::make_unique<Cfg>();
  if (fn.body == nullptr) {
    cfg->entry_ = cfg->newBlock();
    cfg->block(cfg->entry_).is_exit = true;
    return cfg;
  }
  Builder builder(*cfg);
  builder.run(fn);
  // Guarantee at least one exit block.
  bool has_exit = false;
  for (const BasicBlock* b : cfg->blocks_) has_exit |= b->is_exit;
  if (!has_exit && !cfg->blocks_.empty()) cfg->blocks_[cfg->blocks_.size() - 1]->is_exit = true;
  return cfg;
}

}  // namespace fsdep::cfg
