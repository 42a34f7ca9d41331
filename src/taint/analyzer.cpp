#include "taint/analyzer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsdep::taint {

using namespace ast;

Analyzer::Analyzer(const TranslationUnit& tu, const sema::Sema& sema, AnalysisOptions options)
    : tu_(tu), sema_(sema), options_(options) {}

FieldKeyId Analyzer::fieldIdFor(const MemberExpr& m) const {
  const auto memo = field_id_memo_.find(m.field);
  if (memo != field_id_memo_.end()) return memo->second;
  const FieldKeyId id = field_keys_.intern(m.record->name, m.field->name);
  field_id_memo_[m.field] = id;
  return id;
}

LabelId Analyzer::bridgeLabelFor(const MemberExpr& m, FieldKeyId key) const {
  constexpr LabelId kUnset = static_cast<LabelId>(-1);
  if (key >= bridge_label_memo_.size()) bridge_label_memo_.resize(key + 1, kUnset);
  if (bridge_label_memo_[key] == kUnset) {
    bridge_label_memo_[key] = labels_.internField(m.record->name, m.field->name);
  }
  return bridge_label_memo_[key];
}

std::map<std::string, LabelSet> Analyzer::fieldWrites() const {
  std::map<std::string, LabelSet> out;
  for (const auto& [id, labels] : field_writes_) out.emplace(field_keys_.key(id), labels);
  return out;
}

Analyzer::FunctionSlot* Analyzer::slotOf(const FunctionDecl* fn) {
  const auto it = std::lower_bound(slot_index_.begin(), slot_index_.end(), fn,
                                   [](const auto& entry, const FunctionDecl* f) {
                                     return std::less<const FunctionDecl*>()(entry.first, f);
                                   });
  return it != slot_index_.end() && it->first == fn ? &slots_[it->second] : nullptr;
}

const Analyzer::FunctionSlot* Analyzer::slotOf(const FunctionDecl* fn) const {
  return const_cast<Analyzer*>(this)->slotOf(fn);
}

void Analyzer::markStale(FunctionSlot& slot) {
  if (!slot.stale) {
    slot.stale = true;
    ++stale_count_;
  }
}

void Analyzer::addSeed(Seed seed) { seeds_.push_back(std::move(seed)); }

const VarDecl* Analyzer::findVarInFunction(const FunctionDecl& fn, std::string_view name) const {
  for (const auto& p : fn.params) {
    if (p->name == name) return p.get();
  }
  // Walk the body for local declarations.
  const VarDecl* found = nullptr;
  // Simple recursive lambda over statements.
  auto walk = [&](auto&& self, const Stmt& stmt) -> void {
    if (found != nullptr) return;
    switch (stmt.kind()) {
      case StmtKind::Compound:
        for (const StmtPtr& s : static_cast<const CompoundStmt&>(stmt).body) self(self, *s);
        break;
      case StmtKind::Decl:
        for (const auto& v : static_cast<const DeclStmt&>(stmt).vars) {
          if (v->name == name) {
            found = v.get();
            return;
          }
        }
        break;
      case StmtKind::If: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        self(self, *s.then_stmt);
        if (s.else_stmt != nullptr) self(self, *s.else_stmt);
        break;
      }
      case StmtKind::While: self(self, *static_cast<const WhileStmt&>(stmt).body); break;
      case StmtKind::DoWhile: self(self, *static_cast<const DoWhileStmt&>(stmt).body); break;
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        if (s.init != nullptr) self(self, *s.init);
        self(self, *s.body);
        break;
      }
      case StmtKind::Switch:
        for (const auto& c : static_cast<const SwitchStmt&>(stmt).cases) self(self, *c);
        break;
      case StmtKind::Case:
        for (const StmtPtr& b : static_cast<const CaseStmt&>(stmt).body) self(self, *b);
        break;
      default:
        break;
    }
  };
  if (fn.body != nullptr) walk(walk, *fn.body);
  if (found != nullptr) return found;
  // Fall back to a global of that name.
  return tu_.findGlobal(name);
}

std::string Analyzer::describeVar(const VarDecl& var) const {
  if (var.owner != nullptr) return var.owner->name + "." + var.name;
  return var.name;
}

const std::string& Analyzer::varNameFor(const VarDecl& var) const {
  const auto [it, inserted] = var_name_memo_.try_emplace(&var);
  if (inserted) it->second = describeVar(var);
  return it->second;
}

void Analyzer::offerTrace(const void* site, std::string_view object, SourceLoc loc,
                          const Expr* rhs, const char* fallback) {
  SiteTrace& trace = site_traces_[site];
  if (trace.offered_in_run == run_) return;
  trace.offered_in_run = run_;
  if (trace.text.empty()) {
    trace.text.append(object).append(" <- ");
    trace.text += rhs != nullptr ? exprToString(*rhs) : fallback;
  }
  recordTrace(object, loc, trace.text);
}

void Analyzer::resolveSeeds(FunctionSlot& slot) {
  // Runs at the function's first analysis of the run: the body walk,
  // the label interning (in first-use order — LabelId order is
  // semantically visible), the sticky labels and the "seed: carries"
  // trace steps all happen once. Recording them again on a later
  // analysis would change nothing: sticky sets and traces only grow, and
  // a trace step is offered once per (object, loc, text).
  slot.seeds_resolved = true;
  for (const Seed& seed : seeds_) {
    if (seed.function != slot.fn->name) continue;
    const VarDecl* var = findVarInFunction(*slot.fn, seed.variable);
    if (var != nullptr) {
      slot.seeds.push_back(
          SeedBinding{var, labels_.internParam(seed.param), "seed: carries " + seed.param});
    }
  }
  // The bindings are complete, so their trace texts keep their address.
  for (const SeedBinding& seed : slot.seeds) {
    sticky_[seed.var].insert(seed.label);
    recordTrace(varNameFor(*seed.var), seed.var->loc, seed.trace_text);
  }
}

void Analyzer::seedEntryState(FunctionSlot& slot, TaintState& state) {
  if (!slot.seeds_resolved) resolveSeeds(slot);
  for (const SeedBinding& seed : slot.seeds) state.vars[seed.var].insert(seed.label);
  if (options_.inter_procedural) state.mergeFrom(slot.entry_bindings);
}

void Analyzer::run(const std::vector<const FunctionDecl*>& functions) {
  std::vector<const FunctionDecl*> fns = functions;
  if (fns.empty()) fns = tu_.functions();

  // Traces view seed texts held by the slots, so they go first.
  traces_.clear();
  results_.clear();  // destroys the FunctionTaints before the arena memory is recycled
  arena_.reset();
  result_slots_.clear();
  slots_.clear();
  slot_index_.clear();
  stale_count_ = 0;
  ++run_;
  field_writes_.clear();
  writes_.clear();
  sticky_.clear();
  merge_calls_ = 0;
  merge_grew_ = 0;
  stmt_visits_ = 0;
  ir_instrs_ = 0;
  ir_visits_ = 0;
  concrete_skips_ = 0;

  for (const FunctionDecl* fn : fns) {
    if (fn == nullptr || !fn->isDefinition()) continue;
    ArenaPtr<FunctionTaint> result(arena_.make<FunctionTaint>(&state_memory_));
    result->fn = fn;
    if (options_.compile_ir) {
      // Compiled once per function and memoized (shared across warm runs
      // via the component cache): CFG, RPO, and the flat instruction
      // stream all come from the cache entry.
      result->code = irCache().getOrCompile(*fn);
      result->cfg = result->code->cfg;
      result->rpo = result->code->rpo;
      if (result->code->program.num_temps > ir_temps_.size()) {
        ir_temps_.resize(result->code->program.num_temps);
      }
    } else {
      result->cfg = cfg::Cfg::build(*fn);
      result->rpo = result->cfg->reversePostOrder();
    }
    // A function listed twice gets two results but one slot; resultFor()
    // answers the later result.
    std::uint32_t slot = 0;
    const auto listed = std::find_if(slot_index_.begin(), slot_index_.end(),
                                     [fn](const auto& entry) { return entry.first == fn; });
    if (listed != slot_index_.end()) {
      slot = listed->second;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back().fn = fn;
      slot_index_.emplace_back(fn, slot);
    }
    slots_[slot].result = result.get();
    result_slots_.push_back(slot);
    results_.push_back(std::move(result));
  }
  std::sort(slot_index_.begin(), slot_index_.end(), [](const auto& a, const auto& b) {
    return std::less<const FunctionDecl*>()(a.first, b.first);
  });

  // Round 1 analyzes every function in source order. Each later round
  // re-analyzes, in source order, only the functions marked stale since
  // their last analysis: their entry bindings grew, or the return summary
  // of a callee they call did. Skipping the rest replays nothing — a
  // function's transfer side effects are idempotent and depend only on
  // those inputs. Round 1 interns every label, and bindings and
  // summaries only grow, so the loop ends without a cap. In intra mode
  // nothing is ever marked, so round 1 is the whole run.
  for (bool first_round = true; first_round || stale_count_ > 0; first_round = false) {
    for (std::size_t i = 0; i < results_.size(); ++i) {
      FunctionSlot& slot = slots_[result_slots_[i]];
      const bool was_stale = slot.stale;
      if (was_stale) {
        slot.stale = false;
        --stale_count_;
      } else if (!first_round) {
        ++concrete_skips_;
        continue;
      }
      current_result_ = results_[i].get();
      current_slot_ = &slot;
      analyzeFunction(slot, *results_[i]);
    }
  }
  current_result_ = nullptr;
  current_slot_ = nullptr;
  if (concrete_skips_ > 0) {
    static obs::Counter& skip_counter = obs::Registry::global().counter("taint.concrete_skips");
    skip_counter.add(concrete_skips_);
  }
}

void Analyzer::analyzeFunction(FunctionSlot& slot, FunctionTaint& result) {
  obs::Span span("taint", "fixpoint");
  span.arg("function", result.fn->name);
  const std::uint64_t stmts_before = stmt_visits_;
  const cfg::Cfg& cfg = *result.cfg;
  // The first analysis of the run makes the block states (in the arena);
  // a re-analysis empties them but keeps their storage.
  if (result.block_entry.empty()) {
    result.block_entry.reserve(cfg.size());
    result.at_condition.reserve(cfg.size());
    for (std::size_t i = 0; i < cfg.size(); ++i) {
      result.block_entry.emplace_back(&state_memory_);
      result.at_condition.emplace_back(&state_memory_);
    }
  } else {
    for (TaintState& state : result.block_entry) state.clear();
    for (TaintState& state : result.at_condition) state.clear();
  }
  seedEntryState(slot, result.block_entry[cfg.entry()]);

  const std::vector<cfg::BlockId>& order = result.rpo;
  // Dirty-block fixpoint: a block is reprocessed only when its entry
  // state grew since it last ran. The transfer side effects (traces,
  // write events) are idempotent and depend only on the entry state, so
  // skipping a converged block replays nothing and changes nothing —
  // acyclic CFGs settle in one real sweep plus one flag scan.
  dirty_.assign(cfg.size(), 1);
  TaintState& state = scratch_;
  bool changed = true;
  int iterations = 0;
  while (changed && iterations++ < 64) {
    changed = false;
    for (const cfg::BlockId id : order) {
      if (dirty_[id] == 0) continue;
      dirty_[id] = 0;
      const cfg::BasicBlock& block = cfg.block(id);
      state = result.block_entry[id];
      if (result.code != nullptr) {
        execBlock(result.code->program, id, state, &result.at_condition);
      } else {
        for (const Stmt* s : block.stmts) transferStmt(*s, state);
        if (block.inc_expr != nullptr) evalExpr(*block.inc_expr, state, /*effects=*/true);
        if (block.condition != nullptr) {
          result.at_condition[id] = state;
          evalExpr(*block.condition, state, /*effects=*/true);
        }
      }
      for (const cfg::Edge& e : block.successors) {
        const bool grew = result.block_entry[e.target].mergeFrom(state);
        ++merge_calls_;
        merge_grew_ += grew ? 1 : 0;
        if (grew) {
          dirty_[e.target] = 1;
          changed = true;
        }
      }
    }
  }
  // `iterations` counts sweeps over the CFG until nothing grew (or the
  // safety valve tripped); the histogram shows how close functions sit
  // to the 64-sweep cap.
  static obs::Histogram& fixpoint_iterations = obs::Registry::global().histogram(
      "taint.fixpoint_iterations", {}, {1, 2, 3, 4, 6, 8, 16, 32, 64});
  fixpoint_iterations.observe(static_cast<std::uint64_t>(iterations));
  span.arg("iterations", static_cast<std::uint64_t>(iterations));

  // Publish the union of the post-statement states at the exits (the
  // record/trace side effects are idempotent, so replaying is safe).
  result.exit_state.clear();
  for (const cfg::BlockId id : order) {
    const cfg::BasicBlock& block = cfg.block(id);
    if (!block.is_exit) continue;
    state = result.block_entry[id];
    if (result.code != nullptr) {
      const ir::BlockRange& range = result.code->program.blocks[id];
      ++ir_visits_;
      stmt_visits_ += range.stmt_count;
      execRange(result.code->program, range.stmts_begin, range.stmts_end, state);
    } else {
      for (const Stmt* s : block.stmts) transferStmt(*s, state);
    }
    result.exit_state.mergeFrom(state);
  }
  span.arg("stmts", stmt_visits_ - stmts_before);
}

ir::IrCache& Analyzer::irCache() {
  if (ir_cache_ == nullptr) ir_cache_ = std::make_shared<ir::IrCache>();
  return *ir_cache_;
}

void Analyzer::bindArgument(const FunctionDecl* callee, std::size_t index,
                            const LabelSet& labels) {
  // Only an analyzed callee ever reads its bindings.
  FunctionSlot* slot = slotOf(callee);
  if (slot != nullptr &&
      unionInto(slot->entry_bindings.vars[callee->params[index].get()], labels)) {
    markStale(*slot);
  }
}

const LabelSet* Analyzer::returnSummary(const FunctionDecl* callee) {
  FunctionSlot* slot = slotOf(callee);
  if (slot == nullptr) return nullptr;
  // labelsOf() evaluates calls after the run, outside any function.
  if (current_slot_ != nullptr) {
    const auto caller = static_cast<std::uint32_t>(current_slot_ - slots_.data());
    if (std::find(slot->callers.begin(), slot->callers.end(), caller) == slot->callers.end()) {
      slot->callers.push_back(caller);
    }
  }
  return &slot->return_summary;
}

void Analyzer::recordReturn(const LabelSet& labels) {
  unionInto(current_result_->return_labels, labels);
  if (options_.inter_procedural && unionInto(current_slot_->return_summary, labels)) {
    for (const std::uint32_t caller : current_slot_->callers) markStale(slots_[caller]);
  }
}

void Analyzer::execBlock(const ir::Program& prog, cfg::BlockId id, TaintState& state,
                         std::vector<TaintState>* at_condition) {
  const ir::BlockRange& range = prog.blocks[id];
  ++ir_visits_;
  stmt_visits_ += range.stmt_count;
  execRange(prog, range.stmts_begin, range.stmts_end, state);
  execRange(prog, range.stmts_end, range.inc_end, state);
  if (range.has_condition) {
    if (at_condition != nullptr) (*at_condition)[id] = state;
    execRange(prog, range.inc_end, range.cond_end, state);
  }
}

void Analyzer::execRange(const ir::Program& prog, std::uint32_t begin, std::uint32_t end,
                         TaintState& state) {
  ir_instrs_ += end - begin;
  std::vector<LabelSet>& temps = ir_temps_;
  const LabelSet no_labels;
  for (std::uint32_t pc = begin; pc < end; ++pc) {
    const ir::Instr& in = prog.instrs[pc];
    switch (in.op) {
      case ir::Op::LoadVar:
        temps[in.dst] = state.varLabels(in.var);
        break;

      case ir::Op::LoadField: {
        // Interning runs even for a discarded read (dst == kNoTemp):
        // field-key and bridge-label id assignment is first-use ordered
        // and semantically visible, exactly as in the AST walk.
        const MemberExpr& m = *in.member;
        const FieldKeyId key = fieldIdFor(m);
        if (options_.field_bridging) {
          const LabelId bridge = bridgeLabelFor(m, key);
          if (in.dst != ir::kNoTemp) {
            LabelSet labels = state.fieldLabels(key);
            labels.insert(bridge);
            temps[in.dst] = std::move(labels);
          }
        } else if (in.dst != ir::kNoTemp) {
          temps[in.dst] = state.fieldLabels(key);
        }
        break;
      }

      case ir::Op::Copy:
        temps[in.dst] = temps[in.a];
        break;

      case ir::Op::UnionInto:
        unionInto(temps[in.dst], temps[in.a]);
        break;

      case ir::Op::AssignVar: {
        const LabelSet* src = in.a == ir::kNoTemp ? nullptr : &temps[in.a];
        // Out-param stores only happen when the merged other-arg labels
        // are non-empty (the AST walk never calls assignTo then).
        if (in.skip_if_empty && (src == nullptr || src->empty())) break;
        LabelSet merged = src != nullptr ? *src : LabelSet{};
        if (const auto sticky = sticky_.find(in.var); sticky != sticky_.end()) {
          unionInto(merged, sticky->second);
        }
        if (in.strong) {
          state.vars[in.var] = merged;
        } else {
          unionInto(state.vars[in.var], merged);
        }
        if (!merged.empty()) {
          const std::string& object = varNameFor(*in.var);
          offerTrace(in.site, object, in.loc, in.rhs, "<call out-param>");
          recordWrite(*in.write_key, object, /*is_field=*/false, merged, in.rhs, in.loc, in.aop);
        }
        break;
      }

      case ir::Op::AssignField: {
        const LabelSet* src = in.a == ir::kNoTemp ? nullptr : &temps[in.a];
        // Checked before interning: a skipped out-param store interns
        // nothing in the AST walk either.
        if (in.skip_if_empty && (src == nullptr || src->empty())) break;
        const LabelSet& labels = src != nullptr ? *src : no_labels;
        const MemberExpr& m = *in.member;
        const FieldKeyId id = fieldIdFor(m);
        // Fields are object-insensitive: always a weak update.
        unionInto(state.fields[id], labels);
        unionInto(field_writes_[id], labels);
        if (!labels.empty()) {
          const std::string& key = field_keys_.key(id);
          offerTrace(in.site, key, in.loc, in.rhs, "<expr>");
          recordWrite(*in.write_key, key, /*is_field=*/true, labels, in.rhs, in.loc, in.aop);
        }
        break;
      }

      case ir::Op::DeclInit: {
        LabelSet labels = in.a == ir::kNoTemp ? LabelSet{} : temps[in.a];
        if (const auto sticky = sticky_.find(in.var); sticky != sticky_.end()) {
          unionInto(labels, sticky->second);
        }
        if (!labels.empty()) {
          state.vars[in.var] = labels;
          const std::string& object = varNameFor(*in.var);
          offerTrace(in.site, object, in.loc, in.rhs, "");
          recordWrite(*in.write_key, object, /*is_field=*/false, labels, in.rhs, in.loc,
                      BinaryOp::Assign);
        } else {
          state.vars[in.var].clear();
        }
        break;
      }

      case ir::Op::Call: {
        const ir::CallSpec& spec = prog.calls[in.aux];
        const ir::TempId* args = prog.call_args.data() + spec.args_begin;
        const std::size_t nargs = spec.args_end - spec.args_begin;
        LabelSet result;
        for (std::size_t i = 0; i < nargs; ++i) {
          if (args[i] != ir::kNoTemp) unionInto(result, temps[args[i]]);
        }
        const FunctionDecl* callee = spec.callee;
        if (options_.inter_procedural && callee != nullptr) {
          if (spec.effects) {
            for (std::size_t i = 0; i < nargs && i < callee->params.size(); ++i) {
              if (args[i] != ir::kNoTemp && !temps[args[i]].empty()) {
                bindArgument(callee, i, temps[args[i]]);
              }
            }
          }
          if (const LabelSet* summary = returnSummary(callee)) unionInto(result, *summary);
        }
        temps[in.dst] = std::move(result);
        break;
      }

      case ir::Op::Return:
        if (current_result_ != nullptr) recordReturn(temps[in.a]);
        break;
    }
  }
}

void Analyzer::transferStmt(const Stmt& stmt, TaintState& state) {
  ++stmt_visits_;
  switch (stmt.kind()) {
    case StmtKind::Decl: {
      for (const auto& var : static_cast<const DeclStmt&>(stmt).vars) {
        if (var->init == nullptr) continue;
        LabelSet labels = evalExpr(*var->init, state, /*effects=*/true);
        if (const auto sticky = sticky_.find(var.get()); sticky != sticky_.end()) {
          unionInto(labels, sticky->second);
        }
        if (!labels.empty()) {
          state.vars[var.get()] = labels;
          const std::string& object = varNameFor(*var);
          offerTrace(var.get(), object, var->loc, var->init.get(), "");
          recordWrite(*var->init, object, /*is_field=*/false, labels, var->init.get(), var->loc,
                      BinaryOp::Assign);
        } else {
          state.vars[var.get()].clear();
        }
      }
      break;
    }
    case StmtKind::Expr:
      evalExpr(*static_cast<const ExprStmt&>(stmt).expr, state, /*effects=*/true);
      break;
    case StmtKind::Return: {
      const auto& ret = static_cast<const ReturnStmt&>(stmt);
      if (ret.value != nullptr && current_result_ != nullptr) {
        recordReturn(evalExpr(*ret.value, state, /*effects=*/true));
      }
      break;
    }
    default:
      break;
  }
}

LabelSet Analyzer::labelsOf(const Expr& expr, const TaintState& state) const {
  // evalExpr with effects=false never mutates the state.
  auto* self = const_cast<Analyzer*>(this);
  return self->evalExpr(expr, const_cast<TaintState&>(state), /*effects=*/false);
}

LabelSet Analyzer::evalExpr(const Expr& expr, TaintState& state, bool effects) {
  switch (expr.kind()) {
    case ExprKind::IntLiteral:
    case ExprKind::StringLiteral:
    case ExprKind::SizeofType:
      return {};

    case ExprKind::DeclRef: {
      const auto& ref = static_cast<const DeclRefExpr&>(expr);
      if (ref.decl == nullptr) return {};
      return state.varLabels(ref.decl);
    }

    case ExprKind::Unary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      return evalExpr(*u.operand, state, effects);
    }

    case ExprKind::Binary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      if (isAssignment(b.op)) {
        // Only the RHS labels are the *new* contribution of this write;
        // a compound assignment's old-value labels are already in the
        // state (weak update) and must not be attributed to this write
        // event, or every `features |= (flag ? MASK : 0)` would smear the
        // earlier flags onto later masks.
        LabelSet labels = evalExpr(*b.rhs, state, effects);
        if (effects) {
          assignTo(*b.lhs, b.rhs.get(), labels, b.op == BinaryOp::Assign, state, expr.loc, b.op);
        }
        if (b.op != BinaryOp::Assign) {
          // The expression's VALUE still depends on the old contents.
          unionInto(labels, evalExpr(*b.lhs, state, /*effects=*/false));
        }
        return labels;
      }
      LabelSet labels = evalExpr(*b.lhs, state, effects);
      unionInto(labels, evalExpr(*b.rhs, state, effects));
      return labels;
    }

    case ExprKind::Conditional: {
      // The value of `cond ? a : b` is strictly determined by the
      // condition, so the condition's labels flow to the result. This is
      // the one controlled implicit flow the analysis tracks; it is what
      // lets feature-flag parameters reach the feature bitmap through the
      // idiomatic `sb->s_feature_x |= (flag ? MASK : 0)`.
      const auto& c = static_cast<const ConditionalExpr&>(expr);
      LabelSet labels = evalExpr(*c.cond, state, effects);
      unionInto(labels, evalExpr(*c.then_expr, state, effects));
      unionInto(labels, evalExpr(*c.else_expr, state, effects));
      return labels;
    }

    case ExprKind::Call: {
      const auto& call = static_cast<const CallExpr&>(expr);
      LabelSet arg_labels;
      std::vector<LabelSet> per_arg;
      per_arg.reserve(call.args.size());
      for (const ExprPtr& a : call.args) {
        per_arg.push_back(evalExpr(*a, state, effects));
        unionInto(arg_labels, per_arg.back());
      }

      // Out-parameters: foo(&x, src) may write src's labels into x.
      if (effects) {
        for (std::size_t i = 0; i < call.args.size(); ++i) {
          const Expr* a = call.args[i].get();
          if (a->kind() != ExprKind::Unary) continue;
          const auto& u = static_cast<const UnaryExpr&>(*a);
          if (u.op != UnaryOp::AddrOf) continue;
          LabelSet others;
          for (std::size_t j = 0; j < per_arg.size(); ++j) {
            if (j != i) unionInto(others, per_arg[j]);
          }
          if (!others.empty()) {
            assignTo(*u.operand, nullptr, others, /*strong=*/false, state, expr.loc);
          }
        }
      }

      if (options_.inter_procedural && call.callee_decl != nullptr &&
          call.callee_decl->isDefinition()) {
        const FunctionDecl* callee = call.callee_decl;
        if (effects) {
          for (std::size_t i = 0; i < call.args.size() && i < callee->params.size(); ++i) {
            if (!per_arg[i].empty()) bindArgument(callee, i, per_arg[i]);
          }
        }
        if (const LabelSet* summary = returnSummary(callee)) unionInto(arg_labels, *summary);
      }
      return arg_labels;
    }

    case ExprKind::Member: {
      const auto& m = static_cast<const MemberExpr&>(expr);
      evalExpr(*m.base, state, effects);
      if (m.record == nullptr || m.field == nullptr) return {};
      const FieldKeyId key = fieldIdFor(m);
      LabelSet labels = state.fieldLabels(key);
      if (options_.field_bridging) {
        labels.insert(bridgeLabelFor(m, key));
      }
      return labels;
    }

    case ExprKind::Index: {
      const auto& i = static_cast<const IndexExpr&>(expr);
      evalExpr(*i.index, state, effects);
      return evalExpr(*i.base, state, effects);
    }

    case ExprKind::Cast:
      return evalExpr(*static_cast<const CastExpr&>(expr).operand, state, effects);

    case ExprKind::InitList: {
      LabelSet labels;
      for (const ExprPtr& e : static_cast<const InitListExpr&>(expr).elements) {
        unionInto(labels, evalExpr(*e, state, effects));
      }
      return labels;
    }
  }
  return {};
}

void Analyzer::assignTo(const Expr& lhs, const Expr* rhs, const LabelSet& labels, bool strong,
                        TaintState& state, SourceLoc loc, BinaryOp op) {
  switch (lhs.kind()) {
    case ExprKind::DeclRef: {
      const auto& ref = static_cast<const DeclRefExpr&>(lhs);
      if (ref.decl == nullptr) return;
      LabelSet merged = labels;
      if (const auto sticky = sticky_.find(ref.decl); sticky != sticky_.end()) {
        unionInto(merged, sticky->second);
      }
      if (strong) {
        state.vars[ref.decl] = merged;
      } else {
        unionInto(state.vars[ref.decl], merged);
      }
      if (!merged.empty()) {
        const std::string& object = varNameFor(*ref.decl);
        offerTrace(&lhs, object, loc, rhs, "<call out-param>");
        recordWrite(lhs, object, /*is_field=*/false, merged, rhs, loc, op);
      }
      break;
    }
    case ExprKind::Member: {
      const auto& m = static_cast<const MemberExpr&>(lhs);
      if (m.record == nullptr || m.field == nullptr) return;
      const FieldKeyId id = fieldIdFor(m);
      // Fields are object-insensitive: always a weak update.
      unionInto(state.fields[id], labels);
      unionInto(field_writes_[id], labels);
      if (!labels.empty()) {
        const std::string& key = field_keys_.key(id);
        offerTrace(&lhs, key, loc, rhs, "<expr>");
        recordWrite(lhs, key, /*is_field=*/true, labels, rhs, loc, op);
      }
      break;
    }
    case ExprKind::Index: {
      const auto& i = static_cast<const IndexExpr&>(lhs);
      assignTo(*i.base, rhs, labels, /*strong=*/false, state, loc, op);
      break;
    }
    case ExprKind::Unary: {
      const auto& u = static_cast<const UnaryExpr&>(lhs);
      if (u.op == UnaryOp::Deref || u.op == UnaryOp::AddrOf) {
        assignTo(*u.operand, rhs, labels, /*strong=*/false, state, loc, op);
      }
      break;
    }
    case ExprKind::Cast:
      assignTo(*static_cast<const CastExpr&>(lhs).operand, rhs, labels, strong, state, loc, op);
      break;
    default:
      break;
  }
}

void Analyzer::recordTrace(std::string_view object, SourceLoc loc, std::string_view text) {
  std::vector<TraceStep>& trace = traces_[object];
  if (trace.size() >= options_.max_trace_steps) return;
  // Skip exact duplicates produced by fixpoint re-iteration.
  for (const TraceStep& step : trace) {
    if (step.loc == loc && step.text == text) return;
  }
  trace.push_back(TraceStep{loc, text});
}

void Analyzer::recordWrite(const Expr& assign, std::string_view object, bool is_field,
                           const LabelSet& labels, const Expr* rhs, SourceLoc loc, BinaryOp op) {
  WriteEvent& event = writes_[&assign];
  if (event.assign == nullptr) {
    event.fn = current_slot_->fn;
    event.assign = &assign;
    event.loc = loc;
    event.object = object;
    event.is_field = is_field;
    if (is_field) event.field_key = object;
    event.rhs = rhs;
    event.op = op;
    if (rhs != nullptr && rhs->kind() == ExprKind::Call) {
      event.rhs_callee = static_cast<const CallExpr*>(rhs)->callee;
    }
  }
  unionInto(event.labels, labels);
}

std::vector<const WriteEvent*> Analyzer::writeEvents() const {
  std::vector<const WriteEvent*> out;
  out.reserve(writes_.size());
  for (const auto& [expr, event] : writes_) out.push_back(&event);
  // Site order first, so the location sort below sees the same sequence
  // (and breaks location ties the same way) as it always has.
  std::sort(out.begin(), out.end(), [](const WriteEvent* a, const WriteEvent* b) {
    return std::less<const Expr*>()(a->assign, b->assign);
  });
  std::sort(out.begin(), out.end(), [](const WriteEvent* a, const WriteEvent* b) {
    if (a->loc.file.value != b->loc.file.value) return a->loc.file.value < b->loc.file.value;
    if (a->loc.line != b->loc.line) return a->loc.line < b->loc.line;
    return a->loc.column < b->loc.column;
  });
  return out;
}

const std::vector<TraceStep>* Analyzer::traceFor(std::string_view object) const {
  const auto it = traces_.find(object);
  return it != traces_.end() ? &it->second : nullptr;
}

const FunctionTaint* Analyzer::resultFor(const FunctionDecl* fn) const {
  const FunctionSlot* slot = slotOf(fn);
  return slot != nullptr ? slot->result : nullptr;
}

const FunctionTaint* Analyzer::resultFor(std::string_view function_name) const {
  for (const auto& r : results_) {
    if (r->fn->name == function_name) return r.get();
  }
  return nullptr;
}

}  // namespace fsdep::taint
