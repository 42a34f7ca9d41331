#include "taint/analyzer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsdep::taint {

using namespace ast;

/// Steps kept per object's trace. No trace of the seed or amplified
/// corpora reaches it (Taint.TraceCapNeverTruncatesOnTheCorpora); a step
/// past it is dropped and counted in taint.trace_truncations.
constexpr std::size_t kMaxTraceSteps = 24;

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
    // Compiled once per function and memoized (shared across warm runs
    // via the component cache): CFG, RPO, and the flat instruction
    // stream all come from the cache entry.
    result->code = irCache().getOrCompile(*fn);
    if (result->code->program.num_temps > ir_temps_.size()) {
      ir_temps_.resize(result->code->program.num_temps);
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
  const ir::Program& prog = result.code->program;
  const cfg::Cfg& cfg = *result.code->cfg;
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

  const std::vector<cfg::BlockId>& order = result.code->rpo;
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
      state = result.block_entry[id];
      execBlock(prog, id, state, result.at_condition[id]);
      for (const cfg::Edge& e : cfg.block(id).successors) {
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
    if (!cfg.block(id).is_exit) continue;
    state = result.block_entry[id];
    const ir::BlockRange& range = prog.blocks[id];
    ++ir_visits_;
    stmt_visits_ += range.stmt_count;
    ir_instrs_ += range.stmts_end - range.stmts_begin;
    execRange(prog, range.stmts_begin, range.stmts_end, state);
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
                         TaintState& at_condition) {
  const ir::BlockRange& range = prog.blocks[id];
  ++ir_visits_;
  stmt_visits_ += range.stmt_count;
  ir_instrs_ += range.cond_end - range.stmts_begin;
  execRange(prog, range.stmts_begin, range.stmts_end, state);
  execRange(prog, range.stmts_end, range.inc_end, state);
  if (range.has_condition) {
    at_condition = state;
    execRange(prog, range.inc_end, range.cond_end, state);
  }
}

LabelSet Analyzer::labelsOf(const Expr& expr, const TaintState& state) const {
  // A query program stores nothing and binds nothing, so `state` is only
  // read. What the query does write — the scratch program, the temps and
  // the interners — is the analyzer's own scratch.
  auto* self = const_cast<Analyzer*>(this);
  ir::Program& prog = self->query_;
  const ir::TempId result = ir::lowerQuery(expr, prog);
  if (prog.num_temps > ir_temps_.size()) self->ir_temps_.resize(prog.num_temps);
  // Runs even when the value is statically empty: a discarded field read
  // still interns.
  self->execRange(prog, 0, static_cast<std::uint32_t>(prog.instrs.size()),
                  const_cast<TaintState&>(state));
  return result == ir::kNoTemp ? LabelSet{} : std::move(self->ir_temps_[result]);
}

void Analyzer::execRange(const ir::Program& prog, std::uint32_t begin, std::uint32_t end,
                         TaintState& state) {
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
        // field-key and bridge-label ids are assigned in first-use order,
        // which is semantically visible.
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
        // are non-empty.
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
        // nothing.
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
        // Only function bodies return (a query lowers no statement), and
        // they run inside run(), which sets the current function.
        recordReturn(temps[in.a]);
        break;
    }
  }
}

void Analyzer::recordTrace(std::string_view object, SourceLoc loc, std::string_view text) {
  std::vector<TraceStep>& trace = traces_[object];
  // Skip exact duplicates produced by fixpoint re-iteration.
  for (const TraceStep& step : trace) {
    if (step.loc == loc && step.text == text) return;
  }
  if (trace.size() >= kMaxTraceSteps) {
    static obs::Counter& truncations = obs::Registry::global().counter("taint.trace_truncations");
    truncations.add();
    return;
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
