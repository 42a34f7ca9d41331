// The taint analyzer (paper §4.1): tracks the propagation of each
// configuration parameter along data-flow paths.
//
// "We maintain a set to keep the initial configuration variables and any
//  variables derived from the initial configuration variables. When a new
//  variable is added to the set, we add the corresponding instruction to
//  the taint trace too. We maintain a map to track if a variable is
//  derived from multiple parameters."
//
// Seeds (the paper's manual annotations) name a variable inside a function
// and the parameter it carries. Seeded variables are *sticky*: an
// assignment to them never washes the seed label away, because the
// variable IS the parameter.
//
// Two modes:
//   * intra-procedural (the paper's prototype): calls are opaque; their
//     result carries the union of argument labels.
//   * inter-procedural (the paper's §6 future work): argument labels bind
//     to callee parameters (entry bindings) and return labels flow back
//     (return summaries). run() drives the per-function fixpoints as a
//     worklist: round 1 analyzes every function in source order; each
//     later round re-analyzes, in source order, only the functions whose
//     entry bindings or callees' return summaries grew since their last
//     analysis. The loop stops when no function is stale — no pass cap.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ast/ast.h"
#include "cfg/cfg.h"
#include "sema/sema.h"
#include "taint/ir.h"
#include "taint/state.h"

namespace fsdep::taint {

struct AnalysisOptions {
  bool inter_procedural = false;
  /// When false, reading a metadata field does not produce the field's
  /// bridge label; CCD extraction then finds nothing (ablation knob).
  bool field_bridging = true;
  /// Execute transfer functions as compiled Taint-IR: each function's
  /// CFG blocks are lowered once into a flat instruction stream (see
  /// taint/ir.h) and every fixpoint visit runs the stream instead of
  /// re-walking AST statements. The AST walk stays available as the
  /// byte-equivalence oracle behind --legacy-walk (false).
  bool compile_ir = true;
  std::size_t max_trace_steps = 24;

  bool operator==(const AnalysisOptions& other) const = default;
};

/// A manual annotation: variable `variable` in function `function` carries
/// configuration parameter `param` ("component.name").
struct Seed {
  std::string function;
  std::string variable;
  std::string param;
};

struct TraceStep {
  SourceLoc loc;
  std::string text;
};

/// One (deduplicated) tainted write observed during the run. The
/// dependency extractor matches SD patterns against these.
struct WriteEvent {
  const ast::FunctionDecl* fn = nullptr;
  const ast::Expr* assign = nullptr;  ///< the assignment expression
  SourceLoc loc;
  std::string object;       ///< "function.var" or "record.field"
  bool is_field = false;
  std::string field_key;    ///< set when is_field
  LabelSet labels;          ///< labels flowing into the object
  std::string rhs_callee;   ///< callee name when the RHS is a direct call
  const ast::Expr* rhs = nullptr;      ///< RHS expression (null for out-params)
  ast::BinaryOp op = ast::BinaryOp::Assign;  ///< assignment operator
};

/// Analysis results for one function.
struct FunctionTaint {
  const ast::FunctionDecl* fn = nullptr;
  /// Shared with the compiled IR when compile_ir is on (the IR cache
  /// owns the build); built per run in legacy-walk mode.
  std::shared_ptr<const cfg::Cfg> cfg;
  /// Compiled Taint-IR of this function; null in legacy-walk mode.
  std::shared_ptr<const ir::CompiledFunction> code;
  /// Reverse post-order of `cfg`, computed once per run and shared by
  /// every fixpoint over this function (one per worklist round that
  /// analyzes it) and the exit replay.
  std::vector<cfg::BlockId> rpo;
  /// Entry state of each basic block after the fixpoint (indexed by id).
  std::vector<TaintState> block_entry;
  /// State at the point each block's branch condition is evaluated.
  std::vector<TaintState> at_condition;
  /// Union of the states at every function exit (after the exit blocks'
  /// statements ran).
  TaintState exit_state;
  LabelSet return_labels;
};

class Analyzer {
 public:
  Analyzer(const ast::TranslationUnit& tu, const sema::Sema& sema, AnalysisOptions options = {});

  void addSeed(Seed seed);

  /// Analyzes the given function definitions ("pre-selected functions" in
  /// the paper's prototype). Empty list means every function in the TU.
  void run(const std::vector<const ast::FunctionDecl*>& functions = {});

  [[nodiscard]] const FunctionTaint* resultFor(const ast::FunctionDecl* fn) const;
  [[nodiscard]] const FunctionTaint* resultFor(std::string_view function_name) const;
  [[nodiscard]] const std::vector<ArenaPtr<FunctionTaint>>& results() const { return results_; }

  [[nodiscard]] LabelTable& labels() { return labels_; }
  [[nodiscard]] const LabelTable& labels() const { return labels_; }

  /// Union of labels written to each metadata field anywhere in the run;
  /// the extractor uses this to bridge components. Materialized from the
  /// interned-id map on each call — the analysis itself never touches
  /// strings on this path.
  [[nodiscard]] std::map<std::string, LabelSet> fieldWrites() const;

  /// The "record.field" <-> id interner of this analyzer.
  [[nodiscard]] const FieldKeyTable& fieldKeys() const { return field_keys_; }

  /// All tainted writes, in deterministic (source) order.
  [[nodiscard]] std::vector<const WriteEvent*> writeEvents() const;

  /// Taint trace for an object ("function.var" or "record.field"); null
  /// when the object never got tainted.
  [[nodiscard]] const std::vector<TraceStep>* traceFor(const std::string& object) const;

  /// Labels an expression may carry in `state` (no side effects applied).
  [[nodiscard]] LabelSet labelsOf(const ast::Expr& expr, const TaintState& state) const;

  [[nodiscard]] const AnalysisOptions& options() const { return options_; }
  [[nodiscard]] const sema::Sema& semaRef() const { return sema_; }

  /// Fixpoint merge counters of the last run() (perf instrumentation):
  /// how many successor-edge merges ran and how many actually grew the
  /// destination state.
  [[nodiscard]] std::uint64_t mergeCalls() const { return merge_calls_; }
  [[nodiscard]] std::uint64_t mergeGrew() const { return merge_grew_; }

  /// Statements visited by transferStmt() across every fixpoint sweep of
  /// the run — the AST tree-walk floor the profile attributes time to.
  /// The IR engine mirrors the same counts (per-block statement totals),
  /// so both engines report identical visits.
  [[nodiscard]] std::uint64_t stmtVisits() const { return stmt_visits_; }

  /// Taint-IR instrumentation of the last run(): instructions executed
  /// and block-section program executions. Zero in legacy-walk mode.
  [[nodiscard]] std::uint64_t irInstrs() const { return ir_instrs_; }
  [[nodiscard]] std::uint64_t irVisits() const { return ir_visits_; }

  /// Function analyses the inter-procedural worklist skipped in rounds
  /// >= 2 because neither the function's entry bindings nor its callees'
  /// return summaries grew since its last analysis.
  [[nodiscard]] std::uint64_t concreteSkips() const { return concrete_skips_; }

  /// Shares a compilation memo across analyzers of the same TU (wired
  /// from the component cache entry). Must be called before run();
  /// without it the analyzer lazily owns a private cache.
  void setIrCache(std::shared_ptr<ir::IrCache> cache) { ir_cache_ = std::move(cache); }

  /// Bytes the result arena currently holds (per-function taint state).
  [[nodiscard]] std::size_t arenaBytes() const { return arena_.bytesUsed(); }

 private:
  void seedEntryState(const ast::FunctionDecl& fn, TaintState& state);
  void analyzeFunction(FunctionTaint& result);
  /// Inter-procedural call bookkeeping shared by both executors: an
  /// argument binding that grows re-queues the callee, and reading a
  /// callee's return summary registers the current function as a caller
  /// to re-queue when that summary grows.
  void bindArgument(const ast::FunctionDecl* callee, std::size_t index, const LabelSet& labels);
  [[nodiscard]] const LabelSet* returnSummary(const ast::FunctionDecl* callee);
  /// Return-value sink: the current function's return labels and, in
  /// inter mode, its return summary.
  void recordReturn(const LabelSet& labels);
  /// Executes one instruction range of a compiled function against
  /// `state` — the IR twin of transferStmt/evalExpr, sharing the same
  /// recording helpers so all side effects stay byte-identical.
  void execRange(const ir::Program& prog, std::uint32_t begin, std::uint32_t end,
                 TaintState& state);
  /// Runs one block section set: stmts, inc, and (when requested via
  /// `snapshot`) the at_condition snapshot before the condition range.
  void execBlock(const ir::Program& prog, cfg::BlockId id, TaintState& state,
                 std::vector<TaintState>* at_condition);
  [[nodiscard]] ir::IrCache& irCache();
  void transferStmt(const ast::Stmt& stmt, TaintState& state);
  LabelSet evalExpr(const ast::Expr& expr, TaintState& state, bool effects);
  void assignTo(const ast::Expr& lhs, const ast::Expr* rhs, const LabelSet& labels, bool strong,
                TaintState& state, SourceLoc loc, ast::BinaryOp op = ast::BinaryOp::Assign);
  void recordTrace(const std::string& object, SourceLoc loc, const std::string& text);
  void recordWrite(const ast::Expr& assign, const std::string& object, bool is_field,
                   const std::string& field_key, const LabelSet& labels, const ast::Expr* rhs,
                   SourceLoc loc, ast::BinaryOp op);
  [[nodiscard]] std::string describeVar(const ast::VarDecl& var) const;
  /// describeVar, memoized by declaration (the display name of a decl
  /// never changes).
  [[nodiscard]] const std::string& varNameFor(const ast::VarDecl& var) const;
  /// The "object <- rhs" trace text of one assignment site, memoized by
  /// site pointer: the text is pure AST rendering, so building it once
  /// per site (instead of on every fixpoint replay) is observationally
  /// identical. exprToString recursion dominated the amplified-corpus
  /// profile before this.
  [[nodiscard]] const std::string& traceTextFor(const void* site, const std::string& object,
                                                const ast::Expr* rhs, const char* fallback) const;
  [[nodiscard]] const ast::VarDecl* findVarInFunction(const ast::FunctionDecl& fn,
                                                      std::string_view name) const;
  /// Interned id of the field a member expression touches, memoized per
  /// field declaration (each record.field is one FieldDecl in the TU).
  [[nodiscard]] FieldKeyId fieldIdFor(const ast::MemberExpr& m) const;
  /// The "field:record.field" bridge label, memoized by field key id.
  [[nodiscard]] LabelId bridgeLabelFor(const ast::MemberExpr& m, FieldKeyId key) const;

  const ast::TranslationUnit& tu_;
  const sema::Sema& sema_;
  AnalysisOptions options_;
  mutable LabelTable labels_;
  mutable FieldKeyTable field_keys_;
  mutable std::unordered_map<const ast::FieldDecl*, FieldKeyId> field_id_memo_;
  mutable std::vector<LabelId> bridge_label_memo_;  ///< indexed by FieldKeyId
  // AST-derived display strings are run-invariant, so these memos are
  // never cleared (the AST outlives the analyzer via the component
  // cache entry).
  mutable std::unordered_map<const ast::VarDecl*, std::string> var_name_memo_;
  mutable std::unordered_map<const void*, std::string> trace_text_memo_;
  /// Assignment sites whose trace step was already offered this run.
  /// A site's (object, loc, text) triple is fixed, so recordTrace is
  /// idempotent per site — later replays can skip the call outright.
  std::unordered_set<const void*> trace_done_;
  std::vector<Seed> seeds_;
  /// Per-run cache of seed-to-variable resolution (the AST walk), so
  /// fixpoint re-entries don't re-walk function bodies. Label interning
  /// is NOT cached — it must stay in first-use order.
  std::map<const ast::FunctionDecl*, std::vector<std::pair<const Seed*, const ast::VarDecl*>>>
      seed_memo_;

  /// Storage for per-function results; declared before results_ so the
  /// arena outlives the ArenaPtrs into it.
  Arena arena_;
  std::vector<ArenaPtr<FunctionTaint>> results_;
  std::map<const ast::FunctionDecl*, FunctionTaint*> by_fn_;
  const ast::FunctionDecl* current_fn_ = nullptr;
  FunctionTaint* current_result_ = nullptr;

  std::map<const ast::VarDecl*, LabelSet> sticky_;

  // Inter-procedural worklist state.
  std::map<const ast::FunctionDecl*, TaintState> entry_bindings_;
  std::map<const ast::FunctionDecl*, LabelSet> return_summaries_;
  /// callee -> functions that read its return summary.
  std::map<const ast::FunctionDecl*, std::set<const ast::FunctionDecl*>> callers_;
  /// Analyzed functions whose inputs grew since their last analysis.
  std::set<const ast::FunctionDecl*> stale_;

  std::uint64_t merge_calls_ = 0;
  std::uint64_t merge_grew_ = 0;
  std::uint64_t stmt_visits_ = 0;
  std::uint64_t ir_instrs_ = 0;
  std::uint64_t ir_visits_ = 0;
  std::uint64_t concrete_skips_ = 0;

  /// Compilation memo (shared via setIrCache, else lazily private) and
  /// the temp scratchpad the interpreter reuses across block visits.
  std::shared_ptr<ir::IrCache> ir_cache_;
  std::vector<LabelSet> ir_temps_;

  std::map<FieldKeyId, LabelSet> field_writes_;
  std::map<std::string, std::vector<TraceStep>> traces_;
  std::map<const ast::Expr*, WriteEvent> writes_;
};

}  // namespace fsdep::taint
