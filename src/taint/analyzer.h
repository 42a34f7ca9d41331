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
#include <string>
#include <string_view>
#include <unordered_map>
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

  bool operator==(const AnalysisOptions& other) const = default;
};

/// A manual annotation: variable `variable` in function `function` carries
/// configuration parameter `param` ("component.name").
struct Seed {
  std::string function;
  std::string variable;
  std::string param;
};

/// One step of a taint trace. `text` views text the analyzer built once
/// per assignment site (or per seed) and keeps until its next run().
struct TraceStep {
  SourceLoc loc;
  std::string_view text;
};

/// One (deduplicated) tainted write observed during the run. The
/// dependency extractor matches SD patterns against these. The strings
/// view names the analyzer and the AST keep, built once per object.
struct WriteEvent {
  const ast::FunctionDecl* fn = nullptr;
  const ast::Expr* assign = nullptr;  ///< the assignment expression
  SourceLoc loc;
  std::string_view object;      ///< "function.var" or "record.field"
  bool is_field = false;
  std::string_view field_key;   ///< set when is_field
  LabelSet labels;              ///< labels flowing into the object
  std::string_view rhs_callee;  ///< callee name when the RHS is a direct call
  const ast::Expr* rhs = nullptr;      ///< RHS expression (null for out-params)
  ast::BinaryOp op = ast::BinaryOp::Assign;  ///< assignment operator
};

/// Analysis results for one function. The analyzer draws the storage of
/// the block states from its arena, so they live until its next run().
struct FunctionTaint {
  FunctionTaint() = default;
  explicit FunctionTaint(std::pmr::memory_resource* states) : exit_state(states) {}

  const ast::FunctionDecl* fn = nullptr;
  /// Compiled Taint-IR of this function: its CFG, the CFG's reverse
  /// post-order and the instruction stream, shared through the IR cache.
  std::shared_ptr<const ir::CompiledFunction> code;
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
  // The block states' memory resource refers to the analyzer's own arena.
  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

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
  /// when the object never got tainted. Valid until the next run().
  [[nodiscard]] const std::vector<TraceStep>* traceFor(std::string_view object) const;

  /// Labels an expression may carry in `state`. The expression is
  /// lowered as an IR query (ir::lowerQuery) into a scratch program and
  /// executed against `state`, which it only reads. Like the run, it
  /// interns what it reads in first-use order (the guard-query goldens
  /// pin the labels it leaves behind); it adds nothing to the run's
  /// counters.
  [[nodiscard]] LabelSet labelsOf(const ast::Expr& expr, const TaintState& state) const;

  [[nodiscard]] const AnalysisOptions& options() const { return options_; }
  [[nodiscard]] const sema::Sema& semaRef() const { return sema_; }

  /// Fixpoint merge counters of the last run() (perf instrumentation):
  /// how many successor-edge merges ran and how many actually grew the
  /// destination state.
  [[nodiscard]] std::uint64_t mergeCalls() const { return merge_calls_; }
  [[nodiscard]] std::uint64_t mergeGrew() const { return merge_grew_; }

  /// Statements of the blocks visited across every fixpoint sweep and
  /// exit replay of the run (each visit counts its block's statements).
  [[nodiscard]] std::uint64_t stmtVisits() const { return stmt_visits_; }

  /// Taint-IR instrumentation of the last run(): instructions executed
  /// and block visits (fixpoint visits and exit replays).
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
  /// A seed resolved for one run: the variable it names, the label it
  /// carries and its "seed: carries" trace text.
  struct SeedBinding {
    const ast::VarDecl* var = nullptr;
    LabelId label = 0;
    std::string trace_text;
  };

  /// Per-run state of one analyzed function. Slots are dense (in the
  /// order run() first lists each function) and found by slotOf(), so
  /// the worklist's per-call and per-analysis lookups index a vector.
  struct FunctionSlot {
    const ast::FunctionDecl* fn = nullptr;
    FunctionTaint* result = nullptr;  ///< what resultFor(fn) returns
    /// Resolved at the function's first analysis, so label interning
    /// keeps its first-use order.
    bool seeds_resolved = false;
    std::vector<SeedBinding> seeds;
    /// Inter mode: labels callers bound to the parameters.
    TaintState entry_bindings;
    /// Inter mode: union of the labels the function returns.
    LabelSet return_summary;
    /// Slots of the functions that read return_summary.
    std::vector<std::uint32_t> callers;
    /// Analyzed, and its entry bindings or a callee's summary grew since.
    bool stale = false;
  };

  [[nodiscard]] FunctionSlot* slotOf(const ast::FunctionDecl* fn);
  [[nodiscard]] const FunctionSlot* slotOf(const ast::FunctionDecl* fn) const;
  void markStale(FunctionSlot& slot);
  void resolveSeeds(FunctionSlot& slot);
  void seedEntryState(FunctionSlot& slot, TaintState& state);
  void analyzeFunction(FunctionSlot& slot, FunctionTaint& result);
  /// Inter-procedural call bookkeeping: an argument binding that grows
  /// re-queues the callee, and reading a callee's return summary
  /// registers the current function as a caller to re-queue when that
  /// summary grows.
  void bindArgument(const ast::FunctionDecl* callee, std::size_t index, const LabelSet& labels);
  [[nodiscard]] const LabelSet* returnSummary(const ast::FunctionDecl* callee);
  /// Return-value sink: the current function's return labels and, in
  /// inter mode, its return summary.
  void recordReturn(const LabelSet& labels);
  /// Executes one instruction range of a compiled function (or of the
  /// query program) against `state`. Counts nothing: the callers that
  /// run blocks count the visit.
  void execRange(const ir::Program& prog, std::uint32_t begin, std::uint32_t end,
                 TaintState& state);
  /// Runs one block: stmts, inc, and the condition, snapshotting the
  /// state into `at_condition` before the condition runs.
  void execBlock(const ir::Program& prog, cfg::BlockId id, TaintState& state,
                 TaintState& at_condition);
  [[nodiscard]] ir::IrCache& irCache();
  /// Offers the trace step of one assignment site, at most once per run
  /// (a site's object, location and text never change, so later offers
  /// would record nothing).
  void offerTrace(const void* site, std::string_view object, SourceLoc loc,
                  const ast::Expr* rhs, const char* fallback);
  /// Appends (object, loc, text) to the object's trace unless present.
  /// Traces and write events keep the views, so `object` must be a
  /// memoized name (varNameFor, fieldKeys()) and `text` a memo entry or
  /// a seed binding's text.
  void recordTrace(std::string_view object, SourceLoc loc, std::string_view text);
  void recordWrite(const ast::Expr& assign, std::string_view object, bool is_field,
                   const LabelSet& labels, const ast::Expr* rhs, SourceLoc loc,
                   ast::BinaryOp op);
  [[nodiscard]] std::string describeVar(const ast::VarDecl& var) const;
  /// describeVar, memoized by declaration (the display name of a decl
  /// never changes).
  [[nodiscard]] const std::string& varNameFor(const ast::VarDecl& var) const;
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
  mutable FlatMap<const ast::FieldDecl*, FieldKeyId> field_id_memo_;
  mutable std::vector<LabelId> bridge_label_memo_;  ///< indexed by FieldKeyId
  // AST-derived display strings are run-invariant, so these memos are
  // never cleared (the AST outlives the analyzer via the component
  // cache entry). Traces and write events view their strings, which the
  // nodes keep at a fixed address.
  mutable std::unordered_map<const ast::VarDecl*, std::string> var_name_memo_;
  /// One assignment site's "object <- rhs" trace text — pure AST
  /// rendering, so built once (exprToString recursion dominated the
  /// amplified-corpus profile before this) — and the run that last
  /// offered its trace step.
  struct SiteTrace {
    std::string text;
    std::uint64_t offered_in_run = 0;
  };
  std::unordered_map<const void*, SiteTrace> site_traces_;
  std::uint64_t run_ = 0;  ///< runs started, the current one included
  std::vector<Seed> seeds_;

  /// Storage for per-function results and their block states; declared
  /// before results_ so the arena outlives the ArenaPtrs into it.
  Arena arena_;
  ArenaResource state_memory_{arena_};
  std::vector<ArenaPtr<FunctionTaint>> results_;
  /// The slot of each entry of results_.
  std::vector<std::uint32_t> result_slots_;
  std::vector<FunctionSlot> slots_;
  /// (function, slot) sorted by function, for slotOf().
  std::vector<std::pair<const ast::FunctionDecl*, std::uint32_t>> slot_index_;
  std::size_t stale_count_ = 0;
  /// The result and slot of the analysis in progress (null outside run()).
  FunctionTaint* current_result_ = nullptr;
  FunctionSlot* current_slot_ = nullptr;

  FlatMap<const ast::VarDecl*, LabelSet> sticky_;

  std::uint64_t merge_calls_ = 0;
  std::uint64_t merge_grew_ = 0;
  std::uint64_t stmt_visits_ = 0;
  std::uint64_t ir_instrs_ = 0;
  std::uint64_t ir_visits_ = 0;
  std::uint64_t concrete_skips_ = 0;

  /// Compilation memo (shared via setIrCache, else lazily private), the
  /// temp scratchpad the interpreter reuses across block visits and
  /// queries, and the program labelsOf() lowers each query into.
  std::shared_ptr<ir::IrCache> ir_cache_;
  std::vector<LabelSet> ir_temps_;
  ir::Program query_;
  /// Every block visit and exit replay runs in this one state (filled
  /// from the block's entry state), and the fixpoint's dirty flags are
  /// reused too, so a visit allocates only when a state outgrows them.
  TaintState scratch_;
  std::vector<char> dirty_;

  FlatMap<FieldKeyId, LabelSet> field_writes_;
  /// Keyed by views of the memoized object names.
  std::unordered_map<std::string_view, std::vector<TraceStep>> traces_;
  /// Keyed by the assignment expression; writeEvents() orders them.
  std::unordered_map<const ast::Expr*, WriteEvent> writes_;
};

}  // namespace fsdep::taint
