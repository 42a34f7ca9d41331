#include "extract/extractor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "obs/trace.h"
#include "support/thread_pool.h"

namespace fsdep::extract {

using namespace ast;
using model::ConstraintOp;
using model::DepKind;
using model::Dependency;

namespace {

std::string_view componentOf(std::string_view qualified_param) {
  return qualified_param.substr(0, qualified_param.find('.'));
}

std::string fieldNameOf(std::string_view field_key) {
  const std::size_t dot = field_key.rfind('.');
  return std::string(dot == std::string_view::npos ? field_key : field_key.substr(dot + 1));
}

std::string slug(std::string_view text) {
  std::string out;
  for (char c : text) out += (c == '.' || c == ' ') ? '-' : c;
  return out;
}

constexpr std::int64_t kAllBits = -1;

/// A parameter written into a metadata field, with the bitmask it set.
struct FieldWriter {
  std::string field_key;  ///< "ext4_super_block.s_feature_compat"
  std::string param;      ///< "mke2fs.sparse_super2"
  std::int64_t mask = kAllBits;
};

/// What one side of a comparison (or one flag atom) refers to.
struct SideInfo {
  std::vector<std::string> params;               ///< qualified param payloads
  std::vector<std::string> field_keys;           ///< carried field labels
  std::optional<std::int64_t> constant;
};

struct FieldRead {
  std::string key;
  std::int64_t mask = kAllBits;
};

// ---------------------------------------------------------------------
// Phase 1: the writer map (the metadata bridge)
// ---------------------------------------------------------------------

/// Every field key's writers, sorted by parameter: an index over the
/// writers the components collected, which must outlive it. Built in
/// component order, then sealed; from then on it is read-only, so
/// phase-2 workers share it without locking.
class WriterMap {
 public:
  void add(const FieldWriter& writer) { by_field_[writer.field_key].push_back(&writer); }

  /// Sorts each field's writers by parameter. Call after the last add().
  void seal() {
    for (auto& [key, writers] : by_field_) {
      std::sort(writers.begin(), writers.end(),
                [](const FieldWriter* a, const FieldWriter* b) { return a->param < b->param; });
    }
  }

  /// The distinct parameters written into `field_key` under a mask that
  /// overlaps `mask`, in parameter order.
  [[nodiscard]] std::vector<const FieldWriter*> writersOf(std::string_view field_key,
                                                          std::int64_t mask) const {
    std::vector<const FieldWriter*> out;
    const auto it = by_field_.find(field_key);
    if (it == by_field_.end()) return out;
    for (const FieldWriter* w : it->second) {
      if ((w->mask & mask) == 0) continue;
      if (!out.empty() && out.back()->param == w->param) continue;
      out.push_back(w);
    }
    return out;
  }

 private:
  std::unordered_map<std::string_view, std::vector<const FieldWriter*>> by_field_;
};

std::int64_t writeMask(const taint::WriteEvent& e, const sema::Sema& sema) {
  if (e.rhs == nullptr) return kAllBits;
  if (e.op == BinaryOp::OrAssign) {
    if (const auto v = sema.foldConstant(*e.rhs)) return *v;
    // `field |= (flag ? MASK : 0)`: the union of the foldable arms is
    // the precise set of bits this write can set.
    if (e.rhs->kind() == ExprKind::Conditional) {
      const auto& c = static_cast<const ConditionalExpr&>(*e.rhs);
      const auto t = sema.foldConstant(*c.then_expr);
      const auto f = sema.foldConstant(*c.else_expr);
      if (t || f) {
        const std::int64_t mask = t.value_or(0) | f.value_or(0);
        if (mask != 0) return mask;
      }
    }
    return kAllBits;
  }
  if (e.op == BinaryOp::Assign && e.rhs->kind() == ExprKind::Binary) {
    const auto& b = static_cast<const BinaryExpr&>(*e.rhs);
    if (b.op == BinaryOp::BitOr) {
      if (const auto v = sema.foldConstant(*b.rhs)) return *v;
      if (const auto v = sema.foldConstant(*b.lhs)) return *v;
    }
  }
  return kAllBits;
}

/// A dependency one component's rules found, with its dedup key.
struct Candidate {
  std::string key;        ///< dep.dedupKey()
  std::size_t hash = 0;   ///< of `key`, so the merge need not read it
  bool kept = false;      ///< set by the merge: first of its key
  Dependency dep;
};

/// The SD range of one parameter, folded from the guards that bound it.
/// Every field folds associatively (max, min, last set, first valid,
/// appended trace), so per-component ranges combine into the range a
/// single pass over all components would have folded.
struct SdAgg {
  std::optional<std::int64_t> low;
  std::optional<std::int64_t> high;
  std::optional<std::int64_t> multiple;
  bool pow2 = false;
  std::string bridge;
  SourceRange evidence;
  std::vector<std::string> trace;

  /// False for the empty range an ==/!= guard leaves behind; it folds to
  /// nothing and yields no dependency.
  [[nodiscard]] bool bounded() const { return low || high || multiple || pow2; }
};

/// What extraction learns from one component. Each phase fills it on
/// the pool; the merge consumes it in component order.
struct ComponentOutput {
  std::vector<const taint::WriteEvent*> events;  ///< in source order, sorted once
  std::vector<FieldWriter> writers;              ///< parameters written into fields
  std::vector<Candidate> candidates;             ///< in emission order
  std::map<std::string, SdAgg> ranges;           ///< this component's SD ranges
  std::size_t first_slot = 0;  ///< output index of the first kept candidate
};

void collectWriters(const ComponentRun& comp, ComponentOutput& out) {
  out.events = comp.analyzer->writeEvents();
  if (!comp.analyzer->options().field_bridging) return;
  const taint::LabelTable& labels = comp.analyzer->labels();
  for (const taint::WriteEvent* e : out.events) {
    if (!e->is_field) continue;
    const std::int64_t mask = writeMask(*e, *comp.sema);
    for (const taint::LabelId id : e->labels) {
      if (!labels.isParam(id)) continue;
      out.writers.push_back(
          FieldWriter{std::string(e->field_key), std::string(labels.payload(id)), mask});
    }
  }
}

// ---------------------------------------------------------------------
// Phase 2: one component's rules
// ---------------------------------------------------------------------

/// Runs the rules over one component against the sealed writer map and
/// records what they find in the component's own output, so components
/// run concurrently. Analyzer::labelsOf may intern labels, which is why
/// no two ComponentRules may share an analyzer at once.
class ComponentRules {
 public:
  ComponentRules(const ComponentRun& comp, const ExtractOptions& options,
                 const WriterMap& writers, ComponentOutput& out)
      : comp_(comp),
        labels_(comp.analyzer->labels()),
        options_(options),
        writers_(writers),
        out_(out) {}

  void run() {
    extractSdTypes();
    for (const Guard& guard :
         collectGuards(*comp_.analyzer, *comp_.sema, options_.error_functions)) {
      if (guard.disposition == GuardDisposition::ErrorOnTrue ||
          guard.disposition == GuardDisposition::ErrorOnFalse) {
        for (const Violation& v : guard.violations) handleViolation(guard, v);
      } else if (guard.disposition == GuardDisposition::Behavioral) {
        handleBehavioralGuard(guard);
      }
    }
    extractDerivations();
  }

 private:
  // -------------------------------------------------------------------
  // SD: data types
  // -------------------------------------------------------------------
  void extractSdTypes() {
    for (const taint::WriteEvent* e : out_.events) {
      if (e->is_field || e->rhs_callee.empty()) continue;
      const auto type_it = options_.parser_types.find(std::string(e->rhs_callee));
      if (type_it == options_.parser_types.end()) continue;
      std::vector<std::string> params;
      for (const taint::LabelId id : e->labels) {
        if (labels_.isParam(id)) params.emplace_back(labels_.payload(id));
      }
      if (params.size() != 1) continue;
      Dependency dep;
      dep.kind = DepKind::SdDataType;
      dep.op = ConstraintOp::HasType;
      dep.param = params[0];
      dep.type_name = type_it->second;
      dep.id = "sd-type-" + slug(dep.param);
      dep.description = dep.param + " must parse as " + dep.type_name + " (via ";
      dep.description += e->rhs_callee;
      dep.description += "())";
      dep.evidence = SourceRange{e->loc, e->loc};
      attachTrace(dep, e->object);
      emit(std::move(dep));
    }
  }

  // -------------------------------------------------------------------
  // Violations (error guards)
  // -------------------------------------------------------------------
  void handleViolation(const Guard& guard, const Violation& violation) {
    struct FlagUnit {
      std::string param;
      bool negated = false;
      std::string bridge;
    };
    std::vector<FlagUnit> flag_units;

    for (const Atom& atom : violation) {
      if (atom.is_comparison) {
        handleComparisonAtom(guard, atom);
        continue;
      }
      // Flag-ish atom. Special numeric idioms first.
      if (atom.expr->kind() == ExprKind::Binary) {
        const auto& b = static_cast<const BinaryExpr&>(*atom.expr);
        if (b.op == BinaryOp::Rem && !atom.negated) {
          handleMultipleOf(guard, b);
          continue;
        }
        if (isPowerOfTwoTest(*atom.expr) && !atom.negated) {
          handlePowerOfTwo(guard, b);
          continue;
        }
      }
      // Generic flag: direct parameter(s) and/or a masked field test.
      const SideInfo info = classify(guard, *atom.expr);
      for (const std::string& p : info.params) {
        flag_units.push_back(FlagUnit{p, atom.negated, ""});
      }
      if (comp_.analyzer->options().field_bridging) {
        const std::int64_t mask = bitTestMask(*atom.expr, *comp_.sema).value_or(kAllBits);
        for (const FieldRead& fr : fieldReadsIn(*atom.expr, *comp_.sema, mask)) {
          for (const FieldWriter* w : writers_.writersOf(fr.key, fr.mask)) {
            flag_units.push_back(FlagUnit{w->param, atom.negated, fr.key});
          }
        }
      }
    }

    // A parameter read directly and rediscovered through its own field
    // write is one unit, not two.
    std::sort(flag_units.begin(), flag_units.end(),
              [](const FlagUnit& a, const FlagUnit& b) { return a.param < b.param; });
    flag_units.erase(std::unique(flag_units.begin(), flag_units.end(),
                                 [](const FlagUnit& a, const FlagUnit& b) {
                                   return a.param == b.param;
                                 }),
                     flag_units.end());

    // Pair rule: exactly two distinct flag units -> control dependency.
    if (flag_units.size() == 2 && flag_units[0].param != flag_units[1].param) {
      const FlagUnit& a = flag_units[0];
      const FlagUnit& b = flag_units[1];
      const bool cross = componentOf(a.param) != componentOf(b.param);
      Dependency dep;
      dep.kind = cross ? DepKind::CcdControl : DepKind::CpdControl;
      dep.bridge_field = !a.bridge.empty() ? a.bridge : b.bridge;
      if (!a.negated && !b.negated) {
        dep.op = ConstraintOp::Excludes;
        dep.param = a.param;
        dep.other_param = b.param;
        dep.description = a.param + " cannot be combined with " + b.param;
      } else if (a.negated != b.negated) {
        // Violation (A && !B) => constraint A requires B.
        const FlagUnit& pos = a.negated ? b : a;
        const FlagUnit& neg = a.negated ? a : b;
        dep.op = ConstraintOp::Requires;
        dep.param = pos.param;
        dep.other_param = neg.param;
        dep.description = pos.param + " requires " + neg.param;
      } else {
        return;  // (!A && !B): "at least one required" — not modelled
      }
      dep.id = std::string(dep.kind == DepKind::CcdControl ? "ccd-control-" : "cpd-control-") +
               slug(dep.param) + "-" + slug(dep.other_param);
      dep.evidence = SourceRange{guard.condition->loc, guard.condition->loc};
      dep.description += " (guard in " + guard.fn->name + ")";
      attachGuardTrace(dep, guard);
      emit(std::move(dep));
    }
  }

  void handleMultipleOf(const Guard& guard, const BinaryExpr& rem) {
    const auto divisor = comp_.sema->foldConstant(*rem.rhs);
    if (!divisor || *divisor <= 0) return;
    const std::string param = soleParamOf(guard, *rem.lhs);
    if (param.empty()) return;
    SdAgg& agg = out_.ranges[param];
    agg.multiple = *divisor;
    noteEvidence(agg, guard);
  }

  void handlePowerOfTwo(const Guard& guard, const BinaryExpr& band) {
    const std::string param = soleParamOf(guard, *band.lhs);
    if (param.empty()) return;
    SdAgg& agg = out_.ranges[param];
    agg.pow2 = true;
    noteEvidence(agg, guard);
  }

  void handleComparisonAtom(const Guard& guard, const Atom& atom) {
    SideInfo lhs = classify(guard, *atom.lhs);
    SideInfo rhs = classify(guard, *atom.rhs);
    BinaryOp cmp = atom.cmp;

    // Normalize: interesting side (param/field) on the left.
    const bool lhs_interesting = !lhs.params.empty() || !lhs.field_keys.empty() ||
                                 !fieldReadsIn(*atom.lhs, *comp_.sema, kAllBits).empty();
    if (!lhs_interesting && lhs.constant.has_value()) {
      std::swap(lhs, rhs);
      cmp = mirror(cmp);
      handleNormalizedComparison(guard, atom, *atom.rhs, *atom.lhs, lhs, rhs, cmp);
      return;
    }
    handleNormalizedComparison(guard, atom, *atom.lhs, *atom.rhs, lhs, rhs, cmp);
  }

  void handleNormalizedComparison(const Guard& guard, const Atom& atom, const Expr& lexpr,
                                  const Expr& rexpr, const SideInfo& lhs, const SideInfo& rhs,
                                  BinaryOp cmp) {
    // The atom is the VIOLATION; the constraint is its negation.
    const BinaryOp constraint = negateCmp(cmp);

    // Resolve the left anchor: a parameter, or a metadata field.
    std::string left_param;
    std::string left_bridge;
    if (lhs.params.size() == 1) {
      left_param = lhs.params[0];
    } else if (lhs.params.empty()) {
      // Field-only left side: attribute to the metadata owner.
      const std::vector<FieldRead> reads = fieldReadsIn(lexpr, *comp_.sema, kAllBits);
      std::vector<std::string> keys = lhs.field_keys;
      for (const FieldRead& fr : reads) keys.push_back(fr.key);
      if (keys.empty()) return;
      left_bridge = keys[0];
      left_param = options_.metadata_owner + "." + fieldNameOf(keys[0]);
    } else {
      return;  // multiple parameters on one side: ambiguous, skip
    }

    // Case 1: right side constant -> SD range bound.
    if (rhs.constant.has_value() && rhs.params.empty() && rhs.field_keys.empty()) {
      addBound(guard, left_param, constraint, *rhs.constant, left_bridge);
      return;
    }

    // Resolve the right side to a parameter (direct or via field writers).
    std::vector<std::pair<std::string, std::string>> right_params;  // (param, bridge)
    if (rhs.params.size() == 1) {
      right_params.emplace_back(rhs.params[0], "");
    } else if (rhs.params.empty()) {
      std::vector<std::string> keys = rhs.field_keys;
      for (const FieldRead& fr : fieldReadsIn(rexpr, *comp_.sema, kAllBits)) {
        keys.push_back(fr.key);
      }
      for (const std::string& key : keys) {
        for (const FieldWriter* w : writers_.writersOf(key, kAllBits)) {
          right_params.emplace_back(w->param, key);
        }
      }
    }
    if (right_params.empty()) return;

    // If the left side was field-only, try to rebind it to its writer so
    // the dependency names the real source parameter when it exists.
    std::vector<std::pair<std::string, std::string>> left_candidates;  // (param, bridge)
    if (!left_bridge.empty()) {
      for (const FieldWriter* w : writers_.writersOf(left_bridge, kAllBits)) {
        left_candidates.emplace_back(w->param, left_bridge);
      }
      if (left_candidates.empty()) left_candidates.emplace_back(left_param, left_bridge);
    } else {
      left_candidates.emplace_back(left_param, "");
    }

    for (const auto& [lp, lbridge] : left_candidates) {
      for (const auto& [rp, rbridge] : right_params) {
        if (lp == rp) continue;
        const bool cross = componentOf(lp) != componentOf(rp);
        Dependency dep;
        dep.kind = cross ? DepKind::CcdValue : DepKind::CpdValue;
        dep.op = toConstraintOp(constraint);
        dep.param = lp;
        dep.other_param = rp;
        dep.bridge_field = !rbridge.empty() ? rbridge : lbridge;
        dep.id = std::string(cross ? "ccd-value-" : "cpd-value-") + slug(lp) + "-" + slug(rp);
        dep.description = lp + " must satisfy: " + exprToString(lexpr) + " " +
                          binaryOpSpelling(constraint) + " " + exprToString(rexpr) +
                          " (guard in " + guard.fn->name + ")";
        dep.evidence = SourceRange{atom.lhs->loc, atom.rhs->loc};
        attachGuardTrace(dep, guard);
        emit(std::move(dep));
      }
    }
  }

  // -------------------------------------------------------------------
  // Behavioral guards and derivations -> behavioral CCD
  // -------------------------------------------------------------------
  void handleBehavioralGuard(const Guard& guard) {
    if (!comp_.analyzer->options().field_bridging) return;
    const taint::LabelSet labels = comp_.analyzer->labelsOf(*guard.condition, *guard.state);
    std::vector<std::string> own_params;
    std::vector<FieldRead> fields = fieldReadsIn(*guard.condition, *comp_.sema, kAllBits);
    std::set<std::string> read_keys;
    for (const FieldRead& fr : fields) read_keys.insert(fr.key);
    for (const taint::LabelId id : labels) {
      if (labels_.isParam(id)) {
        own_params.emplace_back(labels_.payload(id));
      } else if (labels_.isField(id)) {
        // Carried field labels cover values *derived* from a field before
        // the guard; a field the condition reads directly already has a
        // (bit-precise) entry, which the unmasked carried label must not
        // widen.
        std::string key(labels_.payload(id));
        if (!read_keys.contains(key)) fields.push_back(FieldRead{std::move(key), kAllBits});
      }
    }
    for (const FieldRead& fr : fields) {
      for (const FieldWriter* w : writers_.writersOf(fr.key, fr.mask)) {
        std::string anchor;
        if (!own_params.empty()) {
          anchor = own_params[0];
          if (componentOf(anchor) == componentOf(w->param)) continue;
        } else {
          if (componentOf(w->param) == comp_.component) continue;
          anchor = comp_.component + "." + guard.fn->name;
        }
        emitBehavioral(anchor, w->param, fr.key,
                       "behavior of " + comp_.component + "::" + guard.fn->name +
                           " branches on " + fr.key,
                       guard.condition->loc);
      }
    }
  }

  void extractDerivations() {
    if (!comp_.analyzer->options().field_bridging) return;
    for (const taint::WriteEvent* e : out_.events) {
      if (e->is_field) continue;
      std::vector<std::string> params;
      std::vector<std::string> fields;
      for (const taint::LabelId id : e->labels) {
        if (labels_.isParam(id)) {
          params.emplace_back(labels_.payload(id));
        } else if (labels_.isField(id)) {
          fields.emplace_back(labels_.payload(id));
        }
      }
      if (params.empty() || fields.empty()) continue;
      for (const std::string& p : params) {
        for (const std::string& key : fields) {
          for (const FieldWriter* w : writers_.writersOf(key, kAllBits)) {
            if (componentOf(w->param) == componentOf(p)) continue;
            emitBehavioral(p, w->param, key,
                           std::string(e->object) + " is derived from both " + p + " and " + key,
                           e->loc);
          }
        }
      }
    }
  }

  void emitBehavioral(const std::string& anchor, const std::string& writer,
                      const std::string& bridge, std::string description, SourceLoc loc) {
    Dependency dep;
    dep.kind = DepKind::CcdBehavioral;
    dep.op = ConstraintOp::Influences;
    dep.param = anchor;
    dep.other_param = writer;
    dep.bridge_field = bridge;
    dep.id = "ccd-behavioral-" + slug(anchor) + "-" + slug(writer);
    dep.description = std::move(description);
    dep.evidence = SourceRange{loc, loc};
    attachTrace(dep, bridge);
    emit(std::move(dep));
  }

  // -------------------------------------------------------------------
  // SD range aggregation (per component; the merge combines components)
  // -------------------------------------------------------------------
  void addBound(const Guard& guard, const std::string& param, BinaryOp constraint,
                std::int64_t value, const std::string& bridge) {
    SdAgg& agg = out_.ranges[param];
    switch (constraint) {
      case BinaryOp::Ge: agg.low = std::max(agg.low.value_or(INT64_MIN), value); break;
      case BinaryOp::Gt: agg.low = std::max(agg.low.value_or(INT64_MIN), value + 1); break;
      case BinaryOp::Le: agg.high = std::min(agg.high.value_or(INT64_MAX), value); break;
      case BinaryOp::Lt: agg.high = std::min(agg.high.value_or(INT64_MAX), value - 1); break;
      default: return;  // ==/!= constraints are not ranges
    }
    if (!bridge.empty()) agg.bridge = bridge;
    noteEvidence(agg, guard);
  }

  void noteEvidence(SdAgg& agg, const Guard& guard) {
    if (!agg.evidence.valid()) {
      agg.evidence = SourceRange{guard.condition->loc, guard.condition->loc};
    }
    std::string step = "guard in " + comp_.component + "::" + guard.fn->name + ": " +
                       conditionText(guard);
    // A two-sided range check contributes two bounds from one guard; keep
    // the trace line once.
    if (agg.trace.empty() || agg.trace.back() != step) agg.trace.push_back(std::move(step));
  }

  // -------------------------------------------------------------------
  // Helpers
  // -------------------------------------------------------------------
  SideInfo classify(const Guard& guard, const Expr& expr) const {
    SideInfo info;
    const taint::LabelSet labels = comp_.analyzer->labelsOf(expr, *guard.state);
    for (const taint::LabelId id : labels) {
      if (labels_.isParam(id)) {
        info.params.emplace_back(labels_.payload(id));
      } else if (labels_.isField(id)) {
        info.field_keys.emplace_back(labels_.payload(id));
      }
    }
    std::sort(info.params.begin(), info.params.end());
    info.params.erase(std::unique(info.params.begin(), info.params.end()), info.params.end());
    // A side that carries a parameter is "the parameter's side"; its field
    // labels are incidental (picked up while deriving the value).
    if (!info.params.empty()) info.field_keys.clear();
    info.constant = comp_.sema->foldConstant(expr);
    return info;
  }

  /// The single parameter an expression refers to, or "" when none/many.
  std::string soleParamOf(const Guard& guard, const Expr& expr) const {
    const SideInfo info = classify(guard, expr);
    if (info.params.size() == 1) return info.params[0];
    if (info.params.empty()) {
      std::vector<std::string> keys = info.field_keys;
      for (const FieldRead& fr : fieldReadsIn(expr, *comp_.sema, kAllBits)) {
        keys.push_back(fr.key);
      }
      if (!keys.empty()) return options_.metadata_owner + "." + fieldNameOf(keys[0]);
    }
    return "";
  }

  /// All metadata field reads inside `expr`; a read nested under `x & MASK`
  /// gets that mask, `default_mask` otherwise.
  static std::vector<FieldRead> fieldReadsIn(const Expr& expr, const sema::Sema& sema,
                                             std::int64_t default_mask) {
    std::vector<FieldRead> out;
    collectFieldReads(expr, sema, default_mask, out);
    return out;
  }

  static void collectFieldReads(const Expr& expr, const sema::Sema& sema, std::int64_t mask,
                                std::vector<FieldRead>& out) {
    switch (expr.kind()) {
      case ExprKind::Member: {
        const auto& m = static_cast<const MemberExpr&>(expr);
        if (m.record != nullptr && m.field != nullptr) {
          out.push_back(FieldRead{taint::fieldKey(m.record->name, m.field->name), mask});
        }
        collectFieldReads(*m.base, sema, mask, out);
        break;
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(expr);
        std::int64_t child_mask = mask;
        if (b.op == BinaryOp::BitAnd) {
          if (const auto v = bitTestMask(expr, sema)) child_mask = *v;
        }
        collectFieldReads(*b.lhs, sema, child_mask, out);
        collectFieldReads(*b.rhs, sema, child_mask, out);
        break;
      }
      case ExprKind::Unary:
        collectFieldReads(*static_cast<const UnaryExpr&>(expr).operand, sema, mask, out);
        break;
      case ExprKind::Cast:
        collectFieldReads(*static_cast<const CastExpr&>(expr).operand, sema, mask, out);
        break;
      case ExprKind::Index: {
        const auto& i = static_cast<const IndexExpr&>(expr);
        collectFieldReads(*i.base, sema, mask, out);
        collectFieldReads(*i.index, sema, mask, out);
        break;
      }
      case ExprKind::Call:
        for (const ExprPtr& a : static_cast<const CallExpr&>(expr).args) {
          collectFieldReads(*a, sema, mask, out);
        }
        break;
      case ExprKind::Conditional: {
        const auto& c = static_cast<const ConditionalExpr&>(expr);
        collectFieldReads(*c.cond, sema, mask, out);
        collectFieldReads(*c.then_expr, sema, mask, out);
        collectFieldReads(*c.else_expr, sema, mask, out);
        break;
      }
      default:
        break;
    }
  }

  static BinaryOp mirror(BinaryOp op) {
    switch (op) {
      case BinaryOp::Lt: return BinaryOp::Gt;
      case BinaryOp::Le: return BinaryOp::Ge;
      case BinaryOp::Gt: return BinaryOp::Lt;
      case BinaryOp::Ge: return BinaryOp::Le;
      default: return op;
    }
  }

  static BinaryOp negateCmp(BinaryOp op) {
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

  static ConstraintOp toConstraintOp(BinaryOp op) {
    switch (op) {
      case BinaryOp::Lt: return ConstraintOp::Lt;
      case BinaryOp::Le: return ConstraintOp::Le;
      case BinaryOp::Gt: return ConstraintOp::Gt;
      case BinaryOp::Ge: return ConstraintOp::Ge;
      case BinaryOp::Eq: return ConstraintOp::Eq;
      case BinaryOp::Ne: return ConstraintOp::Ne;
      default: return ConstraintOp::Eq;
    }
  }

  void attachTrace(Dependency& dep, std::string_view object) const {
    if (const auto* trace = comp_.analyzer->traceFor(object)) {
      dep.trace.reserve(trace->size());
      for (const taint::TraceStep& step : *trace) {
        dep.trace.push_back("L" + std::to_string(step.loc.line) + ": ");
        dep.trace.back() += step.text;
      }
    }
  }

  void attachGuardTrace(Dependency& dep, const Guard& guard) {
    dep.trace.push_back("guard in " + comp_.component + "::" + guard.fn->name + ": if (" +
                        conditionText(guard) + ")");
  }

  /// exprToString of the guard's condition, rendered once per guard:
  /// every bound and dependency a guard yields quotes it.
  const std::string& conditionText(const Guard& guard) {
    if (text_guard_ != &guard) {
      text_guard_ = &guard;
      condition_text_ = exprToString(*guard.condition);
    }
    return condition_text_;
  }

  void emit(Dependency dep) {
    std::string key = dep.dedupKey();
    const std::size_t hash = std::hash<std::string>{}(key);
    out_.candidates.push_back(Candidate{std::move(key), hash, false, std::move(dep)});
  }

  const ComponentRun& comp_;
  const taint::LabelTable& labels_;
  const ExtractOptions& options_;
  const WriterMap& writers_;
  ComponentOutput& out_;
  const Guard* text_guard_ = nullptr;
  std::string condition_text_;
};

// ---------------------------------------------------------------------
// The ordered merge
// ---------------------------------------------------------------------

/// Folds a later component's range of one parameter into the range of
/// the components before it.
void combine(SdAgg& into, SdAgg& later) {
  if (later.low) into.low = std::max(into.low.value_or(INT64_MIN), *later.low);
  if (later.high) into.high = std::min(into.high.value_or(INT64_MAX), *later.high);
  if (later.multiple) into.multiple = later.multiple;
  into.pow2 = into.pow2 || later.pow2;
  if (!later.bridge.empty()) into.bridge = std::move(later.bridge);
  if (!into.evidence.valid()) into.evidence = later.evidence;
  auto step = later.trace.begin();
  if (step != later.trace.end() && !into.trace.empty() && into.trace.back() == *step) ++step;
  into.trace.insert(into.trace.end(), std::make_move_iterator(step),
                    std::make_move_iterator(later.trace.end()));
}

/// The SD-range dependency of one parameter's folded, bounded() range.
Dependency rangeDependency(std::string_view param, SdAgg& agg) {
  Dependency dep;
  dep.kind = DepKind::SdValueRange;
  dep.param = std::string(param);
  dep.bridge_field = std::move(agg.bridge);
  dep.evidence = agg.evidence;
  dep.trace = std::move(agg.trace);
  if (agg.low || agg.high) {
    dep.op = ConstraintOp::InRange;
    dep.low = agg.low;
    dep.high = agg.high;
    dep.description = dep.param + " must be in range [" +
                      (agg.low ? std::to_string(*agg.low) : "-inf") + ", " +
                      (agg.high ? std::to_string(*agg.high) : "+inf") + "]";
    if (agg.multiple) dep.description += ", multiple of " + std::to_string(*agg.multiple);
    if (agg.pow2) dep.description += ", power of two";
  } else if (agg.multiple) {
    dep.op = ConstraintOp::MultipleOf;
    dep.low = agg.multiple;
    dep.description = dep.param + " must be a multiple of " + std::to_string(*agg.multiple);
  } else {
    dep.op = ConstraintOp::PowerOfTwo;
    dep.description = dep.param + " must be a power of two";
  }
  dep.id = "sd-range-" + slug(param);
  return dep;
}

/// One component's SD range of one parameter.
struct RangePart {
  std::string_view param;
  SdAgg* agg = nullptr;
};

/// The ordered merge. Serially, in component order, first-wins dedup
/// gives each kept candidate its output slot, and the components' SD
/// ranges are grouped by parameter in parameter order. Then, on the
/// pool, kept candidates move into their slots and each parameter's
/// ranges combine in component order into one SD-range dependency after
/// them. Each component's candidates are in the order a single pass
/// would have emitted them, so the result is that pass's, byte for byte.
/// (Range dependencies skip the dedup: no candidate is an SD range, and
/// each parameter has one.)
std::vector<Dependency> merge(std::vector<ComponentOutput>& outputs, std::size_t jobs) {
  std::size_t kept = 0;
  {
    struct KeyHash {
      std::size_t operator()(const Candidate* c) const { return c->hash; }
    };
    struct KeyEq {
      bool operator()(const Candidate* a, const Candidate* b) const { return a->key == b->key; }
    };
    std::size_t candidates = 0;
    for (const ComponentOutput& out : outputs) candidates += out.candidates.size();
    std::unordered_set<const Candidate*, KeyHash, KeyEq> seen;
    seen.reserve(candidates);
    for (ComponentOutput& out : outputs) {
      out.first_slot = kept;
      for (Candidate& c : out.candidates) {
        c.kept = seen.insert(&c).second;
        if (c.kept) ++kept;
      }
    }
  }
  std::vector<RangePart> parts;
  for (ComponentOutput& out : outputs) {
    for (auto& [param, agg] : out.ranges) {
      if (agg.bounded()) parts.push_back(RangePart{param, &agg});
    }
  }
  std::stable_sort(parts.begin(), parts.end(),
                   [](const RangePart& a, const RangePart& b) { return a.param < b.param; });
  std::vector<std::size_t> group_begin;  ///< first part of each parameter, then parts.size()
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (p == 0 || parts[p].param != parts[p - 1].param) group_begin.push_back(p);
  }
  const std::size_t ranges = group_begin.size();
  group_begin.push_back(parts.size());

  std::vector<Dependency> deps(kept + ranges);
  ThreadPool::parallelFor(outputs.size() + ranges, jobs, [&](std::size_t i) {
    if (i < outputs.size()) {
      std::size_t slot = outputs[i].first_slot;
      for (Candidate& c : outputs[i].candidates) {
        if (c.kept) deps[slot++] = std::move(c.dep);
      }
      return;
    }
    const std::size_t g = i - outputs.size();
    SdAgg& agg = *parts[group_begin[g]].agg;
    for (std::size_t p = group_begin[g] + 1; p < group_begin[g + 1]; ++p) {
      combine(agg, *parts[p].agg);
    }
    deps[kept + g] = rangeDependency(parts[group_begin[g]].param, agg);
  });
  return deps;
}

bool sharesAnalyzer(const std::vector<ComponentRun>& runs) {
  std::unordered_set<const taint::Analyzer*> analyzers;
  for (const ComponentRun& run : runs) {
    if (!analyzers.insert(run.analyzer).second) return true;
  }
  return false;
}

}  // namespace

std::vector<Dependency> extractDependencies(const std::vector<ComponentRun>& runs,
                                            const ExtractOptions& options, std::size_t jobs) {
  if (jobs != 1 && sharesAnalyzer(runs)) jobs = 1;  // see ComponentRules
  std::vector<ComponentOutput> outputs(runs.size());
  WriterMap writers;
  {
    obs::Span span("extract", "writers");
    ThreadPool::parallelFor(runs.size(), jobs, [&](std::size_t i) {
      collectWriters(runs[i], outputs[i]);
    });
    for (const ComponentOutput& out : outputs) {
      for (const FieldWriter& writer : out.writers) writers.add(writer);
    }
    writers.seal();
  }
  ThreadPool::parallelFor(runs.size(), jobs, [&](std::size_t i) {
    obs::Span span("extract", "component");
    ComponentRules(runs[i], options, writers, outputs[i]).run();
  });
  obs::Span span("extract", "merge");
  return merge(outputs, jobs);
}

}  // namespace fsdep::extract
