// Taint state: which labels each memory object may carry at a program
// point. Objects are (a) local/global variables, keyed by their VarDecl,
// and (b) struct fields, keyed field-sensitively but object-insensitively
// by an interned "record.field" id — all instances of
// ext4_super_block.s_blocks_count are one object, which is exactly the
// abstraction that makes shared-metadata bridging work.
//
// Both maps are sorted vectors (FlatMap): the fixpoint merge is a single
// linear walk, and label payloads are bitsets, so mergeFrom is a handful
// of word ORs per object instead of set-node churn.
#pragma once

#include <string>
#include <string_view>

#include "ast/ast.h"
#include "support/flat_map.h"
#include "taint/label.h"

namespace fsdep::taint {

/// Field object key string: "record.field" (for traces and external
/// APIs; the state itself uses interned FieldKeyIds).
std::string fieldKey(std::string_view record, std::string_view field);

struct TaintState {
  TaintState() = default;
  /// A state whose maps draw storage from `resource` (copies use the heap).
  explicit TaintState(std::pmr::memory_resource* resource) : vars(resource), fields(resource) {}

  FlatMap<const ast::VarDecl*, LabelSet> vars;
  FlatMap<FieldKeyId, LabelSet> fields;

  /// Pointwise union. Returns true when this state grew.
  bool mergeFrom(const TaintState& other);

  /// Empties the state but keeps its storage for the next fill.
  void clear() {
    vars.clear();
    fields.clear();
  }

  [[nodiscard]] LabelSet varLabels(const ast::VarDecl* var) const;
  [[nodiscard]] LabelSet fieldLabels(FieldKeyId key) const;

  bool operator==(const TaintState& other) const = default;
};

}  // namespace fsdep::taint
