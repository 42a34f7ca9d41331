// The multi-level configuration dependency taxonomy of the paper (Table 4):
//
//   Self Dependency (SD)              — one parameter's own constraint
//     * DataType:  parameter must be of a specific data type
//     * ValueRange: parameter must be within a specific value range
//   Cross-Parameter Dependency (CPD)  — parameters of the SAME component
//     * Control: P1 of C1 can be enabled iff P2 of C1 is enabled/disabled
//     * Value:   P1's value depends on P2's value (e.g. P1 <= P2)
//   Cross-Component Dependency (CCD)  — parameters of DIFFERENT components
//     * Control:    P1 of C1 can be enabled iff P2 of C2 is enabled/disabled
//     * Value:      P1's value depends on P2 from another component
//     * Behavioral: component C1's behavior depends on P2 of C2
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/source_location.h"

namespace fsdep::model {

enum class DepLevel : std::uint8_t { SelfDependency, CrossParameter, CrossComponent };

enum class DepKind : std::uint8_t {
  SdDataType,
  SdValueRange,
  CpdControl,
  CpdValue,
  CcdControl,
  CcdValue,
  CcdBehavioral,
};

DepLevel depLevelOf(DepKind kind);
const char* depLevelShortName(DepLevel level);  // "SD" / "CPD" / "CCD"
const char* depKindName(DepKind kind);
std::optional<DepKind> depKindFromName(std::string_view name);

/// Comparison operator appearing in a constraint expression.
enum class ConstraintOp : std::uint8_t {
  Eq, Ne, Lt, Le, Gt, Ge,
  Requires,        ///< P1 enabled => P2 enabled
  Excludes,        ///< P1 and P2 cannot both be enabled
  InRange,         ///< low <= P <= high
  HasType,         ///< P must parse as a given type
  MultipleOf,      ///< P % k == 0
  PowerOfTwo,      ///< P is a power of two
  Influences,      ///< behavioral: P2 influences C1's behavior
};

const char* constraintOpName(ConstraintOp op);
std::optional<ConstraintOp> constraintOpFromName(std::string_view name);

/// One extracted or curated dependency.
struct Dependency {
  std::string id;                       ///< stable id, e.g. "sd-mke2fs-blocksize-range"
  DepKind kind = DepKind::SdDataType;
  ConstraintOp op = ConstraintOp::HasType;

  /// The constrained parameter, "component.name".
  std::string param;
  /// The other side for CPD/CCD ("component.name"); empty for SD.
  std::string other_param;

  /// For SdValueRange / numeric relations.
  std::optional<std::int64_t> low;
  std::optional<std::int64_t> high;
  /// For SdDataType: the required type name ("integer", "size", ...).
  std::string type_name;
  /// For CCD: the shared metadata field that bridges the two components,
  /// e.g. "ext4_super_block.s_blocks_count" (paper §4.1 key observation).
  std::string bridge_field;

  std::string description;              ///< human-readable statement
  SourceRange evidence;                 ///< where in the corpus it was found
  std::vector<std::string> trace;       ///< rendered taint-trace steps

  [[nodiscard]] DepLevel level() const { return depLevelOf(kind); }

  /// Deduplication key: two extractions of the same logical dependency
  /// (possibly found via different code paths) compare equal.
  [[nodiscard]] std::string dedupKey() const;

  /// One-line rendering like "CPD-control: mke2fs.meta_bg excludes
  /// mke2fs.resize_inode".
  [[nodiscard]] std::string summary() const;
};

}  // namespace fsdep::model
