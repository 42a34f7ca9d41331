#include "model/dependency.h"

namespace fsdep::model {

DepLevel depLevelOf(DepKind kind) {
  switch (kind) {
    case DepKind::SdDataType:
    case DepKind::SdValueRange:
      return DepLevel::SelfDependency;
    case DepKind::CpdControl:
    case DepKind::CpdValue:
      return DepLevel::CrossParameter;
    case DepKind::CcdControl:
    case DepKind::CcdValue:
    case DepKind::CcdBehavioral:
      return DepLevel::CrossComponent;
  }
  return DepLevel::SelfDependency;
}

const char* depLevelShortName(DepLevel level) {
  switch (level) {
    case DepLevel::SelfDependency: return "SD";
    case DepLevel::CrossParameter: return "CPD";
    case DepLevel::CrossComponent: return "CCD";
  }
  return "?";
}

const char* depKindName(DepKind kind) {
  switch (kind) {
    case DepKind::SdDataType: return "sd-data-type";
    case DepKind::SdValueRange: return "sd-value-range";
    case DepKind::CpdControl: return "cpd-control";
    case DepKind::CpdValue: return "cpd-value";
    case DepKind::CcdControl: return "ccd-control";
    case DepKind::CcdValue: return "ccd-value";
    case DepKind::CcdBehavioral: return "ccd-behavioral";
  }
  return "unknown";
}

std::optional<DepKind> depKindFromName(std::string_view name) {
  if (name == "sd-data-type") return DepKind::SdDataType;
  if (name == "sd-value-range") return DepKind::SdValueRange;
  if (name == "cpd-control") return DepKind::CpdControl;
  if (name == "cpd-value") return DepKind::CpdValue;
  if (name == "ccd-control") return DepKind::CcdControl;
  if (name == "ccd-value") return DepKind::CcdValue;
  if (name == "ccd-behavioral") return DepKind::CcdBehavioral;
  return std::nullopt;
}

const char* constraintOpName(ConstraintOp op) {
  switch (op) {
    case ConstraintOp::Eq: return "==";
    case ConstraintOp::Ne: return "!=";
    case ConstraintOp::Lt: return "<";
    case ConstraintOp::Le: return "<=";
    case ConstraintOp::Gt: return ">";
    case ConstraintOp::Ge: return ">=";
    case ConstraintOp::Requires: return "requires";
    case ConstraintOp::Excludes: return "excludes";
    case ConstraintOp::InRange: return "in-range";
    case ConstraintOp::HasType: return "has-type";
    case ConstraintOp::MultipleOf: return "multiple-of";
    case ConstraintOp::PowerOfTwo: return "power-of-two";
    case ConstraintOp::Influences: return "influences";
  }
  return "?";
}

std::optional<ConstraintOp> constraintOpFromName(std::string_view name) {
  if (name == "==") return ConstraintOp::Eq;
  if (name == "!=") return ConstraintOp::Ne;
  if (name == "<") return ConstraintOp::Lt;
  if (name == "<=") return ConstraintOp::Le;
  if (name == ">") return ConstraintOp::Gt;
  if (name == ">=") return ConstraintOp::Ge;
  if (name == "requires") return ConstraintOp::Requires;
  if (name == "excludes") return ConstraintOp::Excludes;
  if (name == "in-range") return ConstraintOp::InRange;
  if (name == "has-type") return ConstraintOp::HasType;
  if (name == "multiple-of") return ConstraintOp::MultipleOf;
  if (name == "power-of-two") return ConstraintOp::PowerOfTwo;
  if (name == "influences") return ConstraintOp::Influences;
  return std::nullopt;
}

std::string Dependency::dedupKey() const {
  std::string key = depKindName(kind);
  key += '|';
  key += constraintOpName(op);
  key += '|';
  key += param;
  key += '|';
  // "excludes" is symmetric; normalize the pair order so A⊥B == B⊥A.
  if (op == ConstraintOp::Excludes && other_param < param) {
    key = depKindName(kind);
    key += '|';
    key += constraintOpName(op);
    key += '|';
    key += other_param;
    key += '|';
    key += param;
    return key;
  }
  key += other_param;
  return key;
}

std::string Dependency::summary() const {
  std::string out = depLevelShortName(level());
  out += '(';
  out += depKindName(kind);
  out += "): ";
  out += param;
  switch (op) {
    case ConstraintOp::HasType:
      out += " must have type ";
      out += type_name;
      break;
    case ConstraintOp::InRange:
      out += " in [";
      out += low ? std::to_string(*low) : "-inf";
      out += ", ";
      out += high ? std::to_string(*high) : "+inf";
      out += "]";
      break;
    case ConstraintOp::MultipleOf:
      out += " multiple of ";
      out += low ? std::to_string(*low) : "?";
      break;
    case ConstraintOp::PowerOfTwo:
      out += " must be a power of two";
      break;
    case ConstraintOp::Requires:
      out += " requires ";
      out += other_param;
      break;
    case ConstraintOp::Excludes:
      out += " excludes ";
      out += other_param;
      break;
    case ConstraintOp::Influences:
      out += " behavior influenced by ";
      out += other_param;
      break;
    default:
      out += ' ';
      out += constraintOpName(op);
      out += ' ';
      out += other_param;
      break;
  }
  if (!bridge_field.empty()) {
    out += " [via ";
    out += bridge_field;
    out += ']';
  }
  return out;
}

}  // namespace fsdep::model
