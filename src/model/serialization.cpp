#include "model/serialization.h"

namespace fsdep::model {

json::Value toJson(const Dependency& dep) {
  json::Object o;
  o["id"] = dep.id;
  o["kind"] = depKindName(dep.kind);
  o["level"] = depLevelShortName(dep.level());
  o["op"] = constraintOpName(dep.op);
  o["param"] = dep.param;
  if (!dep.other_param.empty()) o["other_param"] = dep.other_param;
  if (dep.low) o["low"] = *dep.low;
  if (dep.high) o["high"] = *dep.high;
  if (!dep.type_name.empty()) o["type_name"] = dep.type_name;
  if (!dep.bridge_field.empty()) o["bridge_field"] = dep.bridge_field;
  if (!dep.description.empty()) o["description"] = dep.description;
  if (!dep.trace.empty()) {
    json::Array trace;
    for (const std::string& step : dep.trace) trace.emplace_back(step);
    o["trace"] = std::move(trace);
  }
  return o;
}

json::Value toJson(const std::vector<Dependency>& dependencies) {
  json::Object o;
  json::Array deps;
  for (const Dependency& d : dependencies) deps.push_back(toJson(d));
  o["dependencies"] = std::move(deps);
  return o;
}

namespace {

std::string getString(const json::Object& o, std::string_view key) {
  const json::Value* v = o.find(key);
  return v != nullptr ? v->asString() : std::string();
}

}  // namespace

Result<Dependency> dependencyFromJson(const json::Value& value) {
  if (!value.isObject()) return makeError("dependency: expected object");
  const json::Object& o = value.asObject();
  Dependency d;
  d.id = getString(o, "id");
  if (auto k = depKindFromName(getString(o, "kind"))) d.kind = *k;
  else return makeError("dependency " + d.id + ": bad kind");
  if (auto op = constraintOpFromName(getString(o, "op"))) d.op = *op;
  else return makeError("dependency " + d.id + ": bad op");
  d.param = getString(o, "param");
  if (d.param.empty()) return makeError("dependency " + d.id + ": missing param");
  d.other_param = getString(o, "other_param");
  if (const json::Value* low = o.find("low")) d.low = low->asInt();
  if (const json::Value* high = o.find("high")) d.high = high->asInt();
  d.type_name = getString(o, "type_name");
  d.bridge_field = getString(o, "bridge_field");
  d.description = getString(o, "description");
  if (const json::Value* trace = o.find("trace"); trace != nullptr && trace->isArray()) {
    for (const json::Value& step : trace->asArray()) d.trace.push_back(step.asString());
  }
  return d;
}

Result<std::vector<Dependency>> dependenciesFromJson(const json::Value& value) {
  if (!value.isObject()) return makeError("dependencies: expected object");
  const json::Value* deps = value.asObject().find("dependencies");
  if (deps == nullptr || !deps->isArray()) return makeError("dependencies: missing array");
  std::vector<Dependency> out;
  for (const json::Value& dv : deps->asArray()) {
    Result<Dependency> d = dependencyFromJson(dv);
    if (!d.ok()) return d.error();
    out.push_back(std::move(d).take());
  }
  return out;
}

}  // namespace fsdep::model
