// JSON (de)serialization of extracted dependencies, mirroring the paper's
// "extracted dependencies are stored in JSON files which describe both the
// parameters and the associated constraints" (§4.1). `--json` output and
// the disk cache use it.
#pragma once

#include "json/json.h"
#include "model/dependency.h"
#include "support/result.h"

namespace fsdep::model {

json::Value toJson(const Dependency& dependency);
json::Value toJson(const std::vector<Dependency>& dependencies);

Result<Dependency> dependencyFromJson(const json::Value& value);
Result<std::vector<Dependency>> dependenciesFromJson(const json::Value& value);

}  // namespace fsdep::model
