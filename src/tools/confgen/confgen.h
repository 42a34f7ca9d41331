// confgen: dependency-aware configuration generation, promoted out of
// ConBugCk / examples/config_fuzz_harness into its own library so every
// harness (ConBugCk fuzzing, the campaign engine, examples) draws
// configurations from the same generator.
//
// Two generation styles live here:
//   * random     — ConfigGenerator::randomConfig() over deliberately
//                  over-wide raw domains, optionally repaired against
//                  the extracted dependency set (ConBugCk's measurement
//                  of naive vs dependency-aware fuzzing);
//   * sampled    — sampleConfigMatrix(): a deterministic matrix over
//                  the mkfs/mount/tune knob domains combining
//                  each-used-value coverage (every knob value appears
//                  at least once) with greedy pairwise coverage (every
//                  pair of knob values appears together at least once),
//                  the classic configurable-system sampling strategies.
//                  Every sampled configuration is repaired against the
//                  dependency set, so campaigns spend their cells on
//                  configurations that get past shallow validation.
//
// Each GeneratedConfig field is one row of a table: its section and key
// in a reproducer file, its member and, if fsim can drive it, its
// registry parameter. The corpus writer and reader walk the rows, and
// paramBindings() is the view of the rows that name a parameter:
// repairConfig() uses it to satisfy dependencies, ConHandleCk to
// violate them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "fsim/tune.h"
#include "json/json.h"
#include "model/dependency.h"
#include "support/result.h"

namespace fsdep::tools {

struct GeneratedConfig {
  fsim::MkfsOptions mkfs;
  fsim::MountOptions mount;
  fsim::TuneOptions tune;
  std::uint32_t resize_target = 0;  ///< 0 = no resize step
};

/// The configuration as a reproducer file keeps it (corpus format v1),
/// and back. A missing key keeps its default; a key no field has, a
/// value of the wrong JSON type or one its field cannot hold (a number
/// out of range, an unknown data mode) fails, naming the key.
json::Object generatedConfigToJson(const GeneratedConfig& config);
Result<GeneratedConfig> generatedConfigFromJson(const json::Value& value);

// --- Parameters as data ------------------------------------------------

/// One parameter fsim can drive: its registry name bound to the
/// GeneratedConfig field it sets. Values travel as int64; a flag reads 0
/// or 1, and a setter narrows to its field's type.
struct ParamBinding {
  std::string_view name;  ///< "component.param", as in corpus::ecosystem()
  std::int64_t (*get)(const GeneratedConfig&);
  void (*set)(GeneratedConfig&, std::int64_t);
  /// What enabling the parameter writes: 1 for a flag, a representative
  /// size for a size that doubles as a switch (cluster_size 2048,
  /// resize_limit 65536), 0 for a plain value, which has no "enabled".
  std::int64_t on = 0;

  [[nodiscard]] bool enabled(const GeneratedConfig& config) const {
    return on != 0 && get(config) != 0;
  }
};

/// Every fsim-drivable parameter: the fields that name one, then the
/// data-mode selectors mount.data_journal and mount.data_writeback.
std::span<const ParamBinding> paramBindings();

/// The row for `name`, or nullptr when fsim cannot drive the parameter.
const ParamBinding* findParamBinding(std::string_view name);

/// Sets `name` to `value`; false (and nothing set) when it has no row.
bool setParam(GeneratedConfig& config, std::string_view name, std::int64_t value);

/// Deterministic xorshift generator so runs are reproducible.
class ConfigGenerator {
 public:
  explicit ConfigGenerator(std::uint64_t seed) : state_(seed == 0 ? 1 : seed) {}

  /// Uniform random configuration over raw parameter domains.
  GeneratedConfig randomConfig();

  /// Random configuration repaired to satisfy the given dependencies.
  GeneratedConfig dependencyAwareConfig(const std::vector<model::Dependency>& deps);

  std::uint64_t nextUint();
  std::uint32_t pick(std::uint32_t bound);  ///< uniform in [0, bound)
  bool coin() { return (nextUint() & 1) != 0; }

 private:
  std::uint64_t state_;
};

/// Repairs a configuration in place so it satisfies the dependency set.
void repairConfig(GeneratedConfig& config, const std::vector<model::Dependency>& deps);

// --- Matrix sampling ---------------------------------------------------

/// One sampling dimension: a named knob with a small list of named
/// values. Value 0 is always the baseline default.
struct SamplingKnob {
  std::string name;
  std::vector<std::string> values;
};

/// The mkfs/mount/tune knob domains the sampler covers. Stable order;
/// index into it with the choice vectors below.
const std::vector<SamplingKnob>& samplingKnobs();

/// The baseline configuration every sample is derived from: 1 KiB
/// blocks, 2048-block filesystem, 512 blocks/group, resize to 3072.
/// CrashCk runs every crash point of this row (sparse_super2 on for
/// the resize ops); ConHandleCk builds its violations from it.
GeneratedConfig baselineConfig();

/// The device a configuration is formatted on. Its block size is the
/// configuration's when that is a power of two in [512, 64 KiB], else
/// 1 KiB (mkfs refuses such a block size before touching the device).
/// It holds the larger of the file system size and the resize target
/// plus 2048 blocks, at least 8192, counted in 64 bits and clamped to a
/// 32-bit block count.
std::uint32_t deviceBlockSizeFor(const GeneratedConfig& config);
std::uint32_t deviceBlocksFor(const GeneratedConfig& config);

/// Applies choice `value` of knob `knob` to `config`.
void applyKnob(GeneratedConfig& config, std::size_t knob, std::size_t value);

struct SampledConfig {
  GeneratedConfig config;
  /// One value index per samplingKnobs() entry.
  std::vector<std::size_t> choices;
  /// Why this row exists: "baseline", "euv:knob=value" or "pair:N".
  std::string origin;

  /// "block_size=1024 layout=sparse_super2 ..." — stable, report-ready.
  [[nodiscard]] std::string label() const;
};

struct SamplingOptions {
  bool each_used_value = true;
  bool pairwise = true;
  /// 0 = unbounded. Truncation keeps matrix-prefix determinism: the
  /// first N rows of the unbounded matrix.
  std::size_t max_configs = 0;
};

/// Deterministic sample of the configuration matrix: the baseline row,
/// each-used-value rows, then greedy pairwise-covering rows; every row
/// repaired against `deps`. Same (options, deps) => identical matrix.
std::vector<SampledConfig> sampleConfigMatrix(const SamplingOptions& options,
                                              const std::vector<model::Dependency>& deps);

}  // namespace fsdep::tools
