#include "tools/confgen/confgen.h"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

namespace fsdep::tools {

using namespace fsim;

std::uint64_t ConfigGenerator::nextUint() {
  // xorshift64*
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  return state_ * 0x2545F4914F6CDD1DULL;
}

std::uint32_t ConfigGenerator::pick(std::uint32_t bound) {
  return bound == 0 ? 0 : static_cast<std::uint32_t>(nextUint() % bound);
}

GeneratedConfig ConfigGenerator::randomConfig() {
  GeneratedConfig c;
  // Raw domains: deliberately wider than the legal ranges, like a tester
  // who does not know the constraints.
  const std::uint32_t block_sizes[] = {512, 1024, 2048, 4096, 8192, 131072};
  c.mkfs.block_size = block_sizes[pick(6)];
  c.mkfs.size_blocks = 1024 + pick(4) * 1024;
  c.mkfs.blocks_per_group = 128u << pick(5);  // 128..2048 (128 violates the minimum)
  const std::uint16_t inode_sizes[] = {64, 128, 256, 512, 8192};
  c.mkfs.inode_size = inode_sizes[pick(5)];
  c.mkfs.inode_ratio = 512u << pick(6);
  c.mkfs.reserved_ratio = pick(120);  // up to 119% (violates the 50% cap)
  c.mkfs.meta_bg = coin();
  c.mkfs.resize_inode = coin();
  c.mkfs.sparse_super2 = coin();
  c.mkfs.bigalloc = coin();
  c.mkfs.extents = coin();
  c.mkfs.has_64bit = coin();
  c.mkfs.quota = coin();
  c.mkfs.has_journal = coin();
  c.mkfs.uninit_bg = coin();
  c.mkfs.metadata_csum = coin();
  c.mkfs.flex_bg = coin();
  c.mkfs.inline_data = coin();
  c.mkfs.encrypt = coin();
  c.mkfs.cluster_size = coin() ? c.mkfs.block_size * (1 + pick(3)) : 0;

  c.mount.dax = coin();
  c.mount.read_only = coin();
  c.mount.noload = coin();
  const DataMode modes[] = {DataMode::Ordered, DataMode::Journal, DataMode::Writeback};
  c.mount.data_mode = modes[pick(3)];
  c.mount.commit_interval = pick(600);           // may exceed 300
  c.mount.stripe = pick(4) * 1048576;            // may exceed the cap
  c.mount.inode_readahead_blks = 1 + pick(100);  // often not a power of two
  c.mount.max_batch_time = pick(120000);
  c.mount.min_batch_time = pick(120000);
  c.mount.journal_checksum = coin();
  c.mount.journal_async_commit = coin();
  c.mount.dioread_nolock = coin();
  c.mount.delalloc = coin();
  c.mount.auto_da_alloc = coin();

  c.resize_target = coin() ? c.mkfs.size_blocks + 1024 + pick(2) * 1024 : 0;
  return c;
}

// --- The configuration table -------------------------------------------

namespace {

/// Indexed by DataMode.
constexpr std::string_view kDataModeNames[] = {"ordered", "journal", "writeback"};

template <typename T>
constexpr bool kOptional = false;
template <typename T>
constexpr bool kOptional<std::optional<T>> = true;

/// A member's value as a reproducer file keeps it, picked by its type;
/// null for an unset optional (a tune field left alone), which writes
/// no key.
template <typename T>
json::Value encode(const T& value) {
  if constexpr (kOptional<T>) {
    return value.has_value() ? encode(*value) : json::Value();
  } else if constexpr (std::is_same_v<T, DataMode>) {
    return kDataModeNames[static_cast<std::size_t>(value)];
  } else if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::string>) {
    return value;
  } else {
    return static_cast<std::uint64_t>(value);
  }
}

/// The inverse: reads `value` into `out`, or returns what is wrong with it.
template <typename T>
std::string decode(const json::Value& value, T& out) {
  if constexpr (kOptional<T>) {
    return decode(value, out.emplace());
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!value.isBool()) return "is not true or false";
    out = value.asBool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!value.isString()) return "is not a string";
    out = value.asString();
  } else if constexpr (std::is_same_v<T, DataMode>) {
    const auto* name = std::ranges::find(kDataModeNames, value.isString() ? value.asString() : "");
    if (name == std::end(kDataModeNames)) return "is not a data mode name";
    out = static_cast<DataMode>(name - std::begin(kDataModeNames));
  } else {
    if (!value.isInt()) return "is not an integer";
    out = static_cast<T>(value.asInt());
    if (static_cast<std::int64_t>(out) != value.asInt()) return "does not fit its field";
  }
  return {};
}

/// One GeneratedConfig field: the section and key a reproducer file
/// keeps it under and, when fsim can drive it, its registry parameter.
struct ConfigField {
  std::string_view section;  ///< empty for a top-level field
  std::string_view key;
  ParamBinding param;  ///< param.name is empty when no parameter drives the field
  json::Value (*write)(const GeneratedConfig&);
  std::string (*read)(GeneratedConfig&, const json::Value&);
};

/// The field `Path` leads to, e.g. <&GeneratedConfig::mkfs,
/// &MkfsOptions::label>. A flag's "enabled" value is 1; `on` gives a
/// size's (0: a plain value).
template <auto... Path>
constexpr ConfigField field(std::string_view section, std::string_view key,
                            std::string_view param, std::int64_t on) {
  using T = std::remove_cvref_t<decltype((std::declval<GeneratedConfig&>() .* ... .* Path))>;
  ConfigField row{section, key, {param, nullptr, nullptr, std::is_same_v<T, bool> ? 1 : on},
                  [](const GeneratedConfig& c) { return encode((c .* ... .* Path)); },
                  [](GeneratedConfig& c, const json::Value& value) {
                    return decode(value, (c .* ... .* Path));
                  }};
  if constexpr (std::is_integral_v<T>) {
    row.param.get = [](const GeneratedConfig& c) {
      return static_cast<std::int64_t>((c .* ... .* Path));
    };
    row.param.set = [](GeneratedConfig& c, std::int64_t value) {
      (c .* ... .* Path) = static_cast<T>(value);
    };
  }
  return row;
}

template <auto Member>
constexpr ConfigField mkfsField(std::string_view key, std::string_view param = {},
                                std::int64_t on = 0) {
  return field<&GeneratedConfig::mkfs, Member>("mkfs", key, param, on);
}

template <auto Member>
constexpr ConfigField mountField(std::string_view key, std::string_view param = {}) {
  return field<&GeneratedConfig::mount, Member>("mount", key, param, 0);
}

template <auto Member>
constexpr ConfigField tuneField(std::string_view key) {
  return field<&GeneratedConfig::tune, Member>("tune", key, {}, 0);
}

/// Every field, in the order a reproducer file lists them (format v1).
constexpr ConfigField kConfigFields[] = {
    mkfsField<&MkfsOptions::size_blocks>("size_blocks", "mke2fs.size"),
    mkfsField<&MkfsOptions::block_size>("block_size", "mke2fs.blocksize"),
    mkfsField<&MkfsOptions::inode_size>("inode_size", "mke2fs.inode_size"),
    mkfsField<&MkfsOptions::inode_ratio>("inode_ratio", "mke2fs.inode_ratio"),
    mkfsField<&MkfsOptions::reserved_ratio>("reserved_ratio", "mke2fs.reserved_ratio"),
    mkfsField<&MkfsOptions::blocks_per_group>("blocks_per_group", "mke2fs.blocks_per_group"),
    mkfsField<&MkfsOptions::label>("label"),
    mkfsField<&MkfsOptions::sparse_super>("sparse_super"),
    mkfsField<&MkfsOptions::sparse_super2>("sparse_super2", "mke2fs.sparse_super2"),
    mkfsField<&MkfsOptions::resize_inode>("resize_inode", "mke2fs.resize_inode"),
    mkfsField<&MkfsOptions::resize_limit_blocks>("resize_limit_blocks", "mke2fs.resize_limit",
                                                 65536),
    mkfsField<&MkfsOptions::meta_bg>("meta_bg", "mke2fs.meta_bg"),
    mkfsField<&MkfsOptions::extents>("extents", "mke2fs.extent"),
    mkfsField<&MkfsOptions::has_64bit>("has_64bit", "mke2fs.64bit"),
    mkfsField<&MkfsOptions::quota>("quota", "mke2fs.quota"),
    mkfsField<&MkfsOptions::has_journal>("has_journal", "mke2fs.has_journal"),
    mkfsField<&MkfsOptions::uninit_bg>("uninit_bg", "mke2fs.uninit_bg"),
    mkfsField<&MkfsOptions::metadata_csum>("metadata_csum", "mke2fs.metadata_csum"),
    mkfsField<&MkfsOptions::flex_bg>("flex_bg", "mke2fs.flex_bg"),
    mkfsField<&MkfsOptions::inline_data>("inline_data", "mke2fs.inline_data"),
    mkfsField<&MkfsOptions::encrypt>("encrypt", "mke2fs.encrypt"),
    mkfsField<&MkfsOptions::bigalloc>("bigalloc", "mke2fs.bigalloc"),
    mkfsField<&MkfsOptions::cluster_size>("cluster_size", "mke2fs.cluster_size", 2048),
    mountField<&MountOptions::read_only>("read_only", "mount.ro"),
    mountField<&MountOptions::dax>("dax", "mount.dax"),
    mountField<&MountOptions::data_mode>("data_mode"),
    mountField<&MountOptions::noload>("noload", "mount.noload"),
    mountField<&MountOptions::commit_interval>("commit_interval", "mount.commit"),
    mountField<&MountOptions::stripe>("stripe", "mount.stripe"),
    mountField<&MountOptions::inode_readahead_blks>("inode_readahead_blks",
                                                    "mount.inode_readahead_blks"),
    mountField<&MountOptions::max_batch_time>("max_batch_time", "mount.max_batch_time"),
    mountField<&MountOptions::min_batch_time>("min_batch_time", "mount.min_batch_time"),
    mountField<&MountOptions::journal_checksum>("journal_checksum", "mount.journal_checksum"),
    mountField<&MountOptions::journal_async_commit>("journal_async_commit",
                                                    "mount.journal_async_commit"),
    mountField<&MountOptions::dioread_nolock>("dioread_nolock", "mount.dioread_nolock"),
    mountField<&MountOptions::delalloc>("delalloc", "mount.delalloc"),
    mountField<&MountOptions::auto_da_alloc>("auto_da_alloc", "mount.auto_da_alloc"),
    tuneField<&TuneOptions::has_journal>("has_journal"),
    tuneField<&TuneOptions::metadata_csum>("metadata_csum"),
    tuneField<&TuneOptions::uninit_bg>("uninit_bg"),
    tuneField<&TuneOptions::quota>("quota"),
    tuneField<&TuneOptions::sparse_super2>("sparse_super2"),
    tuneField<&TuneOptions::max_mount_count>("max_mount_count"),
    tuneField<&TuneOptions::reserved_blocks_count>("reserved_blocks_count"),
    tuneField<&TuneOptions::label>("label"),
    field<&GeneratedConfig::resize_target>({}, "resize_target", {}, 0),
};

/// mount.data_journal / mount.data_writeback: enabling selects the mode,
/// disabling returns to ordered.
template <DataMode Mode>
constexpr ParamBinding dataModeParam(std::string_view name) {
  return {name,
          [](const GeneratedConfig& c) -> std::int64_t { return c.mount.data_mode == Mode; },
          [](GeneratedConfig& c, std::int64_t on) {
            c.mount.data_mode = on != 0 ? Mode : DataMode::Ordered;
          },
          1};
}

constexpr std::size_t kParamCount = std::ranges::count_if(
    kConfigFields, [](const ConfigField& f) { return !f.param.name.empty(); });

/// The rows that name a parameter, then the two data-mode selectors,
/// collected at compile time.
constexpr std::array<ParamBinding, kParamCount + 2> kParamBindings = [] {
  std::array<ParamBinding, kParamCount + 2> out{};
  std::size_t n = 0;
  for (const ConfigField& f : kConfigFields) {
    if (!f.param.name.empty()) out[n++] = f.param;
  }
  out[n++] = dataModeParam<DataMode::Journal>("mount.data_journal");
  out[n] = dataModeParam<DataMode::Writeback>("mount.data_writeback");
  return out;
}();

/// Reads the keys of one section (`section` empty: the top level, whose
/// keys also name the sections) into `config`. Returns the first
/// problem, naming its key, or "".
std::string readSection(GeneratedConfig& config, const json::Object& obj,
                        std::string_view section) {
  for (const auto& [key, value] : obj) {
    const auto* row = std::ranges::find_if(kConfigFields, [&](const ConfigField& f) {
      return f.section == section && f.key == key;
    });
    const bool names_section = section.empty() && !key.empty() &&
                               std::ranges::any_of(kConfigFields, [&](const ConfigField& f) {
                                 return f.section == key;
                               });
    std::string problem;
    if (row != std::end(kConfigFields)) {
      problem = row->read(config, *value);
      if (!problem.empty()) problem = "config value '" + key + "' " + problem;
    } else if (names_section) {
      problem = value->isObject() ? readSection(config, value->asObject(), key)
                                  : "config value '" + key + "' is not an object";
    } else {
      problem = "unknown config key '" + key + "'";
      if (!section.empty()) problem += " in '" + std::string(section) + "'";
    }
    if (!problem.empty()) return problem;
  }
  return {};
}

}  // namespace

json::Object generatedConfigToJson(const GeneratedConfig& config) {
  json::Object doc;
  for (const ConfigField& f : kConfigFields) {
    json::Object* into = &doc;
    if (!f.section.empty()) {
      json::Value& section = doc[std::string(f.section)];
      if (!section.isObject()) section = json::Object{};
      into = &section.asObject();
    }
    json::Value value = f.write(config);
    if (!value.isNull()) (*into)[std::string(f.key)] = std::move(value);
  }
  return doc;
}

Result<GeneratedConfig> generatedConfigFromJson(const json::Value& value) {
  if (!value.isObject()) return makeError("config must be a JSON object");
  GeneratedConfig config;
  const std::string problem = readSection(config, value.asObject(), {});
  if (!problem.empty()) return makeError(problem);
  return config;
}

// --- Parameters as data ------------------------------------------------

std::span<const ParamBinding> paramBindings() { return kParamBindings; }

const ParamBinding* findParamBinding(std::string_view name) {
  for (const ParamBinding& binding : kParamBindings) {
    if (binding.name == name) return &binding;
  }
  return nullptr;
}

bool setParam(GeneratedConfig& config, std::string_view name, std::int64_t value) {
  const ParamBinding* binding = findParamBinding(name);
  if (binding == nullptr) return false;
  binding->set(config, value);
  return true;
}

// --- Repair ------------------------------------------------------------

namespace {

using model::ConstraintOp;

/// Clamps `p` into [low, high], then gives it the shape fsim demands:
/// block sizes and readahead windows are powers of two, and a group's
/// block count fills whole bitmap bytes.
void clampParam(GeneratedConfig& c, const ParamBinding& p, std::int64_t low, std::int64_t high) {
  std::int64_t v = std::min(std::max(p.get(c), low), high);
  if (p.name == "mke2fs.blocksize" || p.name == "mount.inode_readahead_blks") {
    std::int64_t pow2 = 1;
    while (pow2 < v && pow2 < (1 << 30)) pow2 <<= 1;
    v = pow2;
  } else if (p.name == "mke2fs.blocks_per_group") {
    v -= v % 8;
  }
  p.set(c, v);
}

/// Turns a switch off. Disabling bigalloc also clears cluster_size,
/// which means nothing without it.
void disable(GeneratedConfig& c, const ParamBinding& p) {
  p.set(c, 0);
  if (p.name == "mke2fs.bigalloc") setParam(c, "mke2fs.cluster_size", 0);
}

/// Restores `param <= k * other` (Le) or `param >= k * other` (Ge) by
/// moving param onto the bound. k is 8 for blocks_per_group: one bitmap
/// block covers 8 * blocksize blocks, a factor the extracted relation
/// leaves out. A zero param is an unset size (cluster_size without
/// bigalloc) and stays unset. mke2fs.size is left alone: the
/// configuration counts it in blocks, the relation in bytes.
void repairRelation(GeneratedConfig& c, const model::Dependency& dep, const ParamBinding& param,
                    const ParamBinding& other) {
  if (param.name == "mke2fs.size") return;
  const std::int64_t value = param.get(c);
  const std::int64_t bound = (param.name == "mke2fs.blocks_per_group" ? 8 : 1) * other.get(c);
  const bool holds = dep.op == ConstraintOp::Le ? value <= bound : value >= bound;
  if (value != 0 && !holds) param.set(c, bound);
}

}  // namespace

void repairConfig(GeneratedConfig& c, const std::vector<model::Dependency>& deps) {
  // Two passes: requires-repairs can themselves enable a flag that an
  // excludes-dependency then has to resolve.
  for (int pass = 0; pass < 2; ++pass) {
    for (const model::Dependency& dep : deps) {
      const ParamBinding* param = findParamBinding(dep.param);
      if (param == nullptr) continue;
      switch (dep.op) {
        case ConstraintOp::InRange:
          clampParam(c, *param, dep.low.value_or(INT64_MIN), dep.high.value_or(INT64_MAX));
          break;
        case ConstraintOp::PowerOfTwo:
          clampParam(c, *param, 1, 1 << 30);
          break;
        case ConstraintOp::Requires: {
          const ParamBinding* other = findParamBinding(dep.other_param);
          if (!param->enabled(c) || (other != nullptr && other->enabled(c))) break;
          // Enable the requirement; a parameter whose requirement cannot
          // be enabled is dropped instead.
          if (other != nullptr && other->on != 0) {
            other->set(c, other->on);
          } else {
            disable(c, *param);
          }
          break;
        }
        case ConstraintOp::Excludes: {
          // Prefer disabling the dependency's subject.
          const ParamBinding* other = findParamBinding(dep.other_param);
          if (param->enabled(c) && other != nullptr && other->enabled(c)) disable(c, *param);
          break;
        }
        case ConstraintOp::Le:
        case ConstraintOp::Ge:
          if (const ParamBinding* other = findParamBinding(dep.other_param)) {
            repairRelation(c, dep, *param, *other);
          }
          break;
        default:
          break;
      }
    }
  }

  // Structural knowledge a dependency-aware harness also applies: dax
  // needs 4KiB blocks (extracted as an equality the analyzer skips).
  if (c.mount.dax && c.mkfs.block_size != 4096) c.mount.dax = false;
  if (c.mount.noload && !c.mount.read_only) c.mount.read_only = true;
  if (c.mkfs.blocks_per_group < 256) c.mkfs.blocks_per_group = 256;
}

GeneratedConfig ConfigGenerator::dependencyAwareConfig(
    const std::vector<model::Dependency>& deps) {
  GeneratedConfig c = randomConfig();
  repairConfig(c, deps);
  return c;
}

// --- Matrix sampling ---------------------------------------------------

const std::vector<SamplingKnob>& samplingKnobs() {
  static const std::vector<SamplingKnob> knobs = {
      {"block_size", {"1024", "2048", "4096"}},
      {"layout", {"resize_inode", "sparse_super2", "meta_bg", "plain"}},
      {"journal", {"on", "off"}},
      {"integrity", {"none", "metadata_csum", "uninit_bg"}},
      {"alloc", {"extents", "noextents", "bigalloc"}},
      {"data", {"ordered", "journal", "writeback"}},
      {"tune", {"light", "aggressive"}},
      {"resize", {"3072", "4096"}},
  };
  return knobs;
}

GeneratedConfig baselineConfig() {
  GeneratedConfig c;
  // CrashCk's exhaustive crash sweep runs on this row (sparse_super2 on
  // for the resize ops).
  c.mkfs.block_size = 1024;
  c.mkfs.size_blocks = 2048;
  c.mkfs.blocks_per_group = 512;
  c.mkfs.inode_ratio = 8192;
  c.mkfs.inode_size = 256;
  c.tune.max_mount_count = 64;
  c.tune.reserved_blocks_count = 64;
  c.resize_target = 3072;
  return c;
}

std::uint32_t deviceBlockSizeFor(const GeneratedConfig& config) {
  const std::uint32_t bs = config.mkfs.block_size;
  const bool pow2 = bs >= 512 && bs <= (1u << 16) && (bs & (bs - 1)) == 0;
  return pow2 ? bs : 1024;
}

std::uint32_t deviceBlocksFor(const GeneratedConfig& config) {
  // In 64 bits, clamped to a 32-bit block count: a replayed size may sit
  // anywhere below 2^32.
  const std::uint64_t fs = std::max(config.mkfs.size_blocks, config.resize_target);
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(fs + 2048, 8192, std::numeric_limits<std::uint32_t>::max()));
}

void applyKnob(GeneratedConfig& c, std::size_t knob, std::size_t value) {
  switch (knob) {
    case 0:  // block_size
      c.mkfs.block_size = value == 1 ? 2048 : value == 2 ? 4096 : 1024;
      break;
    case 1:  // layout
      c.mkfs.resize_inode = value == 0;
      c.mkfs.sparse_super2 = value == 1;
      c.mkfs.meta_bg = value == 2;
      break;
    case 2:  // journal
      c.mkfs.has_journal = value == 0;
      break;
    case 3:  // integrity
      c.mkfs.metadata_csum = value == 1;
      c.mkfs.uninit_bg = value == 2;
      break;
    case 4:  // alloc
      c.mkfs.extents = value != 1;
      c.mkfs.bigalloc = value == 2;
      c.mkfs.cluster_size = value == 2 ? 2 * c.mkfs.block_size : 0;
      break;
    case 5:  // data
      c.mount.data_mode = value == 1   ? fsim::DataMode::Journal
                          : value == 2 ? fsim::DataMode::Writeback
                                       : fsim::DataMode::Ordered;
      break;
    case 6:  // tune
      if (value == 1) {
        c.tune.max_mount_count = 16;
        c.tune.reserved_blocks_count = 128;
        c.tune.label = "campaign";
      } else {
        c.tune.max_mount_count = 64;
        c.tune.reserved_blocks_count = 64;
      }
      break;
    case 7:  // resize
      c.resize_target = value == 1 ? 4096 : 3072;
      break;
    default:
      break;
  }
}

std::string SampledConfig::label() const {
  const std::vector<SamplingKnob>& knobs = samplingKnobs();
  std::string out;
  for (std::size_t k = 0; k < knobs.size() && k < choices.size(); ++k) {
    if (!out.empty()) out += ' ';
    out += knobs[k].name + '=' + knobs[k].values[choices[k]];
  }
  return out;
}

namespace {

/// Flat pair index for ((k1,v1),(k2,v2)), k1 < k2, over the knob table.
class PairIndex {
 public:
  PairIndex() {
    const std::vector<SamplingKnob>& knobs = samplingKnobs();
    offsets_.resize(knobs.size() * knobs.size(), 0);
    std::size_t next = 0;
    for (std::size_t a = 0; a < knobs.size(); ++a) {
      for (std::size_t b = a + 1; b < knobs.size(); ++b) {
        offsets_[a * knobs.size() + b] = next;
        next += knobs[a].values.size() * knobs[b].values.size();
      }
    }
    total_ = next;
  }

  [[nodiscard]] std::size_t id(std::size_t k1, std::size_t v1, std::size_t k2,
                               std::size_t v2) const {
    const std::vector<SamplingKnob>& knobs = samplingKnobs();
    return offsets_[k1 * knobs.size() + k2] + v1 * knobs[k2].values.size() + v2;
  }
  [[nodiscard]] std::size_t total() const { return total_; }

 private:
  std::vector<std::size_t> offsets_;
  std::size_t total_ = 0;
};

void markCovered(const PairIndex& index, const std::vector<std::size_t>& choices,
                 std::vector<bool>& covered, std::size_t& remaining) {
  for (std::size_t a = 0; a < choices.size(); ++a) {
    for (std::size_t b = a + 1; b < choices.size(); ++b) {
      const std::size_t id = index.id(a, choices[a], b, choices[b]);
      if (!covered[id]) {
        covered[id] = true;
        --remaining;
      }
    }
  }
}

}  // namespace

std::vector<SampledConfig> sampleConfigMatrix(const SamplingOptions& options,
                                              const std::vector<model::Dependency>& deps) {
  const std::vector<SamplingKnob>& knobs = samplingKnobs();
  std::vector<SampledConfig> rows;

  auto pushRow = [&](std::vector<std::size_t> choices, std::string origin) {
    for (const SampledConfig& existing : rows) {
      if (existing.choices == choices) return;
    }
    SampledConfig row;
    row.config = baselineConfig();
    for (std::size_t k = 0; k < knobs.size(); ++k) applyKnob(row.config, k, choices[k]);
    repairConfig(row.config, deps);
    row.choices = std::move(choices);
    row.origin = std::move(origin);
    rows.push_back(std::move(row));
  };

  pushRow(std::vector<std::size_t>(knobs.size(), 0), "baseline");

  if (options.each_used_value) {
    for (std::size_t k = 0; k < knobs.size(); ++k) {
      for (std::size_t v = 1; v < knobs[k].values.size(); ++v) {
        std::vector<std::size_t> choices(knobs.size(), 0);
        choices[k] = v;
        pushRow(std::move(choices), "euv:" + knobs[k].name + "=" + knobs[k].values[v]);
      }
    }
  }

  if (options.pairwise) {
    const PairIndex index;
    std::vector<bool> covered(index.total(), false);
    std::size_t remaining = index.total();
    for (const SampledConfig& row : rows) {
      markCovered(index, row.choices, covered, remaining);
    }

    std::size_t pair_rows = 0;
    for (std::size_t k1 = 0; k1 < knobs.size() && remaining > 0; ++k1) {
      for (std::size_t v1 = 0; v1 < knobs[k1].values.size(); ++v1) {
        for (std::size_t k2 = k1 + 1; k2 < knobs.size(); ++k2) {
          for (std::size_t v2 = 0; v2 < knobs[k2].values.size(); ++v2) {
            if (covered[index.id(k1, v1, k2, v2)]) continue;
            // Seed a row with the uncovered pair, then fill the free
            // knobs greedily: each takes the value covering the most
            // still-uncovered pairs with the knobs fixed so far
            // (lowest index wins ties — fully deterministic).
            std::vector<std::size_t> choices(knobs.size(), 0);
            std::vector<bool> fixed(knobs.size(), false);
            choices[k1] = v1;
            choices[k2] = v2;
            fixed[k1] = fixed[k2] = true;
            for (std::size_t k = 0; k < knobs.size(); ++k) {
              if (fixed[k]) continue;
              std::size_t best_value = 0;
              std::size_t best_gain = 0;
              for (std::size_t v = 0; v < knobs[k].values.size(); ++v) {
                std::size_t gain = 0;
                for (std::size_t other = 0; other < knobs.size(); ++other) {
                  if (!fixed[other]) continue;
                  const std::size_t id = k < other
                                             ? index.id(k, v, other, choices[other])
                                             : index.id(other, choices[other], k, v);
                  if (!covered[id]) ++gain;
                }
                if (gain > best_gain) {
                  best_gain = gain;
                  best_value = v;
                }
              }
              choices[k] = best_value;
              fixed[k] = true;
            }
            const std::size_t before = rows.size();
            pushRow(std::move(choices), "pair:" + std::to_string(pair_rows));
            if (rows.size() > before) {
              markCovered(index, rows.back().choices, covered, remaining);
              ++pair_rows;
            }
          }
        }
      }
    }
  }

  if (options.max_configs != 0 && rows.size() > options.max_configs) {
    rows.resize(options.max_configs);
  }
  return rows;
}

}  // namespace fsdep::tools
