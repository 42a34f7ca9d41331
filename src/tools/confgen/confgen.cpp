#include "tools/confgen/confgen.h"

#include <algorithm>
#include <limits>
#include <type_traits>

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

// --- Parameters as data ------------------------------------------------

namespace {

template <auto Part, auto Field>
std::int64_t getField(const GeneratedConfig& c) {
  return static_cast<std::int64_t>(c.*Part.*Field);
}

template <auto Part, auto Field>
void setField(GeneratedConfig& c, std::int64_t value) {
  auto& field = c.*Part.*Field;
  field = static_cast<std::remove_reference_t<decltype(field)>>(value);
}

template <auto Field>
constexpr ParamBinding mkfsParam(std::string_view name, std::int64_t on) {
  return {name, getField<&GeneratedConfig::mkfs, Field>, setField<&GeneratedConfig::mkfs, Field>,
          on};
}

template <auto Field>
constexpr ParamBinding mountParam(std::string_view name, std::int64_t on) {
  return {name, getField<&GeneratedConfig::mount, Field>,
          setField<&GeneratedConfig::mount, Field>, on};
}

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

constexpr std::int64_t kValue = 0;
constexpr std::int64_t kFlag = 1;

constexpr ParamBinding kParamBindings[] = {
    mkfsParam<&MkfsOptions::block_size>("mke2fs.blocksize", kValue),
    mkfsParam<&MkfsOptions::size_blocks>("mke2fs.size", kValue),
    mkfsParam<&MkfsOptions::inode_size>("mke2fs.inode_size", kValue),
    mkfsParam<&MkfsOptions::inode_ratio>("mke2fs.inode_ratio", kValue),
    mkfsParam<&MkfsOptions::reserved_ratio>("mke2fs.reserved_ratio", kValue),
    mkfsParam<&MkfsOptions::blocks_per_group>("mke2fs.blocks_per_group", kValue),
    mkfsParam<&MkfsOptions::cluster_size>("mke2fs.cluster_size", 2048),
    mkfsParam<&MkfsOptions::resize_limit_blocks>("mke2fs.resize_limit", 65536),
    mkfsParam<&MkfsOptions::meta_bg>("mke2fs.meta_bg", kFlag),
    mkfsParam<&MkfsOptions::resize_inode>("mke2fs.resize_inode", kFlag),
    mkfsParam<&MkfsOptions::sparse_super2>("mke2fs.sparse_super2", kFlag),
    mkfsParam<&MkfsOptions::bigalloc>("mke2fs.bigalloc", kFlag),
    mkfsParam<&MkfsOptions::extents>("mke2fs.extent", kFlag),
    mkfsParam<&MkfsOptions::has_64bit>("mke2fs.64bit", kFlag),
    mkfsParam<&MkfsOptions::quota>("mke2fs.quota", kFlag),
    mkfsParam<&MkfsOptions::has_journal>("mke2fs.has_journal", kFlag),
    mkfsParam<&MkfsOptions::uninit_bg>("mke2fs.uninit_bg", kFlag),
    mkfsParam<&MkfsOptions::metadata_csum>("mke2fs.metadata_csum", kFlag),
    mkfsParam<&MkfsOptions::flex_bg>("mke2fs.flex_bg", kFlag),
    mkfsParam<&MkfsOptions::inline_data>("mke2fs.inline_data", kFlag),
    mkfsParam<&MkfsOptions::encrypt>("mke2fs.encrypt", kFlag),
    mountParam<&MountOptions::commit_interval>("mount.commit", kValue),
    mountParam<&MountOptions::stripe>("mount.stripe", kValue),
    mountParam<&MountOptions::inode_readahead_blks>("mount.inode_readahead_blks", kValue),
    mountParam<&MountOptions::max_batch_time>("mount.max_batch_time", kValue),
    mountParam<&MountOptions::min_batch_time>("mount.min_batch_time", kValue),
    mountParam<&MountOptions::read_only>("mount.ro", kFlag),
    mountParam<&MountOptions::noload>("mount.noload", kFlag),
    mountParam<&MountOptions::dax>("mount.dax", kFlag),
    mountParam<&MountOptions::journal_checksum>("mount.journal_checksum", kFlag),
    mountParam<&MountOptions::journal_async_commit>("mount.journal_async_commit", kFlag),
    mountParam<&MountOptions::dioread_nolock>("mount.dioread_nolock", kFlag),
    mountParam<&MountOptions::delalloc>("mount.delalloc", kFlag),
    mountParam<&MountOptions::auto_da_alloc>("mount.auto_da_alloc", kFlag),
    dataModeParam<DataMode::Journal>("mount.data_journal"),
    dataModeParam<DataMode::Writeback>("mount.data_writeback"),
};

}  // namespace

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
