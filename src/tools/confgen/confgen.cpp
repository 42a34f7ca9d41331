#include "tools/confgen/confgen.h"

#include <algorithm>

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

void repairConfig(GeneratedConfig& c, const std::vector<model::Dependency>& deps) {
  using model::ConstraintOp;

  // Numeric repairs first (SD ranges), then control-dependency repairs.
  auto clampMkfs = [&](const std::string& name, std::int64_t low, std::int64_t high) {
    auto clamp32 = [&](std::uint32_t& v) {
      if (static_cast<std::int64_t>(v) < low) v = static_cast<std::uint32_t>(low);
      if (static_cast<std::int64_t>(v) > high) v = static_cast<std::uint32_t>(high);
    };
    if (name == "mke2fs.blocksize") {
      std::uint32_t bs = c.mkfs.block_size;
      if (bs < low) bs = static_cast<std::uint32_t>(low);
      if (bs > high) bs = static_cast<std::uint32_t>(high);
      // power of two
      std::uint32_t p = 1024;
      while (p < bs) p <<= 1;
      c.mkfs.block_size = p;
    } else if (name == "mke2fs.inode_size") {
      std::uint16_t v = c.mkfs.inode_size;
      if (v < low) v = static_cast<std::uint16_t>(low);
      if (v > high) v = static_cast<std::uint16_t>(high);
      c.mkfs.inode_size = v;
    } else if (name == "mke2fs.inode_ratio") {
      clamp32(c.mkfs.inode_ratio);
    } else if (name == "mke2fs.reserved_ratio") {
      clamp32(c.mkfs.reserved_ratio);
    } else if (name == "mke2fs.blocks_per_group") {
      clamp32(c.mkfs.blocks_per_group);
      c.mkfs.blocks_per_group -= c.mkfs.blocks_per_group % 8;
    } else if (name == "mount.commit") {
      if (c.mount.commit_interval < low) c.mount.commit_interval = static_cast<std::uint32_t>(low);
      if (c.mount.commit_interval > high) c.mount.commit_interval = static_cast<std::uint32_t>(high);
    } else if (name == "mount.stripe") {
      if (c.mount.stripe > high) c.mount.stripe = static_cast<std::uint32_t>(high);
    } else if (name == "mount.inode_readahead_blks") {
      std::uint32_t p = 1;
      while (p < c.mount.inode_readahead_blks && p < (1u << 30)) p <<= 1;
      c.mount.inode_readahead_blks = p;
      if (c.mount.inode_readahead_blks > high) {
        c.mount.inode_readahead_blks = static_cast<std::uint32_t>(high);
      }
    } else if (name == "mount.max_batch_time") {
      if (c.mount.max_batch_time > high) c.mount.max_batch_time = static_cast<std::uint32_t>(high);
    }
  };

  auto disableMkfs = [&](const std::string& name) {
    if (name == "mke2fs.meta_bg") c.mkfs.meta_bg = false;
    else if (name == "mke2fs.resize_inode") c.mkfs.resize_inode = false;
    else if (name == "mke2fs.sparse_super2") c.mkfs.sparse_super2 = false;
    else if (name == "mke2fs.bigalloc") { c.mkfs.bigalloc = false; c.mkfs.cluster_size = 0; }
    else if (name == "mke2fs.64bit") c.mkfs.has_64bit = false;
    else if (name == "mke2fs.quota") c.mkfs.quota = false;
    else if (name == "mke2fs.uninit_bg") c.mkfs.uninit_bg = false;
    else if (name == "mke2fs.metadata_csum") c.mkfs.metadata_csum = false;
    else if (name == "mke2fs.inline_data") c.mkfs.inline_data = false;
    else if (name == "mke2fs.encrypt") c.mkfs.encrypt = false;
    else if (name == "mke2fs.cluster_size") c.mkfs.cluster_size = 0;
    else if (name == "mke2fs.resize_limit") c.mkfs.resize_limit_blocks = 0;
  };

  auto flagEnabled = [&](const std::string& name) -> bool {
    if (name == "mke2fs.meta_bg") return c.mkfs.meta_bg;
    if (name == "mke2fs.resize_inode") return c.mkfs.resize_inode;
    if (name == "mke2fs.sparse_super2") return c.mkfs.sparse_super2;
    if (name == "mke2fs.bigalloc") return c.mkfs.bigalloc;
    if (name == "mke2fs.extent") return c.mkfs.extents;
    if (name == "mke2fs.64bit") return c.mkfs.has_64bit;
    if (name == "mke2fs.quota") return c.mkfs.quota;
    if (name == "mke2fs.has_journal") return c.mkfs.has_journal;
    if (name == "mke2fs.uninit_bg") return c.mkfs.uninit_bg;
    if (name == "mke2fs.metadata_csum") return c.mkfs.metadata_csum;
    if (name == "mke2fs.inline_data") return c.mkfs.inline_data;
    if (name == "mke2fs.encrypt") return c.mkfs.encrypt;
    if (name == "mke2fs.cluster_size") return c.mkfs.cluster_size != 0;
    if (name == "mke2fs.resize_limit") return c.mkfs.resize_limit_blocks != 0;
    if (name == "mount.dax") return c.mount.dax;
    if (name == "mount.noload") return c.mount.noload;
    if (name == "mount.ro") return c.mount.read_only;
    if (name == "mount.data_journal") return c.mount.data_mode == DataMode::Journal;
    if (name == "mount.data_writeback") return c.mount.data_mode == DataMode::Writeback;
    if (name == "mount.journal_checksum") return c.mount.journal_checksum;
    if (name == "mount.journal_async_commit") return c.mount.journal_async_commit;
    if (name == "mount.dioread_nolock") return c.mount.dioread_nolock;
    if (name == "mount.delalloc") return c.mount.delalloc;
    if (name == "mount.auto_da_alloc") return c.mount.auto_da_alloc;
    return false;
  };

  auto enableRequirement = [&](const std::string& name) {
    if (name == "mke2fs.extent") c.mkfs.extents = true;
    else if (name == "mke2fs.has_journal") c.mkfs.has_journal = true;
    else if (name == "mke2fs.resize_inode") c.mkfs.resize_inode = true;
    else if (name == "mke2fs.bigalloc") c.mkfs.bigalloc = true;
    else if (name == "mke2fs.flex_bg") c.mkfs.flex_bg = true;
    else if (name == "mount.ro") c.mount.read_only = true;
    else if (name == "mount.journal_checksum") c.mount.journal_checksum = true;
    else if (name == "mount.data_writeback") c.mount.data_mode = DataMode::Writeback;
  };

  auto disableEither = [&](const std::string& a, const std::string& b) {
    // Prefer disabling the first (the dependency's subject).
    if (a.starts_with("mount.")) {
      if (a == "mount.dax") c.mount.dax = false;
      else if (a == "mount.dioread_nolock") c.mount.dioread_nolock = false;
      else if (a == "mount.delalloc") c.mount.delalloc = false;
      else if (a == "mount.auto_da_alloc") c.mount.auto_da_alloc = false;
      else if (a == "mount.data_journal") c.mount.data_mode = DataMode::Ordered;
      else disableMkfs(a);
    } else {
      disableMkfs(a);
    }
    (void)b;
  };

  // Two passes: requires-repairs can themselves enable a flag that an
  // excludes-dependency then has to resolve.
  for (int pass = 0; pass < 2; ++pass) {
    for (const model::Dependency& dep : deps) {
      switch (dep.op) {
        case ConstraintOp::InRange:
          clampMkfs(dep.param, dep.low.value_or(INT64_MIN), dep.high.value_or(INT64_MAX));
          break;
        case ConstraintOp::PowerOfTwo:
          clampMkfs(dep.param, 1, 1 << 30);
          break;
        case ConstraintOp::Requires:
          if (flagEnabled(dep.param) && !flagEnabled(dep.other_param)) {
            enableRequirement(dep.other_param);
            if (!flagEnabled(dep.other_param)) disableMkfs(dep.param);
          }
          break;
        case ConstraintOp::Excludes:
          if (flagEnabled(dep.param) && flagEnabled(dep.other_param)) {
            disableEither(dep.param, dep.other_param);
          }
          break;
        case ConstraintOp::Le:
          if (dep.param == "mke2fs.inode_size" && c.mkfs.inode_size > c.mkfs.block_size) {
            c.mkfs.inode_size = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(c.mkfs.block_size, 4096));
          } else if (dep.param == "mke2fs.blocks_per_group" &&
                     c.mkfs.blocks_per_group > 8 * c.mkfs.block_size) {
            c.mkfs.blocks_per_group = 8 * c.mkfs.block_size;
          } else if (dep.param == "mount.min_batch_time" &&
                     c.mount.min_batch_time > c.mount.max_batch_time) {
            c.mount.min_batch_time = c.mount.max_batch_time;
          }
          break;
        case ConstraintOp::Ge:
          if (dep.param == "mke2fs.cluster_size" && c.mkfs.cluster_size != 0 &&
              c.mkfs.cluster_size < c.mkfs.block_size) {
            c.mkfs.cluster_size = c.mkfs.block_size;
          } else if (dep.param == "mke2fs.inode_ratio" &&
                     c.mkfs.inode_ratio < c.mkfs.block_size) {
            c.mkfs.inode_ratio = c.mkfs.block_size;
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
  // ConHandleCk's baseline geometry. CrashCk's exhaustive crash sweep
  // runs on this row (sparse_super2 on for the resize ops).
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
