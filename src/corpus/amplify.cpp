#include "corpus/amplify.h"

#include <map>
#include <mutex>

#include "corpus/corpus.h"

namespace fsdep::corpus {
namespace {

// splitmix64: tiny, deterministic, and good enough to diversify shapes.
std::uint64_t nextRand(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t pick(std::uint64_t& state, std::size_t bound) {
  return static_cast<std::size_t>(nextRand(state) % bound);
}

struct ParamShape {
  const char* name;
  long def;
  long lo;
  long hi;
  bool flag;
};

// The configuration vocabulary, modeled on the real corpus components.
constexpr ParamShape kPool[] = {
    {"blocksize", 4096, 1024, 65536, false}, {"inodesize", 256, 128, 4096, false},
    {"agcount", 4, 1, 1024, false},          {"logblocks", 2048, 512, 262144, false},
    {"imaxpct", 25, 0, 100, false},          {"reserved", 5, 0, 50, false},
    {"cluster", 16, 1, 512, false},          {"stride", 8, 0, 8192, false},
    {"stripe", 16, 0, 8192, false},          {"ratio", 16384, 1024, 1048576, false},
    {"journal", 1, 0, 1, true},              {"csum", 0, 0, 1, true},
    {"compress", 0, 0, 1, true},             {"flexbg", 1, 0, 1, true},
    {"quota", 0, 0, 1, true},                {"lazy", 1, 0, 1, true},
    {"discard", 0, 0, 1, true},              {"inline_data", 0, 0, 1, true},
};
constexpr std::size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);

std::string upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c);
  return out;
}

std::string ampHeaderSource(std::size_t ecosystem) {
  const std::string tag = std::to_string(ecosystem);
  std::string h;
  h += "#ifndef AMP_FS_" + tag + "_H\n#define AMP_FS_" + tag + "_H\n\n";
  h += "#define AMP_SB_MAGIC 1095583060\n\n";
  std::uint64_t mask = 1;
  for (const ParamShape& p : kPool) {
    if (!p.flag) continue;
    h += "#define AMP_FEAT_" + upper(p.name) + " " + std::to_string(mask) + "\n";
    mask <<= 1;
  }
  // One superblock struct per synthetic ecosystem, in its own header:
  // the components of an ecosystem bridge through their own struct, so
  // cross-component dependencies stay within an ecosystem (extraction
  // grows linearly with the factor, not quadratically) and each
  // component parses a constant-size header no matter how large the
  // amplified corpus is.
  h += "\n/* Synthetic superblock of amplified ecosystem " + tag + ". */\n";
  h += "struct amp_sb_" + tag + " {\n  long s_magic;\n";
  for (const ParamShape& p : kPool) {
    if (!p.flag) h += "  long s_" + std::string(p.name) + ";\n";
  }
  h += "  long s_features;\n};\n\n#endif\n";
  return h;
}

/// Picks `count` distinct pool indices matching `want_flag`.
std::vector<std::size_t> pickParams(std::uint64_t& rng, std::size_t count, bool want_flag) {
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    if (kPool[i].flag == want_flag) all.push_back(i);
  }
  std::vector<std::size_t> out;
  while (out.size() < count && !all.empty()) {
    const std::size_t j = pick(rng, all.size());
    out.push_back(all[j]);
    all.erase(all.begin() + static_cast<std::ptrdiff_t>(j));
  }
  return out;
}

struct AmpComponent {
  std::string source;
  std::vector<taint::Seed> seeds;
};

/// mkfs-style writer: getopt chain into locals, parse/clamp helper
/// chains, cross-parameter validation, and a write_super sink that only
/// inter-procedural analysis can connect to the locals.
AmpComponent genWriter(const std::string& c, const std::string& sbt,
                       std::uint64_t& rng) {
  const auto nums = pickParams(rng, 3 + pick(rng, 5), false);
  const auto flags = pickParams(rng, 2 + pick(rng, 4), true);
  const std::size_t parse_depth = 1 + pick(rng, 2);
  const std::size_t clamp_depth = 1 + pick(rng, 3);
  const bool mutual = pick(rng, 4) == 0;

  AmpComponent out;
  std::string& s = out.source;
  s += "#include \"fsdep_libc.h\"\n#include \"" + sbt + ".h\"\n\n";
  s += "/*\n * " + c + ": synthetic mkfs-style writer (amplified corpus).\n */\n";

  // Parse helper chain ending at parse_num.
  for (std::size_t d = parse_depth; d > 0; --d) {
    const std::string inner =
        d == parse_depth ? "parse_num(s)" : c + "_parse" + std::to_string(d + 1) + "(s)";
    s += "static long " + c + "_parse" + std::to_string(d) + "(char *s) {\n";
    s += "  return " + inner + ";\n}\n\n";
  }
  // Clamp helper chain.
  for (std::size_t d = clamp_depth; d > 0; --d) {
    s += "static long " + c + "_clamp" + std::to_string(d) + "(long v, long lo, long hi) {\n";
    if (d == clamp_depth) {
      s += "  if (v < lo) {\n    return lo;\n  }\n  if (v > hi) {\n    return hi;\n  }\n";
      s += "  return v;\n}\n\n";
    } else {
      s += "  return " + c + "_clamp" + std::to_string(d + 1) + "(v, lo, hi);\n}\n\n";
    }
  }
  if (mutual) {
    s += "static long " + c + "_align_down(long v, long step);\n\n";
    s += "static long " + c + "_align_up(long v, long step) {\n";
    s += "  if (v % step == 0) {\n    return v;\n  }\n";
    s += "  return " + c + "_align_down(v + 1, step);\n}\n\n";
    s += "static long " + c + "_align_down(long v, long step) {\n";
    s += "  if (v % step == 0) {\n    return v;\n  }\n";
    s += "  return " + c + "_align_up(v - 1, step);\n}\n\n";
  }

  // The cross-function sink: labels reach these field stores only when
  // argument bindings flow into the callee.
  s += "static void " + c + "_write_super(struct " + sbt + " *sb";
  for (std::size_t i = 0; i < nums.size(); ++i) s += ", long n" + std::to_string(i);
  for (std::size_t i = 0; i < flags.size(); ++i) s += ", int f" + std::to_string(i);
  s += ") {\n  sb->s_magic = AMP_SB_MAGIC;\n";
  for (std::size_t i = 0; i < nums.size(); ++i) {
    const std::string field = "sb->s_" + std::string(kPool[nums[i]].name);
    switch (pick(rng, 4)) {
      case 0: s += "  " + field + " = n" + std::to_string(i) + ";\n"; break;
      case 1: s += "  " + field + " = n" + std::to_string(i) + " / 4;\n"; break;
      case 2: s += "  " + field + " = n" + std::to_string(i) + " * 2;\n"; break;
      default: s += "  " + field + " = n" + std::to_string(i) + " - 1;\n"; break;
    }
  }
  for (std::size_t i = 0; i < flags.size(); ++i) {
    s += "  sb->s_features |= (f" + std::to_string(i) + " ? AMP_FEAT_" +
         upper(kPool[flags[i]].name) + " : 0);\n";
  }
  s += "}\n\n";

  // main: getopt chain, validation, sink call.
  s += "int " + c + "_main(int argc, char **argv, struct " + sbt + " *sb) {\n";
  std::string optstring;
  for (std::size_t i = 0; i < nums.size() + flags.size(); ++i) {
    optstring += static_cast<char>('a' + i);
    if (i < nums.size()) optstring += ':';
  }
  for (std::size_t i = 0; i < nums.size(); ++i) {
    const ParamShape& p = kPool[nums[i]];
    s += "  long " + std::string(p.name) + " = " + std::to_string(p.def) + ";\n";
    out.seeds.push_back({c + "_main", p.name, c + "." + p.name});
  }
  for (std::size_t i = 0; i < flags.size(); ++i) {
    const ParamShape& p = kPool[flags[i]];
    s += "  int " + std::string(p.name) + " = " + std::to_string(p.def) + ";\n";
    out.seeds.push_back({c + "_main", p.name, c + "." + p.name});
  }
  s += "  int c = 0;\n\n";
  s += "  while ((c = getopt(argc, argv, \"" + optstring + "\")) != -1) {\n    switch (c) {\n";
  for (std::size_t i = 0; i < nums.size(); ++i) {
    s += "      case '" + std::string(1, static_cast<char>('a' + i)) + "':\n";
    s += "        " + std::string(kPool[nums[i]].name) + " = " + c + "_parse1(optarg);\n";
    s += "        break;\n";
  }
  for (std::size_t i = 0; i < flags.size(); ++i) {
    s += "      case '" + std::string(1, static_cast<char>('a' + nums.size() + i)) + "':\n";
    s += "        " + std::string(kPool[flags[i]].name) + " = 1;\n";
    s += "        break;\n";
  }
  s += "      default:\n        usage();\n        break;\n    }\n  }\n\n";

  // Normalization through the helper chains.
  {
    const ParamShape& p = kPool[nums[0]];
    s += "  " + std::string(p.name) + " = " + c + "_clamp1(" + p.name + ", " +
         std::to_string(p.lo) + ", " + std::to_string(p.hi) + ");\n";
  }
  if (mutual && nums.size() > 1) {
    const ParamShape& p = kPool[nums[1]];
    s += "  " + std::string(p.name) + " = " + c + "_align_up(" + p.name + ", 8);\n";
  }
  s += "\n  /* ---- Self dependencies. ---- */\n";
  for (const std::size_t idx : nums) {
    if (pick(rng, 5) < 3) {
      const ParamShape& p = kPool[idx];
      s += "  if (" + std::string(p.name) + " < " + std::to_string(p.lo) + " || " + p.name +
           " > " + std::to_string(p.hi) + ") {\n    usage();\n  }\n";
    }
  }
  s += "\n  /* ---- Cross-parameter dependencies. ---- */\n";
  const std::size_t checks = 1 + pick(rng, 3);
  for (std::size_t k = 0; k < checks; ++k) {
    if (nums.size() > 1 && pick(rng, 2) == 0) {
      const std::size_t a = pick(rng, nums.size());
      std::size_t b = pick(rng, nums.size());
      if (b == a) b = (a + 1) % nums.size();
      s += "  if (" + std::string(kPool[nums[a]].name) + " * 2 > " + kPool[nums[b]].name +
           ") {\n    fatal_error(\"" + c + ": " + kPool[nums[a]].name + " too large for " +
           kPool[nums[b]].name + "\");\n  }\n";
    } else if (flags.size() > 1) {
      const std::size_t a = pick(rng, flags.size());
      std::size_t b = pick(rng, flags.size());
      if (b == a) b = (a + 1) % flags.size();
      s += "  if (" + std::string(kPool[flags[a]].name) + " && !" + kPool[flags[b]].name +
           ") {\n    fatal_error(\"" + c + ": " + kPool[flags[a]].name + " requires " +
           kPool[flags[b]].name + "\");\n  }\n";
    }
  }
  s += "\n  " + c + "_write_super(sb";
  for (const std::size_t idx : nums) s += ", " + std::string(kPool[idx].name);
  for (const std::size_t idx : flags) s += ", " + std::string(kPool[idx].name);
  s += ");\n  return 0;\n}\n";
  return out;
}

/// mount-style parser: "name=value" option strings into locals, range
/// and cross checks, and a field store behind an apply helper.
AmpComponent genMount(const std::string& c, const std::string& sbt,
                      std::uint64_t& rng) {
  const auto nums = pickParams(rng, 2 + pick(rng, 3), false);
  const auto flags = pickParams(rng, 2 + pick(rng, 3), true);

  AmpComponent out;
  std::string& s = out.source;
  s += "#include \"fsdep_libc.h\"\n#include \"" + sbt + ".h\"\n\n";
  s += "#define EINVAL 22\n\n";
  s += "/*\n * " + c + ": synthetic mount-option parser (amplified corpus).\n */\n";

  const std::string sink_field = "s_" + std::string(kPool[nums[0]].name);
  s += "static void " + c + "_apply(struct " + sbt + " *sb, long v) {\n";
  s += "  sb->" + sink_field + " = v;\n}\n\n";

  s += "int " + c + "_parse_options(int argc, char **argv, struct " + sbt + " *sb) {\n";
  for (const std::size_t idx : nums) {
    const ParamShape& p = kPool[idx];
    s += "  long " + std::string(p.name) + " = " + std::to_string(p.def) + ";\n";
    out.seeds.push_back({c + "_parse_options", p.name, c + "." + p.name});
  }
  for (const std::size_t idx : flags) {
    const ParamShape& p = kPool[idx];
    s += "  int " + std::string(p.name) + " = " + std::to_string(p.def) + ";\n";
    out.seeds.push_back({c + "_parse_options", p.name, c + "." + p.name});
  }
  s += "  int i = 0;\n\n  for (i = 1; i < argc; i = i + 1) {\n";
  bool first = true;
  for (const std::size_t idx : nums) {
    const std::string name = kPool[idx].name;
    const std::string prefix = name + "=";
    s += std::string("    ") + (first ? "if" : "} else if") + " (strncmp(argv[i], \"" + prefix +
         "\", " + std::to_string(prefix.size()) + ") == 0) {\n";
    s += "      " + name + " = parse_num(argv[i] + " + std::to_string(prefix.size()) + ");\n";
    first = false;
  }
  for (const std::size_t idx : flags) {
    const std::string name = kPool[idx].name;
    s += "    } else if (strcmp(argv[i], \"" + name + "\") == 0) {\n";
    s += "      " + name + " = 1;\n";
  }
  s += "    }\n  }\n\n";
  for (const std::size_t idx : nums) {
    const ParamShape& p = kPool[idx];
    s += "  if (" + std::string(p.name) + " < " + std::to_string(p.lo) + " || " + p.name + " > " +
         std::to_string(p.hi) + ") {\n    return -EINVAL;\n  }\n";
  }
  if (!flags.empty()) {
    const ParamShape& f = kPool[flags[0]];
    const ParamShape& n = kPool[nums[0]];
    s += "  if (" + std::string(f.name) + " && " + n.name + " > " + std::to_string(n.hi / 2) +
         ") {\n    com_err(\"" + c + "\", \"" + f.name + " limits " + n.name +
         "\");\n    return -EINVAL;\n  }\n";
  }
  if (flags.size() > 1) {
    s += "  if (" + std::string(kPool[flags[1]].name) + " && !" + kPool[flags[0]].name +
         ") {\n    com_err(\"" + c + "\", \"" + kPool[flags[1]].name + " requires " +
         kPool[flags[0]].name + "\");\n    return -EINVAL;\n  }\n";
  }
  s += "\n  " + c + "_apply(sb, " + std::string(kPool[nums[0]].name) + ");\n";
  s += "  return 0;\n}\n";
  return out;
}

/// fsck/kernel-style reader: validates the shared superblock through
/// small accessor helpers (the labels come back through return
/// summaries).
AmpComponent genReader(const std::string& c, const std::string& sbt,
                       std::uint64_t& rng) {
  const auto nums = pickParams(rng, 3 + pick(rng, 4), false);
  const auto flags = pickParams(rng, 1 + pick(rng, 2), true);

  AmpComponent out;
  std::string& s = out.source;
  s += "#include \"fsdep_libc.h\"\n#include \"" + sbt + ".h\"\n\n";
  s += "#define EINVAL 22\n\n";
  s += "/*\n * " + c + ": synthetic superblock validator (amplified corpus).\n */\n";
  s += "static int " + c + "_sb_ok(struct " + sbt + " *sb) {\n";
  s += "  return sb->s_magic == AMP_SB_MAGIC;\n}\n\n";
  for (std::size_t i = 0; i < 2 && i < nums.size(); ++i) {
    s += "static long " + c + "_get_" + kPool[nums[i]].name + "(struct " + sbt + " *sb) {\n";
    s += "  return sb->s_" + std::string(kPool[nums[i]].name) + ";\n}\n\n";
  }
  s += "int " + c + "_validate(struct " + sbt + " *sb) {\n";
  for (std::size_t i = 0; i < 2 && i < nums.size(); ++i) {
    s += "  long v" + std::to_string(i) + " = " + c + "_get_" + kPool[nums[i]].name + "(sb);\n";
  }
  s += "\n  if (!" + c + "_sb_ok(sb)) {\n    return -EINVAL;\n  }\n";
  for (std::size_t i = 0; i < nums.size(); ++i) {
    const ParamShape& p = kPool[nums[i]];
    const std::string value =
        i < 2 ? "v" + std::to_string(i) : "sb->s_" + std::string(p.name);
    s += "  if (" + value + " < " + std::to_string(p.lo) + " || " + value + " > " +
         std::to_string(p.hi) + ") {\n    return -EINVAL;\n  }\n";
  }
  if (nums.size() > 3 && pick(rng, 2) == 0) {
    s += "  if (sb->s_" + std::string(kPool[nums[2]].name) + " > sb->s_" +
         kPool[nums[3]].name + ") {\n    return -EINVAL;\n  }\n";
  }
  for (const std::size_t idx : flags) {
    const ParamShape& f = kPool[idx];
    const ParamShape& n = kPool[nums[0]];
    s += "  if ((sb->s_features & AMP_FEAT_" + upper(f.name) + ") && sb->s_" +
         std::string(n.name) + " < " + std::to_string(n.lo * 2) +
         ") {\n    return -EINVAL;\n  }\n";
  }
  s += "  return 0;\n}\n";
  return out;
}

struct AmpRegistry {
  std::mutex mu;
  int generation = 0;
  bool active = false;
  AmplifyOptions options;
  // std::map: node addresses are stable, so the string_views handed out
  // by amplifiedSource() stay valid until clear/re-amplify.
  std::map<std::string, AmpComponent> components;
  std::vector<std::string> names;
  /// Superblock header of each ecosystem, generated at its first
  /// #include and reused by every later one (sized at the first one, so
  /// generating the corpus does no header work).
  std::vector<std::string> headers;
};

AmpRegistry& registry() {
  static AmpRegistry r;
  return r;
}

}  // namespace

std::vector<std::string> amplifyCorpus(const AmplifyOptions& options) {
  AmpRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  if (reg.active && reg.options == options) return reg.names;

  reg.components.clear();
  reg.names.clear();
  reg.headers.clear();
  ++reg.generation;  // new name prefix: stale cache entries can't alias
  reg.options = options;
  reg.active = true;

  const std::size_t per_ecosystem = componentNames().size();
  const std::size_t count = options.factor * per_ecosystem;
  const std::string prefix = "amp" + std::to_string(reg.generation) + "_";
  for (std::size_t i = 0; i < count; ++i) {
    std::string idx = std::to_string(i);
    while (idx.size() < 4) idx.insert(idx.begin(), '0');
    const std::string name = prefix + idx;
    // Component i belongs to ecosystem i / per_ecosystem and bridges
    // through that ecosystem's own superblock struct.
    const std::string sbt = "amp_sb_" + std::to_string(i / per_ecosystem);
    // The content stream depends only on (seed, i) — never on the
    // generation — so the same options always produce the same sources.
    std::uint64_t rng = options.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    AmpComponent comp;
    switch (i % 3) {
      case 0: comp = genWriter(name, sbt, rng); break;
      case 1: comp = genMount(name, sbt, rng); break;
      default: comp = genReader(name, sbt, rng); break;
    }
    reg.components.emplace(name, std::move(comp));
    reg.names.push_back(name);
  }
  return reg.names;
}

void clearAmplifiedCorpus() {
  AmpRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.components.clear();
  reg.names.clear();
  reg.headers.clear();
  reg.active = false;
}

extract::ExtractOptions amplifiedExtractOptions() {
  extract::ExtractOptions options = extractOptions();
  options.metadata_owner = "ampfs";
  return options;
}

std::optional<std::string_view> amplifiedSource(std::string_view component) {
  AmpRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.components.find(std::string(component));
  if (it == reg.components.end()) return std::nullopt;
  return std::string_view(it->second.source);
}

std::optional<std::string> amplifiedHeader(std::string_view name) {
  constexpr std::string_view kPrefix = "amp_sb_";
  constexpr std::string_view kSuffix = ".h";
  if (name.size() <= kPrefix.size() + kSuffix.size() ||
      name.substr(0, kPrefix.size()) != kPrefix ||
      name.substr(name.size() - kSuffix.size()) != kSuffix) {
    return std::nullopt;
  }
  const std::string_view digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  std::size_t ecosystem = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    ecosystem = ecosystem * 10 + static_cast<std::size_t>(c - '0');
  }
  AmpRegistry& reg = registry();
  int generation = 0;
  {
    const std::lock_guard<std::mutex> lock(reg.mu);
    if (!reg.active || ecosystem >= reg.options.factor) return std::nullopt;
    if (ecosystem < reg.headers.size() && !reg.headers[ecosystem].empty()) {
      return reg.headers[ecosystem];
    }
    generation = reg.generation;
  }
  // Generated outside the lock (the content depends only on the
  // ecosystem index), then kept for the next #include of the same header
  // unless the corpus was regenerated meanwhile.
  std::string header = ampHeaderSource(ecosystem);
  const std::lock_guard<std::mutex> lock(reg.mu);
  if (reg.active && reg.generation == generation) {
    if (reg.headers.empty()) reg.headers.resize(reg.options.factor);
    if (reg.headers[ecosystem].empty()) reg.headers[ecosystem] = header;
  }
  return header;
}

std::vector<taint::Seed> amplifiedSeeds(std::string_view component) {
  AmpRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.components.find(std::string(component));
  if (it == reg.components.end()) return {};
  return it->second.seeds;
}

}  // namespace fsdep::corpus
