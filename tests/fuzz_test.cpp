// Deterministic fuzz / property tests: the frontend must never crash on
// malformed input, the JSON parser must be total, the taint analysis must
// track synthesized dataflow chains, and the simulator must stay
// consistent under arbitrary valid operation sequences.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "ast/dump.h"
#include "ast/parser.h"
#include "fsim/defrag.h"
#include "fsim/fsck.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "fsim/resize.h"
#include "json/json.h"
#include "lex/preprocessor.h"
#include "sema/sema.h"
#include "taint/analyzer.h"
#include "fsim/tune.h"
#include "tools/crashck.h"

namespace fsdep {
namespace {

/// xorshift64* — deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed == 0 ? 0x9E3779B9u : seed) {}
  std::uint64_t next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }
  std::uint32_t below(std::uint32_t bound) {
    return bound == 0 ? 0 : static_cast<std::uint32_t>(next() % bound);
  }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------
// JSON fuzz
// ---------------------------------------------------------------------

class JsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonFuzz, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    std::string garbage;
    const std::uint32_t length = rng.below(64);
    for (std::uint32_t i = 0; i < length; ++i) {
      garbage += static_cast<char>(rng.below(127) + 1);
    }
    (void)json::parse(garbage);  // must not crash or hang; result may be error
  }
  SUCCEED();
}

TEST_P(JsonFuzz, RandomStructuredDocumentsRoundTrip) {
  Rng rng(GetParam());
  // Build a random value tree, write it, reparse, compare.
  std::function<json::Value(int)> build = [&](int depth) -> json::Value {
    const int kind = depth > 3 ? static_cast<int>(rng.below(4)) : static_cast<int>(rng.below(6));
    switch (kind) {
      case 0: return json::Value(nullptr);
      case 1: return json::Value(rng.below(2) == 0);
      case 2: return json::Value(static_cast<std::int64_t>(rng.next() % 1000000) - 500000);
      case 3: {
        std::string s;
        const std::uint32_t len = rng.below(12);
        for (std::uint32_t i = 0; i < len; ++i) {
          s += static_cast<char>('a' + rng.below(26));
        }
        return json::Value(std::move(s));
      }
      case 4: {
        json::Array arr;
        const std::uint32_t n = rng.below(4);
        for (std::uint32_t i = 0; i < n; ++i) arr.push_back(build(depth + 1));
        return json::Value(std::move(arr));
      }
      default: {
        json::Object obj;
        const std::uint32_t n = rng.below(4);
        for (std::uint32_t i = 0; i < n; ++i) {
          obj["k" + std::to_string(i)] = build(depth + 1);
        }
        return json::Value(std::move(obj));
      }
    }
  };
  for (int round = 0; round < 50; ++round) {
    const json::Value original = build(0);
    const auto compact = json::parse(json::writeCompact(original));
    ASSERT_TRUE(compact.ok());
    EXPECT_TRUE(original == compact.value());
    const auto pretty = json::parse(json::writePretty(original));
    ASSERT_TRUE(pretty.ok());
    EXPECT_TRUE(original == pretty.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// ---------------------------------------------------------------------
// Frontend fuzz
// ---------------------------------------------------------------------

class FrontendFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrontendFuzz, TokenSoupNeverCrashesTheParser) {
  Rng rng(GetParam());
  const char* vocabulary[] = {
      "int",   "long", "struct", "enum",   "if",     "else",  "while", "return", "{",
      "}",     "(",    ")",      "[",      "]",      ";",     ",",     "=",      "==",
      "&&",    "||",   "<",      ">",      "+",      "-",     "*",     "/",      "&",
      "|",     "!",    "->",     ".",      "x",      "y",     "sb",    "blocks", "42",
      "0x1F",  "'c'",  "\"s\"",  "typedef", "switch", "case",  "break", "default", "?",
      ":",     "sizeof", "void", "unsigned", "char",
  };
  for (int round = 0; round < 60; ++round) {
    std::string soup;
    const std::uint32_t tokens = rng.below(80) + 1;
    for (std::uint32_t i = 0; i < tokens; ++i) {
      soup += vocabulary[rng.below(std::size(vocabulary))];
      soup += ' ';
    }
    SourceManager sm;
    DiagnosticEngine diags;
    const FileId file = sm.addBuffer("soup.c", soup);
    lex::Lexer lexer(sm, file, diags);
    ast::Parser parser(lexer.lexAll(), diags);
    const auto tu = parser.parseTranslationUnit("soup.c");
    ASSERT_NE(tu, nullptr);
    // Sema must digest whatever survived parsing, too.
    sema::Sema sema(*tu, diags);
    (void)sema.run();
  }
  SUCCEED();
}

TEST_P(FrontendFuzz, RandomBytesNeverCrashTheLexer) {
  Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    std::string bytes;
    const std::uint32_t length = rng.below(200);
    for (std::uint32_t i = 0; i < length; ++i) {
      bytes += static_cast<char>(rng.below(255) + 1);
    }
    SourceManager sm;
    DiagnosticEngine diags;
    const FileId file = sm.addBuffer("bytes.c", bytes);
    lex::Lexer lexer(sm, file, diags);
    (void)lexer.lexAll();
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontendFuzz, ::testing::Values(3u, 17u, 256u, 4096u));

// The parser's nesting budget bounds the AST, and with it the recursion
// of every later pass. For each shape of nesting, the deepest input the
// parser accepts must go through sema, CFG build, IR lowering, the taint
// analysis and exprToString (under the sanitizer build too, whose frames
// are larger).
TEST(FrontendDepth, DeepestAcceptedInputsRunThroughTheWholePipeline) {
  const auto repeat = [](int n, const std::string& piece) {
    std::string out;
    for (int i = 0; i < n; ++i) out += piece;
    return out;
  };
  using Shape = std::string (*)(int, decltype(repeat)&);
  const Shape shapes[] = {
      [](int n, decltype(repeat)& r) {
        return "long f(long a) { return " + r(n, "(") + "a" + r(n, ")") + "; }";
      },
      [](int n, decltype(repeat)& r) { return "long f(long a) { return " + r(n, "- ") + "a; }"; },
      [](int n, decltype(repeat)& r) {
        return "long f(long a) { return " + r(n, "-(") + "a" + r(n, ")") + "; }";
      },
      [](int n, decltype(repeat)& r) {
        return "long f(long a) { long b; " + r(n, "b = ") + "a; return b; }";
      },
      [](int n, decltype(repeat)& r) {
        return "long f(long a) { return " + r(n, "a ? a : ") + "a; }";
      },
      [](int n, decltype(repeat)& r) {
        return "long f(long a) { long b = 0; " + r(n, "{ ") + "b = a;" + r(n, " }") +
               " return b; }";
      },
      [](int n, decltype(repeat)& r) {
        return "long f(long a) { long b = 0; " + r(n, "if (a) ") + "b = a; return b; }";
      },
      [](int n, decltype(repeat)& r) {
        return "long f(long a) { long b = 0; if (a) b = 1;" + r(n, " else if (a) b = a;") +
               " return b; }";
      },
  };
  for (const Shape shape : shapes) {
    const auto parses = [&](int n, std::unique_ptr<ast::TranslationUnit>* keep,
                            SourceManager& sm, DiagnosticEngine& diags) {
      const FileId file = sm.addBuffer("deep.c", shape(n, repeat));
      lex::Lexer lexer(sm, file, diags);
      ast::Parser parser(lexer.lexAll(), diags);
      auto tu = parser.parseTranslationUnit("deep.c");
      if (keep != nullptr) *keep = std::move(tu);
      return !diags.hasErrors();
    };
    int lo = 1;  // accepted
    int hi = 2 * ast::Parser::kMaxNesting;  // rejected
    {
      SourceManager sm;
      DiagnosticEngine diags;
      ASSERT_FALSE(parses(hi, nullptr, sm, diags));
    }
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      SourceManager sm;
      DiagnosticEngine diags;
      (parses(mid, nullptr, sm, diags) ? lo : hi) = mid;
    }
    SourceManager sm;
    DiagnosticEngine diags;
    std::unique_ptr<ast::TranslationUnit> tu;
    ASSERT_TRUE(parses(lo, &tu, sm, diags)) << shape(1, repeat);
    sema::Sema sema(*tu, diags);
    ASSERT_TRUE(sema.run()) << diags.render(sm);
    for (const bool inter : {false, true}) {
      taint::AnalysisOptions options;
      options.inter_procedural = inter;
      taint::Analyzer analyzer(*tu, sema, options);
      analyzer.addSeed({"f", "a", "deep.a"});
      analyzer.run();
      const taint::FunctionTaint* ft = analyzer.resultFor("f");
      ASSERT_NE(ft, nullptr);
      EXPECT_FALSE(ft->return_labels.empty()) << shape(1, repeat) << " depth " << lo;
    }
    const ast::FunctionDecl* fn = tu->findFunction("f");
    ASSERT_NE(fn, nullptr);
    const std::string dump = ast::dumpDecl(*fn);
    EXPECT_FALSE(dump.empty());
  }
}

// ---------------------------------------------------------------------
// Taint property: synthesized dataflow chains
// ---------------------------------------------------------------------

class TaintChainProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TaintChainProperty, ChainsPropagateAndBystandersStayClean) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const int chain_length = 2 + static_cast<int>(rng.below(8));
    // Build: seed v0; v1 = v0 op k; ... vn = v(n-1) op k; plus a clean
    // bystander chain c0..cn.
    std::string body = "  long v0 = 0;\n  long c0 = 1;\n";
    const char* ops[] = {"+", "*", "-", "|", "&", "^", ">>", "<<"};
    for (int i = 1; i <= chain_length; ++i) {
      body += "  long v" + std::to_string(i) + " = v" + std::to_string(i - 1) + " " +
              ops[rng.below(std::size(ops))] + " " + std::to_string(1 + rng.below(7)) + ";\n";
      body += "  long c" + std::to_string(i) + " = c" + std::to_string(i - 1) + " + 1;\n";
    }
    const std::string program = "void f(void) {\n" + body + "}\n";

    SourceManager sm;
    DiagnosticEngine diags;
    const FileId file = sm.addBuffer("chain.c", program);
    lex::Lexer lexer(sm, file, diags);
    ast::Parser parser(lexer.lexAll(), diags);
    auto tu = parser.parseTranslationUnit("chain.c");
    ASSERT_FALSE(diags.hasErrors()) << program;
    sema::Sema sema(*tu, diags);
    sema.run();
    taint::Analyzer analyzer(*tu, sema);
    analyzer.addSeed({"f", "v0", "prop.seed"});
    analyzer.run();

    const taint::FunctionTaint* ft = analyzer.resultFor("f");
    ASSERT_NE(ft, nullptr);
    bool tainted_last = false;
    bool clean_last = true;
    const std::string last_v = "v" + std::to_string(chain_length);
    const std::string last_c = "c" + std::to_string(chain_length);
    for (const auto& [var, labels] : ft->exit_state.vars) {
      if (var->name == last_v && !labels.empty()) tainted_last = true;
      if (var->name == last_c && !labels.empty()) clean_last = false;
    }
    EXPECT_TRUE(tainted_last) << program;
    EXPECT_TRUE(clean_last) << program;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaintChainProperty, ::testing::Values(11u, 222u, 3333u));

// ---------------------------------------------------------------------
// Simulator property: arbitrary valid operation sequences stay consistent
// ---------------------------------------------------------------------

class FsimSequenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsimSequenceProperty, RandomOperationSequencesKeepFsckClean) {
  Rng rng(GetParam());
  fsim::BlockDevice device(16384, 1024);
  fsim::MkfsOptions options;
  options.block_size = 1024;
  options.size_blocks = 4096;
  options.blocks_per_group = 1024;
  options.inode_ratio = 8192;
  ASSERT_TRUE(fsim::MkfsTool::format(device, options).ok());

  std::vector<std::uint32_t> live_inodes;
  for (int step = 0; step < 40; ++step) {
    const std::uint32_t op = rng.below(6);
    if (op <= 2) {
      // Mount and do file work.
      auto mounted = fsim::MountTool::mount(device, fsim::MountOptions{});
      ASSERT_TRUE(mounted.ok()) << mounted.error().message;
      fsim::MountedFs fs = std::move(mounted).take();
      if (op == 0 || live_inodes.empty()) {
        const auto ino = fs.createFile(1024 + rng.below(8) * 1024, rng.below(3));
        if (ino.ok()) live_inodes.push_back(ino.value());
      } else if (op == 1) {
        const std::uint32_t victim = rng.below(static_cast<std::uint32_t>(live_inodes.size()));
        (void)fs.removeFile(live_inodes[victim]);
        live_inodes.erase(live_inodes.begin() + victim);
      } else {
        (void)fsim::DefragTool::run(fs, device, fsim::DefragOptions{});
      }
      fs.unmount();
    } else if (op == 3) {
      // Grow by a random amount.
      fsim::FsImage image(device);
      const std::uint32_t current = image.loadSuperblock().blocks_count;
      fsim::ResizeOptions ro;
      ro.new_size_blocks = current + 512 + rng.below(4) * 512;
      ro.fix_sparse_super2_accounting = true;
      if (ro.new_size_blocks <= 14336) (void)fsim::ResizeTool::resize(device, ro);
    } else if (op == 4) {
      // Shrink toward (but not below) the allocation.
      fsim::FsImage image(device);
      const fsim::Superblock sb = image.loadSuperblock();
      const std::uint32_t in_use = sb.blocks_count - sb.free_blocks_count;
      if (sb.blocks_count > in_use + 1024) {
        fsim::ResizeOptions ro;
        ro.new_size_blocks = sb.blocks_count - 512;
        (void)fsim::ResizeTool::resize(device, ro);
      }
    } else {
      // Interleave a repair-mode fsck (must be a no-op on a clean fs).
      (void)fsim::FsckTool::check(device, fsim::FsckOptions{.force = true, .repair = true});
    }

    const auto fsck = fsim::FsckTool::check(device, fsim::FsckOptions{.force = true});
    ASSERT_TRUE(fsck.ok());
    ASSERT_TRUE(fsck.value().isClean())
        << "step " << step << ": " << fsck.value().summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsimSequenceProperty,
                         ::testing::Values(5u, 77u, 901u, 20240u, 777777u));

// ---------------------------------------------------------------------
// Fault-schedule sweep: random op x crash index x torn prefix. A crash
// may cost the interrupted operation, but the recovered image must
// either pass fsck or be flagged for repair — never be silently
// inconsistent (the fixed toolchain's core crash-safety property).
// ---------------------------------------------------------------------

class FaultScheduleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultScheduleSweep, CrashedImagesAreNeverSilentlyInconsistent) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const std::uint32_t op = rng.below(5);

    fsim::BlockDevice device(8192, 1024);
    fsim::MkfsOptions mk;
    mk.block_size = 1024;
    mk.size_blocks = 2048;
    mk.blocks_per_group = 512;
    mk.inode_ratio = 8192;
    if (op == 2) {  // the resize op runs on a sparse_super2 filesystem
      mk.sparse_super2 = true;
      mk.resize_inode = false;
    }
    ASSERT_TRUE(fsim::MkfsTool::format(device, mk).ok());

    tools::CrashCanary canary;
    {
      auto mounted = fsim::MountTool::mount(device, fsim::MountOptions{});
      ASSERT_TRUE(mounted.ok());
      const auto ino = mounted.value().createFile(6144, 2);
      if (ino.ok()) {
        canary.ino = ino.value();
        canary.size_bytes = 6144;
      }
      mounted.value().unmount();
    }

    fsim::FaultPlan plan;
    plan.seed = rng.next();
    plan.crash_at_write = rng.below(64);  // may be past the op's last write
    switch (rng.below(3)) {
      case 0: plan.torn_mode = fsim::TornMode::None; break;
      case 1:
        plan.torn_mode = fsim::TornMode::Prefix;
        plan.torn_prefix_bytes = rng.below(1025);
        break;
      default: plan.torn_mode = fsim::TornMode::Seeded; break;
    }
    device.setFaultPlan(plan);

    switch (op) {
      case 0: {  // journal cycle
        auto mounted = fsim::MountTool::mount(device, fsim::MountOptions{});
        if (mounted.ok()) {
          (void)mounted.value().createFile(1024 + rng.below(8) * 1024, rng.below(3));
          mounted.value().unmount();
        }
        break;
      }
      case 1:
      case 2: {  // grow (fixed accounting; op 2 on sparse_super2)
        fsim::ResizeOptions ro;
        ro.new_size_blocks = 2560 + rng.below(2) * 512;
        ro.fix_sparse_super2_accounting = true;
        (void)fsim::ResizeTool::resize(device, ro);
        break;
      }
      case 3: {  // defrag
        auto mounted = fsim::MountTool::mount(device, fsim::MountOptions{});
        if (mounted.ok()) {
          (void)fsim::DefragTool::run(mounted.value(), device, fsim::DefragOptions{});
          mounted.value().unmount();
        }
        break;
      }
      default: {  // tune
        fsim::TuneOptions t;
        t.label = "sweep";
        t.reserved_blocks_count = rng.below(512);
        (void)fsim::TuneTool::tune(device, t);
        break;
      }
    }

    device.clearFaults();
    std::string detail;
    const tools::CrashOutcome outcome =
        tools::classifyPostCrashImage(device, canary, detail);
    EXPECT_NE(outcome, tools::CrashOutcome::SilentCorruption)
        << "round " << round << " op " << op << ": " << detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScheduleSweep,
                         ::testing::Values(13u, 137u, 4242u, 500500u));

}  // namespace
}  // namespace fsdep
