#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/arena.h"
#include "support/diagnostics.h"
#include "support/result.h"
#include "support/source_manager.h"
#include "support/strings.h"

namespace fsdep {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trimString("  x  "), "x");
  EXPECT_EQ(trimString("\t\nabc\r "), "abc");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
}

TEST(Strings, ParseInt64Decimal) {
  EXPECT_EQ(parseInt64("42"), 42);
  EXPECT_EQ(parseInt64("-17"), -17);
  EXPECT_EQ(parseInt64("+5"), 5);
  EXPECT_EQ(parseInt64(" 99 "), 99);
}

TEST(Strings, ParseInt64HexAndOctal) {
  EXPECT_EQ(parseInt64("0x10"), 16);
  EXPECT_EQ(parseInt64("0XFF"), 255);
  EXPECT_EQ(parseInt64("010"), 8);
  EXPECT_EQ(parseInt64("0"), 0);
}

TEST(Strings, ParseInt64Malformed) {
  EXPECT_FALSE(parseInt64("").has_value());
  EXPECT_FALSE(parseInt64("abc").has_value());
  EXPECT_FALSE(parseInt64("12x").has_value());
  EXPECT_FALSE(parseInt64("-").has_value());
  EXPECT_FALSE(parseInt64("0x").has_value());
  EXPECT_FALSE(parseInt64("99999999999999999999999").has_value());
}

TEST(Strings, FormatPercent) {
  EXPECT_EQ(formatPercent(0.078), "7.8%");
  EXPECT_EQ(formatPercent(1.0), "100.0%");
  EXPECT_EQ(formatPercent(0.0), "0.0%");
}

TEST(SourceManager, RegistersAndFindsBuffers) {
  SourceManager sm;
  const FileId a = sm.addBuffer("a.c", "int x;\n");
  const FileId b = sm.addBuffer("b.c", "int y;\n");
  EXPECT_NE(a.value, b.value);
  EXPECT_EQ(sm.name(a), "a.c");
  EXPECT_EQ(sm.contents(b), "int y;\n");
  EXPECT_EQ(sm.findByName("a.c").value, a.value);
  EXPECT_FALSE(sm.findByName("missing.c").valid());
}

TEST(SourceManager, LineText) {
  SourceManager sm;
  const FileId f = sm.addBuffer("f.c", "line one\nline two\r\nline three");
  EXPECT_EQ(sm.lineText(f, 1), "line one");
  EXPECT_EQ(sm.lineText(f, 2), "line two");
  EXPECT_EQ(sm.lineText(f, 3), "line three");
  EXPECT_EQ(sm.lineText(f, 4), "");
  EXPECT_EQ(sm.lineText(f, 0), "");
}

TEST(SourceManager, FormatLoc) {
  SourceManager sm;
  const FileId f = sm.addBuffer("x.c", "abc");
  EXPECT_EQ(formatLoc(sm, SourceLoc{f, 3, 7}), "x.c:3:7");
  EXPECT_EQ(formatLoc(sm, SourceLoc{}), "<unknown>");
}

TEST(SourceManager, BuffersKeepTheirAddressAsFilesAreAdded) {
  // Tokens and lexers view buffers while an #include adds more; a
  // 10-byte buffer lives inside its std::string, so it moves with it.
  SourceManager sm;
  const FileId small = sm.addBuffer("small.c", "int x = 1;");
  const char* const data = sm.contents(small).data();
  for (int i = 0; i < 1000; ++i) sm.addBuffer("more" + std::to_string(i) + ".h", "int y;");
  EXPECT_EQ(sm.contents(small).data(), data);
  EXPECT_EQ(sm.contents(small), "int x = 1;");
}

TEST(SourceManager, InternedTextLivesAsLongAsTheManager) {
  SourceManager sm;
  const std::string_view a = sm.intern("a\nb");
  const char* const data = a.data();
  for (int i = 0; i < 1000; ++i) sm.intern(std::string(1 + i % 20, 'x'));
  EXPECT_EQ(a.data(), data);
  EXPECT_EQ(a, "a\nb");
  EXPECT_EQ(sm.intern(std::string(1, '\0')).size(), 1u);
}

TEST(Arena, AlignsMixedSizeAllocations) {
  Arena arena;
  const std::size_t aligns[] = {1, 2, 4, 8, 16};
  for (int i = 0; i < 4000; ++i) {
    const std::size_t align = aligns[i % 5];
    const std::size_t size = 1 + (i * 7) % 61;
    const auto p = reinterpret_cast<std::uintptr_t>(arena.allocate(size, align));
    EXPECT_EQ(p % align, 0u) << "allocation " << i;
  }
  EXPECT_GT(arena.blockCount(), 1u);
}

TEST(Arena, BlocksDoubleUpToTheCap) {
  Arena arena;
  EXPECT_EQ(arena.blockCount(), 0u);
  // Fill each block to its last byte: one more byte opens the next
  // block, which holds exactly twice as much, until the cap; after that
  // every block holds exactly the cap.
  std::size_t block = Arena::kFirstBlockSize;
  for (std::size_t i = 1; i <= 10; ++i) {
    arena.allocate(1, 1);
    EXPECT_EQ(arena.blockCount(), i);
    arena.allocate(block - 1, 1);
    EXPECT_EQ(arena.blockCount(), i) << "block " << i << " holds " << block << " bytes";
    block = std::min(block * 2, Arena::kMaxBlockSize);
  }
  EXPECT_EQ(block, Arena::kMaxBlockSize);
  arena.allocate(1, 1);
  EXPECT_EQ(arena.blockCount(), 11u);
}

TEST(Arena, RequestAboveTheCapGetsItsOwnBlock) {
  Arena arena;
  arena.allocate(16, 8);
  const std::size_t big = 3 * Arena::kMaxBlockSize + 5;
  auto* p = static_cast<unsigned char*>(arena.allocate(big, 8));
  EXPECT_EQ(arena.blockCount(), 2u);
  EXPECT_EQ(p[0], 0);
  EXPECT_EQ(p[big - 1], 0);  // the whole request is usable and zero-filled
  EXPECT_EQ(arena.bytesUsed(), 16 + big);
  arena.allocate(1, 1);  // the dedicated block is full
  EXPECT_EQ(arena.blockCount(), 3u);
}

TEST(Arena, ResetKeepsOnlyTheLargestBlock) {
  Arena arena;
  arena.allocate(Arena::kFirstBlockSize, 1);
  const std::size_t big = 2 * Arena::kMaxBlockSize;
  arena.allocate(big, 1);
  arena.allocate(100, 1);
  EXPECT_EQ(arena.blockCount(), 3u);
  arena.reset();
  EXPECT_EQ(arena.blockCount(), 1u);
  EXPECT_EQ(arena.bytesUsed(), 0u);
  arena.allocate(big, 1);  // fits the kept block exactly
  EXPECT_EQ(arena.blockCount(), 1u);
  EXPECT_EQ(arena.bytesUsed(), big);
  arena.allocate(1, 1);
  EXPECT_EQ(arena.blockCount(), 2u);
}

TEST(Arena, MakeRunsTheTypesOwnInitializers) {
  struct Node {
    int answer = 42;
    const char* name = "node";
    std::vector<int> items{1, 2, 3};
  };
  Arena arena;
  // Dirty the block, then recycle it: make<T> must not rely on zeroes.
  std::memset(arena.allocate(Arena::kFirstBlockSize, 1), 0xAB, Arena::kFirstBlockSize);
  arena.reset();
  ArenaPtr<Node> node(arena.make<Node>());
  EXPECT_EQ(node->answer, 42);
  EXPECT_STREQ(node->name, "node");
  EXPECT_EQ(node->items, (std::vector<int>{1, 2, 3}));
  ArenaPtr<std::string> text(arena.make<std::string>(3, 'z'));
  EXPECT_EQ(*text, "zzz");
}

TEST(Arena, ArenaVectorGrowsInsideTheArena) {
  Arena arena;
  ArenaVector<std::uint32_t> list;
  EXPECT_TRUE(list.empty());
  for (std::uint32_t i = 0; i < 1000; ++i) list.push_back(arena, i * 3);
  ASSERT_EQ(list.size(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(list[i], i * 3);
  // Capacities 2, 4, ..., 1024 were each taken from the arena once.
  EXPECT_EQ(arena.bytesUsed(), 2046 * sizeof(std::uint32_t));
  EXPECT_EQ(std::count_if(list.begin(), list.end(), [](std::uint32_t v) { return v % 2 == 0; }),
            500);
}

TEST(Arena, ArenaResourceServesPmrContainersFromTheArena) {
  Arena arena;
  ArenaResource resource(arena);
  std::pmr::vector<int> numbers(&resource);
  numbers.assign(100, 7);
  EXPECT_GE(arena.bytesUsed(), 100 * sizeof(int));
  // A copy uses the default resource, so it does not depend on the arena.
  const std::pmr::vector<int> copy = numbers;
  EXPECT_NE(copy.get_allocator().resource(), &resource);
  EXPECT_EQ(copy, numbers);
}

TEST(Diagnostics, CountsErrors) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.hasErrors());
  diags.warning(SourceLoc{}, "meh");
  EXPECT_FALSE(diags.hasErrors());
  diags.error(SourceLoc{}, "boom");
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_EQ(diags.errorCount(), 1u);
  diags.clear();
  EXPECT_FALSE(diags.hasErrors());
  EXPECT_TRUE(diags.diagnostics().empty());
}

TEST(Diagnostics, RenderIncludesCaret) {
  SourceManager sm;
  const FileId f = sm.addBuffer("t.c", "int bad~;\n");
  DiagnosticEngine diags;
  diags.error(SourceLoc{f, 1, 8}, "unexpected character");
  const std::string rendered = diags.render(sm);
  EXPECT_NE(rendered.find("t.c:1:8: error: unexpected character"), std::string::npos);
  EXPECT_NE(rendered.find("int bad~;"), std::string::npos);
  EXPECT_NE(rendered.find("^"), std::string::npos);
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> bad = makeError("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
  EXPECT_THROW((void)bad.value(), std::runtime_error);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r(std::string("payload"));
  const std::string taken = std::move(r).take();
  EXPECT_EQ(taken, "payload");
}

}  // namespace
}  // namespace fsdep
