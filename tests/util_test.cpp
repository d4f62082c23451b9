// util_test.cpp -- bitset, RNG, table and CLI unit tests.

#include <gtest/gtest.h>

#include <set>

#include "test_util.hpp"
#include "util/bitset.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ndet {
namespace {

using testing::make_set;
using testing::to_vector;

TEST(Bitset, StartsEmpty) {
  const Bitset set(130);
  EXPECT_EQ(set.size(), 130u);
  EXPECT_EQ(set.count(), 0u);
  EXPECT_TRUE(set.none());
  EXPECT_FALSE(set.any());
}

TEST(Bitset, SetTestReset) {
  Bitset set(200);
  set.set(0);
  set.set(63);
  set.set(64);
  set.set(199);
  EXPECT_TRUE(set.test(0));
  EXPECT_TRUE(set.test(63));
  EXPECT_TRUE(set.test(64));
  EXPECT_TRUE(set.test(199));
  EXPECT_FALSE(set.test(1));
  EXPECT_EQ(set.count(), 4u);
  set.reset(63);
  EXPECT_FALSE(set.test(63));
  EXPECT_EQ(set.count(), 3u);
}

TEST(Bitset, OutOfRangeThrows) {
  Bitset set(10);
  EXPECT_THROW(set.set(10), contract_error);
  EXPECT_THROW(set.test(10), contract_error);
  EXPECT_THROW((void)set.reset(10), contract_error);
}

TEST(Bitset, SizeMismatchThrows) {
  Bitset a(64);
  const Bitset b(65);
  EXPECT_THROW(a |= b, contract_error);
  EXPECT_THROW(a &= b, contract_error);
  EXPECT_THROW(a.and_not(b), contract_error);
  EXPECT_THROW((void)a.intersects(b), contract_error);
}

TEST(Bitset, UnionIntersectionDifference) {
  const Bitset a = make_set(100, {1, 2, 3, 64, 65});
  const Bitset b = make_set(100, {2, 3, 4, 65, 99});
  EXPECT_EQ(to_vector(a | b), (std::vector<std::uint64_t>{1, 2, 3, 4, 64, 65, 99}));
  EXPECT_EQ(to_vector(a & b), (std::vector<std::uint64_t>{2, 3, 65}));
  Bitset diff = a;
  diff.and_not(b);
  EXPECT_EQ(to_vector(diff), (std::vector<std::uint64_t>{1, 64}));
}

TEST(Bitset, IntersectCountMatchesMaterializedIntersection) {
  const Bitset a = make_set(300, {0, 5, 64, 128, 130, 299});
  const Bitset b = make_set(300, {5, 64, 129, 299});
  EXPECT_EQ(a.intersect_count(b), (a & b).count());
  EXPECT_EQ(a.intersect_count(b), 3u);
  EXPECT_TRUE(a.intersects(b));
  const Bitset c = make_set(300, {1, 2});
  EXPECT_FALSE(a.intersects(c));
  EXPECT_EQ(a.intersect_count(c), 0u);
}

TEST(Bitset, AndNotCount) {
  const Bitset a = make_set(100, {1, 2, 3, 64});
  const Bitset b = make_set(100, {2, 64});
  EXPECT_EQ(a.and_not_count(b), 2u);
  EXPECT_EQ(b.and_not_count(a), 0u);
}

TEST(Bitset, NthInDifferenceEnumeratesInOrder) {
  const Bitset a = make_set(200, {3, 64, 65, 70, 190});
  const Bitset b = make_set(200, {64, 190});
  // Difference = {3, 65, 70}.
  EXPECT_EQ(a.nth_in_difference(b, 0), 3u);
  EXPECT_EQ(a.nth_in_difference(b, 1), 65u);
  EXPECT_EQ(a.nth_in_difference(b, 2), 70u);
  EXPECT_THROW((void)a.nth_in_difference(b, 3), contract_error);
}

TEST(Bitset, NthInDifferenceMatchesEnumerationAcrossWordCounts) {
  // Exercises both select paths: the predicated all-words walk (universes
  // of at most 8 words) and the early-exit loop above that.
  Rng rng(77);
  for (const std::size_t bits :
       {1u, 63u, 64u, 65u, 192u, 512u, 513u, 640u, 1000u}) {
    Bitset a(bits), b(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (rng.chance(1, 2)) a.set(i);
      if (rng.chance(1, 3)) b.set(i);
    }
    std::vector<std::size_t> expected;
    a.for_each_set([&](std::size_t v) {
      if (!b.test(v)) expected.push_back(v);
    });
    for (std::size_t r = 0; r < expected.size(); ++r)
      EXPECT_EQ(a.nth_in_difference(b, r), expected[r]) << "bits=" << bits;
    EXPECT_THROW((void)a.nth_in_difference(b, expected.size()), contract_error);
  }
}

TEST(Bitset, NthSet) {
  const Bitset a = make_set(128, {0, 63, 64, 127});
  EXPECT_EQ(a.nth_set(0), 0u);
  EXPECT_EQ(a.nth_set(1), 63u);
  EXPECT_EQ(a.nth_set(2), 64u);
  EXPECT_EQ(a.nth_set(3), 127u);
  EXPECT_THROW((void)a.nth_set(4), contract_error);
}

TEST(Bitset, ForEachSetVisitsAscending) {
  const Bitset a = make_set(256, {7, 8, 200, 255});
  std::vector<std::uint64_t> seen;
  a.for_each_set([&](std::size_t v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{7, 8, 200, 255}));
  EXPECT_EQ(a.to_vector(),
            (std::vector<std::size_t>{7, 8, 200, 255}));
}

TEST(Bitset, EqualityAndClear) {
  Bitset a = make_set(70, {1, 69});
  const Bitset b = make_set(70, {1, 69});
  EXPECT_EQ(a, b);
  a.clear();
  EXPECT_TRUE(a.none());
  EXPECT_NE(a, b);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(1);
  EXPECT_THROW((void)rng.below(0), contract_error);
}

TEST(Rng, InRangeInclusive) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.in_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(9);
  Rng child = a.split();
  // The child stream should not replicate the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == child.next()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitStreamsAreScheduleInvariant) {
  // Procedure 1's sharded engine depends on this: the k-th split of the
  // master seed IS set k's stream, so consuming a sibling stream -- in any
  // order, on any worker -- must not perturb it.  Split all streams first,
  // drain them in opposite orders and with different intensities, and the
  // sequences must match draw for draw.
  Rng master_a(2005), master_b(2005);
  Rng a0 = master_a.split();
  Rng a1 = master_a.split();
  Rng a2 = master_a.split();
  Rng b0 = master_b.split();
  Rng b1 = master_b.split();
  Rng b2 = master_b.split();

  // Schedule A: hammer stream 0, then read 1 and 2.
  std::vector<std::uint64_t> seq_a1, seq_a2;
  for (int i = 0; i < 1000; ++i) (void)a0.below(97);
  for (int i = 0; i < 64; ++i) seq_a1.push_back(a1.below(1 << 20));
  for (int i = 0; i < 64; ++i) seq_a2.push_back(a2.below(1 << 20));

  // Schedule B: read 2 first, then 1, and never touch 0.
  std::vector<std::uint64_t> seq_b1, seq_b2;
  for (int i = 0; i < 64; ++i) seq_b2.push_back(b2.below(1 << 20));
  for (int i = 0; i < 64; ++i) seq_b1.push_back(b1.below(1 << 20));

  EXPECT_EQ(seq_a1, seq_b1);
  EXPECT_EQ(seq_a2, seq_b2);
  (void)b0;

  // And sibling streams diverge from each other.
  Rng m(7);
  Rng s1 = m.split();
  Rng s2 = m.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (s1.next() == s2.next()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(CounterRng, BlockKnownAnswerVectors) {
  // Pinned outputs of the keyed block function (Philox4x64-10; the round
  // function was cross-checked against the Random123 known-answer vectors
  // with full four-word counters when the engine was written -- these pins
  // go through the public API, whose fourth counter word is always zero).
  // Any change to the constants, the rounds or the key schedule breaks
  // every table derived from a CounterRng seed, so these must never drift.
  const CounterRng::Block zero = CounterRng::block(0, 0, 0, 0, 0);
  EXPECT_EQ(zero.v[0], 0x16554d9eca36314cull);
  EXPECT_EQ(zero.v[1], 0xdb20fe9d672d0fdcull);
  EXPECT_EQ(zero.v[2], 0xd7e772cee186176bull);
  EXPECT_EQ(zero.v[3], 0x7e68b68aec7ba23bull);

  const std::uint64_t f = 0xFFFFFFFFFFFFFFFFull;
  const CounterRng::Block ones = CounterRng::block(f, f, f, f, f);
  EXPECT_EQ(ones.v[0], 0x3680bfe7e509707full);
  EXPECT_EQ(ones.v[1], 0xa5b84fd772833c16ull);
  EXPECT_EQ(ones.v[2], 0x21ad14ce47e6426full);
  EXPECT_EQ(ones.v[3], 0x219961fe99e12989ull);

  // Key and counter from the leading hex digits of pi (the classic
  // Random123 test pattern).
  const CounterRng::Block pi =
      CounterRng::block(0x452821e638d01377ull, 0xbe5466cf34e90c6cull,
                        0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                        0xa4093822299f31d0ull);
  EXPECT_EQ(pi.v[0], 0x1742fca5c08e1bd8ull);
  EXPECT_EQ(pi.v[1], 0x557750fcd1406863ull);
  EXPECT_EQ(pi.v[2], 0x283d8582667581dfull);
  EXPECT_EQ(pi.v[3], 0x331c9fb553248fe7ull);
}

TEST(CounterRng, ValueKnownAnswers) {
  // Lane 0 of the block at each coordinate; every coordinate axis moves
  // the output.
  EXPECT_EQ(CounterRng::value(0, 0, 0), 0x16554d9eca36314cull);
  EXPECT_EQ(CounterRng::value(1, 0, 0), 0xcb7ea744cf19bb4cull);
  EXPECT_EQ(CounterRng::value(0, 1, 0), 0x9c6b270905f0b111ull);
  EXPECT_EQ(CounterRng::value(0, 0, 1), 0x02f4ba6408e4d89bull);
  EXPECT_EQ(CounterRng::value(0x9e3779b97f4a7c15ull, 7, 123456789),
            0x9e432690d4af48f9ull);
  EXPECT_EQ(CounterRng::value(2005, 42, 0xFFFFFFFFFFFFFFFFull),
            0xe903d703a39abd19ull);
}

TEST(CounterRng, InstanceMatchesStaticMap) {
  const CounterRng rng(2005, 3);
  EXPECT_EQ(rng.seed(), 2005u);
  EXPECT_EQ(rng.stream(), 3u);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(rng.value_at(i), CounterRng::value(2005, 3, i));
    const CounterRng::Block a = rng.block_at(i, 5, 9);
    const CounterRng::Block b = CounterRng::block(2005, 3, i, 5, 9);
    for (int l = 0; l < 4; ++l) EXPECT_EQ(a.v[l], b.v[l]);
  }
}

TEST(CounterRng, DrawsAreScheduleInvariant) {
  // The property the batched Procedure 1 rests on: a draw is a pure
  // function of (seed, stream, coordinate), so ANY evaluation order --
  // forward, reverse, interleaved across streams, repeated -- yields the
  // same value at the same address.  Record a coordinate grid forward,
  // then re-read it backwards interleaving a foreign stream, and compare.
  const CounterRng a(99, 0), b(99, 1);
  std::vector<std::uint64_t> forward;
  for (std::uint64_t c0 = 0; c0 < 8; ++c0)
    for (std::uint64_t c1 = 0; c1 < 4; ++c1)
      forward.push_back(a.below(1000, c0, c1));
  std::vector<std::uint64_t> backward(forward.size());
  for (std::size_t i = forward.size(); i-- > 0;) {
    (void)b.below(17, i, 0);  // foreign-stream traffic must not perturb a
    backward[i] = a.below(1000, i / 4, i % 4);
  }
  EXPECT_EQ(forward, backward);
}

TEST(CounterRng, BelowIsInRangeAndExercisesRetry) {
  const CounterRng rng(7, 0);
  for (std::uint64_t c0 = 0; c0 < 512; ++c0) {
    EXPECT_LT(rng.below(97, c0), 97u);
    EXPECT_EQ(rng.below(1, c0), 0u);
  }
  // bound just above 2^63 rejects the first attempt with probability
  // ~1/2, so 256 coordinates drive the out-of-line retry loop (the
  // attempt counter c2) with near certainty; results must stay in range
  // and be reproducible address by address.
  const std::uint64_t huge = (std::uint64_t{1} << 63) + 1;
  for (std::uint64_t c0 = 0; c0 < 256; ++c0) {
    const std::uint64_t v = rng.below(huge, c0);
    EXPECT_LT(v, huge);
    EXPECT_EQ(v, rng.below(huge, c0));
  }
}

TEST(CounterRng, BelowCoversAllResidues) {
  std::set<std::uint64_t> seen;
  const CounterRng rng(11, 0);
  for (std::uint64_t c0 = 0; c0 < 400; ++c0) seen.insert(rng.below(7, c0));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(CounterRng, BelowZeroThrows) {
  const CounterRng rng(1, 0);
  EXPECT_THROW((void)rng.below(0, 0), contract_error);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"circuit", "n"});
  table.add_row({"bbara", "858"});
  table.add_row({"x", "7"});
  const std::string out = table.render();
  EXPECT_NE(out.find("circuit"), std::string::npos);
  EXPECT_NE(out.find("bbara"), std::string::npos);
  // Right alignment of the numeric column: "858" and "  7" line up.
  EXPECT_NE(out.find("  7"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), contract_error);
}

TEST(TextTable, SeparatorRenders) {
  TextTable table({"a"});
  table.add_row({"1"});
  table.add_separator();
  table.add_row({"2"});
  const std::string out = table.render();
  EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Formatting, FixedAndPercent) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_percent(0.9207), "92.07");
  EXPECT_EQ(format_percent(1.0), "100.00");
}

TEST(Cli, ParsesKnownOptionsAndPositionals) {
  const char* argv[] = {"prog", "--k=100", "bbara", "--seed=7"};
  const CliArgs args(4, argv, {"k", "seed"});
  EXPECT_EQ(args.get_u64("k", 1), 100u);
  EXPECT_EQ(args.get_u64("seed", 1), 7u);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "bbara");
}

TEST(Cli, UnknownOptionThrows) {
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(CliArgs(2, argv, {"k"}), contract_error);
}

TEST(Cli, NonNumericValueThrows) {
  const char* argv[] = {"prog", "--k=abc"};
  const CliArgs args(2, argv, {"k"});
  EXPECT_THROW((void)args.get_u64("k", 1), contract_error);
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv, {"k"});
  EXPECT_FALSE(args.has("k"));
  EXPECT_EQ(args.get_u64("k", 123), 123u);
  EXPECT_EQ(args.get("k", "fallback"), "fallback");
}

}  // namespace
}  // namespace ndet
