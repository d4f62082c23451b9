// fsm_test.cpp -- KISS2 parsing, state encodings, two-level synthesis and
// the embedded benchmark suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "fsm/benchmarks.hpp"
#include "fsm/encoding.hpp"
#include "fsm/kiss2.hpp"
#include "fsm/synth.hpp"
#include "sim/exhaustive.hpp"
#include "util/check.hpp"

namespace ndet {
namespace {

constexpr const char* kToy = R"(
# toy machine
.i 2
.o 1
.s 2
.r a
0- a a 0
1- a b 0
-- b a 1
.e
)";

TEST(Kiss2, ParsesDirectivesAndTerms) {
  const Kiss2Fsm fsm = parse_kiss2(kToy, "toy");
  EXPECT_EQ(fsm.num_inputs, 2);
  EXPECT_EQ(fsm.num_outputs, 1);
  EXPECT_EQ(fsm.states, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(fsm.reset_state, "a");
  EXPECT_EQ(fsm.terms.size(), 3u);
  EXPECT_EQ(fsm.terms[1].input, "1-");
  EXPECT_EQ(fsm.terms[1].next, "b");
}

TEST(Kiss2, RoundTrip) {
  const Kiss2Fsm fsm = parse_kiss2(kToy, "toy");
  const Kiss2Fsm again = parse_kiss2(write_kiss2(fsm), "toy");
  EXPECT_EQ(again.num_inputs, fsm.num_inputs);
  EXPECT_EQ(again.states, fsm.states);
  ASSERT_EQ(again.terms.size(), fsm.terms.size());
  for (std::size_t i = 0; i < fsm.terms.size(); ++i) {
    EXPECT_EQ(again.terms[i].input, fsm.terms[i].input);
    EXPECT_EQ(again.terms[i].current, fsm.terms[i].current);
    EXPECT_EQ(again.terms[i].next, fsm.terms[i].next);
    EXPECT_EQ(again.terms[i].output, fsm.terms[i].output);
  }
}

TEST(Kiss2, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_kiss2(".i 2\n.o 1\n", "empty"), contract_error);
  EXPECT_THROW((void)parse_kiss2("00 a b 0\n", "no_header"), contract_error);
  EXPECT_THROW((void)parse_kiss2(".i 2\n.o 1\n0 a b 0\n", "short_cube"),
               contract_error);
  EXPECT_THROW((void)parse_kiss2(".i 2\n.o 1\n0x a b 0\n", "bad_char"),
               contract_error);
  EXPECT_THROW((void)parse_kiss2(".i 2\n.o 1\n.p 5\n00 a b 0\n", "bad_p"),
               contract_error);
  EXPECT_THROW((void)parse_kiss2(".i 0\n.o 1\n-- a a 0\n", "zero_i"),
               contract_error);
}

TEST(Kiss2, MalformedFixtureTable) {
  // Each fixture must raise Error{kInvalidInput} whose message carries the
  // offending line number plus a diagnostic fragment.
  struct Fixture {
    const char* label;
    const char* text;
    const char* fragment;
  };
  const Fixture fixtures[] = {
      {"dup_i", ".i 2\n.i 3\n.o 1\n00 a b 0\n",
       "line 2: duplicate directive .i"},
      {"dup_o", ".i 2\n.o 1\n.o 1\n00 a b 0\n",
       "line 3: duplicate directive .o"},
      {"dup_p", ".i 2\n.o 1\n.p 1\n.p 1\n00 a b 0\n",
       "line 4: duplicate directive .p"},
      {"dup_s", ".i 2\n.o 1\n.s 2\n.s 2\n00 a b 0\n00 b a 0\n",
       "line 4: duplicate directive .s"},
      {"dup_r", ".i 2\n.o 1\n.r a\n.r b\n00 a b 0\n",
       "line 4: duplicate directive .r"},
      {"trailing_directive", ".i 2 junk\n.o 1\n00 a b 0\n",
       "line 1: trailing token 'junk' after directive .i"},
      {"trailing_term", ".i 2\n.o 1\n00 a b 0 junk\n",
       "line 3: trailing token 'junk' after term"},
      {"trailing_end", ".i 2\n.o 1\n00 a b 0\n.e junk\n",
       "line 4: trailing token 'junk' after directive .e"},
      {"after_end", ".i 2\n.o 1\n00 a b 0\n.e\n11 a a 1\n",
       "line 5: content after .e"},
  };
  for (const Fixture& f : fixtures) {
    try {
      (void)parse_kiss2(f.text, f.label);
      FAIL() << f.label << ": expected a parse error";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInvalidInput) << f.label;
      EXPECT_NE(std::string(e.what()).find(f.fragment), std::string::npos)
          << f.label << ": message '" << e.what() << "' lacks '" << f.fragment
          << "'";
    }
  }
}

TEST(Kiss2, EvaluateSttFollowsCubes) {
  const Kiss2Fsm fsm = parse_kiss2(kToy, "toy");
  const SttEval e0 = evaluate_stt(fsm, 0, {false, true});
  EXPECT_TRUE(e0.specified);
  EXPECT_EQ(e0.next_state, 0u);
  EXPECT_FALSE(e0.outputs[0]);
  const SttEval e1 = evaluate_stt(fsm, 0, {true, false});
  EXPECT_EQ(e1.next_state, 1u);
  const SttEval e2 = evaluate_stt(fsm, 1, {true, true});
  EXPECT_EQ(e2.next_state, 0u);
  EXPECT_TRUE(e2.outputs[0]);
}

TEST(Kiss2, DeterminismCheck) {
  EXPECT_TRUE(is_deterministic(parse_kiss2(kToy, "toy")));
  const char* conflict = ".i 1\n.o 1\n0 a b 0\n- a a 1\n";
  EXPECT_FALSE(is_deterministic(parse_kiss2(conflict, "conflict")));
}

// --- Encodings --------------------------------------------------------------

TEST(Encoding, Widths) {
  EXPECT_EQ(encoding_width(1, StateEncoding::kBinary), 1u);
  EXPECT_EQ(encoding_width(2, StateEncoding::kBinary), 1u);
  EXPECT_EQ(encoding_width(3, StateEncoding::kBinary), 2u);
  EXPECT_EQ(encoding_width(16, StateEncoding::kBinary), 4u);
  EXPECT_EQ(encoding_width(17, StateEncoding::kBinary), 5u);
  EXPECT_EQ(encoding_width(7, StateEncoding::kOneHot), 7u);
}

TEST(Encoding, BinaryCodesAreDistinct) {
  const auto codes = encode_states(12, StateEncoding::kBinary);
  std::set<std::vector<bool>> unique(codes.begin(), codes.end());
  EXPECT_EQ(unique.size(), 12u);
}

TEST(Encoding, GrayAdjacentCodesDifferInOneBit) {
  const auto codes = encode_states(8, StateEncoding::kGray);
  for (std::size_t s = 1; s < codes.size(); ++s) {
    int diff = 0;
    for (std::size_t b = 0; b < codes[s].size(); ++b)
      if (codes[s][b] != codes[s - 1][b]) ++diff;
    EXPECT_EQ(diff, 1) << "between states " << s - 1 << " and " << s;
  }
}

TEST(Encoding, OneHotAssertsExactlyOneBit) {
  const auto codes = encode_states(5, StateEncoding::kOneHot);
  for (std::size_t s = 0; s < codes.size(); ++s) {
    int ones = 0;
    for (std::size_t b = 0; b < codes[s].size(); ++b) {
      if (codes[s][b]) {
        ++ones;
        EXPECT_EQ(b, s);
      }
    }
    EXPECT_EQ(ones, 1);
  }
}

// --- Synthesis oracle --------------------------------------------------------
//
// The synthesized combinational circuit must agree with direct STT
// evaluation on every (state code, input) pair, for every encoding.

void check_synthesis(const Kiss2Fsm& fsm, StateEncoding encoding) {
  ASSERT_TRUE(is_deterministic(fsm)) << fsm.name;
  SynthOptions options;
  options.encoding = encoding;
  const Circuit c = synthesize_fsm(fsm, options);
  const std::size_t ni = static_cast<std::size_t>(fsm.num_inputs);
  const std::size_t width = encoding_width(fsm.states.size(), encoding);
  ASSERT_EQ(c.input_count(), ni + width);
  ASSERT_EQ(c.output_count(), static_cast<std::size_t>(fsm.num_outputs) + width);

  const ExhaustiveSimulator sim(c);
  const auto codes = encode_states(fsm.states.size(), encoding);

  for (std::size_t state = 0; state < fsm.states.size(); ++state) {
    for (std::uint64_t in = 0; in < (std::uint64_t{1} << ni); ++in) {
      // Build the full input vector: x bits then state code bits.
      std::uint64_t v = 0;
      std::vector<bool> input_bits(ni);
      for (std::size_t i = 0; i < ni; ++i) {
        const bool bit = (in >> (ni - 1 - i)) & 1u;
        input_bits[i] = bit;
        v = (v << 1) | (bit ? 1u : 0u);
      }
      for (std::size_t b = 0; b < width; ++b)
        v = (v << 1) | (codes[state][b] ? 1u : 0u);

      const SttEval expected = evaluate_stt(fsm, state, input_bits);
      for (int o = 0; o < fsm.num_outputs; ++o) {
        const GateId po = c.outputs()[static_cast<std::size_t>(o)];
        EXPECT_EQ(sim.good_value(po, v),
                  expected.outputs[static_cast<std::size_t>(o)])
            << fsm.name << " state " << state << " in " << in << " o" << o;
      }
      // Next-state bits: OR of matched terms' next codes; deterministic
      // machines with a match give exactly the next state's code, unmatched
      // combinations give all zeros.
      std::vector<bool> expected_next(width, false);
      if (expected.specified)
        expected_next.assign(codes[expected.next_state].begin(),
                             codes[expected.next_state].end());
      for (std::size_t b = 0; b < width; ++b) {
        const GateId po =
            c.outputs()[static_cast<std::size_t>(fsm.num_outputs) + b];
        EXPECT_EQ(sim.good_value(po, v), expected_next[b])
            << fsm.name << " state " << state << " in " << in << " ns" << b;
      }
    }
  }
}

TEST(Synth, ToyMachineBinary) {
  check_synthesis(parse_kiss2(kToy, "toy"), StateEncoding::kBinary);
}

TEST(Synth, ToyMachineGray) {
  check_synthesis(parse_kiss2(kToy, "toy"), StateEncoding::kGray);
}

TEST(Synth, ToyMachineOneHot) {
  check_synthesis(parse_kiss2(kToy, "toy"), StateEncoding::kOneHot);
}

// State a's cube 01 is listed twice, once per output bit.
constexpr const char* kSplitOutputs = R"(
.i 2
.o 2
.s 2
.r a
01 a b 10
01 a b 01
1- a a 00
-- b a 11
.e
)";

TEST(Synth, SharesProductTerms) {
  // Identical cubes of one state become one AND gate, read by every output
  // that lists the cube: p0 is 01@a, p1 is 1-@a, and b's cube is the lone
  // state literal, which needs no gate.
  const Circuit c = synthesize_fsm(parse_kiss2(kSplitOutputs, "split"));
  const std::optional<GateId> shared = c.find("p0");
  ASSERT_TRUE(shared.has_value());
  EXPECT_TRUE(c.find("p1").has_value());
  EXPECT_FALSE(c.find("p2").has_value());
  for (const GateId po : {c.outputs()[0], c.outputs()[1]}) {
    const std::vector<GateId>& fanins = c.gate(po).fanins;
    EXPECT_NE(std::find(fanins.begin(), fanins.end(), *shared), fanins.end())
        << c.gate(po).name;
  }
}

// Synthesis agreement for every hand-written machine under binary encoding.
class HandwrittenSynthesis : public ::testing::TestWithParam<const char*> {};

TEST_P(HandwrittenSynthesis, MatchesSttEverywhere) {
  check_synthesis(fsm_benchmark(GetParam()), StateEncoding::kBinary);
}

INSTANTIATE_TEST_SUITE_P(Suite, HandwrittenSynthesis,
                         ::testing::Values("lion", "train4", "mc", "modulo12",
                                           "dk27", "bbtas"));

// Synthesis agreement for a sample of synthetic machines (the whole suite is
// exercised by the integration test and the benches).
class SyntheticSynthesis : public ::testing::TestWithParam<const char*> {};

TEST_P(SyntheticSynthesis, MatchesSttEverywhere) {
  check_synthesis(fsm_benchmark(GetParam()), StateEncoding::kBinary);
}

INSTANTIATE_TEST_SUITE_P(Sample, SyntheticSynthesis,
                         ::testing::Values("ex5", "dk15", "bbara", "beecount",
                                           "s8", "opus"));

// --- Benchmark catalogue -----------------------------------------------------

TEST(Benchmarks, SuiteIsComplete) {
  const auto& suite = fsm_benchmark_suite();
  EXPECT_EQ(suite.size(), 35u);
  for (const auto& info : suite) {
    EXPECT_GE(info.inputs, 1) << info.name;
    EXPECT_GE(info.outputs, 1) << info.name;
    EXPECT_GE(info.states, 2) << info.name;
  }
}

TEST(Benchmarks, AllMachinesAreDeterministic) {
  for (const auto& info : fsm_benchmark_suite())
    EXPECT_TRUE(is_deterministic(fsm_benchmark(info.name))) << info.name;
}

TEST(Benchmarks, AllMachinesSynthesizeWithinExhaustiveBudget) {
  for (const auto& info : fsm_benchmark_suite()) {
    const Circuit c = fsm_benchmark_circuit(info.name);
    EXPECT_LE(c.input_count(), 13u) << info.name;
    EXPECT_GE(c.output_count(), 2u) << info.name;
  }
}

TEST(Benchmarks, GenerationIsDeterministic) {
  const Kiss2Fsm a = fsm_benchmark("keyb");
  const Kiss2Fsm b = fsm_benchmark("keyb");
  EXPECT_EQ(write_kiss2(a), write_kiss2(b));
}

TEST(Benchmarks, SyntheticGeneratorHonorsSignature) {
  const Kiss2Fsm fsm = synthetic_fsm("custom", 3, 2, 5, 20, 99);
  EXPECT_EQ(fsm.num_inputs, 3);
  EXPECT_EQ(fsm.num_outputs, 2);
  EXPECT_EQ(fsm.states.size(), 5u);
  EXPECT_GE(fsm.terms.size(), 5u);
  EXPECT_TRUE(is_deterministic(fsm));
  // Every state's cubes must cover the full input space (completeness).
  for (std::size_t s = 0; s < fsm.states.size(); ++s) {
    for (std::uint64_t in = 0; in < 8; ++in) {
      const SttEval eval = evaluate_stt(
          fsm, s, {(in & 4) != 0, (in & 2) != 0, (in & 1) != 0});
      EXPECT_TRUE(eval.specified) << "state " << s << " input " << in;
    }
  }
}

TEST(Benchmarks, UnknownNameThrows) {
  EXPECT_THROW((void)fsm_benchmark("not_a_machine"), contract_error);
}

}  // namespace
}  // namespace ndet
