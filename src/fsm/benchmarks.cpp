#include "fsm/benchmarks.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "netlist/bench_io.hpp"
#include "netlist/library.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ndet {

namespace {

// ---------------------------------------------------------------------------
// Hand-written reconstructions of the small classics.
// ---------------------------------------------------------------------------

/// lion: 2 sensor inputs, 1 output, 4 states.  A cage-boundary tracker: the
/// two sensors move the lion between compartments; the output flags the far
/// compartment.
constexpr const char* kLion = R"(.i 2
.o 1
.s 4
.r st0
00 st0 st0 0
01 st0 st1 0
10 st0 st0 0
11 st0 st0 0
00 st1 st1 0
01 st1 st2 0
10 st1 st0 0
11 st1 st1 0
00 st2 st2 0
01 st2 st3 0
10 st2 st1 0
11 st2 st2 0
00 st3 st3 1
01 st3 st3 1
10 st3 st2 1
11 st3 st3 1
.e
)";

/// train4: 2 track sensors, 1 output, 4 states; a train direction tracker.
constexpr const char* kTrain4 = R"(.i 2
.o 1
.s 4
.r stA
00 stA stA 0
01 stA stB 0
10 stA stD 0
11 stA stA 0
00 stB stB 1
01 stB stC 1
10 stB stA 1
11 stB stB 1
00 stC stC 1
01 stC stD 1
10 stC stB 1
11 stC stC 1
00 stD stD 0
01 stD stA 0
10 stD stC 0
11 stD stD 0
.e
)";

/// mc: 3 inputs, 5 outputs, 4 states; a small mode controller whose outputs
/// are the one-hot phase plus a ready flag.
constexpr const char* kMc = R"(.i 3
.o 5
.s 4
.r halt
0-- halt halt 10000
1-- halt load 10001
0-- load load 01000
10- load run  01001
11- load halt 01000
-0- run  run  00100
-10 run  done 00101
-11 run  halt 00100
--0 done halt 00011
--1 done done 00010
.e
)";

/// modulo12: 1 input, 1 output, 12 states; counts input pulses mod 12 and
/// raises the output in the last state.
std::string modulo12_text() {
  std::ostringstream os;
  os << ".i 1\n.o 1\n.s 12\n.r s0\n";
  for (int k = 0; k < 12; ++k) {
    const std::string out = k == 11 ? "1" : "0";
    os << "0 s" << k << " s" << k << " " << out << "\n";
    os << "1 s" << k << " s" << (k + 1) % 12 << " " << out << "\n";
  }
  os << ".e\n";
  return os.str();
}

/// dk27: 1 input, 2 outputs, 7 states; a Donald-Knuth-style exercise
/// machine: a walk over seven states with two phase outputs.
constexpr const char* kDk27 = R"(.i 1
.o 2
.s 7
.r s0
0 s0 s1 00
1 s0 s3 00
0 s1 s2 01
1 s1 s4 01
0 s2 s0 10
1 s2 s5 10
0 s3 s4 00
1 s3 s6 01
0 s4 s5 01
1 s4 s0 10
0 s5 s6 10
1 s5 s1 11
0 s6 s0 11
1 s6 s2 11
.e
)";

/// bbtas: 2 inputs, 2 outputs, 6 states; a bus arbiter flavoured machine.
std::string bbtas_text() {
  std::ostringstream os;
  os << ".i 2\n.o 2\n.s 6\n.r s0\n";
  // Deterministic and complete: each state has all four input combinations.
  // Grant pattern: output encodes the granted requester of the *current*
  // state; requests move the token forward, idle decays it toward s0.
  const char* outs[6] = {"00", "01", "01", "10", "10", "11"};
  for (int k = 0; k < 6; ++k) {
    os << "00 s" << k << " s" << std::max(0, k - 1) << " " << outs[k] << "\n";
    os << "01 s" << k << " s" << (k + 1) % 6 << " " << outs[k] << "\n";
    os << "10 s" << k << " s" << (k + 2) % 6 << " " << outs[k] << "\n";
    os << "11 s" << k << " s" << k << " " << outs[k] << "\n";
  }
  os << ".e\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Synthetic suite entries.  Interface signatures (inputs/outputs/states)
// follow the published MCNC/LGSynth counts; term counts and the redundancy
// knob are calibrated so the synthesized netlists land near the paper's
// per-circuit bridging-fault counts and coverage regimes (see DESIGN.md and
// EXPERIMENTS.md):
//   * the "small" group (100% coverage at small n): no redundant cover;
//   * the "tail" group (bbara..cse): moderate redundant cover, which leaves
//     a few percent of faults above nmin = 10;
//   * the "heavy" group (dvram, fetch, log, rie, s1a): maximal redundant
//     cover with uniform states, producing the saturating coverage and very
//     large nmin values of the paper's industrial machines.
// ---------------------------------------------------------------------------

struct SyntheticSpec {
  const char* name;
  int inputs;
  int outputs;
  int states;
  std::size_t terms;
  std::uint64_t seed;
  unsigned bias_permille;
  unsigned redundancy_permille;
  int fanin;  ///< technology-mapping fanin for this machine
};

constexpr SyntheticSpec kSynthetic[] = {
    {"ex5", 2, 2, 9, 18, 1005, 350, 250, 4},
    {"dk15", 3, 5, 4, 16, 1006, 350, 250, 4},
    {"dk512", 1, 3, 15, 30, 1007, 350, 250, 4},
    {"dk14", 3, 5, 7, 24, 1008, 350, 200, 4},
    {"dk17", 2, 3, 8, 20, 1009, 350, 250, 4},
    {"firstex", 3, 3, 6, 12, 1010, 350, 250, 4},
    {"lion9", 2, 1, 9, 18, 1011, 400, 300, 4},
    {"dk16", 2, 3, 27, 60, 1012, 300, 150, 4},
    {"s8", 4, 1, 5, 12, 1013, 300, 300, 4},
    {"tav", 4, 4, 4, 10, 1014, 300, 300, 4},
    {"donfile", 2, 1, 24, 48, 1015, 300, 150, 4},
    {"ex7", 2, 2, 10, 20, 1016, 300, 250, 4},
    {"train11", 2, 1, 11, 22, 1017, 400, 300, 4},
    {"beecount", 3, 4, 7, 16, 1018, 300, 500, 4},
    {"ex2", 2, 2, 19, 56, 1019, 300, 400, 4},
    {"ex3", 2, 2, 10, 24, 1020, 300, 400, 4},
    {"ex6", 5, 8, 8, 20, 1021, 400, 500, 4},
    {"mark1", 5, 16, 15, 24, 1022, 300, 600, 4},
    {"bbara", 4, 2, 10, 24, 1023, 500, 800, 4},
    {"ex4", 6, 9, 14, 20, 1024, 300, 700, 5},
    {"keyb", 7, 2, 19, 40, 1025, 400, 600, 5},
    {"opus", 5, 6, 10, 18, 1026, 400, 700, 4},
    {"bbsse", 7, 7, 16, 30, 1027, 400, 700, 5},
    {"cse", 7, 7, 16, 36, 1028, 400, 600, 5},
    {"dvram", 8, 6, 32, 40, 1029, 600, 1000, 6},
    {"fetch", 8, 12, 26, 32, 1030, 600, 1000, 6},
    {"log", 8, 10, 17, 28, 1031, 600, 1000, 6},
    {"rie", 8, 8, 29, 36, 1032, 600, 1000, 6},
    {"s1a", 8, 6, 20, 36, 1033, 600, 1000, 6},
};

const SyntheticSpec* find_synthetic(const std::string& name) {
  for (const SyntheticSpec& spec : kSynthetic)
    if (name == spec.name) return &spec;
  return nullptr;
}

}  // namespace

Kiss2Fsm synthetic_fsm(const std::string& name, int inputs, int outputs,
                       int states, std::size_t target_terms,
                       std::uint64_t seed, unsigned bias_permille,
                       unsigned redundancy_permille) {
  require(inputs >= 1 && outputs >= 1 && states >= 1,
          "synthetic_fsm: counts must be positive");
  require(target_terms >= static_cast<std::size_t>(states),
          "synthetic_fsm: need at least one term per state");
  Rng rng(seed);

  // Depth: each state partitions the input space into 2^depth cubes; choose
  // the depth that approximates the published term count.
  const double per_state =
      static_cast<double>(target_terms) / static_cast<double>(states);
  const int base_depth = std::min(
      inputs, std::max(0, static_cast<int>(std::lround(std::log2(per_state)))));

  Kiss2Fsm fsm;
  fsm.name = name;
  fsm.num_inputs = inputs;
  fsm.num_outputs = outputs;
  for (int s = 0; s < states; ++s) fsm.states.push_back("s" + std::to_string(s));
  fsm.reset_state = "s0";

  for (int s = 0; s < states; ++s) {
    // Jitter the depth per state so term counts are not uniform.
    int depth = base_depth;
    if (depth + 1 <= inputs && rng.chance(1, 3)) ++depth;
    else if (depth > 0 && rng.chance(1, 4)) --depth;

    // Heavily redundant machines: some states behave uniformly (the same
    // next state and outputs on every input) while still being described by
    // a full partition of specific cubes; the cascaded merge below then
    // covers them with progressively wider redundant products, masking the
    // specific cubes' faults completely.  This is the structure that gives
    // the paper's industrial machines their nmin tails in the hundreds.
    const bool uniform_state =
        redundancy_permille > 500 && rng.chance(redundancy_permille - 500, 1000);

    // Choose `depth` distinct input positions to specify.
    std::vector<int> positions;
    while (static_cast<int>(positions.size()) < depth) {
      const int p = static_cast<int>(rng.below(static_cast<std::uint64_t>(inputs)));
      if (std::find(positions.begin(), positions.end(), p) == positions.end())
        positions.push_back(p);
    }

    std::vector<Kiss2Term> state_terms;
    std::string previous_next;
    std::string previous_output;
    for (std::uint64_t combo = 0; combo < (std::uint64_t{1} << depth); ++combo) {
      Kiss2Term term;
      term.input.assign(static_cast<std::size_t>(inputs), '-');
      for (int b = 0; b < depth; ++b)
        term.input[static_cast<std::size_t>(positions[static_cast<std::size_t>(b)])] =
            ((combo >> b) & 1u) ? '1' : '0';
      term.current = fsm.states[static_cast<std::size_t>(s)];
      // Correlating adjacent cubes' behaviour (next state and outputs) makes
      // real tables' structure -- and creates the mergeable sibling pairs
      // the redundant-cover pass below feeds on.
      if (!previous_next.empty() && (uniform_state || rng.chance(1, 2)))
        term.next = previous_next;
      else term.next = fsm.states[rng.below(static_cast<std::uint64_t>(states))];
      previous_next = term.next;
      if (!previous_output.empty() && (uniform_state || rng.chance(2, 3))) {
        term.output = previous_output;
      } else {
        term.output.resize(static_cast<std::size_t>(outputs));
        for (int o = 0; o < outputs; ++o)
          term.output[static_cast<std::size_t>(o)] =
              rng.chance(bias_permille, 1000) ? '1' : '0';
      }
      previous_output = term.output;
      state_terms.push_back(std::move(term));
    }

    // Consistent redundant cover: cubes differing in exactly one specified
    // input that agree on next state and outputs may also be covered by
    // their merged cube, cascading into progressively wider covers.  The
    // overlaps agree everywhere, so the table stays deterministic and the
    // function is unchanged -- only the synthesized OR planes gain redundant
    // products (see header comment).
    if (redundancy_permille > 0) {
      const auto try_merge = [](const Kiss2Term& ta,
                                const Kiss2Term& tb) -> std::optional<Kiss2Term> {
        if (ta.next != tb.next || ta.output != tb.output) return std::nullopt;
        int differing = -1;
        for (std::size_t p = 0; p < ta.input.size(); ++p) {
          if (ta.input[p] == tb.input[p]) continue;
          if (ta.input[p] == '-' || tb.input[p] == '-') return std::nullopt;
          if (differing >= 0) return std::nullopt;
          differing = static_cast<int>(p);
        }
        if (differing < 0) return std::nullopt;
        Kiss2Term merged = ta;
        merged.input[static_cast<std::size_t>(differing)] = '-';
        return merged;
      };
      std::vector<Kiss2Term> layer = state_terms;
      std::vector<Kiss2Term> extra;
      while (!layer.empty() && extra.size() < state_terms.size() * 2) {
        std::vector<Kiss2Term> next_layer;
        for (std::size_t a = 0; a < layer.size(); ++a) {
          for (std::size_t b = a + 1; b < layer.size(); ++b) {
            const auto merged = try_merge(layer[a], layer[b]);
            if (!merged) continue;
            if (!rng.chance(redundancy_permille, 1000)) continue;
            const auto duplicate = [&](const std::vector<Kiss2Term>& pool) {
              for (const auto& t : pool)
                if (t.input == merged->input && t.next == merged->next &&
                    t.output == merged->output)
                  return true;
              return false;
            };
            if (duplicate(next_layer) || duplicate(extra)) continue;
            next_layer.push_back(*merged);
          }
        }
        for (const auto& t : next_layer) extra.push_back(t);
        layer = std::move(next_layer);
      }
      for (auto& term : extra) state_terms.push_back(std::move(term));
    }
    for (auto& term : state_terms) fsm.terms.push_back(std::move(term));
  }
  return fsm;
}

const std::vector<FsmBenchmarkInfo>& fsm_benchmark_suite() {
  static const std::vector<FsmBenchmarkInfo> suite = [] {
    std::vector<FsmBenchmarkInfo> entries;
    const auto add = [&entries](const std::string& name, bool handwritten) {
      const Kiss2Fsm fsm = fsm_benchmark(name);
      entries.push_back(FsmBenchmarkInfo{name, fsm.num_inputs, fsm.num_outputs,
                                         static_cast<int>(fsm.states.size()),
                                         handwritten});
    };
    // Paper Table 2 order (grouped by the n reaching 100% in the paper).
    add("lion", true);
    add("dk27", true);
    add("ex5", false);
    add("train4", true);
    add("bbtas", true);
    add("dk15", false);
    add("dk512", false);
    add("dk14", false);
    add("dk17", false);
    add("firstex", false);
    add("lion9", false);
    add("mc", true);
    add("dk16", false);
    add("modulo12", true);
    add("s8", false);
    add("tav", false);
    add("donfile", false);
    add("ex7", false);
    add("train11", false);
    add("beecount", false);
    add("ex2", false);
    add("ex3", false);
    add("ex6", false);
    add("mark1", false);
    add("bbara", false);
    add("ex4", false);
    add("keyb", false);
    add("opus", false);
    add("bbsse", false);
    add("cse", false);
    add("dvram", false);
    add("fetch", false);
    add("log", false);
    add("rie", false);
    add("s1a", false);
    return entries;
  }();
  return suite;
}

Kiss2Fsm fsm_benchmark(const std::string& name) {
  if (name == "lion") return parse_kiss2(kLion, name);
  if (name == "train4") return parse_kiss2(kTrain4, name);
  if (name == "mc") return parse_kiss2(kMc, name);
  if (name == "modulo12") return parse_kiss2(modulo12_text(), name);
  if (name == "dk27") return parse_kiss2(kDk27, name);
  if (name == "bbtas") return parse_kiss2(bbtas_text(), name);
  if (const SyntheticSpec* spec = find_synthetic(name))
    return synthetic_fsm(spec->name, spec->inputs, spec->outputs, spec->states,
                         spec->terms, spec->seed, spec->bias_permille,
                         spec->redundancy_permille);
  throw contract_error("fsm_benchmark: unknown machine '" + name + "'");
}

Circuit fsm_benchmark_circuit(const std::string& name, StateEncoding encoding) {
  SynthOptions options;
  options.encoding = encoding;
  if (const SyntheticSpec* spec = find_synthetic(name))
    options.max_fanin = spec->fanin;
  return synthesize_fsm(fsm_benchmark(name), options);
}

Circuit resolve_circuit(const std::string& name) {
  for (const FsmBenchmarkInfo& info : fsm_benchmark_suite())
    if (info.name == name) return fsm_benchmark_circuit(name);
  for (const std::string& lib : combinational_library_names())
    if (lib == name) return combinational_library(name);
  const bool bench_path =
      (name.size() > 6 && name.substr(name.size() - 6) == ".bench") ||
      name.find('/') != std::string::npos;
  if (bench_path) return read_bench_file(name);
  throw contract_error(
      "unknown circuit '" + name +
      "' (expected an FSM benchmark, an embedded circuit, or a .bench path)");
}

bool is_embedded_circuit(const std::string& name) {
  for (const FsmBenchmarkInfo& info : fsm_benchmark_suite())
    if (info.name == name) return true;
  for (const std::string& lib : combinational_library_names())
    if (lib == name) return true;
  return false;
}

}  // namespace ndet
