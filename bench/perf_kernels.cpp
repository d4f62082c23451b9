// perf_kernels.cpp -- google-benchmark timings of every kernel the
// reproduction relies on: exhaustive simulation, stuck-at and bridging
// detection sets, the worst-case nmin sweep (reference vs the pruned
// parallel engine, with the database memory footprint as counters),
// the partitioned analysis, Procedure 1 under both definitions, the
// Definition-2 oracle, and PODEM.

#include <benchmark/benchmark.h>

#include <numeric>
#include <string>

#include "atpg/ndetect.hpp"
#include "atpg/podem.hpp"
#include "common.hpp"
#include "core/partition.hpp"
#include "core/pair_kernels.hpp"
#include "core/procedure1.hpp"
#include "core/worst_case.hpp"
#include "faults/stuck_at.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/reach.hpp"
#include "sim/batch_fault_sim.hpp"
#include "sim/exhaustive.hpp"
#include "sim/fault_sim.hpp"
#include "sim/ternary_sim.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ndet;

const Circuit& bench_circuit() {
  static const Circuit circuit = fsm_benchmark_circuit("bbara");
  return circuit;
}

const DetectionDb& bench_db() {
  static const DetectionDb db =
      DetectionDb::build(bench_circuit(), {}, ThreadPool());
  return db;
}

const DetectionDb& bench_db_dense() {
  static const DetectionDb db = [] {
    DetectionDbOptions options;
    options.representation = SetRepresentation::kDense;
    return DetectionDb::build(bench_circuit(), options, ThreadPool());
  }();
  return db;
}

/// `blocks` independent 3-bit ripple adders in one netlist: the Section-4
/// partitioning workload.  Output supports are disjoint per block, so a
/// 7-input budget splits the circuit into exactly `blocks` cones.
Circuit multi_adder_circuit(int blocks) {
  CircuitBuilder b("multi_adder" + std::to_string(blocks));
  for (int k = 0; k < blocks; ++k) {
    const std::string blk = "k" + std::to_string(k) + "_";
    std::vector<GateId> a, bb;
    for (int i = 0; i < 3; ++i)
      a.push_back(b.add_input(blk + "a" + std::to_string(i)));
    for (int i = 0; i < 3; ++i)
      bb.push_back(b.add_input(blk + "b" + std::to_string(i)));
    GateId carry = b.add_input(blk + "cin");
    for (int i = 0; i < 3; ++i) {
      const std::string s = blk + std::to_string(i);
      const auto idx = static_cast<std::size_t>(i);
      const GateId axb = b.add_gate(GateType::kXor, "axb" + s, {a[idx], bb[idx]});
      const GateId sum = b.add_gate(GateType::kXor, "s" + s, {axb, carry});
      const GateId maj1 = b.add_gate(GateType::kAnd, "cab" + s, {a[idx], bb[idx]});
      const GateId maj2 = b.add_gate(GateType::kAnd, "cx" + s, {axb, carry});
      carry = b.add_gate(GateType::kOr, "c" + s, {maj1, maj2});
      b.mark_output(sum);
    }
    b.mark_output(carry);
  }
  return b.build();
}

void BM_ExhaustiveSimulation(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  for (auto _ : state) {
    const ExhaustiveSimulator sim(c);
    benchmark::DoNotOptimize(sim.good_word(static_cast<GateId>(c.gate_count() - 1), 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.vector_space_size()));
}
BENCHMARK(BM_ExhaustiveSimulation);

void BM_StuckAtDetectionSets(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const auto faults = collapse_stuck_at_faults(lines);
  for (auto _ : state) {
    const auto sets = fsim.detection_sets(faults);
    benchmark::DoNotOptimize(sets.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_StuckAtDetectionSets);

void BM_BridgingDetectionSets(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const ReachMatrix reach(c);
  const auto faults = enumerate_four_way_bridging(c, reach);
  for (auto _ : state) {
    std::size_t detectable = 0;
    for (const auto& fault : faults)
      if (fsim.detection_set(fault).any()) ++detectable;
    benchmark::DoNotOptimize(detectable);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_BridgingDetectionSets);

// The DetectionDb::build hot path end to end: every stuck-at and every
// bridging detection set of the circuit.  The Reference variant is the
// per-fault baseline; the Batched variant takes a worker-pool width
// (0 = all hardware threads), so Batched/1 isolates the precomputation and
// scratch-arena wins from the threading win.
void BM_AllDetectionSetsReference(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const ReachMatrix reach(c);
  const auto stuck = collapse_stuck_at_faults(lines);
  const auto bridges = enumerate_four_way_bridging(c, reach);
  for (auto _ : state) {
    const FaultSimulator fsim(sim, lines);
    const auto stuck_sets = fsim.detection_sets(stuck);
    const auto bridge_sets = fsim.detection_sets(bridges);
    benchmark::DoNotOptimize(stuck_sets.size() + bridge_sets.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stuck.size() + bridges.size()));
}
BENCHMARK(BM_AllDetectionSetsReference);

void BM_AllDetectionSetsBatched(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const ReachMatrix reach(c);
  const auto stuck = collapse_stuck_at_faults(lines);
  const auto bridges = enumerate_four_way_bridging(c, reach);
  const ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    const BatchFaultSimulator fsim(sim, lines, pool);
    const auto stuck_sets = fsim.detection_sets(stuck);
    const auto bridge_sets = fsim.detection_sets(bridges);
    benchmark::DoNotOptimize(stuck_sets.size() + bridge_sets.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stuck.size() + bridges.size()));
}
BENCHMARK(BM_AllDetectionSetsBatched)->Arg(1)->Arg(0);

void BM_DetectionDbBuild(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const ThreadPool pool;
  for (auto _ : state) {
    const DetectionDb db = DetectionDb::build(c, {}, pool);
    benchmark::DoNotOptimize(db.targets().size());
  }
}
BENCHMARK(BM_DetectionDbBuild);

// The worst-case sweep, reference flavour: serial, unpruned, over the
// all-dense database -- the pre-refactor behaviour BM_WorstCasePruned is
// measured against.
void BM_WorstCaseReference(benchmark::State& state) {
  const DetectionDb& db = bench_db_dense();
  for (auto _ : state) {
    WorstCaseResult worst;
    worst.nmin.reserve(db.untargeted().size());
    for (const DetectionSet& tg : db.untargeted_sets())
      worst.nmin.push_back(nmin_of(tg, db.target_sets()));
    benchmark::DoNotOptimize(worst.nmin.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(db.untargeted().size()));
  state.counters["db_bytes"] =
      static_cast<double>(db.set_memory_bytes());
}
BENCHMARK(BM_WorstCaseReference);

// The production sweep: the tiled pair-kernel engine with the N(f)-sorted
// tile prune over the adaptive database, batches sharded across the worker
// pool (argument = thread count, 0 = all hardware threads).  The label is
// the SIMD dispatch level the engine ran at; db_bytes vs dense_bytes
// exposes the representation win on this circuit.
void BM_WorstCasePruned(benchmark::State& state) {
  const DetectionDb& db = bench_db();
  const ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    const WorstCaseResult worst = analyze_worst_case(db, pool);
    benchmark::DoNotOptimize(worst.nmin.size());
  }
  state.SetLabel(simd::level_name(simd::active_level()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(db.untargeted().size()));
  state.counters["db_bytes"] = static_cast<double>(db.set_memory_bytes());
  state.counters["dense_bytes"] =
      static_cast<double>(db.dense_memory_bytes());
}
BENCHMARK(BM_WorstCasePruned)->Arg(1)->Arg(0);

// The same sweep on the paper's heavy Table 3 circuits (2^13-vector
// universes, tens of thousands of bridging faults, nmin tails above 100):
// the workload the tiled engine targets.  Arguments are {circuit, threads}
// with circuit 0 = dvram, 1 = s1a (the largest machine of the suite).
void BM_WorstCasePrunedLarge(benchmark::State& state) {
  static const DetectionDb dbs[2] = {
      DetectionDb::build(fsm_benchmark_circuit("dvram"), {}, ThreadPool()),
      DetectionDb::build(fsm_benchmark_circuit("s1a"), {}, ThreadPool()),
  };
  const DetectionDb& db = dbs[state.range(0)];
  const ThreadPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    const WorstCaseResult worst = analyze_worst_case(db, pool);
    benchmark::DoNotOptimize(worst.nmin.size());
  }
  state.SetLabel(std::string(state.range(0) == 0 ? "dvram" : "s1a") + "/" +
                 simd::level_name(simd::active_level()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(db.untargeted().size()));
  state.counters["db_bytes"] = static_cast<double>(db.set_memory_bytes());
}
BENCHMARK(BM_WorstCasePrunedLarge)->Args({0, 1})->Args({1, 1})->Args({1, 0});

// Section 4 end to end: partition a multi-block circuit into per-cone
// subcircuits and run the full build + worst-case analysis on every cone,
// cones sharded across the worker pool.
void BM_PartitionedWorstCase(benchmark::State& state) {
  const Circuit circuit = multi_adder_circuit(4);
  const ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    const auto reports = partitioned_worst_case(
        circuit, PartitionOptions{.max_inputs = 7}, pool);
    benchmark::DoNotOptimize(reports.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_PartitionedWorstCase)->Arg(1)->Arg(0);

// Procedure 1, sharded over its K sets: arguments are {K, worker threads}
// (1 = serial on the calling thread, 0 = all hardware).  Results are
// bit-identical at every width, so the thread column is pure wall-clock; the
// .../1 rows isolate the per-set worklist win over the classic
// n x targets x K sweep.
void BM_Procedure1Def1(benchmark::State& state) {
  const DetectionDb& db = bench_db();
  std::vector<std::size_t> monitored(std::min<std::size_t>(32, db.untargeted().size()));
  std::iota(monitored.begin(), monitored.end(), std::size_t{0});
  Procedure1Config config;
  config.nmax = 10;
  config.num_sets = static_cast<std::size_t>(state.range(0));
  const ThreadPool pool(static_cast<unsigned>(state.range(1)));
  std::uint64_t tests_added = 0;
  for (auto _ : state) {
    const AverageCaseResult result =
        run_procedure1(db, monitored, config, pool);
    tests_added = result.stats.tests_added;
    benchmark::DoNotOptimize(tests_added);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["tests_added"] = static_cast<double>(tests_added);
  state.SetLabel(std::string(simd::level_name(simd::active_level())) + "/bw" +
                 std::to_string(PairKernelEngine::kBatchWidth));
}
BENCHMARK(BM_Procedure1Def1)->Args({100, 1})->Args({100, 8});

void BM_Procedure1Def2(benchmark::State& state) {
  const DetectionDb& db = bench_db();
  std::vector<std::size_t> monitored(std::min<std::size_t>(32, db.untargeted().size()));
  std::iota(monitored.begin(), monitored.end(), std::size_t{0});
  Procedure1Config config;
  config.nmax = 10;
  config.num_sets = static_cast<std::size_t>(state.range(0));
  config.definition = DetectionDefinition::kDissimilar;
  const ThreadPool pool(static_cast<unsigned>(state.range(1)));
  Def2OracleStats cache;
  std::uint64_t queries = 0;
  for (auto _ : state) {
    const AverageCaseResult result =
        run_procedure1(db, monitored, config, pool);
    cache = result.def2_cache;
    queries = result.stats.distinct_queries;
    benchmark::DoNotOptimize(queries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["oracle_queries"] = static_cast<double>(queries);
  state.counters["good_sims"] = static_cast<double>(cache.good_sim_entries);
  state.counters["verdict_hits"] = static_cast<double>(cache.verdict_hits);
  state.counters["verdict_misses"] =
      static_cast<double>(cache.verdict_misses);
  state.SetLabel(std::string(simd::level_name(simd::active_level())) + "/bw" +
                 std::to_string(PairKernelEngine::kBatchWidth));
}
BENCHMARK(BM_Procedure1Def2)->Args({10, 1})->Args({10, 8});

void BM_Def2Oracle(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const LineModel lines(c);
  const auto faults = collapse_stuck_at_faults(lines);
  Def2Oracle oracle(lines, faults);
  const std::uint64_t space = c.vector_space_size();
  std::uint64_t t = 1;
  for (auto _ : state) {
    const std::uint64_t t1 = t % space;
    const std::uint64_t t2 = (t * 2654435761u) % space;
    benchmark::DoNotOptimize(oracle.distinct(t % faults.size(), t1, t2));
    ++t;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Def2Oracle);

void BM_PodemPerFault(benchmark::State& state) {
  const Circuit& c = bench_circuit();
  const LineModel lines(c);
  const Podem podem(lines);
  const auto faults = collapse_stuck_at_faults(lines);
  Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    const PodemResult result = podem.generate(faults[i % faults.size()], rng);
    benchmark::DoNotOptimize(result.cube.has_value());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PodemPerFault);

void BM_NDetectionAtpg(benchmark::State& state) {
  const Circuit c = fsm_benchmark_circuit("bbtas");
  const LineModel lines(c);
  const auto faults = collapse_stuck_at_faults(lines);
  NDetectConfig config;
  config.n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const NDetectResult result = generate_ndetection_set(lines, faults, config);
    benchmark::DoNotOptimize(result.tests.size());
  }
}
BENCHMARK(BM_NDetectionAtpg)->Arg(1)->Arg(5)->Arg(10);

}  // namespace

BENCHMARK_MAIN();
