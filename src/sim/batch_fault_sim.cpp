#include "sim/batch_fault_sim.hpp"

#include <algorithm>

#include "logic/eval.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

BatchFaultSimulator::BatchFaultSimulator(const ExhaustiveSimulator& good,
                                         const LineModel& lines,
                                         const ThreadPool& pool)
    : good_(&good),
      lines_(&lines),
      pool_(&pool),
      cones_(good.circuit()) {
  require(&good.circuit() == &lines.circuit(),
          "BatchFaultSimulator: simulator and line model refer to different "
          "circuits");
  const Circuit& circuit = good.circuit();
  for (GateId g = 0; g < circuit.gate_count(); ++g)
    max_fanin_ = std::max(max_fanin_, circuit.gate(g).fanins.size());
}

std::span<const GateId> BatchFaultSimulator::cone_gates(GateId root) const {
  return cones_.cone_gates(root);
}

std::span<const GateId> BatchFaultSimulator::cone_outputs(GateId root) const {
  return cones_.cone_outputs(root);
}

BatchFaultSimulator::Scratch BatchFaultSimulator::make_scratch() const {
  Scratch scratch;
  const std::size_t gate_count = good_->circuit().gate_count();
  scratch.faulty.assign(gate_count, 0);
  scratch.fanins.assign(std::max<std::size_t>(max_fanin_, 1), 0);
  scratch.in_cone.assign(gate_count, 0);
  scratch.changed.assign(gate_count, 0);
  return scratch;
}

BatchFaultSimulator::Injection BatchFaultSimulator::injection_for(
    const StuckAtFault& fault) const {
  const Line& line = lines_->line(fault.line);
  Injection inj;
  inj.constant = fault.stuck_value ? ~std::uint64_t{0} : 0;
  if (line.kind == LineKind::kStem) {
    inj.kind = InjectionKind::kStemStuck;
    inj.root = line.driver;
  } else {
    inj.kind = InjectionKind::kBranchStuck;
    inj.root = line.sink;
    inj.branch_slot = line.sink_slot;
  }
  return inj;
}

BatchFaultSimulator::Injection BatchFaultSimulator::injection_for(
    const BridgingFault& fault) const {
  Injection inj;
  inj.kind = InjectionKind::kBridge;
  inj.root = fault.victim;
  inj.aggressor = fault.aggressor;
  inj.wired_or = fault.aggressor_value;
  return inj;
}

void BatchFaultSimulator::simulate_into(const Injection& inj, Scratch& scratch,
                                        Bitset& out) const {
  const Circuit& circuit = good_->circuit();
  const std::span<const GateId> cone = cone_gates(inj.root);
  const std::span<const GateId> outputs = cone_outputs(inj.root);
  out.clear();
  if (outputs.empty()) return;  // fault effect unobservable

  const std::uint32_t epoch = ++scratch.epoch;
  if (epoch == 0) {
    // Epoch counter wrapped: invalidate stale stamps once per 2^32 faults.
    std::fill(scratch.in_cone.begin(), scratch.in_cone.end(), 0u);
    scratch.epoch = 1;
  }
  const std::uint32_t mark = scratch.epoch;
  for (const GateId g : cone) scratch.in_cone[g] = mark;

  std::uint64_t* const faulty = scratch.faulty.data();
  std::uint64_t* const fanin_words = scratch.fanins.data();
  std::uint8_t* const changed = scratch.changed.data();
  const GateId root = inj.root;  // cone.front(): everything else is fanout

  for (std::size_t w = 0; w < good_->word_count(); ++w) {
    // Inject at the root.  A word where the injected value matches the
    // fault-free value is inert: nothing downstream can change, so the
    // whole cone is skipped (out was cleared up front).
    std::uint64_t root_value;
    if (inj.kind == InjectionKind::kStemStuck) {
      root_value = inj.constant;
    } else if (inj.kind == InjectionKind::kBridge) {
      const std::uint64_t v = good_->good_word(root, w);
      const std::uint64_t a = good_->good_word(inj.aggressor, w);
      // The victim takes the aggressor's value exactly when the aggressor
      // carries a2: a2 = 1 -> wired OR, a2 = 0 -> wired AND.
      root_value = inj.wired_or ? (v | a) : (v & a);
    } else {
      // Branch stuck-at: re-evaluate the sink with one fanin overridden.
      const Gate& gate = circuit.gate(root);
      const std::size_t fanin_count = gate.fanins.size();
      for (std::size_t s = 0; s < fanin_count; ++s) {
        fanin_words[s] = static_cast<int>(s) == inj.branch_slot
                             ? inj.constant
                             : good_->good_word(gate.fanins[s], w);
      }
      root_value = eval_gate_words(gate.type, {fanin_words, fanin_count});
    }
    if (root_value == good_->good_word(root, w)) continue;
    faulty[root] = root_value;
    changed[root] = 1;

    // Event-driven sweep over the rest of the cone: a gate whose fanins all
    // kept their fault-free values would reproduce its fault-free output,
    // so only gates downstream of an actual change are re-evaluated.
    for (const GateId g : cone.subspan(1)) {
      const Gate& gate = circuit.gate(g);
      const std::size_t fanin_count = gate.fanins.size();
      bool active = false;
      for (std::size_t s = 0; s < fanin_count; ++s) {
        const GateId fi = gate.fanins[s];
        if (scratch.in_cone[fi] == mark && changed[fi]) {
          active = true;
          break;
        }
      }
      if (!active) {
        changed[g] = 0;
        continue;
      }
      for (std::size_t s = 0; s < fanin_count; ++s) {
        const GateId fi = gate.fanins[s];
        fanin_words[s] = scratch.in_cone[fi] == mark && changed[fi]
                             ? faulty[fi]
                             : good_->good_word(fi, w);
      }
      const std::uint64_t value = eval_gate_words(gate.type,
                                                  {fanin_words, fanin_count});
      faulty[g] = value;
      changed[g] = value != good_->good_word(g, w) ? 1 : 0;
    }
    std::uint64_t diff = 0;
    for (const GateId po : outputs)
      if (changed[po]) diff |= good_->good_word(po, w) ^ faulty[po];
    if (w + 1 == good_->word_count()) diff &= good_->last_word_mask();
    out.words()[w] = diff;
  }
}

template <typename Fault>
std::vector<Bitset> BatchFaultSimulator::run_batch(
    std::span<const Fault> faults, const CancelToken* cancel) const {
  std::vector<Bitset> sets(faults.size());
  if (faults.empty()) return sets;

  const ThreadPool& pool = *pool_;
  // One scratch arena per worker, reused across all its faults -- zero
  // allocations in steady state.
  std::vector<Scratch> scratch(pool.workers_for(faults.size()));
  for (Scratch& s : scratch) s = make_scratch();
  pool.for_each_index(
      faults.size(),
      [&](std::size_t i, unsigned worker) {
        Bitset set(good_->vector_count());
        simulate_into(injection_for(faults[i]), scratch[worker], set);
        sets[i] = std::move(set);
      },
      cancel);
  // Workers drained without throwing; surface the cancellation here, where
  // the stage is known.
  check_cancel(cancel, "fault_sim");
  return sets;
}

std::vector<Bitset> BatchFaultSimulator::detection_sets(
    std::span<const StuckAtFault> faults, const CancelToken* cancel) const {
  return run_batch(faults, cancel);
}

std::vector<Bitset> BatchFaultSimulator::detection_sets(
    std::span<const BridgingFault> faults, const CancelToken* cancel) const {
  return run_batch(faults, cancel);
}

Bitset BatchFaultSimulator::detection_set(const StuckAtFault& fault) const {
  Scratch scratch = make_scratch();
  Bitset set(good_->vector_count());
  simulate_into(injection_for(fault), scratch, set);
  return set;
}

Bitset BatchFaultSimulator::detection_set(const BridgingFault& fault) const {
  Scratch scratch = make_scratch();
  Bitset set(good_->vector_count());
  simulate_into(injection_for(fault), scratch, set);
  return set;
}

}  // namespace ndet
