#include "fsm/synth.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace ndet {

namespace {

/// Reduces `nodes` to a single gate through a balanced tree of `type` gates
/// with at most `max_fanin` inputs (0 = unlimited).  Intermediate gates are
/// named <prefix>_t<counter>; the root keeps whatever name the caller gives
/// it, so the root is built by the caller from the returned operand list.
std::vector<GateId> reduce_to_root_operands(CircuitBuilder& builder,
                                            GateType type,
                                            std::vector<GateId> nodes,
                                            const std::string& prefix,
                                            int max_fanin,
                                            std::size_t& counter) {
  if (max_fanin < 2) return nodes;  // unlimited
  const auto fanin = static_cast<std::size_t>(max_fanin);
  while (nodes.size() > fanin) {
    std::vector<GateId> next;
    for (std::size_t begin = 0; begin < nodes.size(); begin += fanin) {
      const std::size_t end = std::min(begin + fanin, nodes.size());
      if (end - begin == 1) {
        next.push_back(nodes[begin]);
        continue;
      }
      next.push_back(builder.add_gate(
          type, prefix + "_t" + std::to_string(counter++),
          std::vector<GateId>(nodes.begin() + static_cast<std::ptrdiff_t>(begin),
                              nodes.begin() + static_cast<std::ptrdiff_t>(end))));
    }
    nodes = std::move(next);
  }
  return nodes;
}

}  // namespace

Circuit synthesize_fsm(const Kiss2Fsm& fsm, const SynthOptions& options) {
  const std::size_t num_inputs = static_cast<std::size_t>(fsm.num_inputs);
  const std::size_t num_outputs = static_cast<std::size_t>(fsm.num_outputs);
  const std::size_t num_states = fsm.states.size();
  const std::size_t width = encoding_width(num_states, options.encoding);
  const auto codes = encode_states(num_states, options.encoding);

  CircuitBuilder builder(fsm.name);

  std::vector<GateId> x(num_inputs), s(width);
  for (std::size_t i = 0; i < num_inputs; ++i)
    x[i] = builder.add_input("x" + std::to_string(i));
  for (std::size_t b = 0; b < width; ++b)
    s[b] = builder.add_input("s" + std::to_string(b));

  // Shared, lazily created inverters for negative literals.
  std::vector<GateId> not_x(num_inputs, kInvalidGate);
  std::vector<GateId> not_s(width, kInvalidGate);
  const auto inverted = [&](std::vector<GateId>& cache, std::size_t idx,
                            GateId base, const std::string& prefix) {
    if (cache[idx] == kInvalidGate)
      cache[idx] = builder.add_gate(GateType::kNot,
                                    prefix + std::to_string(idx) + "_n", {base});
    return cache[idx];
  };

  // Builds (or reuses) the product term of one STT row.
  std::map<std::string, GateId> term_cache;
  std::size_t term_counter = 0;
  const auto product_of = [&](const Kiss2Term& term) {
    const std::size_t state = fsm.state_index(term.current);
    const std::string key = term.input + "@" + std::to_string(state);
    const auto it = term_cache.find(key);
    if (it != term_cache.end()) return it->second;
    std::vector<GateId> literals;
    for (std::size_t i = 0; i < num_inputs; ++i) {
      const char c = term.input[i];
      if (c == '-') continue;
      literals.push_back(c == '1' ? x[i] : inverted(not_x, i, x[i], "x"));
    }
    if (options.encoding == StateEncoding::kOneHot) {
      // One-hot simplification: the asserted bit identifies the state.
      literals.push_back(s[state]);
    } else {
      for (std::size_t b = 0; b < width; ++b)
        literals.push_back(codes[state][b] ? s[b]
                                           : inverted(not_s, b, s[b], "s"));
    }
    GateId gate;
    if (literals.size() == 1) {
      gate = literals[0];  // single literal: no AND gate needed
    } else {
      const std::string name = "p" + std::to_string(term_counter++);
      std::size_t tree_counter = 0;
      literals = reduce_to_root_operands(builder, GateType::kAnd, literals,
                                         name, options.max_fanin, tree_counter);
      gate = literals.size() == 1
                 ? builder.add_gate(GateType::kBuf, name, literals)
                 : builder.add_gate(GateType::kAnd, name, literals);
    }
    term_cache.emplace(key, gate);
    return gate;
  };

  // Collect the product terms driving every output / next-state bit.
  std::vector<std::vector<GateId>> output_terms(num_outputs);
  std::vector<std::vector<GateId>> next_terms(width);
  for (const Kiss2Term& term : fsm.terms) {
    const GateId product = product_of(term);
    for (std::size_t o = 0; o < num_outputs; ++o)
      if (term.output[o] == '1') output_terms[o].push_back(product);
    const std::size_t next = fsm.state_index(term.next);
    for (std::size_t b = 0; b < width; ++b)
      if (codes[next][b]) next_terms[b].push_back(product);
  }

  const auto emit_or = [&](const std::string& name,
                           std::vector<GateId> terms) {
    // Duplicate products (shared cubes listed twice for one output) would
    // make a degenerate OR; deduplicate first.
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    GateId gate;
    if (terms.empty()) {
      gate = builder.add_const(false, name);
    } else if (terms.size() == 1) {
      gate = builder.add_gate(GateType::kBuf, name, {terms[0]});
    } else {
      std::size_t tree_counter = 0;
      terms = reduce_to_root_operands(builder, GateType::kOr, terms, name,
                                      options.max_fanin, tree_counter);
      gate = terms.size() == 1
                 ? builder.add_gate(GateType::kBuf, name, terms)
                 : builder.add_gate(GateType::kOr, name, terms);
    }
    builder.mark_output(gate);
  };

  for (std::size_t o = 0; o < num_outputs; ++o)
    emit_or("o" + std::to_string(o), output_terms[o]);
  for (std::size_t b = 0; b < width; ++b)
    emit_or("ns" + std::to_string(b), next_terms[b]);

  return builder.build();
}

}  // namespace ndet
