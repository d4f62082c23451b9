#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>

#include "util/check.hpp"

namespace ndet {

namespace {

struct RawGate {
  GateType type;
  std::vector<std::string> fanins;
  int line_number;
};

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw contract_error(".bench parse error at line " + std::to_string(line) +
                       ": " + message);
}

/// Splits "a, b ,c" into trimmed tokens; empty tokens are an error.
std::vector<std::string> split_args(const std::string& args, int line) {
  std::vector<std::string> out;
  std::stringstream ss(args);
  std::string token;
  while (std::getline(ss, token, ',')) {
    token = trim(token);
    if (token.empty()) fail(line, "empty operand in argument list");
    out.push_back(token);
  }
  return out;
}

}  // namespace

Circuit parse_bench(const std::string& text, const std::string& name) {
  std::vector<std::string> input_order;
  std::vector<std::string> output_order;
  std::map<std::string, RawGate> defs;

  std::istringstream stream(text);
  std::string raw_line;
  int line_number = 0;
  while (std::getline(stream, raw_line)) {
    ++line_number;
    const auto hash = raw_line.find('#');
    if (hash != std::string::npos) raw_line.erase(hash);
    const std::string line = trim(raw_line);
    if (line.empty()) continue;

    const auto open = line.find('(');
    const auto close = line.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open)
      fail(line_number, "expected 'INPUT(..)', 'OUTPUT(..)' or 'name = GATE(..)'");
    const std::string trailing = trim(line.substr(close + 1));
    if (!trailing.empty())
      fail(line_number, "unexpected text '" + trailing + "' after ')'");
    const std::string head = trim(line.substr(0, open));
    const std::string args = line.substr(open + 1, close - open - 1);

    const auto eq = head.find('=');
    if (eq == std::string::npos) {
      const std::string keyword = upper(trim(head));
      const std::string signal = trim(args);
      if (signal.empty()) fail(line_number, "empty signal name");
      if (keyword == "INPUT") {
        if (std::find(input_order.begin(), input_order.end(), signal) !=
            input_order.end())
          fail(line_number, "INPUT '" + signal + "' declared twice");
        input_order.push_back(signal);
      } else if (keyword == "OUTPUT") {
        if (std::find(output_order.begin(), output_order.end(), signal) !=
            output_order.end())
          fail(line_number, "OUTPUT '" + signal + "' declared twice");
        output_order.push_back(signal);
      } else {
        fail(line_number, "unknown directive '" + head + "'");
      }
      continue;
    }

    const std::string target = trim(head.substr(0, eq));
    const std::string op = upper(trim(head.substr(eq + 1)));
    if (target.empty()) fail(line_number, "missing signal name before '='");
    if (op == "DFF" || op == "DFFSR" || op == "LATCH")
      fail(line_number,
           "sequential element '" + op +
               "' is not supported; extract the combinational logic first");
    GateType type;
    try {
      type = parse_gate_type(op);
    } catch (const contract_error&) {
      fail(line_number, "unknown gate type '" + op + "'");
    }
    if (type == GateType::kInput)
      fail(line_number, "INPUT cannot appear on the right-hand side");
    RawGate raw{type, split_args(args, line_number), line_number};
    const auto n = static_cast<int>(raw.fanins.size());
    if (n < min_fanin(type) || n > max_fanin(type))
      fail(line_number, "gate '" + target + "' of type " + to_string(type) +
                            " cannot have " + std::to_string(n) + " operands");
    if (!defs.emplace(target, std::move(raw)).second)
      fail(line_number, "signal '" + target + "' defined twice");
  }

  require(!input_order.empty(), ".bench: no INPUT declarations in " + name);
  require(!output_order.empty(), ".bench: no OUTPUT declarations in " + name);

  // Topological sort over definitions (forward references are legal).
  CircuitBuilder builder(name);
  std::map<std::string, GateId> ids;
  for (const auto& in : input_order) {
    require(!defs.contains(in),
            ".bench: signal '" + in + "' is both INPUT and gate output");
    require(!ids.contains(in), ".bench: INPUT '" + in + "' declared twice");
    ids.emplace(in, builder.add_input(in));
  }

  // Iterative DFS so deep chains do not overflow the call stack.
  enum class Mark : std::uint8_t { kWhite, kGray, kBlack };
  std::map<std::string, Mark> marks;
  const auto visit = [&](const std::string& signal) {
    std::vector<std::pair<std::string, std::size_t>> stack{{signal, 0}};
    while (!stack.empty()) {
      const std::string current = stack.back().first;
      const std::size_t next_child = stack.back().second;
      if (ids.contains(current)) {
        stack.pop_back();
        continue;
      }
      const auto def = defs.find(current);
      if (def == defs.end())
        throw contract_error(".bench: signal '" + current + "' in " + name +
                             " is used but never defined");
      if (next_child == 0) {
        if (marks[current] == Mark::kGray)
          throw contract_error(".bench: combinational cycle through '" +
                               current + "' in " + name);
        marks[current] = Mark::kGray;
      }
      if (next_child < def->second.fanins.size()) {
        stack.back().second = next_child + 1;
        const std::string& child = def->second.fanins[next_child];
        if (!ids.contains(child)) stack.emplace_back(child, 0);
        continue;
      }
      std::vector<GateId> fanin_ids;
      fanin_ids.reserve(def->second.fanins.size());
      for (const auto& fi : def->second.fanins) fanin_ids.push_back(ids.at(fi));
      ids.emplace(current, builder.add_gate(def->second.type, current, fanin_ids));
      marks[current] = Mark::kBlack;
      stack.pop_back();
    }
  };

  for (const auto& [signal, def] : defs) { (void)def; visit(signal); }
  for (const auto& out : output_order) {
    const auto it = ids.find(out);
    if (it == ids.end())
      throw contract_error(".bench: OUTPUT '" + out + "' in " + name +
                           " is never defined");
    builder.mark_output(it->second);
  }
  return builder.build();
}

Circuit read_bench_file(const std::string& path) {
  std::ifstream file(path);
  require(file.good(), "cannot open .bench file '" + path + "'");
  std::ostringstream content;
  content << file.rdbuf();
  auto slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  if (base.size() > 6 && base.substr(base.size() - 6) == ".bench")
    base.resize(base.size() - 6);
  return parse_bench(content.str(), base);
}

std::string write_bench(const Circuit& circuit) {
  std::ostringstream os;
  os << "# " << circuit.name() << " -- generated by ndet\n";
  for (const GateId g : circuit.inputs())
    os << "INPUT(" << circuit.gate(g).name << ")\n";
  for (const GateId g : circuit.outputs())
    os << "OUTPUT(" << circuit.gate(g).name << ")\n";
  for (GateId g = 0; g < circuit.gate_count(); ++g) {
    const Gate& gate = circuit.gate(g);
    if (gate.type == GateType::kInput) continue;
    os << gate.name << " = " << upper(to_string(gate.type)) << "(";
    if (gate.type == GateType::kConst0 || gate.type == GateType::kConst1) {
      os << ")\n";  // constants keep an empty operand list
      continue;
    }
    for (std::size_t i = 0; i < gate.fanins.size(); ++i) {
      if (i) os << ", ";
      os << circuit.gate(gate.fanins[i]).name;
    }
    os << ")\n";
  }
  return os.str();
}

}  // namespace ndet
