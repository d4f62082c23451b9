// table1_example.cpp -- reproduces Table 1 of the paper exactly.
//
// "Faults with test vectors that overlap with T(g0) = {6,7}" on the
// Figure-1 example circuit: for every collapsed stuck-at fault fi whose
// tests intersect T(g0), the detection set T(fi) and nmin(g0,fi).
//
// This table is deterministic and matches the paper digit for digit (the
// reconstruction of the example circuit is validated in the test suite).

#include <cstdio>
#include <sstream>

#include "common.hpp"
#include "core/worst_case.hpp"
#include "faults/stuck_at.hpp"
#include "util/table.hpp"

int main() {
  using namespace ndet;
  bench::banner("Table 1: faults overlapping T(g0) = {6,7} (example circuit)",
                "f0:nmin=3  f1:5  f3:5  f9:4  f11:11  f12:3  f14:11; "
                "nmin(g0) = 3",
                "");

  AnalysisSession session = bench::analyze_circuit("paper_example");
  const DetectionDb& db = session.db();

  // g0 = (9,0,10,1) is the first enumerated bridging fault.
  std::printf("g0 = %s, T(g0) = {6,7}\n\n",
              to_string(db.untargeted()[0], db.circuit()).c_str());

  TextTable table({"i", "f_i", "T(f_i)", "nmin(g0,f_i)"});
  table.set_align(2, Align::kLeft);
  std::uint64_t nmin_g0 = kNeverGuaranteed;
  for (const OverlapEntry& entry : overlap_entries(db, 0)) {
    const StuckAtFault& fault = db.targets()[entry.target_index];
    std::ostringstream tests;
    db.target_sets()[entry.target_index].for_each_set(
        [&](std::size_t v) { tests << v << ' '; });
    table.add_row({std::to_string(entry.target_index),
                   to_string(fault, db.lines()), tests.str(),
                   std::to_string(entry.nmin_gf)});
    nmin_g0 = std::min(nmin_g0, entry.nmin_gf);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nnmin(g0) = %llu   (paper: 3)\n",
              static_cast<unsigned long long>(nmin_g0));

  const WorstCaseResult& worst = session.worst_case();
  std::printf("nmin(g6) = %llu   (paper, Section 3: 4)\n",
              static_cast<unsigned long long>(worst.nmin[6]));
  return 0;
}
