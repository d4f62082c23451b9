// test_util.hpp -- shared fixtures and helpers for the test suite.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/detection_db.hpp"
#include "faults/stuck_at.hpp"
#include "netlist/lines.hpp"
#include "util/bitset.hpp"
#include "util/detection_set.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ndet::testing {

/// Pins the SIMD dispatch level for one scope and restores the previous
/// one; the level must be available (see simd::level_available).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level) : saved_(simd::active_level()) {
    simd::set_level_for_testing(level);
  }
  ~ScopedSimdLevel() { simd::set_level_for_testing(saved_); }

 private:
  simd::Level saved_;
};

/// The SIMD levels that can run here: portable always, each vector tier
/// when compiled in, supported by the CPU and not overridden away by
/// NDET_SIMD_LEVEL.
inline std::vector<simd::Level> runnable_levels() {
  std::vector<simd::Level> levels = {simd::Level::kPortable};
  for (const simd::Level level : {simd::Level::kAvx2, simd::Level::kAvx512})
    if (simd::level_available(level)) levels.push_back(level);
  return levels;
}

/// An all-hardware-threads pool for tests that do not vary the pool width
/// (a ThreadPool is a view of the process's one executor, so one shared
/// instance is free).
inline const ThreadPool& shared_pool() {
  static const ThreadPool pool;
  return pool;
}

/// 64-bit FNV-1a of a byte string: the digest that pins an output against
/// the value recorded from an earlier build.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Materializes a Bitset as a sorted vector of element ids.
inline std::vector<std::uint64_t> to_vector(const Bitset& set) {
  std::vector<std::uint64_t> out;
  set.for_each_set([&](std::size_t v) { out.push_back(v); });
  return out;
}

/// Materializes a frozen DetectionSet the same way.
inline std::vector<std::uint64_t> to_vector(const DetectionSet& set) {
  std::vector<std::uint64_t> out;
  set.for_each_set([&](std::size_t v) { out.push_back(v); });
  return out;
}

/// Builds a Bitset over `universe` from an element list.
inline Bitset make_set(std::size_t universe,
                       const std::vector<std::uint64_t>& elements) {
  Bitset set(universe);
  for (const auto v : elements) set.set(v);
  return set;
}

/// Builds a frozen DetectionSet over `universe` from an element list.
inline DetectionSet make_detection_set(
    std::size_t universe, const std::vector<std::uint64_t>& elements,
    SetRepresentation policy = SetRepresentation::kAdaptive) {
  return DetectionSet::freeze(make_set(universe, elements), policy);
}

/// Finds the index of a stuck-at fault (by line id and value) in a list;
/// returns -1 when absent.
inline int find_fault(const std::vector<StuckAtFault>& faults, LineId line,
                      bool value) {
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (faults[i].line == line && faults[i].stuck_value == value)
      return static_cast<int>(i);
  return -1;
}

/// The paper's Table 1 / Section 3 oracle for the Figure-1 example circuit:
/// every collapsed fault as (line id, stuck value, detection set).  Line ids
/// are zero-based; the paper's labels are id + 1.
struct PaperFault {
  LineId line;
  bool value;
  std::vector<std::uint64_t> tests;
};

inline const std::vector<PaperFault>& paper_example_faults() {
  static const std::vector<PaperFault> faults = {
      {0, true, {4, 5, 6, 7}},                               // f0  = 1/1
      {1, false, {6, 7, 12, 13, 14, 15}},                    // f1  = 2/0
      {1, true, {2, 3, 8, 9, 10, 11}},                       // f2  = 2/1
      {2, false, {2, 6, 7, 10, 14, 15}},                     // f3  = 3/0
      {2, true, {0, 4, 5, 8, 12, 13}},                       // f4  = 3/1
      {3, false, {1, 5, 9, 13}},                             // f5  = 4/0
      {4, true, {8, 9, 10, 11}},                             // f6  = 5/1
      {5, true, {2, 3, 10, 11}},                             // f7  = 6/1
      {6, true, {4, 5, 12, 13}},                             // f8  = 7/1
      {7, false, {2, 6, 10, 14}},                            // f9  = 8/0
      {8, false, {12, 13, 14, 15}},                          // f10 = 9/0
      {8, true, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},     // f11 = 9/1
      {9, false, {6, 7, 14, 15}},                            // f12 = 10/0
      {9, true, {0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13}},   // f13 = 10/1
      {10, false, {1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15}},  // f14 = 11/0
      {10, true, {0, 4, 8, 12}},                             // f15 = 11/1
  };
  return faults;
}

/// Expected detection sets of the example circuit's detectable bridging
/// faults, in enumeration order (the two ways of the pair {10,11} that no
/// vector detects are filtered out by DetectionDb).
inline const std::vector<std::vector<std::uint64_t>>&
paper_example_bridging_sets() {
  static const std::vector<std::vector<std::uint64_t>> sets = {
      {6, 7},                            // g0  = (9,0,10,1)
      {12, 13},                          // g1  = (9,1,10,0)
      {12, 13},                          // g2  = (10,0,9,1)
      {6, 7},                            // g3  = (10,1,9,0)
      {1, 2, 3, 5, 6, 7, 9, 10, 11},     // g4  = (9,0,11,1)
      {12},                              // g5  = (9,1,11,0)
      {12},                              // g6  = (11,0,9,1)
      {1, 2, 3, 5, 6, 7, 9, 10, 11},     // g7  = (11,1,9,0)
      {1, 2, 3, 5, 9, 10, 11, 13},       // g8  = (10,0,11,1)
      {1, 2, 3, 5, 9, 10, 11, 13},       // g11 = (11,1,10,0)
  };
  return sets;
}

/// Worst-case oracle: nmin of each detectable bridging fault, aligned with
/// paper_example_bridging_sets().
inline const std::vector<std::uint64_t>& paper_example_nmin() {
  static const std::vector<std::uint64_t> nmin = {3, 3, 3, 3, 1,
                                                  4, 4, 1, 1, 1};
  return nmin;
}

}  // namespace ndet::testing
