// pair_kernels.hpp -- the tiled, batched M(g,f) kernel engine.
//
// Every quantity the analyses report reduces to the pairwise kernel
// M(g,f) = |T(g) n T(f)| over the frozen detection sets, and the pre-engine
// hot loops computed it one pair at a time through DetectionSet: a
// representation branch per pair and a full pass over T(f)'s payload per
// visit, re-streaming the same target data for every untargeted fault.
// Profiling the pruned worst-case sweep shows the visited N(f)-ascending
// prefix is dominated by *sparse x sparse* merges and element probes whose
// cost is |T(f)| + |T(g)| per pair -- hundreds of data-dependent steps --
// even when a word-parallel AND-popcount over the same universe would take
// a handful of vector iterations.  PairKernelEngine restructures the
// workload the classic incidence-matrix way -- blocking plus
// word-parallelism:
//
//   * At construction the detectable targets are sorted by ascending N(f)
//     (the order that makes the worst-case prune sound) and packed into
//     cache-resident tiles.  Row-worthy targets -- |T(f)| above the
//     probe/row break-even -- are DENSIFIED into one contiguous row array
//     regardless of their frozen representation (replacing sorted merges
//     with word-parallel passes, and pointer-chasing across heap-scattered
//     payloads with streaming); genuinely tiny targets keep sorted element
//     lists in a CSR layout, because a handful of probes beats any row
//     pass.
//
//   * A sweep serves a register-blocked batch of up to kBatchWidth
//     untargeted sets per memory pass.  Untargeted sets above the same
//     break-even are viewed as words -- dense sets directly, sparse ones
//     scattered once into a per-batch staging row -- and each packed
//     target row is streamed once and ANDed against four of them at a time
//     through the runtime-dispatched simd::Kernels (AVX2 when available).
//     Tiny untargeted sets take a gather path, probing the packed rows at
//     their element positions; tiny x tiny pairs keep the sorted merge,
//     which is cheap by construction.
//
//   * The N(f) prune survives tiling at tile granularity: a batch member
//     leaves the sweep as soon as the next tile's smallest N(f) bounds
//     every remaining candidate at or above its best, and the whole batch
//     stops when no member is live.  Processing a superset of the
//     per-target pruned prefix cannot change a minimum, so results stay
//     bit-identical to the scalar pair-at-a-time sweep (and to the
//     unpruned reference) at every thread count, representation policy and
//     dispatch level.  See DESIGN.md "Tiled pairwise kernels".
//
// The engine is immutable after construction and safely shared read-only
// across worker threads; each worker owns a Scratch.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/bitset.hpp"
#include "util/detection_set.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

/// Batched pairwise-kernel engine over one frozen target family.
class PairKernelEngine {
 public:
  /// Untargeted sets served per memory pass over a tile.
  static constexpr std::size_t kBatchWidth = 8;

  /// Tile geometry knobs (defaults sized for a ~256 KiB L2 slice).
  struct Options {
    /// Payload budget of one tile: targets are grouped until their packed
    /// payloads would exceed this.
    std::size_t tile_bytes = 256 * 1024;
    /// Hard cap on targets per tile; bounds how far past a member's exact
    /// per-target prune point a tile sweep can run (measured best at the
    /// batch width: the prune matters more than amortizing tile streams).
    std::uint32_t max_tile_targets = 8;
    /// Probe/row break-even in ELEMENTS: sets with fewer elements stay
    /// element-form (probes/merges), everything else is densified into
    /// rows.  0 = auto from the active SIMD dispatch level -- aggressive
    /// densification (universe_words / 4) when the word kernels are
    /// vectorized, the adaptive freeze break-even (universe_words * 2,
    /// i.e. respect the frozen representation) on the portable level,
    /// where a SWAR popcount pass costs about as much as probing.  The
    /// choice affects which exact kernel computes each M(g,f), never its
    /// value.
    std::size_t element_threshold = 0;
  };

  /// Packs `target_sets` (all over `universe_size`) into tiles.  Targets
  /// with empty T(f) are dropped -- they are inert in every analysis.
  PairKernelEngine(std::span<const DetectionSet> target_sets,
                   std::size_t universe_size)
      : PairKernelEngine(target_sets, universe_size, Options()) {}
  PairKernelEngine(std::span<const DetectionSet> target_sets,
                   std::size_t universe_size, Options options);

  /// Targets that survived the detectability filter, in N(f) order.
  std::size_t detectable_targets() const { return n_f_.size(); }

  /// Number of packed tiles.
  std::size_t tile_count() const { return tiles_.size(); }

  /// N(f) of sorted target k (ascending in k).
  std::uint32_t n_f(std::size_t k) const { return n_f_[k]; }

  /// Original family index of sorted target k.
  std::uint32_t original_index(std::size_t k) const { return original_[k]; }

  /// Tile t's [begin, end) range of sorted target indices.  Iterating tiles
  /// in order and k within each tile walks the full N(f)-ascending order, so
  /// external sweeps (Procedure 1's batched saturation sweep) can skip at
  /// tile granularity while visiting targets in a deterministic order.
  std::pair<std::uint32_t, std::uint32_t> tile_range(std::size_t t) const {
    return {tiles_[t].begin, tiles_[t].end};
  }

  /// Batched saturation counts against DENSE word operands: out[j] =
  /// |T(sorted target k) n members[j]| for j in [0, width), each members[j]
  /// a full universe row (Bitset::words()).  Row-packed targets stream once
  /// through the register-blocked x4 kernels (four members per pass); tiny
  /// CSR targets probe each member at their element positions.  Exact under
  /// every dispatch level.  width must be in [1, kBatchWidth].
  void saturation_counts(std::size_t k, const Bitset::word_type* const* members,
                         std::size_t width, std::uint32_t* out) const;

  /// Per-worker state for nmin_batch; buffers are reused across calls.
  /// Aligned so that workers' scratch in one array share no cache line.
  struct alignas(kCacheLineBytes) Scratch {
    std::uint64_t best[kBatchWidth] = {};
    std::uint32_t size_g[kBatchWidth] = {};
    const Bitset::word_type* words_g[kBatchWidth] = {};
    const std::uint32_t* elems_g[kBatchWidth] = {};
    std::uint32_t active_rows[kBatchWidth] = {};
    std::uint32_t active_gather[kBatchWidth] = {};
    /// Staging rows sparse members are scattered into (kBatchWidth rows).
    std::vector<Bitset::word_type> staging;
  };

  /// The worst-case kernel: out[i] = nmin(batch[i]) = min over overlapping
  /// targets f of N(f) - M(g,f) + 1, kNeverGuaranteed when no target
  /// overlaps.  batch.size() must be in [1, kBatchWidth] and match
  /// out.size(); every set must live over the engine's universe.
  void nmin_batch(std::span<const DetectionSet> batch,
                  std::span<std::uint64_t> out, Scratch& scratch) const;

 private:
  /// One tile: a contiguous range [begin, end) of the N(f)-sorted order.
  struct Tile {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t min_n_f = 0;  ///< N(f) of the first (smallest) member
  };

  /// One untargeted operand, already classified for the sweep: a word view
  /// (dense payload or staging row) when row-sized, an element view when
  /// tiny.  Exactly one pointer is set.
  struct Operand {
    const Bitset::word_type* words = nullptr;
    const std::uint32_t* elems = nullptr;
    std::uint32_t size = 0;
  };

  static constexpr std::size_t kNoRow = ~std::size_t{0};

  /// Probe/row break-even: a set with fewer elements than this is cheaper
  /// to visit by probing than by any word pass over the universe.
  std::size_t element_threshold() const { return element_threshold_; }

  /// Word pointer of sorted target k's packed dense row (kNoRow otherwise).
  const Bitset::word_type* row(std::size_t k) const {
    return rows_.data() + row_offset_[k];
  }
  /// Element list of sorted target k (empty for densified targets).
  std::span<const std::uint32_t> elements(std::size_t k) const {
    return {elems_.data() + elem_offset_[k],
            elem_offset_[k + 1] - elem_offset_[k]};
  }

  Operand classify(const DetectionSet& g,
                   std::span<Bitset::word_type> staging_row) const;

  std::size_t universe_ = 0;
  std::size_t words_ = 0;                ///< universe words per dense row
  std::size_t element_threshold_ = 0;    ///< probe/row break-even in elements
  std::vector<std::uint32_t> n_f_;       ///< N(f), ascending
  std::vector<std::uint32_t> original_;  ///< sorted k -> original index
  std::vector<std::size_t> row_offset_;  ///< into rows_, kNoRow if tiny
  std::vector<Bitset::word_type> rows_;  ///< packed dense rows, tile order
  std::vector<std::size_t> elem_offset_;  ///< CSR offsets (n + 1 entries)
  std::vector<std::uint32_t> elems_;      ///< CSR element data
  std::vector<Tile> tiles_;
};

}  // namespace ndet
