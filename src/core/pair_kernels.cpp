#include "core/pair_kernels.hpp"

#include <algorithm>
#include <numeric>

#include "core/worst_case.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/simd.hpp"

namespace ndet {

namespace {

/// Branch-free dense probe; the engine has already checked every operand
/// universe, so packed rows are read without per-probe bounds checks.
inline std::uint32_t probe(const Bitset::word_type* words, std::uint32_t v) {
  return static_cast<std::uint32_t>(
      (words[v / Bitset::kWordBits] >> (v % Bitset::kWordBits)) & 1u);
}

/// |elements & dense| -- one packed-row probe per element (the gather path).
std::uint32_t gather_count(const Bitset::word_type* words,
                           const std::uint32_t* elems, std::uint32_t count) {
  std::uint32_t total = 0;
  for (std::uint32_t i = 0; i < count; ++i) total += probe(words, elems[i]);
  return total;
}

/// Sorted-merge intersection cardinality of two element lists; only ever
/// used for tiny x tiny pairs, where both lists undercut the probe/row
/// break-even.
std::uint32_t merge_count(std::span<const std::uint32_t> a,
                          const std::uint32_t* b_data, std::uint32_t b_size) {
  std::uint32_t total = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b_size) {
    if (a[i] < b_data[j]) {
      ++i;
    } else if (b_data[j] < a[i]) {
      ++j;
    } else {
      ++total;
      ++i;
      ++j;
    }
  }
  return total;
}

}  // namespace

PairKernelEngine::PairKernelEngine(std::span<const DetectionSet> target_sets,
                                   std::size_t universe_size,
                                   Options options) {
  require(options.tile_bytes > 0 && options.max_tile_targets > 0,
          "PairKernelEngine: tile geometry must be positive");
  NDET_INJECT("pair_kernels.pack",
              throw Error(ErrorKind::kResourceExhausted,
                          "injected tile-packing failure (site "
                          "pair_kernels.pack)", "pair_kernels"));
  universe_ = universe_size;
  words_ = (universe_size + Bitset::kWordBits - 1) / Bitset::kWordBits;
  // Probe/row break-even: with vectorized word kernels a row pass costs
  // ~words_/4 effective steps, so densifying pays down to much smaller
  // sets; the portable SWAR loops only beat probing once a set is dense
  // enough that the adaptive freeze would have stored it dense anyway.
  element_threshold_ = options.element_threshold;
  if (element_threshold_ == 0)
    element_threshold_ = simd::active_level() != simd::Level::kPortable
                             ? words_ / 4
                             : words_ * 2;

  // The N(f)-ascending visit order of the pruned sweep, detectable targets
  // only (empty T(f) never overlaps anything).
  std::vector<std::uint32_t> order(target_sets.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return target_sets[a].count() < target_sets[b].count();
                   });
  n_f_.reserve(order.size());
  original_.reserve(order.size());
  std::size_t row_targets = 0;
  std::size_t elem_total = 0;
  for (const std::uint32_t i : order) {
    const DetectionSet& set = target_sets[i];
    require(set.universe_size() == universe_,
            "PairKernelEngine: target universe mismatch");
    if (set.count() == 0) continue;
    n_f_.push_back(static_cast<std::uint32_t>(set.count()));
    original_.push_back(i);
    if (set.count() < element_threshold())
      elem_total += set.count();
    else
      ++row_targets;
  }

  // Pack payloads in sorted order: row-worthy targets densify into one
  // contiguous row array (whatever their frozen representation), tiny
  // targets keep their sorted element lists in a CSR.  Tiles are cut
  // greedily on the byte budget / target cap.
  const std::size_t count = n_f_.size();
  rows_.reserve(row_targets * words_);
  elems_.reserve(elem_total);
  row_offset_.resize(count, kNoRow);
  elem_offset_.resize(count + 1, 0);
  std::size_t tile_begin = 0;
  std::size_t tile_bytes = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const DetectionSet& set = target_sets[original_[k]];
    std::size_t payload = 0;
    if (set.count() < element_threshold()) {
      set.for_each_set([&](std::size_t v) {
        elems_.push_back(static_cast<std::uint32_t>(v));
      });
      payload = set.count() * sizeof(std::uint32_t);
    } else {
      row_offset_[k] = rows_.size();
      if (set.representation() == DetectionSet::Rep::kDense) {
        const Bitset::word_type* words = set.dense_words();
        rows_.insert(rows_.end(), words, words + words_);
      } else {
        rows_.resize(rows_.size() + words_, 0);
        Bitset::word_type* row_words = rows_.data() + row_offset_[k];
        for (const std::uint32_t v : set.sparse_elements())
          row_words[v / Bitset::kWordBits] |= Bitset::word_type{1}
                                             << (v % Bitset::kWordBits);
      }
      payload = words_ * sizeof(Bitset::word_type);
    }
    elem_offset_[k + 1] = elems_.size();
    if (k > tile_begin && (tile_bytes + payload > options.tile_bytes ||
                           k - tile_begin >= options.max_tile_targets)) {
      tiles_.push_back({static_cast<std::uint32_t>(tile_begin),
                        static_cast<std::uint32_t>(k), n_f_[tile_begin]});
      tile_begin = k;
      tile_bytes = 0;
    }
    tile_bytes += payload;
  }
  if (count > 0)
    tiles_.push_back({static_cast<std::uint32_t>(tile_begin),
                      static_cast<std::uint32_t>(count), n_f_[tile_begin]});
}

PairKernelEngine::Operand PairKernelEngine::classify(
    const DetectionSet& g, std::span<Bitset::word_type> staging_row) const {
  require(g.universe_size() == universe_,
          "PairKernelEngine: untargeted universe mismatch");
  Operand op;
  op.size = static_cast<std::uint32_t>(g.count());
  if (g.representation() == DetectionSet::Rep::kDense) {
    op.words = g.dense_words();
    return op;
  }
  const std::span<const std::uint32_t> elems = g.sparse_elements();
  if (op.size > 0 && op.size >= element_threshold()) {
    // Row-sized sparse member: scatter once into the staging row so every
    // packed target row can be served by the word-parallel kernels.
    std::fill(staging_row.begin(), staging_row.end(), Bitset::word_type{0});
    for (const std::uint32_t v : elems)
      staging_row[v / Bitset::kWordBits] |= Bitset::word_type{1}
                                           << (v % Bitset::kWordBits);
    op.words = staging_row.data();
    return op;
  }
  op.elems = elems.data();
  return op;
}

void PairKernelEngine::nmin_batch(std::span<const DetectionSet> batch,
                                  std::span<std::uint64_t> out,
                                  Scratch& s) const {
  const std::size_t width = batch.size();
  require(width >= 1 && width <= kBatchWidth && out.size() == width,
          "PairKernelEngine::nmin_batch: batch shape mismatch");
  const simd::Kernels& kern = simd::active_kernels();
  s.staging.resize(kBatchWidth * words_);

  for (std::size_t b = 0; b < width; ++b) {
    const Operand op = classify(
        batch[b], {s.staging.data() + b * words_, words_});
    s.best[b] = kNeverGuaranteed;
    s.size_g[b] = op.size;
    s.words_g[b] = op.words;
    s.elems_g[b] = op.elems;
  }

  const auto consider = [&](std::uint32_t b, std::uint64_t n_f,
                            std::uint32_t m) {
    if (m == 0) return;
    const std::uint64_t candidate = n_f - m + 1;
    if (candidate < s.best[b]) s.best[b] = candidate;
  };

  for (const Tile& tile : tiles_) {
    // Per-tile prune: a batch member stays live only while the tile's
    // smallest N(f) can still beat its best candidate.  M(g,f) <= |T(g)|,
    // so every candidate in this and later tiles is bounded below by
    // N(f) - |T(g)| + 1 >= min_n_f - |T(g)| + 1.
    std::uint32_t num_rows = 0;
    std::uint32_t num_gather = 0;
    for (std::size_t b = 0; b < width; ++b) {
      const std::uint32_t size_g = s.size_g[b];
      if (size_g == 0) continue;  // empty set: no target ever overlaps
      const std::uint64_t bound =
          tile.min_n_f >= size_g ? tile.min_n_f - size_g + 1 : 1;
      if (bound >= s.best[b]) continue;
      if (s.words_g[b] != nullptr)
        s.active_rows[num_rows++] = static_cast<std::uint32_t>(b);
      else
        s.active_gather[num_gather++] = static_cast<std::uint32_t>(b);
    }
    if (num_rows + num_gather == 0) break;  // bounds only grow from here

    for (std::size_t k = tile.begin; k < tile.end; ++k) {
      const std::uint64_t n_f = n_f_[k];
      if (row_offset_[k] != kNoRow) {
        const Bitset::word_type* target_row = row(k);
        // Register-blocked batch: one pass over the packed row serves four
        // word-view members through the dispatched x4 kernel.
        std::uint32_t a = 0;
        for (; a + 4 <= num_rows; a += 4) {
          const Bitset::word_type* quad[4] = {
              s.words_g[s.active_rows[a]], s.words_g[s.active_rows[a + 1]],
              s.words_g[s.active_rows[a + 2]],
              s.words_g[s.active_rows[a + 3]]};
          std::uint32_t m4[4];
          kern.and_popcount_x4(target_row, quad, words_, m4);
          for (std::uint32_t j = 0; j < 4; ++j)
            consider(s.active_rows[a + j], n_f, m4[j]);
        }
        for (; a < num_rows; ++a) {
          const std::uint32_t b = s.active_rows[a];
          consider(b, n_f,
                   static_cast<std::uint32_t>(kern.and_popcount(
                       target_row, s.words_g[b], words_)));
        }
        for (std::uint32_t gi = 0; gi < num_gather; ++gi) {
          const std::uint32_t b = s.active_gather[gi];
          consider(b, n_f,
                   gather_count(target_row, s.elems_g[b], s.size_g[b]));
        }
      } else {
        const std::span<const std::uint32_t> target_elems = elements(k);
        const auto elem_count =
            static_cast<std::uint32_t>(target_elems.size());
        for (std::uint32_t a = 0; a < num_rows; ++a) {
          const std::uint32_t b = s.active_rows[a];
          consider(b, n_f,
                   gather_count(s.words_g[b], target_elems.data(),
                                elem_count));
        }
        for (std::uint32_t gi = 0; gi < num_gather; ++gi) {
          const std::uint32_t b = s.active_gather[gi];
          consider(b, n_f,
                   merge_count(target_elems, s.elems_g[b], s.size_g[b]));
        }
      }
    }
  }

  for (std::size_t b = 0; b < width; ++b) out[b] = s.best[b];
}

void PairKernelEngine::saturation_counts(
    std::size_t k, const Bitset::word_type* const* members, std::size_t width,
    std::uint32_t* out) const {
  require(width >= 1 && width <= kBatchWidth,
          "PairKernelEngine::saturation_counts: width out of range");
  if (row_offset_[k] != kNoRow) {
    const Bitset::word_type* target_row = row(k);
    const simd::Kernels& kern = simd::active_kernels();
    std::size_t j = 0;
    for (; j + 4 <= width; j += 4)
      kern.and_popcount_x4(target_row, members + j, words_, out + j);
    for (; j < width; ++j)
      out[j] = static_cast<std::uint32_t>(
          simd::and_popcount(target_row, members[j], words_));
    return;
  }
  const std::span<const std::uint32_t> target_elems = elements(k);
  const auto elem_count = static_cast<std::uint32_t>(target_elems.size());
  for (std::size_t j = 0; j < width; ++j)
    out[j] = gather_count(members[j], target_elems.data(), elem_count);
}

}  // namespace ndet
