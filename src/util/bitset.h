#ifndef PAYGO_UTIL_BITSET_H_
#define PAYGO_UTIL_BITSET_H_

/// \file bitset.h
/// \brief Fixed-size-at-construction dynamic bitset with fast set operations.
///
/// Binary schema feature vectors (Section 4.1 of the thesis) are stored as
/// DynamicBitsets so that the Jaccard coefficient over high-dimensional
/// binary vectors reduces to word-wise AND/OR popcounts.
///
/// The AND/OR popcount kernels come in flavors (see bitset.cc): a portable
/// word-at-a-time scalar loop (the differential-test oracle), a portable
/// unrolled loop, the same loop compiled for the x86 `popcnt` instruction,
/// and NEON on ARM builds. The flavor is chosen once per process, at run
/// time, from what the CPU supports, so a default build runs the hardware
/// popcount without any `-march` flag. Every flavor counts the same exact
/// integers, so AndCount/OrCount/Jaccard/JaccardRow are bit-identical
/// across flavors, a property tests/bitset_kernel_test.cc checks for every
/// flavor this CPU runs. KernelName() reports the chosen flavor.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace paygo {

class DynamicBitset;

/// \brief One compiled flavor of the popcount word kernels.
///
/// Both kernels take raw word arrays whose tail word is already trimmed
/// (the DynamicBitset invariant), so no flavor masks anything.
struct BitsetKernel {
  /// "unrolled", "popcnt" or "neon".
  const char* name;
  /// |a AND b| and |a OR b| over \p n words, in one pass.
  void (*and_or_count)(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n, std::size_t* and_count,
                       std::size_t* or_count);
  /// out[j] = float(Jaccard(rows[j], b)) for j < m, given
  /// counts[j] == rows[j].Count(): |rows[j] OR b| is counts[j] + |b| -
  /// |rows[j] AND b|, so each pair costs one AND popcount.
  void (*jaccard_row)(const DynamicBitset* rows, const std::uint32_t* counts,
                      std::size_t m, const DynamicBitset& b, float* out);
};

/// \brief A bit vector whose size is fixed at construction.
///
/// Supports the operations the clustering pipeline needs: bit get/set,
/// popcount, AND/OR popcounts of two vectors (for Jaccard), and in-place
/// AND/OR merges (for Total-Jaccard cluster summaries).
class DynamicBitset {
 public:
  /// Creates an all-zero bitset with \p num_bits bits.
  explicit DynamicBitset(std::size_t num_bits = 0)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  /// Number of bits (the dimensionality of the vector).
  std::size_t size() const { return num_bits_; }

  /// Heap bytes of the word array.
  std::size_t HeapBytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

  /// True iff bit \p i is set. \p i must be < size().
  bool Test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Sets bit \p i to \p value. \p i must be < size().
  void Set(std::size_t i, bool value = true) {
    if (value) {
      words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
    } else {
      words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }
  }

  /// Sets all bits to zero without changing the size.
  void Reset() {
    for (auto& w : words_) w = 0;
  }

  /// Sets all bits to one.
  void SetAll() {
    for (auto& w : words_) w = ~std::uint64_t{0};
    TrimTail();
  }

  /// Number of set bits.
  std::size_t Count() const {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }

  /// True iff no bit is set.
  bool None() const {
    for (auto w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Number of positions set in both `a` and `b`. Sizes must match.
  static std::size_t AndCount(const DynamicBitset& a, const DynamicBitset& b);
  /// Number of positions set in either `a` or `b`. Sizes must match.
  static std::size_t OrCount(const DynamicBitset& a, const DynamicBitset& b);

  /// Jaccard coefficient |a AND b| / |a OR b|; returns 0 when both are
  /// empty. Computes both popcounts in one fused pass over the words.
  static double Jaccard(const DynamicBitset& a, const DynamicBitset& b);

  /// out[j] = float(Jaccard(rows[j], b)) for every j, bit for bit: one
  /// kernel call for a whole row of pairs. \p counts holds rows[j].Count()
  /// (same size as \p rows); every size must match b's.
  static void JaccardRow(std::span<const DynamicBitset> rows,
                         std::span<const std::uint32_t> counts,
                         const DynamicBitset& b, float* out);

  /// Portable straight-loop reference kernels: the oracle the
  /// differential kernel tests compare every flavor against.
  static std::size_t AndCountScalar(const DynamicBitset& a,
                                    const DynamicBitset& b);
  static std::size_t OrCountScalar(const DynamicBitset& a,
                                   const DynamicBitset& b);
  static double JaccardScalar(const DynamicBitset& a, const DynamicBitset& b);

  /// The kernel flavors this CPU runs, portable first; the last one is
  /// the one AndCount/OrCount/Jaccard/JaccardRow dispatch to.
  static std::span<const BitsetKernel> Kernels();

  /// The flavor chosen at run time: "popcnt", "neon", or "unrolled".
  static const char* KernelName();

  /// The word array, size() bits rounded up to whole words; bits past
  /// size() are zero.
  const std::uint64_t* words() const { return words_.data(); }
  std::size_t num_words() const { return words_.size(); }

  /// In-place AND with \p other. Sizes must match.
  DynamicBitset& operator&=(const DynamicBitset& other);
  /// In-place OR with \p other. Sizes must match.
  DynamicBitset& operator|=(const DynamicBitset& other);

  bool operator==(const DynamicBitset& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> SetBits() const;

  /// Appends the indices of all set bits, ascending, to \p out without
  /// clearing it. The zero-allocation flavor of SetBits(): a caller that
  /// reuses \p out across queries allocates only until its capacity
  /// reaches the high-water mark.
  void AppendSetBits(std::vector<std::size_t>* out) const;

 private:
  /// Clears any bits in the final word beyond num_bits_.
  void TrimTail() {
    const std::size_t tail = num_bits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (std::uint64_t{1} << tail) - 1;
    }
  }

  std::size_t num_bits_;
  std::vector<std::uint64_t> words_;
};

}  // namespace paygo

#endif  // PAYGO_UTIL_BITSET_H_
