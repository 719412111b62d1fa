#include "util/bitset.h"

#include <cassert>
#include <utility>

#include "util/popcount_dispatch.h"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#endif

namespace paygo {
namespace {

/// The word-level kernels below all compute exact integer popcounts over
/// the same words, so every flavor returns identical values: the fast
/// paths are drop-in replacements, not approximations. Each kernel takes
/// raw word arrays (the tail word is already trimmed by the DynamicBitset
/// invariant, so no masking is needed here).

// --- portable reference (the differential oracle) ---

std::size_t AndCountWordsScalar(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return c;
}

std::size_t OrCountWordsScalar(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(a[i] | b[i]));
  }
  return c;
}

// --- unrolled bodies, compiled once per flavor ---
//
// Each body is force-inlined into a wrapper per flavor, so the
// __builtin_popcountll inside it expands for that wrapper's target: a
// library call in the portable flavor, one instruction in the `popcnt`
// one. Independent accumulators break the loop-carried dependency so the
// popcount units pipeline.

[[gnu::always_inline]] inline std::size_t Popcount(std::uint64_t w) {
  return static_cast<std::size_t>(__builtin_popcountll(w));
}

[[gnu::always_inline]] inline std::size_t CountWordsBody(
    const std::uint64_t* a, std::size_t n) {
  std::size_t c0 = 0, c1 = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    c0 += Popcount(a[i]);
    c1 += Popcount(a[i + 1]);
  }
  if (i < n) c0 += Popcount(a[i]);
  return c0 + c1;
}

[[gnu::always_inline]] inline std::size_t AndCountWordsBody(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += Popcount(a[i] & b[i]);
    c1 += Popcount(a[i + 1] & b[i + 1]);
    c2 += Popcount(a[i + 2] & b[i + 2]);
    c3 += Popcount(a[i + 3] & b[i + 3]);
  }
  for (; i < n; ++i) c0 += Popcount(a[i] & b[i]);
  return c0 + c1 + c2 + c3;
}

/// Fused AND+OR popcount in one pass: the Jaccard hot path loads each
/// word pair once instead of twice.
[[gnu::always_inline]] inline void AndOrCountWordsBody(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
    std::size_t* and_count, std::size_t* or_count) {
  std::size_t ca = 0, co = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const std::uint64_t w0a = a[i], w0b = b[i];
    const std::uint64_t w1a = a[i + 1], w1b = b[i + 1];
    ca += Popcount(w0a & w0b) + Popcount(w1a & w1b);
    co += Popcount(w0a | w0b) + Popcount(w1a | w1b);
  }
  for (; i < n; ++i) {
    ca += Popcount(a[i] & b[i]);
    co += Popcount(a[i] | b[i]);
  }
  *and_count = ca;
  *or_count = co;
}

/// One row of Jaccards against \p b. The division and the float rounding
/// are DynamicBitset::Jaccard's, so every cell is bit for bit
/// float(Jaccard(rows[j], b)).
[[gnu::always_inline]] inline void JaccardRowBody(const DynamicBitset* rows,
                                                  const std::uint32_t* counts,
                                                  std::size_t m,
                                                  const DynamicBitset& b,
                                                  float* out) {
  const std::uint64_t* bw = b.words();
  const std::size_t n = b.num_words();
  const std::size_t b_count = CountWordsBody(bw, n);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t inter = AndCountWordsBody(rows[j].words(), bw, n);
    const std::size_t uni = counts[j] + b_count - inter;
    out[j] = uni == 0 ? 0.0f
                      : static_cast<float>(static_cast<double>(inter) /
                                           static_cast<double>(uni));
  }
}

// --- portable unrolled flavor ---

void AndOrCountWordsUnrolled(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n, std::size_t* and_count,
                             std::size_t* or_count) {
  AndOrCountWordsBody(a, b, n, and_count, or_count);
}

void JaccardRowUnrolled(const DynamicBitset* rows, const std::uint32_t* counts,
                        std::size_t m, const DynamicBitset& b, float* out) {
  JaccardRowBody(rows, counts, m, b, out);
}

#if defined(__x86_64__) || defined(__i386__)

// --- x86 hardware popcount: the unrolled bodies compiled for `popcnt` ---

[[gnu::target("popcnt")]] void AndOrCountWordsPopcnt(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
    std::size_t* and_count, std::size_t* or_count) {
  AndOrCountWordsBody(a, b, n, and_count, or_count);
}

[[gnu::target("popcnt")]] void JaccardRowPopcnt(
    const DynamicBitset* rows, const std::uint32_t* counts, std::size_t m,
    const DynamicBitset& b, float* out) {
  JaccardRowBody(rows, counts, m, b, out);
}

#elif defined(__ARM_NEON) || defined(__ARM_NEON__)

// --- NEON: vcntq_u8 per-byte popcount, widened via pairwise adds. Each
// iteration counts 2 words (one 128-bit vector). NEON is baseline on
// AArch64, so this flavor is chosen at build time. Its rows use the
// unrolled body, whose popcounts AArch64 compilers already vectorize.

void AndOrCountWordsNeon(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n, std::size_t* and_count,
                         std::size_t* or_count) {
  uint64x2_t acc_and = vdupq_n_u64(0);
  uint64x2_t acc_or = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint8x16_t va = vreinterpretq_u8_u64(vld1q_u64(a + i));
    const uint8x16_t vb = vreinterpretq_u8_u64(vld1q_u64(b + i));
    const uint8x16_t ca = vcntq_u8(vandq_u8(va, vb));
    const uint8x16_t co = vcntq_u8(vorrq_u8(va, vb));
    acc_and = vaddq_u64(acc_and, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(ca))));
    acc_or = vaddq_u64(acc_or, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(co))));
  }
  std::size_t ca = static_cast<std::size_t>(vgetq_lane_u64(acc_and, 0)) +
                   static_cast<std::size_t>(vgetq_lane_u64(acc_and, 1));
  std::size_t co = static_cast<std::size_t>(vgetq_lane_u64(acc_or, 0)) +
                   static_cast<std::size_t>(vgetq_lane_u64(acc_or, 1));
  for (; i < n; ++i) {
    ca += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
    co += static_cast<std::size_t>(std::popcount(a[i] | b[i]));
  }
  *and_count = ca;
  *or_count = co;
}

#endif

/// The flavors this CPU runs, in the order Kernels() documents.
std::vector<BitsetKernel> SupportedKernels() {
  std::vector<BitsetKernel> kernels = {
      {"unrolled", AndOrCountWordsUnrolled, JaccardRowUnrolled}};
#if defined(__x86_64__) || defined(__i386__)
  if (CpuHasPopcnt()) {
    kernels.push_back({"popcnt", AndOrCountWordsPopcnt, JaccardRowPopcnt});
  }
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  kernels.push_back({"neon", AndOrCountWordsNeon, JaccardRowUnrolled});
#endif
  return kernels;
}

const std::vector<BitsetKernel>& KernelTable() {
  static const std::vector<BitsetKernel> kernels = SupportedKernels();
  return kernels;
}

/// The dispatch target, chosen on first use.
const BitsetKernel& Dispatched() { return KernelTable().back(); }

/// (|a AND b|, |a OR b|) through the dispatch target.
std::pair<std::size_t, std::size_t> AndOrCount(const DynamicBitset& a,
                                               const DynamicBitset& b) {
  assert(a.size() == b.size());
  std::size_t inter = 0, uni = 0;
  Dispatched().and_or_count(a.words(), b.words(), a.num_words(), &inter,
                            &uni);
  return {inter, uni};
}

}  // namespace

bool CpuHasPopcnt() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt") != 0;
  }();
  return has;
#else
  return false;
#endif
}

std::span<const BitsetKernel> DynamicBitset::Kernels() {
  return KernelTable();
}

const char* DynamicBitset::KernelName() { return Dispatched().name; }

std::size_t DynamicBitset::AndCount(const DynamicBitset& a,
                                    const DynamicBitset& b) {
  return AndOrCount(a, b).first;
}

std::size_t DynamicBitset::OrCount(const DynamicBitset& a,
                                   const DynamicBitset& b) {
  return AndOrCount(a, b).second;
}

double DynamicBitset::Jaccard(const DynamicBitset& a, const DynamicBitset& b) {
  const auto [inter, uni] = AndOrCount(a, b);
  if (uni == 0) return 0.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

void DynamicBitset::JaccardRow(std::span<const DynamicBitset> rows,
                               std::span<const std::uint32_t> counts,
                               const DynamicBitset& b, float* out) {
  assert(rows.size() == counts.size());
  Dispatched().jaccard_row(rows.data(), counts.data(), rows.size(), b, out);
}

std::size_t DynamicBitset::AndCountScalar(const DynamicBitset& a,
                                          const DynamicBitset& b) {
  assert(a.num_bits_ == b.num_bits_);
  return AndCountWordsScalar(a.words(), b.words(), a.num_words());
}

std::size_t DynamicBitset::OrCountScalar(const DynamicBitset& a,
                                         const DynamicBitset& b) {
  assert(a.num_bits_ == b.num_bits_);
  return OrCountWordsScalar(a.words(), b.words(), a.num_words());
}

double DynamicBitset::JaccardScalar(const DynamicBitset& a,
                                    const DynamicBitset& b) {
  const std::size_t uni = OrCountScalar(a, b);
  if (uni == 0) return 0.0;
  return static_cast<double>(AndCountScalar(a, b)) / static_cast<double>(uni);
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

void DynamicBitset::AppendSetBits(std::vector<std::size_t>* out) const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      out->push_back((w << 6) + static_cast<std::size_t>(bit));
      word &= word - 1;
    }
  }
}

std::vector<std::size_t> DynamicBitset::SetBits() const {
  std::vector<std::size_t> out;
  AppendSetBits(&out);
  return out;
}

}  // namespace paygo
