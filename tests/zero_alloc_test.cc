/// \file zero_alloc_test.cc
/// \brief Steady-state allocation accounting for the classify hot path.
///
/// The test binary replaces global operator new/delete with counting
/// versions gated on a thread_local flag, so only allocations made by the
/// measuring thread inside an AllocationProbe scope are counted — gtest
/// internals and background threads never pollute the count. The
/// guarantees pinned here:
///
///  * ClassifyInto / ClassifyBatchInto with reused scratch+output buffers
///    perform EXACTLY ZERO heap allocations in steady state (after one
///    warmup call grows every buffer to its high-water mark);
///  * the convenience Classify() wrapper allocates exactly once per call —
///    the returned vector's buffer, which by-value semantics make
///    unavoidable — and nothing else;
///  * DynamicBitset::AppendSetBits into a warm vector allocates nothing.
///
/// This file is part of the TSan gate (tools/ci.sh): the counting hooks
/// are thread_local, so they stay race-free under concurrent allocation.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "classify/naive_bayes.h"
#include "dense_classifier_oracle.h"
#include "util/bitset.h"
#include "util/random.h"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

void CountAllocation() {
  if (t_counting) ++t_allocations;
}

}  // namespace

// Counting global allocation hooks. Every replaceable form funnels through
// malloc/free so sized and array deletes need no bookkeeping of their own.
void* operator new(std::size_t size) {
  CountAllocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  CountAllocation();
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// GCC pairs free() with the replaced operator new and warns about the
// mismatch; every new above funnels through malloc/aligned_alloc, both of
// which glibc's free() accepts, so the pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace paygo {
namespace {

/// Counts this thread's heap allocations while alive.
class AllocationProbe {
 public:
  AllocationProbe() {
    t_allocations = 0;
    t_counting = true;
  }
  ~AllocationProbe() { t_counting = false; }
  std::size_t count() const { return t_allocations; }
};

constexpr std::size_t kDim = 300;
constexpr std::size_t kDomains = 24;

NaiveBayesClassifier MakeClassifier() {
  Rng rng(99);
  std::vector<dense_oracle::DenseConditionals> conds(kDomains);
  for (auto& c : conds) {
    c.prior = 0.01 + rng.NextDouble();
    c.q1.resize(kDim);
    for (double& q : c.q1) q = 0.001 + 0.9 * rng.NextDouble();
  }
  return dense_oracle::ClassifierFromDense(
      std::move(conds), std::vector<bool>(kDomains, false), {});
}

std::vector<DynamicBitset> MakeQueries(std::size_t count) {
  Rng rng(123);
  std::vector<DynamicBitset> queries;
  for (std::size_t i = 0; i < count; ++i) {
    DynamicBitset q(kDim);
    for (std::size_t k = 0; k < 1 + i % 8; ++k) q.Set(rng.NextBelow(kDim));
    queries.push_back(std::move(q));
  }
  return queries;
}

TEST(ZeroAllocTest, ProbeSeesVectorGrowth) {
  // Sanity-check the hook itself before trusting any zero below.
  AllocationProbe probe;
  std::vector<int>* v = new std::vector<int>();
  v->reserve(100);
  delete v;
  EXPECT_GE(probe.count(), 2u);
}

TEST(ZeroAllocTest, ClassifyIntoSteadyStateIsZeroAlloc) {
  const NaiveBayesClassifier clf = MakeClassifier();
  const std::vector<DynamicBitset> queries = MakeQueries(16);

  ClassifyScratch scratch;
  std::vector<DomainScore> out;
  // Warmup: grows scratch.set_bits and out to their high-water marks and
  // runs every lazy static init (registry counters) on the path.
  for (const DynamicBitset& q : queries) clf.ClassifyInto(q, &scratch, &out);

  AllocationProbe probe;
  for (int round = 0; round < 10; ++round) {
    for (const DynamicBitset& q : queries) {
      clf.ClassifyInto(q, &scratch, &out);
    }
  }
  EXPECT_EQ(probe.count(), 0u)
      << "steady-state ClassifyInto must not touch the heap";
  ASSERT_EQ(out.size(), kDomains);  // it did real work
}

TEST(ZeroAllocTest, ClassifyBatchIntoSteadyStateIsZeroAlloc) {
  const NaiveBayesClassifier clf = MakeClassifier();
  const std::vector<DynamicBitset> queries = MakeQueries(64);

  ClassifyScratch scratch;
  std::vector<std::vector<DomainScore>> out;
  clf.ClassifyBatchInto(queries, &scratch, &out);  // warmup

  AllocationProbe probe;
  for (int round = 0; round < 10; ++round) {
    clf.ClassifyBatchInto(queries, &scratch, &out);
  }
  EXPECT_EQ(probe.count(), 0u)
      << "steady-state ClassifyBatchInto must not touch the heap";
  ASSERT_EQ(out.size(), queries.size());
  ASSERT_EQ(out[0].size(), kDomains);
}

TEST(ZeroAllocTest, BatchIntoHandlesShrinkingBatchWithoutAllocating) {
  const NaiveBayesClassifier clf = MakeClassifier();
  const std::vector<DynamicBitset> queries = MakeQueries(64);

  ClassifyScratch scratch;
  std::vector<std::vector<DomainScore>> out;
  clf.ClassifyBatchInto(queries, &scratch, &out);  // warm at the max size

  AllocationProbe probe;
  for (std::size_t len : {64u, 7u, 1u, 32u}) {
    clf.ClassifyBatchInto(
        std::span<const DynamicBitset>(queries.data(), len), &scratch, &out);
    ASSERT_EQ(out.size(), len);
  }
  EXPECT_EQ(probe.count(), 0u)
      << "batch sizes at or below the high-water mark must reuse capacity";
}

TEST(ZeroAllocTest, ClassifyWrapperAllocatesOnlyTheResultVector) {
  const NaiveBayesClassifier clf = MakeClassifier();
  const std::vector<DynamicBitset> queries = MakeQueries(8);
  for (const DynamicBitset& q : queries) clf.Classify(q);  // warmup

  for (const DynamicBitset& q : queries) {
    AllocationProbe probe;
    const std::vector<DomainScore> scores = clf.Classify(q);
    // By-value return forces one buffer; anything more is a regression in
    // the thread_local scratch reuse.
    EXPECT_EQ(probe.count(), 1u);
    ASSERT_EQ(scores.size(), kDomains);
  }
}

TEST(ZeroAllocTest, AppendSetBitsIsZeroAllocWhenWarm) {
  const std::vector<DynamicBitset> queries = MakeQueries(16);
  std::vector<std::size_t> bits;
  for (const DynamicBitset& q : queries) {
    bits.clear();
    q.AppendSetBits(&bits);  // warmup to the high-water mark
  }

  AllocationProbe probe;
  for (const DynamicBitset& q : queries) {
    bits.clear();
    q.AppendSetBits(&bits);
  }
  EXPECT_EQ(probe.count(), 0u);
}

}  // namespace
}  // namespace paygo
