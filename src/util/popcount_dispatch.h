#ifndef PAYGO_UTIL_POPCOUNT_DISPATCH_H_
#define PAYGO_UTIL_POPCOUNT_DISPATCH_H_

/// \file popcount_dispatch.h
/// \brief Runs a popcount-heavy loop from a copy compiled for the x86
/// `popcnt` instruction when the CPU has it.
///
/// Without a -march flag, std::popcount compiles to a libgcc call
/// (__popcountdi2). WithHardwarePopcount(body) calls \p body through a
/// [[gnu::target("popcnt")]] clone when the CPU supports popcnt (decided
/// once per process, as the bitset kernels decide theirs; see bitset.cc)
/// and inline otherwise. \p body is a lambda marked
/// __attribute__((always_inline)), so each path holds its own copy of the
/// loop, and everything it calls that counts bits must be inlined too.
/// Popcounts are exact integers: both copies compute the same values.
/// tools/ci.sh disassembles the clones (RunWithPopcnt) and fails if one
/// still calls __popcountdi2.

namespace paygo {

/// True when the CPU runs the x86 popcnt instruction; false off x86.
bool CpuHasPopcnt();

#if defined(__x86_64__) || defined(__i386__)
template <typename Body>
[[gnu::target("popcnt")]] void RunWithPopcnt(const Body& body) {
  body();
}
#endif

template <typename Body>
inline void WithHardwarePopcount(const Body& body) {
#if defined(__x86_64__) || defined(__i386__)
  if (CpuHasPopcnt()) {
    RunWithPopcnt(body);
    return;
  }
#endif
  body();
}

}  // namespace paygo

#endif  // PAYGO_UTIL_POPCOUNT_DISPATCH_H_
