#ifndef LANDMARK_UTIL_SIMD_H_
#define LANDMARK_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file
/// Portable SIMD shim for the perturbation hot path.
///
/// Every vector kernel in the library goes through this header; raw
/// intrinsics headers (`immintrin.h`, `arm_neon.h`) and `#pragma omp` are
/// banned everywhere else by landmark_lint's `raw-simd` rule so dispatch
/// stays centralized and auditable.
///
/// **Exactness contract.** Every kernel here produces bit-identical results
/// to its scalar reference, on every ISA:
///   - integer kernels (popcount, sorted-key galloping, Myers Levenshtein,
///     bit-parallel Jaro match counting) are exact by construction;
///   - floating-point kernels are restricted to *lane-independent
///     element-wise* operations (`y[i] += a*x[i]`, `out[i] = a[i]*b[i]`,
///     bit → 0.0/1.0 expansion). Each output element sees exactly one
///     multiply and one add in the same order as the scalar loop, the
///     vector variants use explicit non-fused multiply/add instructions,
///     and simd.cc is compiled with `-ffp-contract=off`, so no FMA
///     contraction or reassociation can change a rounding step. Horizontal
///     reductions (dot products) are deliberately *not* offered: any lane
///     split would reassociate the sum.
///
/// Kernel choice is runtime ISA dispatch plus string length. The
/// bit-parallel string kernels take strings of any length, so no caller
/// keeps a scalar fallback: strings of at most 64 bytes run a one-word
/// kernel whose state sits in registers, longer ones a blocked kernel that
/// splits the string into ⌈len/64⌉ machine words and carries deltas /
/// match state from word to word. Their per-character mask tables and
/// per-word state are per-thread scratch, reused across calls: a fixed
/// 256-word table for the one-word kernels, and for the blocked ones at
/// most 256·⌈m/64⌉ + 2·⌈m/64⌉ words (2 KB + 16 bytes per 64 characters),
/// where m is the longest string the thread has passed. There is no
/// process-wide switch: the scalar references live in
/// tests/util/simd_test.cc, which pins every kernel against them.
namespace landmark::simd {

/// Instruction set detected on the running CPU (cached after first call).
enum class SimdLevel { kScalar, kSse2, kAvx2, kNeon };

/// Runtime-detected best level for this process.
SimdLevel DetectedLevel();

/// Short lowercase name for a level ("scalar", "sse2", "avx2", "neon").
const char* SimdLevelName(SimdLevel level);

/// Name of the ISA the kernels dispatch to (the detected level). Benchmark
/// manifests record it so only runs on like hardware are compared.
const char* ActiveIsaName();

// ---------------------------------------------------------------------------
// Integer kernels (exact on every path).
// ---------------------------------------------------------------------------

/// Total population count over `n` 64-bit words.
uint64_t PopcountWords(const uint64_t* words, size_t n);

/// Advances `i` while `keys[i] < limit` (and `i < n`); returns the first
/// index whose key is >= limit. `keys` must be sorted ascending. Used to
/// gallop through runs in sorted-key merges (token / q-gram profiles).
size_t AdvanceWhileLess64(const uint64_t* keys, size_t i, size_t n,
                          uint64_t limit);
size_t AdvanceWhileLess32(const uint32_t* keys, size_t i, size_t n,
                          uint32_t limit);

/// Myers' bit-parallel Levenshtein distance, blocked over ⌈|a|/64⌉ words
/// with Hyyrö's carry of the horizontal deltas from word to word (Myers
/// 1999; Hyyrö 2003). Exact — computes the same value as the classic
/// O(m*n) dynamic program in O(⌈m/64⌉·n) word steps. Any lengths; callers
/// pass the shorter string as the pattern `a` to keep the word count low.
size_t MyersLevenshtein(std::string_view a, std::string_view b);

/// Jaro match / transposition counts via bitmask candidate selection over
/// ⌈|b|/64⌉ words: a few word ops pick the first unmatched equal character
/// inside the match window instead of scanning it char by char. The greedy
/// choice (lowest eligible index, left to right over `a`) is identical to
/// the classic nested-loop scan, so both counts are exact. Any lengths;
/// both counts are 0 when either string is empty.
void JaroCounts(std::string_view a, std::string_view b, size_t* matches,
                size_t* transpositions);

// ---------------------------------------------------------------------------
// Floating-point kernels (element-wise, lane-independent, bit-identical).
// ---------------------------------------------------------------------------

/// out[i] = bit i of `words` ? 1.0 : 0.0, for i in [0, dim). Expands one
/// packed mask row into a design-matrix row.
void ExpandBitsToDoubles(const uint64_t* words, size_t dim, double* out);

/// y[i] += alpha * x[i] (the axpy inner loop).
void AddScaled(double* y, const double* x, double alpha, size_t n);

/// out[i] = a[i] * b[i].
void Multiply(double* out, const double* a, const double* b, size_t n);

}  // namespace landmark::simd

#endif  // LANDMARK_UTIL_SIMD_H_
