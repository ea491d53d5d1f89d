#include "util/simd.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

// The only translation unit allowed to include raw intrinsics headers
// (enforced by landmark_lint's `raw-simd` rule). Compiled with
// -ffp-contract=off (see src/util/CMakeLists.txt) and the AVX2 variants use
// explicit non-fused _mm256_mul_pd/_mm256_add_pd, so no FMA contraction can
// perturb the per-element rounding relative to the scalar loops below.
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#define LANDMARK_SIMD_X86 1
#include <immintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define LANDMARK_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace landmark::simd {
namespace {

SimdLevel DetectLevelOnce() {
#if defined(LANDMARK_SIMD_X86)
#if defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  // SSE2 is part of the x86-64 baseline.
  return SimdLevel::kSse2;
#elif defined(LANDMARK_SIMD_NEON)
  return SimdLevel::kNeon;
#else
  return SimdLevel::kScalar;
#endif
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the semantics; the vector variants
// must agree with them bit-for-bit.
// ---------------------------------------------------------------------------

uint64_t PopcountWordsScalar(const uint64_t* words, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(words[i]));
  }
  return total;
}

void ExpandBitsScalar(const uint64_t* words, size_t dim, double* out) {
  for (size_t i = 0; i < dim; ++i) {
    out[i] = ((words[i >> 6] >> (i & 63)) & 1u) != 0 ? 1.0 : 0.0;
  }
}

// Only reached on targets with no vector unit at all; x86 and NEON always
// have a two-lane variant.
#if !defined(LANDMARK_SIMD_X86) && !defined(LANDMARK_SIMD_NEON)
void AddScaledScalar(double* y, const double* x, double alpha, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void MultiplyScalar(double* out, const double* a, const double* b, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}
#endif

// ---------------------------------------------------------------------------
// AVX2 variants (x86). Built as target("avx2") function variants so the
// translation unit stays buildable with the default -march; only executed
// after the runtime check in DetectedLevel().
// ---------------------------------------------------------------------------

#if defined(LANDMARK_SIMD_X86) && defined(__GNUC__)

__attribute__((target("avx2"))) void ExpandBitsAvx2(const uint64_t* words,
                                                    size_t dim, double* out) {
  // Per 4-bit nibble: look up four 0.0/1.0 lanes via blend on broadcast
  // masks. Exact: produces literal 0.0 / 1.0 doubles, same as scalar.
  const __m256d ones = _mm256_set1_pd(1.0);
  const __m256d zeros = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const uint64_t nibble = (words[i >> 6] >> (i & 63)) & 0xF;
    // Spread bits 0..3 into the sign bit of each 64-bit lane for blendv.
    const __m256i bits = _mm256_set_epi64x(
        (nibble & 8) ? -1 : 0, (nibble & 4) ? -1 : 0, (nibble & 2) ? -1 : 0,
        (nibble & 1) ? -1 : 0);
    _mm256_storeu_pd(out + i,
                     _mm256_blendv_pd(zeros, ones, _mm256_castsi256_pd(bits)));
  }
  for (; i < dim; ++i) {
    out[i] = ((words[i >> 6] >> (i & 63)) & 1u) != 0 ? 1.0 : 0.0;
  }
}

__attribute__((target("avx2"))) void AddScaledAvx2(double* y, const double* x,
                                                   double alpha, size_t n) {
  // Explicit mul + add (never _mm256_fmadd_pd): each lane performs the
  // same two roundings as the scalar loop.
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void MultiplyAvx2(double* out, const double* a,
                                                  const double* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

__attribute__((target("avx2"))) size_t AdvanceWhileLess64Avx2(
    const uint64_t* keys, size_t i, size_t n, uint64_t limit) {
  // _mm256_cmpgt_epi64 is signed; flipping the sign bit maps unsigned
  // order onto signed order.
  const __m256i bias = _mm256_set1_epi64x(static_cast<int64_t>(1ULL << 63));
  const __m256i vlimit = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<int64_t>(limit)), bias);
  while (i + 4 <= n) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)), bias);
    // Lane mask: key < limit  <=>  limit > key.
    const int mask = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(vlimit, v)));
    if (mask != 0xF) {
      // First lane that is >= limit ends the run. Keys are sorted, so the
      // run is a prefix of the lane mask.
      return i + static_cast<size_t>(__builtin_ctz(~mask & 0xF));
    }
    i += 4;
  }
  while (i < n && keys[i] < limit) ++i;
  return i;
}

__attribute__((target("avx2"))) size_t AdvanceWhileLess32Avx2(
    const uint32_t* keys, size_t i, size_t n, uint32_t limit) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int32_t>(1u << 31));
  const __m256i vlimit =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int32_t>(limit)), bias);
  while (i + 8 <= n) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)), bias);
    const int mask = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(vlimit, v)));
    if (mask != 0xFF) {
      return i + static_cast<size_t>(__builtin_ctz(~mask & 0xFF));
    }
    i += 8;
  }
  while (i < n && keys[i] < limit) ++i;
  return i;
}

#endif  // LANDMARK_SIMD_X86 && __GNUC__

// ---------------------------------------------------------------------------
// SSE2 variants (x86-64 baseline, no target attribute needed) and NEON.
// Two lanes per step; same per-element mul+add order as scalar.
// ---------------------------------------------------------------------------

#if defined(LANDMARK_SIMD_X86)

void AddScaledSse2(double* y, const double* x, double alpha, size_t n) {
  const __m128d va = _mm_set1_pd(alpha);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d prod = _mm_mul_pd(va, _mm_loadu_pd(x + i));
    _mm_storeu_pd(y + i, _mm_add_pd(_mm_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void MultiplySse2(double* out, const double* a, const double* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

#elif defined(LANDMARK_SIMD_NEON)

void AddScaledNeon(double* y, const double* x, double alpha, size_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t prod = vmulq_f64(va, vld1q_f64(x + i));
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void MultiplyNeon(double* out, const double* a, const double* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

#endif

bool UseAvx2() {
#if defined(LANDMARK_SIMD_X86) && defined(__GNUC__)
  return DetectedLevel() == SimdLevel::kAvx2;
#else
  return false;
#endif
}

}  // namespace

SimdLevel DetectedLevel() {
  static const SimdLevel level = DetectLevelOnce();
  return level;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "scalar";
}

const char* ActiveIsaName() { return SimdLevelName(DetectedLevel()); }

uint64_t PopcountWords(const uint64_t* words, size_t n) {
  // __builtin_popcountll lowers to POPCNT/CNT where available; a vector
  // variant buys nothing for the short rows the engine sees.
  return PopcountWordsScalar(words, n);
}

size_t AdvanceWhileLess64(const uint64_t* keys, size_t i, size_t n,
                          uint64_t limit) {
  // The vector gallop only pays for itself on long runs: merges over
  // typical token profiles (a handful of keys) advance one or two steps per
  // call, where the out-of-line call + lane setup costs more than the
  // scalar compares. The result is identical either way (exact integer
  // kernel), so the cutover is purely a speed heuristic.
#if defined(LANDMARK_SIMD_X86) && defined(__GNUC__)
  if (n - i >= 16 && UseAvx2()) return AdvanceWhileLess64Avx2(keys, i, n, limit);
#endif
  while (i < n && keys[i] < limit) ++i;
  return i;
}

size_t AdvanceWhileLess32(const uint32_t* keys, size_t i, size_t n,
                          uint32_t limit) {
#if defined(LANDMARK_SIMD_X86) && defined(__GNUC__)
  if (n - i >= 32 && UseAvx2()) return AdvanceWhileLess32Avx2(keys, i, n, limit);
#endif
  while (i < n && keys[i] < limit) ++i;
  return i;
}

namespace {

/// Shared scratch for the per-character bitmask tables of the bit-parallel
/// string kernels. The table is kept all-zero *between* uses: each kernel
/// sets only the entries of the characters it saw and zeroes exactly those
/// on release, which for short strings is far cheaper than the 2 KB memset
/// a fresh local table would need per call.
thread_local uint64_t t_char_masks[256] = {};

}  // namespace

void JaroCounts(std::string_view a, std::string_view b, size_t* matches,
                size_t* transpositions) {
  const size_t la = a.size();
  const size_t lb = b.size();
  LANDMARK_CHECK(la <= 64 && lb <= 64);
  const size_t window = std::max<size_t>(1, std::max(la, lb) / 2) - 1;

  // Candidate bitmasks over b: bit j of peq[c] set iff b[j] == c.
  uint64_t* const peq = t_char_masks;
  for (size_t j = 0; j < lb; ++j) {
    peq[static_cast<unsigned char>(b[j])] |= 1ULL << j;
  }

  uint64_t matched_a = 0;
  uint64_t matched_b = 0;
  size_t m = 0;
  for (size_t i = 0; i < la; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(lb, i + window + 1);
    if (lo >= hi) continue;
    const uint64_t below_hi = hi == 64 ? ~0ULL : (1ULL << hi) - 1;
    const uint64_t below_lo = lo == 0 ? 0ULL : (1ULL << lo) - 1;
    const uint64_t candidates =
        peq[static_cast<unsigned char>(a[i])] & below_hi & ~below_lo &
        ~matched_b;
    if (candidates != 0) {
      matched_b |= candidates & (~candidates + 1);  // lowest eligible j
      matched_a |= 1ULL << i;
      ++m;
    }
  }
  *matches = m;

  // Walk the two matched subsequences in index order, exactly like the
  // scalar pairing loop.
  size_t transposed = 0;
  uint64_t xa = matched_a;
  uint64_t xb = matched_b;
  while (xa != 0) {
    const int i = __builtin_ctzll(xa);
    const int j = __builtin_ctzll(xb);
    xa &= xa - 1;
    xb &= xb - 1;
    if (a[static_cast<size_t>(i)] != b[static_cast<size_t>(j)]) ++transposed;
  }
  *transpositions = transposed;

  for (size_t j = 0; j < lb; ++j) {
    peq[static_cast<unsigned char>(b[j])] = 0;
  }
}

size_t MyersLevenshtein(std::string_view a, std::string_view b) {
  const size_t m = a.size();
  LANDMARK_CHECK(m <= 64);
  if (m == 0) return b.size();
  if (b.empty()) return m;
  // Pattern bitmasks: bit i of peq[c] set iff a[i] == c.
  uint64_t* const peq = t_char_masks;
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(a[i])] |= 1ULL << i;
  }
  uint64_t pv = ~0ULL;  // vertical positive deltas
  uint64_t mv = 0;      // vertical negative deltas
  size_t score = m;
  const uint64_t high = 1ULL << (m - 1);
  for (const char cb : b) {
    const uint64_t eq = peq[static_cast<unsigned char>(cb)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & high) ++score;
    if (mh & high) --score;
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(a[i])] = 0;
  }
  return score;
}

void ExpandBitsToDoubles(const uint64_t* words, size_t dim, double* out) {
#if defined(LANDMARK_SIMD_X86) && defined(__GNUC__)
  if (UseAvx2()) {
    ExpandBitsAvx2(words, dim, out);
    return;
  }
#endif
  ExpandBitsScalar(words, dim, out);
}

void AddScaled(double* y, const double* x, double alpha, size_t n) {
#if defined(LANDMARK_SIMD_X86) && defined(__GNUC__)
  if (UseAvx2()) {
    AddScaledAvx2(y, x, alpha, n);
    return;
  }
#endif
#if defined(LANDMARK_SIMD_X86)
  AddScaledSse2(y, x, alpha, n);
#elif defined(LANDMARK_SIMD_NEON)
  AddScaledNeon(y, x, alpha, n);
#else
  AddScaledScalar(y, x, alpha, n);
#endif
}

void Multiply(double* out, const double* a, const double* b, size_t n) {
#if defined(LANDMARK_SIMD_X86)
#if defined(__GNUC__)
  if (UseAvx2()) {
    MultiplyAvx2(out, a, b, n);
    return;
  }
#endif
  MultiplySse2(out, a, b, n);
#elif defined(LANDMARK_SIMD_NEON)
  MultiplyNeon(out, a, b, n);
#else
  MultiplyScalar(out, a, b, n);
#endif
}

}  // namespace landmark::simd
