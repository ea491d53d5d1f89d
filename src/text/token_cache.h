#ifndef LANDMARK_TEXT_TOKEN_CACHE_H_
#define LANDMARK_TEXT_TOKEN_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace landmark {

/// \brief All token-level derivations of one attribute string, computed once
/// and reused by every similarity kind that consumes them.
///
/// `ComputeAttributeFeature`'s token-set kinds each re-tokenized both sides
/// from scratch (up to 8 tokenizations per attribute pair per call) and
/// rebuilt their `std::set` / frequency-map scaffolding per kind. A
/// TokenizedValue precomputes the shared views — the normalized token list,
/// the sorted distinct token multiset with term frequencies, the squared
/// frequency norm, and the sorted distinct character-trigram profile — so
/// the similarity overloads below run allocation-free set merges instead.
///
/// **Equivalence contract.** Every overload taking TokenizedValue operands
/// returns a double bit-identical to its `std::vector<std::string>` /
/// `std::string_view` counterpart in text/similarity.h: integer set sizes
/// are representation-independent, and the floating-point accumulations
/// (cosine norm and dot product) walk tokens in the same sorted order the
/// `std::map`-based implementation iterates. tests/text/token_cache_test.cc
/// pins this for adversarial inputs.
struct TokenizedValue {
  /// NormalizedTokens(text), original order (Monge-Elkan needs it).
  std::vector<std::string> tokens;
  /// Distinct tokens sorted ascending, with their term frequency.
  std::vector<std::pair<std::string, double>> token_counts;
  /// Sum of squared term frequencies, accumulated in sorted token order
  /// (the cosine kernel's per-side norm).
  double freq_norm_sq = 0.0;
  /// Distinct character 3-grams of the raw string, sorted ascending.
  std::vector<std::string> trigrams;

  // --- structure-of-arrays mirrors of the profiles above -----------------
  // The merge kernels stream these contiguous key/frequency columns
  // instead of chasing std::string heads: one u64 compare replaces a
  // byte-wise string compare on (almost) every merge step, and sorted-key
  // runs can be skipped with util/simd.h galloping. The kernels fall back
  // to the string columns whenever the encodings below lose information,
  // so results are bit-identical either way.

  /// Big-endian zero-padded first-8-bytes key of token_counts[i].first.
  /// Unsigned u64 order equals lexicographic order of NUL-free strings up
  /// to the first 8 bytes; ties (equal keys) mean the strings share an
  /// 8-byte prefix and need a full compare unless `token_keys_exact`.
  std::vector<uint64_t> token_keys;
  /// token_counts[i].second, contiguous (the cosine dot's operands).
  std::vector<double> token_freqs;
  /// Key order faithful: every distinct token is NUL-free.
  bool token_keys_ordered = false;
  /// Key equality == string equality: ordered and every token <= 8 bytes.
  bool token_keys_exact = false;

  /// Big-endian zero-padded key of trigrams[i] (grams are 1..3 bytes, so
  /// 4 bytes always hold the whole gram: equality is exact when ordered).
  std::vector<uint32_t> trigram_keys;
  /// Every gram is NUL-free (key order and equality both faithful).
  bool trigram_keys_ordered = false;

  /// Tokenizes and profiles `text` (the raw attribute string).
  static TokenizedValue Of(std::string_view text);
};

/// Jaccard over distinct tokens; bit-identical to
/// JaccardSimilarity(NormalizedTokens(a), NormalizedTokens(b)).
double JaccardSimilarity(const TokenizedValue& a, const TokenizedValue& b);

/// Overlap coefficient over distinct tokens; bit-identical to the
/// vector<string> overload on NormalizedTokens.
double OverlapCoefficient(const TokenizedValue& a, const TokenizedValue& b);

/// Cosine over term-frequency vectors; bit-identical to the vector<string>
/// overload on NormalizedTokens.
double CosineTokenSimilarity(const TokenizedValue& a, const TokenizedValue& b);

/// Symmetric Monge-Elkan over the token lists; bit-identical to the
/// vector<string> overload on NormalizedTokens.
double MongeElkanSymmetric(const TokenizedValue& a, const TokenizedValue& b);

/// Jaccard over the precomputed trigram profiles; bit-identical to
/// TrigramSimilarity(a.text, b.text).
double TrigramSimilarity(const TokenizedValue& a, const TokenizedValue& b);

/// \brief Epoch-lifetime memo of TokenizedValue per distinct attribute
/// string.
///
/// One cache serves one engine batch epoch: perturbation masks of a unit
/// recombine the same attribute strings over and over (and one side of
/// every landmark unit is frozen outright), so the number of distinct
/// strings is orders of magnitude below the number of value occurrences.
/// There is no invalidation — entries live exactly as long as the cache,
/// which lives exactly as long as the epoch.
///
/// **Thread-safety.** Get() is safe to call concurrently: the entry map is
/// sharded by string hash, each shard behind its own mutex, and a miss is
/// profiled while holding only its shard's lock — the first caller computes,
/// every concurrent caller of the same string blocks briefly and then reads
/// the winner's entry, so no profile is ever computed twice and the hit /
/// miss totals are scheduling-independent. Returned references are stable
/// for the cache's lifetime and safe to read lock-free (std::unordered_map
/// never moves nodes), which is what lets the engine's graph interleave
/// unit query stages against one shared cache.
class TokenCache {
 public:
  /// Returns the profile of `text`, computing it on first sight. The
  /// reference is stable for the cache's lifetime.
  const TokenizedValue& Get(const std::string& text);

  /// Lookups that found an existing entry / had to compute one.
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Distinct strings profiled (== misses()).
  size_t size() const;
  /// Entry count per shard, in shard order — the flight deck's occupancy
  /// view (a skewed distribution means one hot shard serializes lookups).
  /// Safe to call concurrently with Get().
  std::vector<size_t> ShardSizes() const;

  /// Adds this cache's hit/miss counts to the process-wide telemetry
  /// counters `text/token_cache_hits` / `text/token_cache_misses` (see
  /// docs/architecture.md, "Metric name contract"). Call once per batch
  /// from a single thread (the engine epilogue); counts already published
  /// are not re-published.
  void PublishTelemetry();

 private:
  /// Shard count: enough that concurrent unit query stages rarely collide
  /// on a shard, small enough that size() stays trivial.
  static constexpr size_t kShards = 16;

  struct Shard {
    // All 16 shards share one rank identity: holding two shards at once is
    // a lock-discipline violation (the cache only ever locks one).
    mutable Mutex mu{"TokenCache::Shard::mu"};
    std::unordered_map<std::string, TokenizedValue> entries GUARDED_BY(mu);
  };

  Shard& ShardOf(const std::string& text);

  std::array<Shard, kShards> shards_;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  size_t published_hits_ = 0;
  size_t published_misses_ = 0;
};

}  // namespace landmark

#endif  // LANDMARK_TEXT_TOKEN_CACHE_H_
