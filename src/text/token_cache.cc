#include "text/token_cache.h"

#include <algorithm>
#include <cmath>

#include "text/similarity.h"
#include "text/tokenize.h"
#include "util/simd.h"
#include "util/telemetry/metrics.h"

namespace landmark {

namespace {

/// Big-endian zero-padded pack of the first `width` bytes of `s` into an
/// unsigned integer. For NUL-free strings, unsigned order of the packed
/// keys equals lexicographic order truncated to `width` bytes.
template <typename Key>
Key PackKey(const std::string& s) {
  constexpr size_t width = sizeof(Key);
  Key key = 0;
  const size_t n = std::min(s.size(), width);
  for (size_t i = 0; i < n; ++i) {
    key |= static_cast<Key>(static_cast<unsigned char>(s[i]))
           << ((width - 1 - i) * 8);
  }
  return key;
}

bool ContainsNul(const std::string& s) {
  return s.find('\0') != std::string::npos;
}

/// Sorted distinct elements of `items` (the set the std::set-based kernels
/// build implicitly).
std::vector<std::string> SortedDistinct(std::vector<std::string> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

/// Intersection size of two sorted distinct ranges (linear merge).
size_t SortedIntersectionSize(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  size_t i = 0, j = 0, n = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = a[i].compare(b[j]);
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

/// Jaccard over two sorted distinct profiles; both-empty yields 1.0 like the
/// set-based kernel.
double SortedJaccard(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t inter = SortedIntersectionSize(a, b);
  const size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

/// Whether both profiles can merge on their u64 key columns at all.
bool KeysUsable(const TokenizedValue& a, const TokenizedValue& b) {
  return a.token_keys_ordered && b.token_keys_ordered;
}

/// Sorted-key merge over the token SoA columns. Counts the intersection
/// and, when `dot` is non-null, accumulates the cosine dot product over
/// shared tokens in ascending token order — the exact addition sequence of
/// the string merge. Keys that collide (shared 8-byte prefix on tokens
/// longer than 8 bytes) fall back to a string sub-merge over the equal-key
/// runs, so the result is identical to the string path in every case.
size_t TokenKeyMerge(const TokenizedValue& a, const TokenizedValue& b,
                     double* dot) {
  const uint64_t* ka = a.token_keys.data();
  const uint64_t* kb = b.token_keys.data();
  const size_t na = a.token_keys.size();
  const size_t nb = b.token_keys.size();
  const bool exact = a.token_keys_exact && b.token_keys_exact;
  size_t i = 0, j = 0, inter = 0;
  while (i < na && j < nb) {
    if (ka[i] < kb[j]) {
      // Step inline; the out-of-line gallop only earns its call cost on an
      // actual run (two or more keys below the limit).
      if (++i < na && ka[i] < kb[j]) {
        i = simd::AdvanceWhileLess64(ka, i + 1, na, kb[j]);
      }
    } else if (kb[j] < ka[i]) {
      if (++j < nb && kb[j] < ka[i]) {
        j = simd::AdvanceWhileLess64(kb, j + 1, nb, ka[i]);
      }
    } else if (exact) {
      if (dot != nullptr) *dot += a.token_freqs[i] * b.token_freqs[j];
      ++inter;
      ++i;
      ++j;
    } else {
      // Equal keys on >8-byte tokens: resolve the runs by full compare.
      // Within a run both sides are still sorted lexicographically.
      const uint64_t key = ka[i];
      size_t ia = i, jb = j;
      while (ia < na && ka[ia] == key) ++ia;
      while (jb < nb && kb[jb] == key) ++jb;
      while (i < ia && j < jb) {
        const int cmp =
            a.token_counts[i].first.compare(b.token_counts[j].first);
        if (cmp < 0) {
          ++i;
        } else if (cmp > 0) {
          ++j;
        } else {
          if (dot != nullptr) *dot += a.token_freqs[i] * b.token_freqs[j];
          ++inter;
          ++i;
          ++j;
        }
      }
      i = ia;
      j = jb;
    }
  }
  return inter;
}

/// Intersection size over the u32 trigram key columns (always exact when
/// both sides are ordered: 4 bytes hold a whole 1..3-byte gram).
size_t TrigramKeyIntersection(const TokenizedValue& a,
                              const TokenizedValue& b) {
  const uint32_t* ka = a.trigram_keys.data();
  const uint32_t* kb = b.trigram_keys.data();
  const size_t na = a.trigram_keys.size();
  const size_t nb = b.trigram_keys.size();
  size_t i = 0, j = 0, inter = 0;
  while (i < na && j < nb) {
    if (ka[i] < kb[j]) {
      if (++i < na && ka[i] < kb[j]) {
        i = simd::AdvanceWhileLess32(ka, i + 1, na, kb[j]);
      }
    } else if (kb[j] < ka[i]) {
      if (++j < nb && kb[j] < ka[i]) {
        j = simd::AdvanceWhileLess32(kb, j + 1, nb, ka[i]);
      }
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  return inter;
}

}  // namespace

TokenizedValue TokenizedValue::Of(std::string_view text) {
  TokenizedValue out;
  out.tokens = NormalizedTokens(text);

  std::vector<std::string> sorted = out.tokens;
  std::sort(sorted.begin(), sorted.end());
  out.token_counts.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    out.token_counts.emplace_back(std::move(sorted[i]),
                                  static_cast<double>(j - i));
    i = j;
  }
  // Accumulated in sorted token order — the iteration order of the
  // std::map the string-path cosine kernel builds, so the sum is the same
  // sequence of double additions.
  for (const auto& [token, freq] : out.token_counts) {
    out.freq_norm_sq += freq * freq;
  }

  out.trigrams = SortedDistinct(QGrams(text, 3));

  // SoA key columns (see the header): one u64/u32 per distinct element,
  // contiguous, so the merge kernels stream integers instead of strings.
  out.token_keys.reserve(out.token_counts.size());
  out.token_freqs.reserve(out.token_counts.size());
  out.token_keys_ordered = true;
  out.token_keys_exact = true;
  for (const auto& [token, freq] : out.token_counts) {
    out.token_keys.push_back(PackKey<uint64_t>(token));
    out.token_freqs.push_back(freq);
    if (ContainsNul(token)) out.token_keys_ordered = false;
    if (token.size() > 8) out.token_keys_exact = false;
  }
  out.token_keys_exact &= out.token_keys_ordered;

  out.trigram_keys.reserve(out.trigrams.size());
  out.trigram_keys_ordered = true;
  for (const std::string& gram : out.trigrams) {
    out.trigram_keys.push_back(PackKey<uint32_t>(gram));
    if (gram.size() > 4 || ContainsNul(gram)) {
      out.trigram_keys_ordered = false;
    }
  }
  return out;
}

double JaccardSimilarity(const TokenizedValue& a, const TokenizedValue& b) {
  if (a.token_counts.empty() && b.token_counts.empty()) return 1.0;
  size_t inter = 0;
  if (KeysUsable(a, b)) {
    inter = TokenKeyMerge(a, b, /*dot=*/nullptr);
  } else {
    size_t i = 0, j = 0;
    while (i < a.token_counts.size() && j < b.token_counts.size()) {
      const int cmp = a.token_counts[i].first.compare(b.token_counts[j].first);
      if (cmp < 0) {
        ++i;
      } else if (cmp > 0) {
        ++j;
      } else {
        ++inter;
        ++i;
        ++j;
      }
    }
  }
  const size_t uni = a.token_counts.size() + b.token_counts.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double OverlapCoefficient(const TokenizedValue& a, const TokenizedValue& b) {
  if (a.token_counts.empty() && b.token_counts.empty()) return 1.0;
  if (a.token_counts.empty() || b.token_counts.empty()) return 0.0;
  size_t inter = 0;
  if (KeysUsable(a, b)) {
    inter = TokenKeyMerge(a, b, /*dot=*/nullptr);
  } else {
    size_t i = 0, j = 0;
    while (i < a.token_counts.size() && j < b.token_counts.size()) {
      const int cmp = a.token_counts[i].first.compare(b.token_counts[j].first);
      if (cmp < 0) {
        ++i;
      } else if (cmp > 0) {
        ++j;
      } else {
        ++inter;
        ++i;
        ++j;
      }
    }
  }
  return static_cast<double>(inter) /
         static_cast<double>(
             std::min(a.token_counts.size(), b.token_counts.size()));
}

double CosineTokenSimilarity(const TokenizedValue& a, const TokenizedValue& b) {
  if (a.tokens.empty() && b.tokens.empty()) return 1.0;
  if (a.tokens.empty() || b.tokens.empty()) return 0.0;
  // The string path iterates side a's sorted frequency map, adding
  // fa*fb for every shared token; both merges below visit the shared tokens
  // in the same ascending order, so the dot product is the same sequence of
  // double additions.
  double dot = 0.0;
  if (KeysUsable(a, b)) {
    TokenKeyMerge(a, b, &dot);
  } else {
    size_t i = 0, j = 0;
    while (i < a.token_counts.size() && j < b.token_counts.size()) {
      const int cmp = a.token_counts[i].first.compare(b.token_counts[j].first);
      if (cmp < 0) {
        ++i;
      } else if (cmp > 0) {
        ++j;
      } else {
        dot += a.token_counts[i].second * b.token_counts[j].second;
        ++i;
        ++j;
      }
    }
  }
  return dot / (std::sqrt(a.freq_norm_sq) * std::sqrt(b.freq_norm_sq));
}

double MongeElkanSymmetric(const TokenizedValue& a, const TokenizedValue& b) {
  return MongeElkanSymmetric(a.tokens, b.tokens);
}

double TrigramSimilarity(const TokenizedValue& a, const TokenizedValue& b) {
  if (a.trigram_keys_ordered && b.trigram_keys_ordered) {
    if (a.trigrams.empty() && b.trigrams.empty()) return 1.0;
    const size_t inter = TrigramKeyIntersection(a, b);
    const size_t uni = a.trigrams.size() + b.trigrams.size() - inter;
    return static_cast<double>(inter) / static_cast<double>(uni);
  }
  return SortedJaccard(a.trigrams, b.trigrams);
}

TokenCache::Shard& TokenCache::ShardOf(const std::string& text) {
  return shards_[std::hash<std::string>{}(text) % kShards];
}

const TokenizedValue& TokenCache::Get(const std::string& text) {
  Shard& shard = ShardOf(text);
  MutexLock lock(&shard.mu);
  auto it = shard.entries.find(text);
  if (it != shard.entries.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  // Profiled under the shard lock: a concurrent Get of the same string
  // blocks here instead of computing a second profile, so misses() counts
  // distinct strings exactly, regardless of interleaving.
  misses_.fetch_add(1, std::memory_order_relaxed);
  return shard.entries.emplace(text, TokenizedValue::Of(text)).first->second;
}

size_t TokenCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    total += shard.entries.size();
  }
  return total;
}

std::vector<size_t> TokenCache::ShardSizes() const {
  std::vector<size_t> sizes;
  sizes.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    sizes.push_back(shard.entries.size());
  }
  return sizes;
}

void TokenCache::PublishTelemetry() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const size_t hits = hits_.load(std::memory_order_relaxed);
  const size_t misses = misses_.load(std::memory_order_relaxed);
  if (hits > published_hits_) {
    registry.GetCounter("text/token_cache_hits").Add(hits - published_hits_);
    published_hits_ = hits;
  }
  if (misses > published_misses_) {
    registry.GetCounter("text/token_cache_misses")
        .Add(misses - published_misses_);
    published_misses_ = misses;
  }
}

}  // namespace landmark
