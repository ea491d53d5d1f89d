#include "text/similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>

#include "text/tokenize.h"
#include "util/simd.h"

namespace landmark {

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t m = a.size();
  const size_t n = b.size();
  if (m == 0) return n;

  // Myers' bit-parallel algorithm computes the identical distance (it is
  // the same DP, carried in bit deltas) in one word-op column step instead
  // of an O(m) row — the dominant cost of the edit-distance feature. The
  // pattern must fit one machine word; longer strings take the DP below.
  if (m <= 64) {
    return simd::MyersLevenshtein(a, b);
  }

  std::vector<size_t> prev(m + 1);
  std::vector<size_t> curr(m + 1);
  for (size_t i = 0; i <= m; ++i) prev[i] = i;

  for (size_t j = 1; j <= n; ++j) {
    curr[0] = j;
    for (size_t i = 1; i <= m; ++i) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      curr[i] = std::min({prev[i] + 1, curr[i - 1] + 1, prev[i - 1] + cost});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  const size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(max_len);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  const size_t la = a.size();
  const size_t lb = b.size();
  if (la == 0 && lb == 0) return 1.0;
  if (la == 0 || lb == 0) return 0.0;

  // Bit-parallel match counting picks the same greedy matches with one
  // word op per character of `a` (util/simd.h); identical counts feed the
  // identical formula, so the result is bit-for-bit the scalar one. Both
  // strings must fit one machine word; longer ones take the scan below.
  if (la <= 64 && lb <= 64) {
    size_t matches = 0;
    size_t transpositions = 0;
    simd::JaroCounts(a, b, &matches, &transpositions);
    if (matches == 0) return 0.0;
    const double m = static_cast<double>(matches);
    return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
  }

  const size_t window =
      std::max<size_t>(1, std::max(la, lb) / 2) - 1;
  std::vector<bool> a_matched(la, false);
  std::vector<bool> b_matched(lb, false);

  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(lb, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = true;
      b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions over the matched subsequences.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  const double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  constexpr double kScaling = 0.1;
  return jaro + prefix * kScaling * (1.0 - jaro);
}

namespace {
size_t DistinctIntersectionSize(const std::set<std::string>& sa,
                                const std::set<std::string>& sb) {
  size_t n = 0;
  const std::set<std::string>& small = sa.size() <= sb.size() ? sa : sb;
  const std::set<std::string>& large = sa.size() <= sb.size() ? sb : sa;
  for (const auto& t : small) {
    if (large.count(t)) ++n;
  }
  return n;
}
}  // namespace

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  std::set<std::string> sa(a.begin(), a.end());
  std::set<std::string> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 1.0;
  const size_t inter = DistinctIntersectionSize(sa, sb);
  const size_t uni = sa.size() + sb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  std::set<std::string> sa(a.begin(), a.end());
  std::set<std::string> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  const size_t inter = DistinctIntersectionSize(sa, sb);
  return static_cast<double>(inter) /
         static_cast<double>(std::min(sa.size(), sb.size()));
}

double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  std::set<std::string> sa(a.begin(), a.end());
  std::set<std::string> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 1.0;
  const size_t inter = DistinctIntersectionSize(sa, sb);
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(sa.size() + sb.size());
}

double CosineTokenSimilarity(const std::vector<std::string>& a,
                             const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  std::map<std::string, double> fa, fb;
  for (const auto& t : a) fa[t] += 1.0;
  for (const auto& t : b) fb[t] += 1.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (const auto& [t, f] : fa) {
    na += f * f;
    auto it = fb.find(t);
    if (it != fb.end()) dot += f * it->second;
  }
  for (const auto& [t, f] : fb) nb += f * f;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  for (const auto& ta : a) {
    double best = 0.0;
    for (const auto& tb : b) {
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
}

double MongeElkanSymmetric(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) {
  return 0.5 * (MongeElkanSimilarity(a, b) + MongeElkanSimilarity(b, a));
}

double TrigramSimilarity(std::string_view a, std::string_view b) {
  return JaccardSimilarity(QGrams(a, 3), QGrams(b, 3));
}

double NumericSimilarity(double a, double b) {
  if (a == b) return 1.0;
  const double denom = std::max(std::abs(a), std::abs(b));
  if (denom == 0.0) return 1.0;
  const double sim = 1.0 - std::abs(a - b) / denom;
  return std::clamp(sim, 0.0, 1.0);
}

double ExactMatch(std::string_view a, std::string_view b) {
  return a == b ? 1.0 : 0.0;
}

}  // namespace landmark
