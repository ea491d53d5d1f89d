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
  // Myers' bit-parallel algorithm computes the identical distance (it is
  // the same DP, carried in bit deltas) in one word op per 64 rows of a
  // column, at every length. The shorter string is the pattern, which keeps
  // the word count per column step low.
  if (a.size() > b.size()) std::swap(a, b);
  return simd::MyersLevenshtein(a, b);
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

  // Bit-parallel match counting picks the same greedy matches as the
  // classic window scan, a word of candidates at a time (util/simd.h);
  // identical counts feed the identical formula, so the result is
  // bit-for-bit the scan's.
  size_t matches = 0;
  size_t transpositions = 0;
  simd::JaroCounts(a, b, &matches, &transpositions);
  if (matches == 0) return 0.0;
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
      // Jaro-Winkler never exceeds 1.0, so once `best` is 1.0 no later
      // token can change it and the scan may stop with the same bits. In
      // doubles: m <= la, lb and t/2 >= 0 make each of the three Jaro terms
      // round to at most 1 (rounding is monotonic and 1 is exact), so their
      // sum rounds to at most 3 and jaro to at most 1. If jaro == 1, the
      // Winkler term adds p·0.1·0 = 0. If jaro < 1, the term is at most
      // ~0.4·(1 − jaro), so jaro + term lies at least 0.6·(1 − jaro) below
      // 1. For jaro < 0.5 that gap exceeds 0.3; for jaro >= 0.5, 1 − jaro
      // is exact and at least 2^-53, the spacing of doubles just below 1,
      // and a gap over half that spacing cannot round up to 1.
      if (best == 1.0) break;
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
