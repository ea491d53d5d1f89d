#include "em/features.h"

#include "text/similarity.h"
#include "text/tokenize.h"
#include "util/check.h"

namespace landmark {

std::string_view AttributeFeatureKindName(AttributeFeatureKind kind) {
  switch (kind) {
    case AttributeFeatureKind::kJaccard:
      return "jaccard";
    case AttributeFeatureKind::kOverlap:
      return "overlap";
    case AttributeFeatureKind::kCosine:
      return "cosine";
    case AttributeFeatureKind::kMongeElkan:
      return "monge_elkan";
    case AttributeFeatureKind::kLevenshtein:
      return "lev";
    case AttributeFeatureKind::kJaroWinkler:
      return "jaro_winkler";
    case AttributeFeatureKind::kTrigram:
      return "trigram";
    case AttributeFeatureKind::kNumericCloseness:
      return "numeric";
    case AttributeFeatureKind::kBothPresent:
      return "both_present";
  }
  return "unknown";
}

double ComputeAttributeFeature(AttributeFeatureKind kind, const Value& left,
                               const Value& right) {
  if (kind == AttributeFeatureKind::kBothPresent) {
    return (!left.is_null() && !right.is_null()) ? 1.0 : 0.0;
  }
  if (left.is_null() || right.is_null()) return 0.0;

  const std::string& a = left.text();
  const std::string& b = right.text();
  switch (kind) {
    case AttributeFeatureKind::kJaccard:
      return JaccardSimilarity(NormalizedTokens(a), NormalizedTokens(b));
    case AttributeFeatureKind::kOverlap:
      return OverlapCoefficient(NormalizedTokens(a), NormalizedTokens(b));
    case AttributeFeatureKind::kCosine:
      return CosineTokenSimilarity(NormalizedTokens(a), NormalizedTokens(b));
    case AttributeFeatureKind::kMongeElkan:
      return MongeElkanSymmetric(NormalizedTokens(a), NormalizedTokens(b));
    case AttributeFeatureKind::kLevenshtein:
      return LevenshteinSimilarity(a, b);
    case AttributeFeatureKind::kJaroWinkler:
      return JaroWinklerSimilarity(a, b);
    case AttributeFeatureKind::kTrigram:
      return TrigramSimilarity(a, b);
    case AttributeFeatureKind::kNumericCloseness: {
      auto na = left.AsDouble();
      auto nb = right.AsDouble();
      if (!na.has_value() || !nb.has_value()) return 0.0;
      return NumericSimilarity(*na, *nb);
    }
    case AttributeFeatureKind::kBothPresent:
      break;  // handled above
  }
  LANDMARK_CHECK_MSG(false, "unreachable feature kind");
  return 0.0;
}

PreparedValue PrepareValue(const Value& value, TokenCache& cache) {
  PreparedValue out;
  out.value = &value;
  if (!value.is_null()) out.tokens = &cache.Get(value.text());
  return out;
}

double ComputeAttributeFeature(AttributeFeatureKind kind,
                               const PreparedValue& left,
                               const PreparedValue& right) {
  if (kind == AttributeFeatureKind::kBothPresent) {
    return (!left.is_null() && !right.is_null()) ? 1.0 : 0.0;
  }
  if (left.is_null() || right.is_null()) return 0.0;

  switch (kind) {
    case AttributeFeatureKind::kJaccard:
      return JaccardSimilarity(*left.tokens, *right.tokens);
    case AttributeFeatureKind::kOverlap:
      return OverlapCoefficient(*left.tokens, *right.tokens);
    case AttributeFeatureKind::kCosine:
      return CosineTokenSimilarity(*left.tokens, *right.tokens);
    case AttributeFeatureKind::kMongeElkan:
      return MongeElkanSymmetric(*left.tokens, *right.tokens);
    case AttributeFeatureKind::kLevenshtein:
      return LevenshteinSimilarity(left.value->text(), right.value->text());
    case AttributeFeatureKind::kJaroWinkler:
      return JaroWinklerSimilarity(left.value->text(), right.value->text());
    case AttributeFeatureKind::kTrigram:
      return TrigramSimilarity(*left.tokens, *right.tokens);
    case AttributeFeatureKind::kNumericCloseness: {
      auto na = left.value->AsDouble();
      auto nb = right.value->AsDouble();
      if (!na.has_value() || !nb.has_value()) return 0.0;
      return NumericSimilarity(*na, *nb);
    }
    case AttributeFeatureKind::kBothPresent:
      break;  // handled above
  }
  LANDMARK_CHECK_MSG(false, "unreachable feature kind");
  return 0.0;
}

void ComputeAllAttributeFeatures(const Value& left, const Value& right,
                                 double* out) {
  // Profile each side once on the stack and share it across all nine kinds,
  // instead of re-tokenizing per kind like the single-kind entry point.
  TokenizedValue left_tokens, right_tokens;
  PreparedValue pl, pr;
  pl.value = &left;
  pr.value = &right;
  if (!left.is_null()) {
    left_tokens = TokenizedValue::Of(left.text());
    pl.tokens = &left_tokens;
  }
  if (!right.is_null()) {
    right_tokens = TokenizedValue::Of(right.text());
    pr.tokens = &right_tokens;
  }
  for (size_t k = 0; k < kNumAttributeFeatures; ++k) {
    out[k] = ComputeAttributeFeature(static_cast<AttributeFeatureKind>(k),
                                     pl, pr);
  }
}

std::vector<double> ComputeAllAttributeFeatures(const Value& left,
                                                const Value& right) {
  std::vector<double> out(kNumAttributeFeatures);
  ComputeAllAttributeFeatures(left, right, out.data());
  return out;
}

}  // namespace landmark
