#ifndef LANDMARK_EM_FEATURES_H_
#define LANDMARK_EM_FEATURES_H_

#include <string>
#include <vector>

#include "data/value.h"
#include "text/token_cache.h"

namespace landmark {

/// \brief The per-attribute similarity features used by the Magellan-style
/// EM feature extractor.
///
/// For every attribute of the entity schema, the extractor compares the left
/// and the right value and emits one score per feature kind. This mirrors
/// the feature tables py_entitymatching builds for string attributes, which
/// is the setting the paper's Logistic Regression EM model is trained in.
enum class AttributeFeatureKind : int {
  kJaccard = 0,        // Jaccard over word tokens
  kOverlap,            // overlap coefficient over word tokens
  kCosine,             // cosine over token frequency vectors
  kMongeElkan,         // symmetric Monge-Elkan with Jaro-Winkler base
  kLevenshtein,        // whole-string edit similarity
  kJaroWinkler,        // whole-string Jaro-Winkler
  kTrigram,            // Jaccard over character 3-grams
  kNumericCloseness,   // relative closeness when both parse as numbers
  kBothPresent,        // 1 when neither side is null
};

/// Number of feature kinds emitted per attribute.
constexpr size_t kNumAttributeFeatures = 9;

/// Returns a short name for a feature kind ("jaccard", "overlap", ...).
std::string_view AttributeFeatureKindName(AttributeFeatureKind kind);

/// Computes one similarity feature between two attribute values.
/// Null handling: kBothPresent reports presence; every other feature is 0
/// when either side is null (a missing value carries no similarity signal).
double ComputeAttributeFeature(AttributeFeatureKind kind, const Value& left,
                               const Value& right);

/// \brief One attribute value with its token profile resolved, ready for
/// allocation-light feature computation.
///
/// `value` is never nullptr once prepared; `tokens` is nullptr exactly when
/// the value is null (a null value carries no token profile, mirroring the
/// null short-circuit of ComputeAttributeFeature). Both pointers borrow:
/// the Value must outlive the PreparedValue, the profile must outlive it
/// too (it lives in a TokenCache or on the preparer's stack).
struct PreparedValue {
  const Value* value = nullptr;
  const TokenizedValue* tokens = nullptr;

  bool is_null() const { return value == nullptr || value->is_null(); }
};

/// Resolves `value` against the batch token cache (null values get no
/// profile and never touch the cache — "" and null must stay distinct).
PreparedValue PrepareValue(const Value& value, TokenCache& cache);

/// Prepared-path feature kernel; bit-identical to the Value overload for
/// every kind (the token-set kinds consume the precomputed profile views
/// instead of re-tokenizing, the whole-string kinds read value->text()).
double ComputeAttributeFeature(AttributeFeatureKind kind,
                               const PreparedValue& left,
                               const PreparedValue& right);

/// Computes all kNumAttributeFeatures features for one attribute pair, in
/// enum order.
std::vector<double> ComputeAllAttributeFeatures(const Value& left,
                                                const Value& right);

/// Same, writing into out[0, kNumAttributeFeatures). Tokenizes each side
/// once and shares the profiles across all token-set kinds, instead of
/// re-tokenizing both sides per kind.
void ComputeAllAttributeFeatures(const Value& left, const Value& right,
                                 double* out);

}  // namespace landmark

#endif  // LANDMARK_EM_FEATURES_H_
