#ifndef LANDMARK_EM_PREPARED_BATCH_H_
#define LANDMARK_EM_PREPARED_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "data/pair_record.h"
#include "em/features.h"
#include "text/token_cache.h"

namespace landmark {

/// \brief Frozen-side precomputation for one explanation unit.
///
/// Landmark-style units hold one entity fixed across every perturbation
/// mask, so the fixed side's token profiles are identical for all rows of
/// the unit. The context resolves them once; PreparedPairBatch then shares
/// them across the unit's rows instead of re-resolving per row.
///
/// The context borrows: the source PairRecord and the TokenCache it was
/// built from must outlive it. An empty context (no `frozen_side`) is valid
/// and disables sharing — every row resolves both sides through the cache.
struct LandmarkFeatureContext {
  /// The side frozen across the unit's masks, if any.
  std::optional<EntitySide> frozen_side;
  /// PreparedValue per attribute of the frozen entity; empty when
  /// `frozen_side` is unset.
  std::vector<PreparedValue> frozen_values;
};

/// Builds the context for a unit whose rows all share `pair`'s
/// `frozen_side` entity. Callers must only pass a side that
/// PairExplainer::FrozenSide reports — i.e. one ReconstructUnit never
/// varies; nullopt is always safe and yields an empty context.
LandmarkFeatureContext MakeLandmarkFeatureContext(
    const PairRecord& pair, std::optional<EntitySide> frozen_side,
    TokenCache& cache);

/// \brief A query batch with every attribute value resolved to a
/// PreparedValue, so feature extraction runs without tokenizing.
///
/// The constructor resolves every row: frozen-side slots are copied from
/// `context` when it names a side, every other slot resolves through
/// `cache`. It also builds, per attribute, a vocabulary of each side's
/// distinct normalized tokens and two dense Jaro-Winkler tables over them
/// (JW(l, r) and JW(r, l), each entry from the call the string kernel
/// makes), so MongeElkan() scores a row by lookup instead of recomputing
/// Jaro-Winkler for token pairs earlier rows have already seen.
///
/// The batch borrows `pairs` and `cache`; both must outlive it, and `pairs`
/// must not reallocate (PreparedValues point into its records).
/// Construction mutates the token cache, which is sharded and safe for
/// concurrent callers, so distinct batches may be built against one shared
/// cache from different threads (the engine builds one per unit query
/// node). Once constructed the batch is immutable and safe to read from any
/// number of threads.
class PreparedPairBatch {
 public:
  /// Most entries (|left vocabulary| × |right vocabulary|) an attribute's
  /// Jaro-Winkler table may hold; a larger attribute scores Monge-Elkan
  /// with the string kernel (MongeElkanSymmetric) instead. Measured
  /// explanation units stay below 700 entries.
  static constexpr size_t kMaxJwTableEntries = size_t{1} << 16;

  PreparedPairBatch(const std::vector<PairRecord>& pairs, TokenCache* cache,
                    const LandmarkFeatureContext& context = {});

  const std::vector<PairRecord>& pairs() const { return *pairs_; }
  size_t size() const { return pairs_->size(); }
  size_t num_attributes() const { return num_attributes_; }

  /// The resolved value of `pairs()[pair_index]`'s attribute `attr` on
  /// `side`, assembled from the SoA columns.
  PreparedValue value(size_t pair_index, size_t attr, EntitySide side) const;

  /// Symmetric Monge-Elkan of `pairs()[pair_index]`'s attribute `attr`;
  /// bit-identical to ComputeAttributeFeature(kMongeElkan, ...) on the
  /// same values (0 when either side is null).
  double MongeElkan(size_t pair_index, size_t attr) const;

  /// Whether attribute `attr` scores Monge-Elkan from its tables (false
  /// past kMaxJwTableEntries).
  bool has_jw_table(size_t attr) const { return tables_[attr].built; }

 private:
  /// A slot's token ids: token_ids_[begin, begin + size), in token order
  /// with duplicates, ids from its attribute's vocabulary on its side.
  struct IdSpan {
    uint32_t begin = 0;
    uint32_t size = 0;
  };

  /// One attribute's Jaro-Winkler tables, row-major: left_right[l * R + r]
  /// = JW(left token l, right token r), right_left[r * L + l] =
  /// JW(right token r, left token l). Not built past the cap.
  struct JwTables {
    bool built = false;
    size_t num_left = 0;
    size_t num_right = 0;
    std::vector<double> left_right;
    std::vector<double> right_left;
  };

  size_t SlotIndex(size_t pair_index, size_t attr, EntitySide side) const {
    return (pair_index * num_attributes_ + attr) * 2 +
           (side == EntitySide::kRight);
  }

  const std::vector<PairRecord>* pairs_;
  size_t num_attributes_ = 0;
  /// Structure-of-arrays profile columns, all indexed [pair][attr][side]
  /// (side kLeft then kRight). The query stage streams the token-profile
  /// column almost exclusively (eight of nine feature kinds read only the
  /// tokens), so splitting the PreparedValue fields into parallel arrays
  /// halves the stride of that walk.
  std::vector<const Value*> value_ptrs_;
  std::vector<const TokenizedValue*> token_ptrs_;
  std::vector<IdSpan> id_spans_;
  /// Token-id lists of the distinct profiles, each interned once.
  std::vector<uint32_t> token_ids_;
  std::vector<JwTables> tables_;  // one per attribute
};

}  // namespace landmark

#endif  // LANDMARK_EM_PREPARED_BATCH_H_
