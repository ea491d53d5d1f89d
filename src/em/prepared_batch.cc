#include "em/prepared_batch.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "text/similarity.h"
#include "util/check.h"

namespace landmark {

namespace {

/// MongeElkanSimilarity over token ids: every id of `a`, in token order,
/// takes its best entry against `b`'s ids in row a[i] of `table` (`stride`
/// columns). The max, sum and divide run in the string kernel's order over
/// the entries that kernel would compute, so the result has the same bits.
double TableMongeElkan(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb, const double* table, size_t stride) {
  if (na == 0 && nb == 0) return 1.0;
  if (na == 0 || nb == 0) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < na; ++i) {
    const double* row = table + size_t{a[i]} * stride;
    double best = 0.0;
    for (size_t j = 0; j < nb; ++j) {
      best = std::max(best, row[b[j]]);
      if (best == 1.0) break;  // see MongeElkanSimilarity
    }
    total += best;
  }
  return total / static_cast<double>(na);
}

}  // namespace

LandmarkFeatureContext MakeLandmarkFeatureContext(
    const PairRecord& pair, std::optional<EntitySide> frozen_side,
    TokenCache& cache) {
  LandmarkFeatureContext context;
  context.frozen_side = frozen_side;
  if (!frozen_side.has_value()) return context;
  const Record& frozen = pair.entity(*frozen_side);
  const size_t num_attributes =
      frozen.schema() != nullptr ? frozen.schema()->num_attributes() : 0;
  context.frozen_values.reserve(num_attributes);
  for (size_t a = 0; a < num_attributes; ++a) {
    context.frozen_values.push_back(PrepareValue(frozen.value(a), cache));
  }
  return context;
}

PreparedPairBatch::PreparedPairBatch(const std::vector<PairRecord>& pairs,
                                     TokenCache* cache,
                                     const LandmarkFeatureContext& context)
    : pairs_(&pairs) {
  LANDMARK_CHECK(cache != nullptr);
  if (!pairs.empty() && pairs.front().left.schema() != nullptr) {
    num_attributes_ = pairs.front().left.schema()->num_attributes();
  }
  if (context.frozen_side.has_value()) {
    LANDMARK_CHECK(context.frozen_values.size() == num_attributes_);
  }
  const size_t slots = pairs.size() * num_attributes_ * 2;
  value_ptrs_.resize(slots);
  token_ptrs_.resize(slots);
  id_spans_.resize(slots);
  tables_.resize(num_attributes_);

  // One attribute column at a time: resolve its slots, give each side's
  // distinct tokens ids (views into the cached profiles, which outlive the
  // batch) and store every distinct profile's id list once, then fill the
  // column's tables.
  std::unordered_map<std::string_view, uint32_t> vocab;
  std::unordered_map<const TokenizedValue*, IdSpan> interned;
  std::vector<std::string_view> words[2];
  for (size_t a = 0; a < num_attributes_; ++a) {
    for (EntitySide side : {EntitySide::kLeft, EntitySide::kRight}) {
      std::vector<std::string_view>& side_words =
          words[side == EntitySide::kRight];
      vocab.clear();
      interned.clear();
      side_words.clear();
      for (size_t p = 0; p < pairs.size(); ++p) {
        const size_t slot = SlotIndex(p, a, side);
        const PreparedValue prepared =
            context.frozen_side == side
                ? context.frozen_values[a]
                : PrepareValue(pairs[p].entity(side).value(a), *cache);
        value_ptrs_[slot] = prepared.value;
        token_ptrs_[slot] = prepared.tokens;
        if (prepared.tokens == nullptr) continue;
        auto [it, fresh] = interned.try_emplace(prepared.tokens);
        if (fresh) {
          const std::vector<std::string>& tokens = prepared.tokens->tokens;
          LANDMARK_CHECK(token_ids_.size() + tokens.size() <= UINT32_MAX);
          it->second = {static_cast<uint32_t>(token_ids_.size()),
                        static_cast<uint32_t>(tokens.size())};
          for (const std::string& token : tokens) {
            auto [id, added] = vocab.try_emplace(
                token, static_cast<uint32_t>(side_words.size()));
            if (added) side_words.push_back(token);
            token_ids_.push_back(id->second);
          }
        }
        id_spans_[slot] = it->second;
      }
    }

    JwTables& table = tables_[a];
    table.num_left = words[0].size();
    table.num_right = words[1].size();
    if (table.num_left * table.num_right > kMaxJwTableEntries) continue;
    table.built = true;
    table.left_right.resize(table.num_left * table.num_right);
    table.right_left.resize(table.num_left * table.num_right);
    for (size_t l = 0; l < table.num_left; ++l) {
      for (size_t r = 0; r < table.num_right; ++r) {
        table.left_right[l * table.num_right + r] =
            JaroWinklerSimilarity(words[0][l], words[1][r]);
        table.right_left[r * table.num_left + l] =
            JaroWinklerSimilarity(words[1][r], words[0][l]);
      }
    }
  }
}

PreparedValue PreparedPairBatch::value(size_t pair_index, size_t attr,
                                       EntitySide side) const {
  LANDMARK_CHECK(pair_index < pairs_->size() && attr < num_attributes_);
  const size_t slot = SlotIndex(pair_index, attr, side);
  return PreparedValue{value_ptrs_[slot], token_ptrs_[slot]};
}

double PreparedPairBatch::MongeElkan(size_t pair_index, size_t attr) const {
  LANDMARK_CHECK(pair_index < pairs_->size() && attr < num_attributes_);
  const size_t left = SlotIndex(pair_index, attr, EntitySide::kLeft);
  const size_t right = SlotIndex(pair_index, attr, EntitySide::kRight);
  if (token_ptrs_[left] == nullptr || token_ptrs_[right] == nullptr) {
    return 0.0;
  }
  const JwTables& table = tables_[attr];
  if (!table.built) {
    return MongeElkanSymmetric(*token_ptrs_[left], *token_ptrs_[right]);
  }
  const IdSpan ls = id_spans_[left];
  const IdSpan rs = id_spans_[right];
  const uint32_t* l_ids = token_ids_.data() + ls.begin;
  const uint32_t* r_ids = token_ids_.data() + rs.begin;
  // The expression of MongeElkanSymmetric, term for term.
  return 0.5 * (TableMongeElkan(l_ids, ls.size, r_ids, rs.size,
                                table.left_right.data(), table.num_right) +
                TableMongeElkan(r_ids, rs.size, l_ids, ls.size,
                                table.right_left.data(), table.num_left));
}

}  // namespace landmark
