#include "core/mojito_copy_explainer.h"

#include <unordered_map>

#include "core/engine/explainer_engine.h"
#include "text/tokenize.h"

namespace landmark {

Result<ExplainUnit> MojitoCopyExplainer::PlanDirection(
    const PairRecord& pair, EntitySide source_side) const {
  const EntitySide varying_side = OppositeSide(source_side);
  const Record& source = pair.entity(source_side);
  const Record& varying = pair.entity(varying_side);

  // Interpretable space: the varying entity's own tokens (all-ones = the
  // original record). Only attributes that have tokens AND a non-null source
  // value can take part in the copy perturbation.
  std::vector<Token> tokens = TokenizeEntity(varying, varying_side);
  if (tokens.empty()) {
    return Status::InvalidArgument(
        "varying entity has no tokens to explain (all attribute values null)");
  }

  std::vector<size_t> attrs;  // copyable attributes, in order
  std::vector<int64_t> attr_slot_of(varying.num_attributes(), -1);
  for (const Token& token : tokens) {
    if (attr_slot_of[token.attribute] >= 0) continue;
    if (source.value(token.attribute).is_null()) continue;
    attr_slot_of[token.attribute] = static_cast<int64_t>(attrs.size());
    attrs.push_back(token.attribute);
  }
  if (attrs.empty()) {
    return Status::InvalidArgument(
        "no attribute is copyable (source side entirely null)");
  }

  ExplainUnit unit;
  unit.shell.explainer_name = name();
  unit.shell.landmark = source_side;
  unit.shell.token_weights.reserve(tokens.size());
  for (auto& token : tokens) {
    unit.shell.token_weights.push_back(TokenWeight{std::move(token), 0.0});
  }
  // Attribute-level perturbation: clearing bit i copies the source value
  // over the varying entity's attribute copy_attrs[i].
  unit.dim = attrs.size();
  unit.copy_attrs = std::move(attrs);
  unit.copy_source = source_side;
  Rng rng = MakeRng(pair);
  if (source_side == EntitySide::kRight) rng = rng.Fork();
  unit.rng = rng;
  return unit;
}

Result<std::vector<ExplainUnit>> MojitoCopyExplainer::Plan(
    const EmModel& model, const PairRecord& pair) const {
  (void)model;
  std::vector<ExplainUnit> units;
  units.reserve(2);
  for (EntitySide source_side : {EntitySide::kLeft, EntitySide::kRight}) {
    LANDMARK_ASSIGN_OR_RETURN(ExplainUnit unit,
                              PlanDirection(pair, source_side));
    units.push_back(std::move(unit));
  }
  return units;
}

Result<PairRecord> MojitoCopyExplainer::ReconstructUnit(
    const ExplainUnit& unit, const PairRecord& original,
    const std::vector<uint8_t>& mask) const {
  if (!unit.copy_source.has_value()) {
    return PairExplainer::ReconstructUnit(unit, original, mask);
  }
  if (mask.size() != unit.copy_attrs.size()) {
    return Status::InvalidArgument(
        "ReconstructUnit: mask size does not match the copy-attribute slots");
  }
  const EntitySide source_side = *unit.copy_source;
  const EntitySide varying_side = OppositeSide(source_side);
  const Record& source = original.entity(source_side);
  PairRecord rec = original;
  Record& rec_varying = rec.entity(varying_side);
  for (size_t slot = 0; slot < unit.copy_attrs.size(); ++slot) {
    if (!mask[slot]) {
      rec_varying.SetValue(unit.copy_attrs[slot],
                           source.value(unit.copy_attrs[slot]));
    }
  }
  return rec;
}

Result<PairRecord> MojitoCopyExplainer::ReconstructUnit(
    const ExplainUnit& unit, const PairRecord& original,
    const MaskRow& mask) const {
  if (!unit.copy_source.has_value()) {
    return PairExplainer::ReconstructUnit(unit, original, mask);
  }
  if (mask.dim != unit.copy_attrs.size()) {
    return Status::InvalidArgument(
        "ReconstructUnit: mask size does not match the copy-attribute slots");
  }
  const EntitySide source_side = *unit.copy_source;
  const EntitySide varying_side = OppositeSide(source_side);
  const Record& source = original.entity(source_side);
  PairRecord rec = original;
  Record& rec_varying = rec.entity(varying_side);
  for (size_t slot = 0; slot < unit.copy_attrs.size(); ++slot) {
    if (!mask.bit(slot)) {
      rec_varying.SetValue(unit.copy_attrs[slot],
                           source.value(unit.copy_attrs[slot]));
    }
  }
  return rec;
}

void MojitoCopyExplainer::ApplyFit(const SurrogateFit& fit,
                                   ExplainUnit* unit) const {
  if (!unit->copy_source.has_value()) {
    PairExplainer::ApplyFit(fit, unit);
    return;
  }
  Explanation& shell = unit->shell;
  // Attribute-atomic weights, distributed uniformly over the attribute's
  // tokens. Tokens of non-copyable attributes keep weight 0.
  std::unordered_map<size_t, size_t> slot_of;
  slot_of.reserve(unit->copy_attrs.size());
  for (size_t slot = 0; slot < unit->copy_attrs.size(); ++slot) {
    slot_of.emplace(unit->copy_attrs[slot], slot);
  }
  std::unordered_map<size_t, size_t> tokens_per_attr;
  for (const auto& tw : shell.token_weights) {
    ++tokens_per_attr[tw.token.attribute];
  }
  for (auto& tw : shell.token_weights) {
    auto it = slot_of.find(tw.token.attribute);
    if (it == slot_of.end()) continue;
    tw.weight = fit.model.coefficients[it->second] /
                static_cast<double>(tokens_per_attr[tw.token.attribute]);
  }
  shell.surrogate_intercept = fit.model.intercept;
  shell.surrogate_r2 = fit.weighted_r2;
}

Result<Explanation> MojitoCopyExplainer::ExplainDirection(
    const EmModel& model, const PairRecord& pair,
    EntitySide source_side) const {
  LANDMARK_ASSIGN_OR_RETURN(ExplainUnit unit,
                            PlanDirection(pair, source_side));
  return ExplainerEngine::Serial().ExplainPlanned(model, pair, *this,
                                                  std::move(unit));
}

}  // namespace landmark
