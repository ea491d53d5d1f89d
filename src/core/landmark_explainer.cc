#include "core/landmark_explainer.h"

#include "core/engine/explainer_engine.h"

namespace landmark {

std::string_view GenerationStrategyName(GenerationStrategy strategy) {
  switch (strategy) {
    case GenerationStrategy::kSingle:
      return "single";
    case GenerationStrategy::kDouble:
      return "double";
    case GenerationStrategy::kAuto:
      return "auto";
  }
  return "unknown";
}

std::string LandmarkExplainer::name() const {
  return "landmark-" + std::string(GenerationStrategyName(strategy_));
}

Result<ExplainUnit> LandmarkExplainer::PlanWithLandmark(
    const EmModel& model, const PairRecord& pair,
    EntitySide landmark_side) const {
  const EntitySide varying_side = OppositeSide(landmark_side);
  const Record& landmark_entity = pair.entity(landmark_side);
  const Record& varying_entity = pair.entity(varying_side);

  GenerationStrategy effective = strategy_;
  if (effective == GenerationStrategy::kAuto) {
    // §3: double-entity generation when the record is predicted
    // non-matching, single-entity otherwise.
    effective = model.PredictProba(pair) >= 0.5 ? GenerationStrategy::kSingle
                                                : GenerationStrategy::kDouble;
  }

  std::vector<Token> tokens =
      effective == GenerationStrategy::kSingle
          ? TokenizeEntity(varying_entity, varying_side)
          : BuildAugmentedTokens(varying_entity, varying_side,
                                 landmark_entity);

  Rng rng = MakeRng(pair);
  // Derive distinct streams for the two landmark sides.
  if (landmark_side == EntitySide::kRight) rng = rng.Fork();
  return MakeTokenUnit(std::move(tokens), name(), landmark_side, rng);
}

Result<Explanation> LandmarkExplainer::ExplainWithLandmark(
    const EmModel& model, const PairRecord& pair,
    EntitySide landmark_side) const {
  LANDMARK_ASSIGN_OR_RETURN(ExplainUnit unit,
                            PlanWithLandmark(model, pair, landmark_side));
  return ExplainerEngine::Serial().ExplainPlanned(model, pair, *this,
                                                  std::move(unit));
}

Result<std::vector<ExplainUnit>> LandmarkExplainer::Plan(
    const EmModel& model, const PairRecord& pair) const {
  std::vector<ExplainUnit> units;
  units.reserve(2);
  for (EntitySide landmark_side : {EntitySide::kLeft, EntitySide::kRight}) {
    LANDMARK_ASSIGN_OR_RETURN(ExplainUnit unit,
                              PlanWithLandmark(model, pair, landmark_side));
    units.push_back(std::move(unit));
  }
  return units;
}

}  // namespace landmark
