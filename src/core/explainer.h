#ifndef LANDMARK_CORE_EXPLAINER_H_
#define LANDMARK_CORE_EXPLAINER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/explanation.h"
#include "core/surrogate.h"
#include "core/token_space.h"
#include "data/pair_record.h"
#include "em/em_model.h"
#include "util/result.h"
#include "util/rng.h"

namespace landmark {

/// Which generic explanation system supplies the perturbation distribution
/// and locality kernel (the yellow boxes of the paper's Figure 2). Landmark
/// Explanation is agnostic to this choice — that is the paper's
/// extensibility claim, made concrete.
enum class NeighborhoodKind {
  kLime,  // uniform removal counts + exponential cosine kernel
  kShap,  // KernelSHAP size distribution + Shapley kernel
};

/// \brief Configuration shared by all perturbation-based explainers.
struct ExplainerOptions {
  /// The generic explainer plugged into the framework.
  NeighborhoodKind neighborhood = NeighborhoodKind::kLime;
  /// Number of synthetic neighbourhood samples (perturbations) per
  /// explanation, including the unperturbed one. Must be >= 2 (the pipeline
  /// needs the all-active sample plus at least one perturbation).
  size_t num_samples = 384;
  /// Width of the exponential locality kernel (on cosine distance between
  /// masks; LIME's default 25/100). Must be > 0.
  double kernel_width = 0.25;
  /// Ridge strength of the surrogate linear model. Must be >= 0.
  double ridge_lambda = 1.0;
  /// When > 0, LIME-style "highest weights" feature selection keeps only
  /// this many tokens in the surrogate.
  size_t max_features = 0;
  /// Base seed; the per-record stream also mixes in the record id, so each
  /// record gets an independent but reproducible neighbourhood.
  uint64_t seed = 42;
};

/// Checks the invariants documented on ExplainerOptions; the pipeline
/// rejects invalid options with InvalidArgument before doing any work
/// (num_samples < 2 would otherwise make `predictions[0]` — the all-active
/// sample every explanation anchors on — undefined).
Status ValidateExplainerOptions(const ExplainerOptions& options);

/// \brief One unit of explanation work inside the engine's graph: an
/// interpretable space plus the metadata needed to reconstruct perturbed
/// pairs and map surrogate coefficients back onto token weights.
///
/// A record plans into one unit for plain LIME and two for the landmark and
/// Mojito-Copy techniques (one per side). Each unit carries its own
/// deterministic RNG stream, so units can be processed in any order and on
/// any thread without changing the result.
struct ExplainUnit {
  /// Explanation skeleton: technique name, landmark side, token space with
  /// all weights still zero. The fit stage fills in the weights.
  Explanation shell;
  /// Dimension of the perturbation space. Equals shell.size() for
  /// token-granular explainers; for Mojito Copy it is the number of
  /// copyable attributes.
  size_t dim = 0;
  /// Per-unit RNG stream (derived from options.seed, the record id, and the
  /// unit's side).
  Rng rng{0};
  /// Attribute-granular perturbation (Mojito Copy): perturbation slot i
  /// governs attribute copy_attrs[i], whose value is copied over from
  /// copy_source when the bit is cleared. Empty for token-granular units.
  std::vector<size_t> copy_attrs;
  std::optional<EntitySide> copy_source;
};

/// \brief Base class of all EM explainers (Figure 2 of the paper).
///
/// A PairExplainer turns one PairRecord plus a black-box EmModel into one or
/// more Explanations. The generic pipeline — Perturbation generation (mask
/// sampling) → Pair reconstruction → Dataset reconstruction (model
/// querying) → Surrogate model creation (weighted ridge) — lives exactly
/// once, in ExplainerEngine (core/engine/explainer_engine.h); subclasses
/// only express the *plan*: which interpretable token space to explain
/// (Plan), how a mask maps to a perturbed pair (ReconstructUnit), and how
/// surrogate coefficients map back to token weights (ApplyFit). Choosing the
/// token space is exactly where Landmark Explanation differs from plain
/// LIME.
class PairExplainer {
 public:
  explicit PairExplainer(ExplainerOptions options = {})
      : options_(options) {}
  virtual ~PairExplainer() = default;

  PairExplainer(const PairExplainer&) = delete;
  PairExplainer& operator=(const PairExplainer&) = delete;

  /// Technique name used in reports ("lime", "landmark-single", ...).
  virtual std::string name() const = 0;

  /// Explains `model`'s prediction on `pair`. Landmark explainers return two
  /// explanations (one per landmark side); LIME returns one. The default
  /// implementation is a one-record engine call on the calling thread; use
  /// ExplainerEngine::ExplainBatch to amortize model queries over many
  /// records and threads.
  virtual Result<std::vector<Explanation>> Explain(
      const EmModel& model, const PairRecord& pair) const;

  /// \brief Plan stage: builds the explain units for one pair (token-space
  /// construction + RNG stream derivation). Must not query `model` except
  /// for cheap per-record gating (e.g. GenerationStrategy::kAuto picks its
  /// strategy from the model's verdict on the original record).
  virtual Result<std::vector<ExplainUnit>> Plan(const EmModel& model,
                                                const PairRecord& pair) const = 0;

  /// \brief Reconstruct stage: materializes the perturbed PairRecord of one
  /// perturbation mask (size unit.dim) of `unit`. The default forwards to
  /// Reconstruct — token-deletion semantics; Mojito Copy overrides it with
  /// attribute-copy semantics.
  virtual Result<PairRecord> ReconstructUnit(
      const ExplainUnit& unit, const PairRecord& original,
      const std::vector<uint8_t>& mask) const;

  /// Packed-mask form of ReconstructUnit. The default expands the bit row to
  /// bytes and forwards to the byte overload, so explainers that only
  /// override the byte form keep working; hot-path overrides (Mojito Copy)
  /// read the bits directly.
  virtual Result<PairRecord> ReconstructUnit(const ExplainUnit& unit,
                                             const PairRecord& original,
                                             const MaskRow& mask) const;

  /// \brief Fit epilogue: writes the surrogate coefficients, intercept and
  /// weighted R² into unit->shell. The default is the identity mapping
  /// (coefficient i → token i); Mojito Copy distributes each attribute
  /// coefficient uniformly over the attribute's tokens.
  virtual void ApplyFit(const SurrogateFit& fit, ExplainUnit* unit) const;

  /// \brief The Pair-reconstruction component: materializes the PairRecord
  /// corresponding to `explanation` with only the features whose mask bit is
  /// set (empty mask = all active).
  ///
  /// The default rule rebuilds each entity that owns tokens in the
  /// explanation's space from its active tokens and leaves the other entity
  /// exactly as in `original` (that is the landmark-preservation semantics).
  /// The evaluation protocols use this same method, so what is measured is
  /// what the surrogate was trained on.
  virtual Result<PairRecord> Reconstruct(
      const Explanation& explanation, const PairRecord& original,
      const std::vector<uint8_t>& active) const;

  /// \brief The entity side ReconstructUnit never varies across `unit`'s
  /// masks (the frozen landmark), or nullopt when both sides can change.
  ///
  /// The engine's query fast path resolves the frozen side's token profiles
  /// once per unit and shares them across all of the unit's perturbations,
  /// so overrides must stay consistent with ReconstructUnit: reporting a
  /// side that actually varies would score perturbed pairs against stale
  /// values. Returning nullopt is always safe — it only disables the
  /// per-unit sharing, the string-keyed token cache still applies.
  ///
  /// The default derives the answer structurally, so explainers built on
  /// the stock ReconstructUnit need no override: a unit copying attributes
  /// from `copy_source` freezes that side; a token-granular unit whose
  /// tokens all live on one side freezes the other (the default
  /// Reconstruct leaves token-less entities untouched); otherwise nullopt.
  virtual std::optional<EntitySide> FrozenSide(const ExplainUnit& unit) const;

  /// Draws the perturbation masks and their kernel weights according to
  /// options().neighborhood. The first mask is guaranteed all-active (the
  /// `predictions[0]` contract). Public because the engine drives it; only
  /// reads options, so it is safe to call concurrently.
  void SampleNeighborhood(size_t dim, Rng& rng,
                          std::vector<std::vector<uint8_t>>* masks,
                          std::vector<double>* kernel_weights) const;

  /// Packed form: one bit per token, kernel weights computed from popcounts.
  /// Draws the exact RNG sequence of the byte overload, so the two forms
  /// produce the same masks and weights bit for bit.
  void SampleNeighborhood(size_t dim, Rng& rng, MaskMatrix* masks,
                          std::vector<double>* kernel_weights) const;

  const ExplainerOptions& options() const { return options_; }

 protected:
  /// Deterministic per-record RNG stream.
  Rng MakeRng(const PairRecord& pair) const;

  /// Builds a token-granular unit over `tokens` (dim == tokens.size());
  /// errors when the space is empty.
  Result<ExplainUnit> MakeTokenUnit(std::vector<Token> tokens,
                                    const std::string& shell_name,
                                    std::optional<EntitySide> landmark_side,
                                    Rng rng) const;

  ExplainerOptions options_;
};

}  // namespace landmark

#endif  // LANDMARK_CORE_EXPLAINER_H_
