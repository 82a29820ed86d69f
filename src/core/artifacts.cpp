#include "core/artifacts.hpp"

#include <utility>

#include "mrm/lumping.hpp"
#include "util/error.hpp"

namespace csrl {

std::shared_ptr<const ModelArtifacts> ModelArtifacts::build(
    std::shared_ptr<const Mrm> model, const CheckOptions& options) {
  if (!model) throw ModelError("ModelArtifacts::build: null model");
  auto artifacts = std::make_shared<ModelArtifacts>(BuildTag{});
  artifacts->model_ = std::move(model);
  artifacts->fingerprint_ = artifacts->model_->fingerprint();
  artifacts->internal_fingerprint_ = artifacts->fingerprint_;
  const Mrm& original = *artifacts->model_;
  if (resolve_lump(options.lump) && original.num_states() > 0) {
    LumpingResult lumped = lump(original);
    artifacts->projection_ = std::move(lumped.block_of);
    artifacts->lumping_info_.enabled = true;
    artifacts->lumping_info_.original_states = original.num_states();
    artifacts->lumping_info_.original_transitions = original.rates().nnz();
    artifacts->lumping_info_.sweeps = lumped.stats.sweeps;
    artifacts->lumping_info_.splits = lumped.stats.splits;
    artifacts->lumping_info_.states_resigned = lumped.stats.states_resigned;
    artifacts->lumping_info_.wall_seconds = lumped.stats.wall_seconds;
    artifacts->lumped_model_ =
        std::make_shared<const Mrm>(std::move(lumped.quotient));
    const Mrm& quotient = *artifacts->lumped_model_;
    artifacts->lumping_info_.states = quotient.num_states();
    artifacts->lumping_info_.transitions = quotient.rates().nnz();
    artifacts->internal_fingerprint_ = quotient.fingerprint();
  }
  return artifacts;
}

std::shared_ptr<const ModelArtifacts> ModelArtifacts::build(
    Mrm model, const CheckOptions& options) {
  return build(std::make_shared<const Mrm>(std::move(model)), options);
}

}  // namespace csrl
