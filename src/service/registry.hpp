// Model registry of the resident checker service.
//
// Registered models become immutable shared artifacts (core/artifacts.hpp:
// the model, its bit-exact fingerprint, optional lumping quotient), keyed by
// Mrm::fingerprint.  The fingerprint doubles as the client-visible model
// id: registering the bit-identical model twice yields the same id and the
// same artifact (idempotent — two clients uploading the same model share
// everything), and a changed model necessarily gets a new id, so stale
// handles can never alias a different model's artifacts.
//
// Thread-safe: registration and lookup run under an internal mutex; the
// artifacts themselves are immutable, so lookups hand out shared_ptrs
// that stay valid regardless of later registrations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/artifacts.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace csrl {
namespace service {

/// Client-visible model handle: the model's bit-exact fingerprint.
using ModelId = std::uint64_t;

class ModelRegistry {
 public:
  /// Register a model (idempotent on bit-identical models); returns its
  /// id.  `options` contributes structural knobs to the artifact build
  /// (see ModelArtifacts::build); a re-registration reuses the existing
  /// artifact and ignores `options`.
  ModelId add(std::shared_ptr<const Mrm> model,
              const CheckOptions& options = {}) CSRL_EXCLUDES(mutex_);
  ModelId add(Mrm model, const CheckOptions& options = {})
      CSRL_EXCLUDES(mutex_);

  /// The artifact registered under `id`, or null.
  std::shared_ptr<const ModelArtifacts> find(ModelId id) const
      CSRL_EXCLUDES(mutex_);

  /// Registered ids in registration order — the deterministic iteration
  /// order the service's fairness round-robin walks.
  std::vector<ModelId> ids() const CSRL_EXCLUDES(mutex_);

  std::size_t size() const CSRL_EXCLUDES(mutex_);

 private:
  struct Entry {
    ModelId id = 0;
    std::shared_ptr<const ModelArtifacts> artifacts;
  };

  mutable Mutex mutex_;
  // Registration order; linear scans are fine — a resident process
  // serves many queries per registered model, and lookups dominate.
  std::vector<Entry> entries_ CSRL_GUARDED_BY(mutex_);
};

}  // namespace service
}  // namespace csrl
