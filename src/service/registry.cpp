#include "service/registry.hpp"

#include <utility>

#include "obs/obs.hpp"

namespace csrl {
namespace service {

ModelId ModelRegistry::add(std::shared_ptr<const Mrm> model,
                           const CheckOptions& options) {
  // Probe by fingerprint first: the fingerprint walk is O(nnz), but the
  // artifact build on top of it may also lump — re-running that on a
  // model every session registers would defeat the whole point of the
  // shared-artifact design.  A lost race between two
  // first-time registrations of the same model just discards one of the
  // two identical artifacts.
  const ModelId id = model->fingerprint();
  {
    MutexLock lock(mutex_);
    for (const Entry& entry : entries_)
      if (entry.id == id) return id;
  }
  // Build outside the lock: artifact construction walks the whole model
  // (fingerprint, optional lumping quotient), and registration must not
  // stall lookups.
  std::shared_ptr<const ModelArtifacts> artifacts =
      ModelArtifacts::build(std::move(model), options);
  bool fresh = false;
  {
    MutexLock lock(mutex_);
    bool known = false;
    for (const Entry& entry : entries_)
      if (entry.id == id) known = true;
    if (!known) {
      entries_.push_back({id, std::move(artifacts)});
      fresh = true;
    }
  }
  if (fresh) CSRL_COUNT("service/registry/registered", 1);
  return id;
}

ModelId ModelRegistry::add(Mrm model, const CheckOptions& options) {
  return add(std::make_shared<const Mrm>(std::move(model)), options);
}

std::shared_ptr<const ModelArtifacts> ModelRegistry::find(ModelId id) const {
  MutexLock lock(mutex_);
  for (const Entry& entry : entries_)
    if (entry.id == id) return entry.artifacts;
  return nullptr;
}

std::vector<ModelId> ModelRegistry::ids() const {
  MutexLock lock(mutex_);
  std::vector<ModelId> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.id);
  return out;
}

std::size_t ModelRegistry::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace service
}  // namespace csrl
