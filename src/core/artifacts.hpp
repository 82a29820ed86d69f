// Shared immutable per-model checking artifacts.
//
// A Checker bound directly to an Mrm recomputes per construction what is
// really a property of the model: the bit-exact fingerprint (O(nnz)) and
// the bisimulation quotient when lumping is requested.  A resident service that builds a fresh
// (stateless) Checker per query batch cannot afford any of these, and
// more fundamentally the results are immutable facts about the model
// that every session should share.
//
// ModelArtifacts is that shared precomputation: built once — typically at
// model registration (service/registry.hpp) — and handed to any number of
// concurrent Checkers, which then construct in O(states).  The artifact
// owns the model (shared_ptr), so checkers built from it never dangle;
// the lazily-built CSR caches (row chunks, transposes)
// live inside the shared CsrMatrix and are therefore warmed once per
// artifact rather than once per checker.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/options.hpp"
#include "mrm/mrm.hpp"
#include "obs/report.hpp"

namespace csrl {

/// Immutable bundle: the model, its fingerprint, and (optionally) the
/// bisimulation quotient a lumping checker computes on.  Thread-safe by
/// immutability — build() returns a shared_ptr<const> and nothing mutates
/// afterwards.
class ModelArtifacts {
 public:
  /// Precompute the artifacts for `model`.  `options` contributes only
  /// its structural knob: lump (resolved through CSRL_LUMP) decides
  /// whether the bisimulation quotient is materialised.  The model
  /// pointer must be non-null.  Throws ModelError when lumping is on and
  /// impulse rewards prevent an exact quotient.
  static std::shared_ptr<const ModelArtifacts> build(
      std::shared_ptr<const Mrm> model, const CheckOptions& options = {});

  /// Convenience: copies `model` into shared ownership first.
  static std::shared_ptr<const ModelArtifacts> build(
      Mrm model, const CheckOptions& options = {});

  /// The model as registered (original state numbering).
  const std::shared_ptr<const Mrm>& model() const { return model_; }

  /// Bit-exact fingerprint of the original model (Mrm::fingerprint).
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Was the bisimulation quotient materialised?
  bool lumped() const { return lumped_model_ != nullptr; }

  /// The model all checking runs on: the quotient when lumped, else the
  /// original.
  const Mrm& internal_model() const {
    return lumped_model_ ? *lumped_model_ : *model_;
  }

  /// Fingerprint of internal_model() — distinct from fingerprint() when
  /// lumped, so Sat sets cached in internal numbering can never be
  /// confused with original-numbering entries of the same model (the
  /// quotient fingerprints as its own model).
  std::uint64_t internal_fingerprint() const { return internal_fingerprint_; }

  /// Original index -> internal index projection: the lumping block map,
  /// empty when not lumped.
  const std::vector<std::size_t>& projection() const { return projection_; }

  /// Dimensions and refiner accounting of the lumping pass; enabled is
  /// false when not lumped.  Checkers copy this into their RunReports.
  const obs::RunReport::Lumping& lumping_info() const { return lumping_info_; }

 private:
  // make_shared needs a public constructor; the private tag type keeps
  // construction confined to build().
  struct BuildTag {};

 public:
  explicit ModelArtifacts(BuildTag) {}

 private:
  std::shared_ptr<const Mrm> model_;
  std::uint64_t fingerprint_ = 0;
  std::shared_ptr<const Mrm> lumped_model_;  // null unless lumping
  std::uint64_t internal_fingerprint_ = 0;
  std::vector<std::size_t> projection_;
  obs::RunReport::Lumping lumping_info_;
};

}  // namespace csrl
