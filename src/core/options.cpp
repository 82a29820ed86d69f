#include "core/options.hpp"

#include "core/engines/discretisation_engine.hpp"
#include "core/engines/erlang_engine.hpp"
#include "core/engines/sericola_engine.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csrl {

std::unique_ptr<JointDistributionEngine> make_engine(const CheckOptions& options) {
  // An explicit thread count re-sizes the process-wide pool; 0 leaves the
  // current pool alone (it resolves CSRL_THREADS / hardware_concurrency on
  // first use).  The engines' kernels all run on that one pool, so every
  // nested formula checked through the same Checker reuses one set of
  // workers.
  if (options.num_threads != 0)
    ThreadPool::set_global_threads(options.num_threads);
  if (options.validate) validation::set_level(*options.validate);

  CSRL_SPAN("core/make_engine");
  CSRL_COUNT("engine/instantiations", 1);

  // Of the P3 engines only the pseudo-Erlang engine reads
  // TransientOptions (its lattice columns are batched uniformisation
  // runs).  Sericola runs each level's coefficient products as one lane
  // product over its state-major rows, and the discretisation engine
  // answers every start state in one adjoint run.
  switch (options.engine) {
    case P3Engine::kSericola:
      return std::make_unique<SericolaEngine>(options.sericola_epsilon);
    case P3Engine::kDiscretisation:
      return std::make_unique<DiscretisationEngine>(
          options.discretisation_step);
    case P3Engine::kErlang:
      return std::make_unique<ErlangEngine>(options.erlang_phases,
                                            options.transient);
  }
  throw Error("make_engine: invalid engine selector");
}

std::string engine_label(const CheckOptions& options) {
  switch (options.engine) {
    case P3Engine::kSericola:
      return "sericola";
    case P3Engine::kDiscretisation:
      return "discretisation-d=" + std::to_string(options.discretisation_step);
    case P3Engine::kErlang:
      return "erlang-" + std::to_string(options.erlang_phases);
  }
  return "unknown";
}

double engine_truncation_error(const CheckOptions& options) {
  switch (options.engine) {
    case P3Engine::kSericola:
      return options.sericola_epsilon;
    case P3Engine::kDiscretisation:
      return options.discretisation_step;
    case P3Engine::kErlang:
      return options.transient.epsilon;
  }
  return 0.0;
}

}  // namespace csrl
