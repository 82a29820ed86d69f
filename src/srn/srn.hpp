// Stochastic reward nets (SRNs), our stand-in for SPNP [6].
//
// The paper models its case study (Figure 2) as an SRN: a stochastic
// Petri net whose exponential transitions may have marking-dependent
// rates, guards and inhibitor arcs, extended with a reward function over
// markings.  Generating the reachability graph of an SRN yields exactly
// the labelled Markov reward model the checker consumes; place names
// double as atomic propositions (a proposition holds in a marking iff the
// place is non-empty).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace csrl {

/// A marking: token count per place, indexed by place id.
using Marking = std::vector<std::uint32_t>;

/// Identifier handles returned by Srn::add_place / add_transition.
struct PlaceId {
  std::size_t index;
};
struct TransitionId {
  std::size_t index;
};

/// Optional marking-dependent rate multiplier and enabling guard.
using RateFunction = std::function<double(const Marking&)>;
using GuardFunction = std::function<bool(const Marking&)>;

/// A stochastic reward net under construction.
class Srn {
 public:
  /// Add a place with initial token count.
  PlaceId add_place(std::string name, std::uint32_t initial_tokens = 0);

  /// Add an exponential transition with base rate (per time unit).
  TransitionId add_transition(std::string name, double rate);

  /// Add an *immediate* transition with the given weight.  Immediate
  /// transitions fire in zero time and preempt every timed transition;
  /// when several are enabled they race by normalised weight.  Markings
  /// enabling an immediate transition ("vanishing markings") are
  /// eliminated during reachability-graph generation, exactly as SPNP
  /// does.
  TransitionId add_immediate_transition(std::string name, double weight);

  /// Impulse reward earned whenever `transition` fires (default 0); fed
  /// into the generated MRM's impulse-reward structure.  Impulses of
  /// immediate transitions accumulate along the vanishing chain.
  void set_transition_impulse(TransitionId transition, double impulse);

  /// Firing priority of an immediate transition (default 0).  In a
  /// vanishing marking only the enabled immediate transitions of the
  /// *highest* priority race by weight, as in SPNP.  Throws for timed
  /// transitions.
  void set_priority(TransitionId transition, int priority);

  /// Arc from place to transition: `transition` needs `multiplicity`
  /// tokens in `place` and consumes them when firing.
  void add_input_arc(TransitionId transition, PlaceId place,
                     std::uint32_t multiplicity = 1);

  /// Arc from transition to place: firing deposits `multiplicity` tokens.
  void add_output_arc(TransitionId transition, PlaceId place,
                      std::uint32_t multiplicity = 1);

  /// Inhibitor arc: `transition` is disabled while `place` holds at least
  /// `multiplicity` tokens.
  void add_inhibitor_arc(TransitionId transition, PlaceId place,
                         std::uint32_t multiplicity = 1);

  /// Extra enabling predicate evaluated on the marking.
  void set_guard(TransitionId transition, GuardFunction guard);

  /// Marking-dependent rate multiplier; the effective rate is
  /// base_rate * factor(marking).
  void set_rate_function(TransitionId transition, RateFunction factor);

  /// Reward rate contributed by each token in `place` (rewards of a
  /// marking add up over places, as in the paper's Table 1).
  void set_place_reward(PlaceId place, double reward_per_token);

  /// Overrides the additive per-place scheme with an arbitrary
  /// marking-dependent reward rate.
  void set_reward_function(std::function<double(const Marking&)> reward);

  // -- Introspection used by the reachability generator -------------------
  std::size_t num_places() const { return places_.size(); }
  std::size_t num_transitions() const { return transitions_.size(); }
  const std::string& place_name(PlaceId p) const { return places_[p.index].name; }
  Marking initial_marking() const;

  /// Is `transition` enabled in `marking` (input arcs, inhibitors, guard)?
  bool enabled(TransitionId transition, const Marking& marking) const;

  /// True if `transition` was added with add_immediate_transition.
  bool is_immediate(TransitionId transition) const;

  /// The firing weight of an immediate transition in `marking` (base
  /// weight times the rate function; 0 if disabled).  Throws for timed
  /// transitions.
  double weight(TransitionId transition, const Marking& marking) const;

  /// Impulse reward of a transition (0 by default).
  double transition_impulse(TransitionId transition) const;

  /// Priority of an immediate transition (0 by default).
  int priority(TransitionId transition) const;

  /// Effective firing rate in `marking` (0 if disabled).  Throws for
  /// immediate transitions — they have no rate.
  double rate(TransitionId transition, const Marking& marking) const;

  /// Successor marking (requires enabled()).
  Marking fire(TransitionId transition, const Marking& marking) const;

  /// Reward rate of a marking.
  double reward(const Marking& marking) const;

 private:
  struct Arc {
    std::size_t place;
    std::uint32_t multiplicity;
  };

  struct Place {
    std::string name;
    std::uint32_t initial_tokens;
    double reward_per_token = 0.0;
  };

  struct Transition {
    std::string name;
    double base_rate;  // rate for timed, weight for immediate transitions
    bool immediate = false;
    double impulse = 0.0;
    int priority = 0;
    std::vector<Arc> inputs;
    std::vector<Arc> outputs;
    std::vector<Arc> inhibitors;
    GuardFunction guard;       // optional
    RateFunction rate_factor;  // optional
  };

  std::vector<Place> places_;
  std::vector<Transition> transitions_;
  std::function<double(const Marking&)> reward_function_;  // optional
};

}  // namespace csrl
