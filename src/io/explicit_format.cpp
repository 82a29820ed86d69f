#include "io/explicit_format.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/error.hpp"

namespace csrl {

namespace {

std::ofstream open_for_write(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ModelError("save_mrm: cannot open '" + path + "' for writing");
  out.precision(17);
  return out;
}

std::ifstream open_for_read(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ModelError("load_mrm: cannot open '" + path + "'");
  return in;
}

[[noreturn]] void malformed(const std::string& path, std::size_t line,
                            const std::string& what) {
  throw ModelError("load_mrm: " + path + ":" + std::to_string(line) + ": " +
                   what);
}

/// Reads non-comment, non-empty lines and hands them to `handle` with
/// their line number.
template <typename LineFn>
void for_each_line(std::ifstream& in, LineFn handle) {
  std::string line;
  std::size_t number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (line.empty() || line[0] == '#') continue;
    handle(line, number);
  }
}

}  // namespace

void save_mrm(const Mrm& model, const std::string& prefix) {
  const std::size_t n = model.num_states();

  {
    auto out = open_for_write(prefix + ".tra");
    out << n << " " << model.rates().nnz() << "\n";
    for (std::size_t s = 0; s < n; ++s)
      for (const auto& e : model.rates().row(s))
        out << s << " " << e.col << " " << e.value << "\n";
  }
  {
    auto out = open_for_write(prefix + ".lab");
    bool first = true;
    for (const std::string& ap : model.labelling().propositions()) {
      out << (first ? "" : " ") << ap;
      first = false;
    }
    out << "\n";
    for (std::size_t s = 0; s < n; ++s) {
      const auto labels = model.labelling().labels_of(s);
      if (labels.empty()) continue;
      out << s;
      for (const std::string& ap : labels) out << " " << ap;
      out << "\n";
    }
  }
  {
    auto out = open_for_write(prefix + ".rew");
    for (std::size_t s = 0; s < n; ++s)
      if (model.reward(s) != 0.0) out << s << " " << model.reward(s) << "\n";
  }
  {
    auto out = open_for_write(prefix + ".init");
    for (std::size_t s = 0; s < n; ++s)
      if (model.initial_distribution()[s] != 0.0)
        out << s << " " << model.initial_distribution()[s] << "\n";
  }
  if (model.has_impulse_rewards()) {
    auto out = open_for_write(prefix + ".imp");
    for (std::size_t s = 0; s < n; ++s)
      for (const auto& e : model.impulse_rewards().row(s))
        out << s << " " << e.col << " " << e.value << "\n";
  } else {
    // A stale .imp file from an earlier save must not haunt the next load.
    std::remove((prefix + ".imp").c_str());
  }
}

Mrm load_mrm(const std::string& prefix) {
  // --- transitions ---------------------------------------------------
  std::size_t num_states = 0;
  CsrBuilder* rates = nullptr;  // constructed once the header is seen
  CsrBuilder rates_storage(0, 0);
  // Per-state arrays, sized as soon as the header declares the count so
  // that a count no allocator can serve fails at the header line.
  std::vector<double> rewards;
  std::vector<double> initial;
  {
    const std::string path = prefix + ".tra";
    auto in = open_for_read(path);
    bool header_seen = false;
    for_each_line(in, [&](const std::string& line, std::size_t number) {
      std::istringstream fields(line);
      if (!header_seen) {
        // Signed reads: `>> std::size_t` would wrap "-1" to 2^64 - 1.
        long long declared_states = 0;
        long long declared_transitions = 0;
        if (!(fields >> declared_states >> declared_transitions))
          malformed(path, number, "expected '<#states> <#transitions>' header");
        if (declared_states < 0 || declared_transitions < 0)
          malformed(path, number,
                    "state and transition counts must be non-negative");
        num_states = static_cast<std::size_t>(declared_states);
        // assign() throws std::length_error past max_size() and
        // std::bad_alloc when the allocator refuses the request.
        bool allocated = false;
        try {
          rewards.assign(num_states, 0.0);
          initial.assign(num_states, 0.0);
          allocated = true;
        } catch (const std::bad_alloc&) {
        } catch (const std::length_error&) {
        }
        if (!allocated)
          malformed(path, number, "cannot allocate the declared " +
                                      std::to_string(num_states) + " states");
        rates_storage = CsrBuilder(num_states, num_states);
        rates = &rates_storage;
        header_seen = true;
        return;
      }
      std::size_t src = 0;
      std::size_t dst = 0;
      double rate = 0.0;
      if (!(fields >> src >> dst >> rate))
        malformed(path, number, "expected '<src> <dst> <rate>'");
      if (src >= num_states || dst >= num_states)
        malformed(path, number, "state index out of range");
      if (!(rate > 0.0) || !std::isfinite(rate))
        malformed(path, number, "rate must be positive and finite");
      rates->add(src, dst, rate);
    });
    if (!header_seen) malformed(path, 0, "missing header");
  }

  // --- labels ---------------------------------------------------------
  Labelling labelling(num_states);
  {
    const std::string path = prefix + ".lab";
    auto in = open_for_read(path);
    bool header_seen = false;
    for_each_line(in, [&](const std::string& line, std::size_t number) {
      std::istringstream fields(line);
      if (!header_seen) {
        std::string ap;
        while (fields >> ap) labelling.add_proposition(ap);
        header_seen = true;
        return;
      }
      std::size_t state = 0;
      if (!(fields >> state)) malformed(path, number, "expected a state index");
      if (state >= num_states) malformed(path, number, "state index out of range");
      std::string ap;
      while (fields >> ap) {
        if (!labelling.has_proposition(ap))
          malformed(path, number, "proposition '" + ap + "' not declared");
        labelling.add_label(state, ap);
      }
    });
  }

  // --- rewards ----------------------------------------------------------
  {
    const std::string path = prefix + ".rew";
    auto in = open_for_read(path);
    for_each_line(in, [&](const std::string& line, std::size_t number) {
      std::istringstream fields(line);
      std::size_t state = 0;
      double reward = 0.0;
      if (!(fields >> state >> reward))
        malformed(path, number, "expected '<state> <reward>'");
      if (state >= num_states) malformed(path, number, "state index out of range");
      rewards[state] = reward;
    });
  }

  // --- initial distribution ----------------------------------------------
  {
    const std::string path = prefix + ".init";
    auto in = open_for_read(path);
    bool any = false;
    for_each_line(in, [&](const std::string& line, std::size_t number) {
      std::istringstream fields(line);
      std::size_t state = 0;
      if (!(fields >> state)) malformed(path, number, "expected a state index");
      if (state >= num_states) malformed(path, number, "state index out of range");
      double probability = 1.0;
      fields >> probability;  // optional: absent means point mass
      initial[state] = probability;
      any = true;
    });
    if (!any) malformed(path, 0, "no initial state given");
  }

  Mrm model(Ctmc(rates_storage.build()), std::move(rewards),
            std::move(labelling), std::move(initial));

  // --- impulse rewards (optional file) -------------------------------------
  {
    const std::string path = prefix + ".imp";
    std::ifstream in(path);
    if (in) {
      CsrBuilder impulses(num_states, num_states);
      bool any = false;
      for_each_line(in, [&](const std::string& line, std::size_t number) {
        std::istringstream fields(line);
        std::size_t src = 0;
        std::size_t dst = 0;
        double impulse = 0.0;
        if (!(fields >> src >> dst >> impulse))
          malformed(path, number, "expected '<src> <dst> <impulse>'");
        if (src >= num_states || dst >= num_states)
          malformed(path, number, "state index out of range");
        impulses.add(src, dst, impulse);
        any = true;
      });
      if (any) model = model.with_impulses(impulses.build());
    }
  }
  return model;
}

}  // namespace csrl
