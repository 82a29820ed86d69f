#include "ctmc/graph.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace csrl {

namespace {

void check_square(const CsrMatrix& m, const char* where) {
  if (m.rows() != m.cols())
    throw ModelError(std::string(where) + ": adjacency matrix must be square");
}

}  // namespace

StateSet forward_reachable(const CsrMatrix& adjacency, const StateSet& from) {
  check_square(adjacency, "forward_reachable");
  if (from.size() != adjacency.rows())
    throw ModelError("forward_reachable: universe size mismatch");

  StateSet visited = from;
  std::vector<std::size_t> frontier = from.members();
  while (!frontier.empty()) {
    const std::size_t s = frontier.back();
    frontier.pop_back();
    for (const auto& e : adjacency.row(s)) {
      if (!visited.contains(e.col)) {
        visited.insert(e.col);
        frontier.push_back(e.col);
      }
    }
  }
  return visited;
}

StateSet backward_reachable(const CsrMatrix& adjacency, const StateSet& targets,
                            const StateSet& through) {
  check_square(adjacency, "backward_reachable");
  const std::size_t n = adjacency.rows();
  if (targets.size() != n || through.size() != n)
    throw ModelError("backward_reachable: universe size mismatch");

  const CsrMatrix reverse = adjacency.transposed();
  StateSet visited = targets;
  std::vector<std::size_t> frontier = targets.members();
  while (!frontier.empty()) {
    const std::size_t s = frontier.back();
    frontier.pop_back();
    for (const auto& e : reverse.row(s)) {
      // e.col is a predecessor of s; it may be annexed if it is allowed as
      // an intermediate state.
      if (!visited.contains(e.col) && through.contains(e.col)) {
        visited.insert(e.col);
        frontier.push_back(e.col);
      }
    }
  }
  return visited;
}

std::vector<std::vector<std::size_t>> strongly_connected_components(
    const CsrMatrix& adjacency) {
  check_square(adjacency, "strongly_connected_components");
  const std::size_t n = adjacency.rows();

  constexpr std::size_t kUndefined = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(n, kUndefined);
  std::vector<std::size_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> components;
  std::size_t counter = 0;

  struct Frame {
    std::size_t state;
    std::size_t edge;
  };
  std::vector<Frame> frames;

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUndefined) continue;
    frames.push_back({root, 0});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::size_t v = f.state;
      if (f.edge == 0) {
        index[v] = lowlink[v] = counter++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      const auto edges = adjacency.row(v);
      if (f.edge < edges.size()) {
        const std::size_t w = edges[f.edge++].col;
        if (index[w] == kUndefined) {
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        frames.pop_back();
        if (!frames.empty())
          lowlink[frames.back().state] = std::min(lowlink[frames.back().state],
                                                  lowlink[v]);
        if (lowlink[v] == index[v]) {
          std::vector<std::size_t> component;
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            component.push_back(w);
            if (w == v) break;
          }
          components.push_back(std::move(component));
        }
      }
    }
  }
  return components;
}

std::vector<StateSet> bottom_sccs(const CsrMatrix& adjacency) {
  const std::size_t n = adjacency.rows();
  const auto components = strongly_connected_components(adjacency);

  std::vector<std::size_t> component_of(n, 0);
  for (std::size_t c = 0; c < components.size(); ++c)
    for (std::size_t s : components[c]) component_of[s] = c;

  std::vector<StateSet> bottoms;
  for (std::size_t c = 0; c < components.size(); ++c) {
    bool escapes = false;
    for (std::size_t s : components[c]) {
      for (const auto& e : adjacency.row(s)) {
        if (component_of[e.col] != c) {
          escapes = true;
          break;
        }
      }
      if (escapes) break;
    }
    if (!escapes) {
      StateSet set(n);
      for (std::size_t s : components[c]) set.insert(s);
      bottoms.push_back(std::move(set));
    }
  }
  return bottoms;
}

}  // namespace csrl
