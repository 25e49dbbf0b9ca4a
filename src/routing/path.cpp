#include "src/routing/path.h"

#include <algorithm>

#include "src/util/error.h"

namespace tp {

std::vector<NodeId> Path::nodes(const Torus& torus) const {
  std::vector<NodeId> seq;
  seq.reserve(edges.size() + 1);
  seq.push_back(source);
  for (EdgeId e : edges) {
    const Link l = torus.link(e);
    TP_REQUIRE(l.tail == seq.back(), "path edges are not contiguous");
    seq.push_back(l.head);
  }
  return seq;
}

void Path::verify_connected(const Torus& torus) const {
  NodeId at = source;
  for (EdgeId e : edges) {
    const Link l = torus.link(e);
    TP_REQUIRE(l.tail == at, "path edges are not contiguous");
    at = l.head;
  }
  TP_REQUIRE(at == target, "path does not end at its target");
}

void Path::verify_minimal(const Torus& torus) const {
  verify_connected(torus);
  TP_REQUIRE(length() == torus.lee_distance(source, target),
             "path is not minimal");
}

bool Path::uses(EdgeId e) const {
  return std::find(edges.begin(), edges.end(), e) != edges.end();
}

}  // namespace tp
