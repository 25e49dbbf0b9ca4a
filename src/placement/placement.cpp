#include "src/placement/placement.h"

#include <algorithm>
#include <numeric>

#include "src/util/error.h"
#include "src/util/prng.h"

namespace tp {

Placement::Placement(const Torus& torus, std::vector<NodeId> nodes,
                     std::string name)
    : nodes_(std::move(nodes)),
      member_(static_cast<std::size_t>(torus.num_nodes()), false),
      name_(std::move(name)),
      torus_nodes_(torus.num_nodes()) {
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  for (NodeId n : nodes_) {
    TP_REQUIRE(torus.valid_node(n), "placement node outside torus");
    member_[static_cast<std::size_t>(n)] = true;
  }
}

bool Placement::contains(NodeId n) const {
  TP_REQUIRE(n >= 0 && n < torus_nodes_, "node id out of range");
  return member_[static_cast<std::size_t>(n)];
}

void Placement::check_torus(const Torus& torus) const {
  TP_REQUIRE(torus.num_nodes() == torus_nodes_,
             "placement was generated for a different torus");
}

Stabilizer stabilizer(const Torus& torus, const Placement& p) {
  std::vector<i64> coords;
  coords.reserve(p.nodes().size() * static_cast<std::size_t>(torus.dims()));
  for (const NodeId node : p.nodes())
    for (const i32 x : torus.coord(node)) coords.push_back(x);
  return stabilizer(torus, p, coords);
}

Stabilizer stabilizer(const Torus& torus, const Placement& p,
                      const std::vector<i64>& pc) {
  p.check_torus(torus);
  const auto d = static_cast<std::size_t>(torus.dims());
  TP_REQUIRE(pc.size() == p.nodes().size() * d,
             "need d coordinates per processor");
  SmallVec<i64> radix, stride;
  for (i32 dim = 0; dim < torus.dims(); ++dim) {
    radix.push_back(torus.radix(dim));
    stride.push_back(torus.stride(dim));
  }
  // Coordinates of H, flat with d entries per element (pc holds P's).
  std::vector<i64> hc(d, 0);
  // a + b in dimension i, for coordinates a, b < radix[i].
  const auto add = [&](i64 a, i64 b, std::size_t i) {
    return a + b >= radix[i] ? a + b - radix[i] : a + b;
  };
  // The node a + b reaches, for coordinate arrays a and b.
  const auto sum_node = [&](const i64* a, const i64* b) {
    NodeId node = 0;
    for (std::size_t i = 0; i < d; ++i) node += add(a[i], b[i], i) * stride[i];
    return node;
  };

  Stabilizer s;
  s.group.push_back(0);
  std::vector<bool> in_group(static_cast<std::size_t>(torus.num_nodes()),
                             false);
  in_group[0] = true;
  const std::size_t n = p.nodes().size();
  for (std::size_t qi = 1; qi < n; ++qi) {
    SmallVec<i64> h(d, 0);
    NodeId h_node = 0;
    for (std::size_t i = 0; i < d; ++i) {
      h[i] = pc[qi * d + i] - pc[i];
      if (h[i] < 0) h[i] += radix[i];
      h_node += h[i] * stride[i];
    }
    if (in_group[static_cast<std::size_t>(h_node)]) continue;
    // p0 + h = q is in P by construction, so the scan starts at p1.
    bool fixes = true;
    for (std::size_t pi = 1; pi < n && fixes; ++pi)
      fixes = p.contains(sum_node(&pc[pi * d], h.begin()));
    if (!fixes) continue;
    // H + <h> is the union of the cosets H + j·h up to the first j·h in H.
    const std::size_t old_size = s.group.size();
    SmallVec<i64> step = h;
    for (NodeId step_node = h_node;
         !in_group[static_cast<std::size_t>(step_node)];) {
      for (std::size_t g = 0; g < old_size; ++g) {
        s.group.push_back(sum_node(&hc[g * d], step.begin()));
        in_group[static_cast<std::size_t>(s.group.back())] = true;
        for (std::size_t i = 0; i < d; ++i)
          hc.push_back(add(hc[g * d + i], step[i], i));
      }
      step_node = 0;
      for (std::size_t i = 0; i < d; ++i) {
        step[i] = add(step[i], h[i], i);
        step_node += step[i] * stride[i];
      }
    }
  }

  if (s.group.size() == 1) {
    s.reps = p.nodes();
    return s;
  }
  // Walking P in increasing id order, the first unseen node of a coset is
  // its lowest.
  std::vector<bool> seen(static_cast<std::size_t>(torus.num_nodes()), false);
  for (std::size_t pi = 0; pi < n; ++pi) {
    if (seen[static_cast<std::size_t>(p.nodes()[pi])]) continue;
    s.reps.push_back(p.nodes()[pi]);
    for (std::size_t g = 0; g < s.group.size(); ++g)
      seen[static_cast<std::size_t>(sum_node(&pc[pi * d], &hc[g * d]))] =
          true;
  }
  return s;
}

Placement linear_placement(const Torus& torus, const SmallVec<i32>& coeffs,
                           i32 c) {
  TP_REQUIRE(torus.is_uniform_radix(),
             "linear placements require a uniform-radix torus");
  TP_REQUIRE(coeffs.size() == static_cast<std::size_t>(torus.dims()),
             "one coefficient per dimension required");
  const i32 k = torus.radix(0);
  bool any_coprime = false;
  for (std::size_t i = 0; i < coeffs.size(); ++i)
    if (is_coprime(coeffs[i], k)) any_coprime = true;
  TP_REQUIRE(any_coprime,
             "at least one coefficient must be relatively prime to k");

  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < torus.num_nodes(); ++n) {
    i64 sum = 0;
    for (i32 d = 0; d < torus.dims(); ++d)
      sum += static_cast<i64>(coeffs[static_cast<std::size_t>(d)]) *
             torus.coord_of(n, d);
    if (mod_norm(sum, k) == mod_norm(c, k)) nodes.push_back(n);
  }
  std::string name = "linear(c=" + std::to_string(mod_norm(c, k));
  bool all_ones = true;
  for (std::size_t i = 0; i < coeffs.size(); ++i)
    if (coeffs[i] != 1) all_ones = false;
  if (!all_ones) {
    name += ",coeffs=[";
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      if (i > 0) name += ",";
      name += std::to_string(coeffs[i]);
    }
    name += "]";
  }
  name += ")";
  return Placement(torus, std::move(nodes), std::move(name));
}

Placement linear_placement(const Torus& torus, i32 c) {
  SmallVec<i32> coeffs(static_cast<std::size_t>(torus.dims()), 1);
  return linear_placement(torus, coeffs, c);
}

Placement multiple_linear_placement(const Torus& torus, i32 t) {
  TP_REQUIRE(torus.is_uniform_radix(),
             "multiple linear placements require a uniform-radix torus");
  const i32 k = torus.radix(0);
  TP_REQUIRE(t >= 1 && t <= k, "t must be in [1, k]");
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < torus.num_nodes(); ++n) {
    i64 sum = 0;
    for (i32 d = 0; d < torus.dims(); ++d) sum += torus.coord_of(n, d);
    if (mod_norm(sum, k) < t) nodes.push_back(n);
  }
  return Placement(torus, std::move(nodes),
                   "multiple_linear(t=" + std::to_string(t) + ")");
}

Placement shifted_diagonal_placement(const Torus& torus, i32 shift) {
  TP_REQUIRE(torus.is_uniform_radix(),
             "shifted diagonal placements require a uniform-radix torus");
  const i32 k = torus.radix(0);
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < torus.num_nodes(); ++n) {
    i64 head = 0;
    for (i32 d = 0; d < torus.dims() - 1; ++d) head += torus.coord_of(n, d);
    const i64 want = mod_norm(shift - head, k);
    if (torus.coord_of(n, torus.dims() - 1) == want) nodes.push_back(n);
  }
  return Placement(torus, std::move(nodes),
                   "shifted_diagonal(shift=" + std::to_string(shift) + ")");
}

Placement full_population(const Torus& torus) {
  return Placement(torus, torus.all_nodes(), "full");
}

Placement random_placement(const Torus& torus, i64 size, u64 seed) {
  TP_REQUIRE(size >= 0 && size <= torus.num_nodes(),
             "placement size exceeds torus");
  std::vector<NodeId> all = torus.all_nodes();
  Xoshiro256SS rng(seed);
  // Partial Fisher-Yates: shuffle the first `size` positions.
  for (i64 i = 0; i < size; ++i) {
    const auto j =
        i + static_cast<i64>(rng.below(static_cast<u64>(torus.num_nodes() - i)));
    std::swap(all[static_cast<std::size_t>(i)],
              all[static_cast<std::size_t>(j)]);
  }
  all.resize(static_cast<std::size_t>(size));
  return Placement(torus, std::move(all),
                   "random(n=" + std::to_string(size) +
                       ",seed=" + std::to_string(seed) + ")");
}

Placement clustered_placement(const Torus& torus, i64 size) {
  TP_REQUIRE(size >= 0 && size <= torus.num_nodes(),
             "placement size exceeds torus");
  std::vector<NodeId> nodes(static_cast<std::size_t>(size));
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return Placement(torus, std::move(nodes),
                   "clustered(n=" + std::to_string(size) + ")");
}

Placement subtorus_placement(const Torus& torus, i32 dim, i32 value) {
  return Placement(torus, torus.principal_subtorus(dim, value),
                   "subtorus(dim=" + std::to_string(dim) +
                       ",value=" + std::to_string(value) + ")");
}

}  // namespace tp
