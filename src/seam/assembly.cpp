#include "seam/assembly.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/contract.hpp"

namespace sfp::seam {

std::pair<int, int> edge_node(int edge, int k, int np) {
  switch (edge) {
    case 0: return {k, 0};                // S: SW -> SE
    case 1: return {np - 1, k};           // E: SE -> NE
    case 2: return {np - 1 - k, np - 1};  // N: NE -> NW
    default: return {0, np - 1 - k};      // W: NW -> SW
  }
}

assembly::assembly(const mesh::cubed_sphere& mesh, int np)
    : mesh_(mesh), np_(np), num_elements_(mesh.num_elements()) {
  SFP_REQUIRE(np >= 2, "spectral elements need at least 2 nodes per edge");
  dof_.assign(static_cast<std::size_t>(field_size()), -1);

  std::int64_t next = 0;

  // Interior nodes: unique per element.
  for (int e = 0; e < num_elements_; ++e)
    for (int j = 1; j + 1 < np_; ++j)
      for (int i = 1; i + 1 < np_; ++i) dof_[flat(e, i, j)] = next++;

  // A shared corner or edge takes its dofs at its lowest-id incident
  // element, which the ascending element loops always number first; every
  // other incident element copies them.

  // Corner nodes: one dof per geometric cube-surface point.
  constexpr int corner_ij[4][2] = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  const auto corner_node = [&](int e, int c) {
    return flat(e, corner_ij[c][0] * (np_ - 1), corner_ij[c][1] * (np_ - 1));
  };
  for (int e = 0; e < num_elements_; ++e)
    for (int c = 0; c < 4; ++c) {
      const mesh::corner_incidences around = mesh.corner_links(e, c);
      dof_[corner_node(e, c)] =
          around[0].first < e
              ? dof_[corner_node(around[0].first, around[0].second)]
              : next++;
    }

  // Edge-interior nodes: numbered in canonical orientation, from the
  // lexicographically smaller lattice corner to the larger, so reversed
  // gluings across cube edges match up. The second element copies them,
  // mirrored when the link is reversed.
  for (int e = 0; e < num_elements_; ++e) {
    const auto pts = mesh.corner_points(e);
    for (int le = 0; le < 4; ++le) {
      const mesh::edge_link link = mesh.edge_link_of(e, le);
      if (link.neighbor < e) {
        for (int k = 1; k + 1 < np_; ++k) {
          const auto [i, j] = edge_node(le, k, np_);
          const auto [ni, nj] = edge_node(
              link.neighbor_edge, link.reversed ? np_ - 1 - k : k, np_);
          dof_[flat(e, i, j)] = dof_[flat(link.neighbor, ni, nj)];
        }
        continue;
      }
      const bool forward = pts[static_cast<std::size_t>(le)] <
                           pts[static_cast<std::size_t>((le + 1) % 4)];
      for (int k = 1; k + 1 < np_; ++k) {
        const int canon = forward ? k : np_ - 1 - k;
        const auto [i, j] = edge_node(le, k, np_);
        dof_[flat(e, i, j)] = next + (canon - 1);
      }
      next += np_ - 2;
    }
  }

  num_dofs_ = next;
  multiplicity_.assign(static_cast<std::size_t>(num_dofs_), 0);
  for (const std::int64_t d : dof_) {
    SFP_REQUIRE(d >= 0, "assembly left a node unnumbered");
    ++multiplicity_[static_cast<std::size_t>(d)];
  }
}

void assembly::dss_sum(std::span<double> field) const {
  SFP_REQUIRE(field.size() == dof_.size(), "field size mismatch");
  std::vector<double> acc(static_cast<std::size_t>(num_dofs_), 0.0);
  for (std::size_t n = 0; n < dof_.size(); ++n)
    acc[static_cast<std::size_t>(dof_[n])] += field[n];
  for (std::size_t n = 0; n < dof_.size(); ++n)
    field[n] = acc[static_cast<std::size_t>(dof_[n])];
}

void assembly::dss_average(std::span<double> field) const {
  SFP_REQUIRE(field.size() == dof_.size(), "field size mismatch");
  std::vector<double> acc(static_cast<std::size_t>(num_dofs_), 0.0);
  for (std::size_t n = 0; n < dof_.size(); ++n)
    acc[static_cast<std::size_t>(dof_[n])] += field[n];
  for (std::size_t n = 0; n < dof_.size(); ++n) {
    const std::int64_t d = dof_[n];
    field[n] = acc[static_cast<std::size_t>(d)] /
               multiplicity_[static_cast<std::size_t>(d)];
  }
}

double assembly::continuity_gap(std::span<const double> field) const {
  SFP_REQUIRE(field.size() == dof_.size(), "field size mismatch");
  std::vector<double> lo(static_cast<std::size_t>(num_dofs_),
                         std::numeric_limits<double>::infinity());
  std::vector<double> hi(static_cast<std::size_t>(num_dofs_),
                         -std::numeric_limits<double>::infinity());
  for (std::size_t n = 0; n < dof_.size(); ++n) {
    const auto d = static_cast<std::size_t>(dof_[n]);
    lo[d] = std::min(lo[d], field[n]);
    hi[d] = std::max(hi[d], field[n]);
  }
  double gap = 0.0;
  for (std::size_t d = 0; d < lo.size(); ++d) gap = std::max(gap, hi[d] - lo[d]);
  return gap;
}

}  // namespace sfp::seam
