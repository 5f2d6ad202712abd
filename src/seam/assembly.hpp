#pragma once
// Global degree-of-freedom numbering and direct stiffness summation (DSS)
// for C0 spectral elements on the cubed-sphere.
//
// Each element carries an np×np grid of GLL nodes; nodes on element
// boundaries are geometrically shared — with the neighbour across each edge
// (respecting the edge's orientation reversal across cube edges) and with
// the 2-3 other elements around each corner (3 faces meet at cube vertices).
// The assembly assigns one global id per geometric node, which is exactly
// the communication structure SEAM exchanges every timestep and the basis of
// the element adjacency weights used for partitioning.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mesh/cubed_sphere.hpp"

namespace sfp::seam {

/// Local (i, j) of the k-th node along local edge `edge` of an element
/// with np×np nodes, traversing from corner `edge` to corner (edge+1)%4.
/// Corner order is SW, SE, NE, NW (matching
/// mesh::cubed_sphere::corner_points).
std::pair<int, int> edge_node(int edge, int k, int np);

class assembly {
 public:
  /// Build the global numbering for `mesh` with np×np nodes per element.
  assembly(const mesh::cubed_sphere& mesh, int np);

  int np() const { return np_; }
  /// The mesh the numbering was built on (an O(1) copy: its topology is
  /// closed-form).
  const mesh::cubed_sphere& mesh() const { return mesh_; }
  int num_elements() const { return num_elements_; }
  std::int64_t num_dofs() const { return num_dofs_; }
  std::int64_t nodes_per_element() const {
    return static_cast<std::int64_t>(np_) * np_;
  }
  std::int64_t field_size() const {
    return nodes_per_element() * num_elements_;
  }

  /// Global dof of local node (i, j) of `elem`; i runs along the element's
  /// local x, j along local y, both in [0, np).
  std::int64_t dof_of(int elem, int i, int j) const {
    return dof_[flat(elem, i, j)];
  }

  /// Number of element-local nodes mapping to this dof (1 interior, 2 edge,
  /// 3-4 corner).
  int multiplicity(std::int64_t dof) const {
    return multiplicity_[static_cast<std::size_t>(dof)];
  }

  /// DSS with averaging: replaces every shared node's value by the mean of
  /// all its element-local copies. Projects any field onto C0.
  /// `field` is laid out field[elem*np*np + j*np + i].
  void dss_average(std::span<double> field) const;

  /// DSS with summation: every shared node receives the sum of its copies
  /// (the assembly operation for weak-form operators).
  void dss_sum(std::span<double> field) const;

  /// Maximum disagreement between copies of the same dof — 0 for a C0 field.
  double continuity_gap(std::span<const double> field) const;

 private:
  std::size_t flat(int elem, int i, int j) const {
    return (static_cast<std::size_t>(elem) * static_cast<std::size_t>(np_) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(np_) +
           static_cast<std::size_t>(i);
  }

  mesh::cubed_sphere mesh_;
  int np_;
  int num_elements_;
  std::int64_t num_dofs_ = 0;
  std::vector<std::int64_t> dof_;     // per local node
  std::vector<int> multiplicity_;     // per dof
};

}  // namespace sfp::seam
