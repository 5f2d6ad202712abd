#include "mesh/layout.hpp"

#include <cstdio>
#include <sstream>

#include "util/contract.hpp"

namespace sfp::mesh {

flat_pos flatten(const cubed_sphere& mesh, int element_id) {
  const element_ref r = mesh.element_of(element_id);
  const int ne = mesh.ne();
  switch (r.face) {
    case 0: return {r.i, ne + r.j};
    case 1: return {ne + r.i, ne + r.j};
    case 2: return {2 * ne + r.i, ne + r.j};
    case 3: return {3 * ne + r.i, ne + r.j};
    case 4: return {r.i, 2 * ne + r.j};  // north above face 0
    case 5: return {r.i, r.j};           // south below face 0
  }
  SFP_REQUIRE(false, "invalid face");
  return {};
}

flat_pos flat_extent(const cubed_sphere& mesh) {
  return {4 * mesh.ne(), 3 * mesh.ne()};
}

std::string render_flat_labels(const cubed_sphere& mesh,
                               const std::vector<int>& label_of_element,
                               int label_modulus) {
  SFP_REQUIRE(label_of_element.size() ==
                  static_cast<std::size_t>(mesh.num_elements()),
              "one label per element required");
  const flat_pos ext = flat_extent(mesh);
  int max_label = 0;
  for (const int l : label_of_element) max_label = std::max(max_label, l);
  if (label_modulus > 0) max_label = label_modulus - 1;
  int width = 1;
  for (int n = max_label; n >= 10; n /= 10) ++width;

  std::vector<std::string> canvas(
      static_cast<std::size_t>(ext.y),
      std::string(static_cast<std::size_t>(ext.x * (width + 1)), ' '));
  char buf[32];
  for (int id = 0; id < mesh.num_elements(); ++id) {
    const flat_pos p = flatten(mesh, id);
    int label = label_of_element[static_cast<std::size_t>(id)];
    if (label_modulus > 0) label %= label_modulus;
    std::snprintf(buf, sizeof buf, "%*d ", width, label);
    canvas[static_cast<std::size_t>(p.y)].replace(
        static_cast<std::size_t>(p.x * (width + 1)),
        static_cast<std::size_t>(width + 1), buf);
  }
  std::ostringstream os;
  for (auto it = canvas.rbegin(); it != canvas.rend(); ++it) os << *it << '\n';
  return os.str();
}

}  // namespace sfp::mesh
