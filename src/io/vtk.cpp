#include "io/vtk.hpp"

#include <fstream>
#include <ostream>

#include "util/contract.hpp"

namespace sfp::io {

void write_vtk(std::ostream& os, const mesh::cubed_sphere& mesh,
               const std::vector<vtk_cell_field>& fields) {
  const int nelem = mesh.num_elements();
  for (const auto& f : fields) {
    SFP_REQUIRE(f.values.size() == static_cast<std::size_t>(nelem),
                "field '" + f.name + "' must have one value per element");
    SFP_REQUIRE(!f.name.empty() && f.name.find(' ') == std::string::npos,
                "vtk field names must be non-empty and space-free");
  }

  // One point per lattice corner, numbered at its lowest-id incident
  // element (always visited first); later elements reuse that number.
  std::vector<mesh::vec3> points;
  std::vector<std::array<int, 4>> cells(static_cast<std::size_t>(nelem));
  for (int e = 0; e < nelem; ++e) {
    const auto pts = mesh.corner_points(e);
    for (int c = 0; c < 4; ++c) {
      const mesh::corner_incidences around = mesh.corner_links(e, c);
      int& point = cells[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)];
      if (around[0].first < e) {
        point = cells[static_cast<std::size_t>(around[0].first)]
                     [static_cast<std::size_t>(around[0].second)];
        continue;
      }
      point = static_cast<int>(points.size());
      const mesh::ivec3 p = pts[static_cast<std::size_t>(c)];
      points.push_back(mesh::normalized({static_cast<double>(p.x),
                                         static_cast<double>(p.y),
                                         static_cast<double>(p.z)}));
    }
  }

  os << "# vtk DataFile Version 3.0\n";
  os << "sfcpart cubed-sphere Ne=" << mesh.ne() << "\n";
  os << "ASCII\nDATASET UNSTRUCTURED_GRID\n";
  os << "POINTS " << points.size() << " double\n";
  for (const auto& p : points) os << p.x << ' ' << p.y << ' ' << p.z << '\n';
  os << "CELLS " << nelem << ' ' << 5 * nelem << '\n';
  for (const auto& c : cells)
    os << "4 " << c[0] << ' ' << c[1] << ' ' << c[2] << ' ' << c[3] << '\n';
  os << "CELL_TYPES " << nelem << '\n';
  for (int e = 0; e < nelem; ++e) os << "9\n";  // VTK_QUAD

  if (!fields.empty()) {
    os << "CELL_DATA " << nelem << '\n';
    for (const auto& f : fields) {
      os << "SCALARS " << f.name << " double 1\nLOOKUP_TABLE default\n";
      for (const double v : f.values) os << v << '\n';
    }
  }
}

void write_vtk_file(const std::string& path, const mesh::cubed_sphere& mesh,
                    const std::vector<vtk_cell_field>& fields) {
  std::ofstream os(path);
  SFP_REQUIRE(os.good(), "cannot open vtk file for writing: " + path);
  write_vtk(os, mesh, fields);
  os.flush();
  SFP_REQUIRE(os.good(), "failed writing vtk file: " + path);
}

}  // namespace sfp::io
