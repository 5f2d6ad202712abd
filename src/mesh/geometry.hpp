#pragma once
// Small 3D vector types for the cubed-sphere: double vectors for geometry on
// the sphere, integer vectors for exact topology on the cube-surface lattice.

#include <cmath>
#include <cstdint>
#include <functional>

namespace sfp::mesh {

struct vec3 {
  double x = 0, y = 0, z = 0;

  friend vec3 operator+(vec3 a, vec3 b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
  friend vec3 operator-(vec3 a, vec3 b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
  friend vec3 operator*(double s, vec3 a) { return {s * a.x, s * a.y, s * a.z}; }
};

inline double dot(vec3 a, vec3 b) { return a.x * b.x + a.y * b.y + a.z * b.z; }
inline vec3 cross(vec3 a, vec3 b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}
inline double norm(vec3 a) { return std::sqrt(dot(a, a)); }
inline vec3 normalized(vec3 a) {
  const double n = norm(a);
  return {a.x / n, a.y / n, a.z / n};
}

/// Integer lattice point on the cube surface. With face frames scaled by Ne,
/// element corners on adjoining faces land on *identical* integer points, so
/// cross-face topology reduces to exact integer equality — no epsilon
/// comparisons, no hand-maintained face-gluing tables.
struct ivec3 {
  std::int32_t x = 0, y = 0, z = 0;
  friend bool operator==(const ivec3&, const ivec3&) = default;
  friend auto operator<=>(const ivec3&, const ivec3&) = default;
};

/// Solid angle subtended at the origin by the planar triangle (a, b, c)
/// (Van Oosterom & Strackee 1983). Signed; callers take |value|.
double triangle_solid_angle(vec3 a, vec3 b, vec3 c);

/// Longitude/latitude (radians) of a unit vector.
struct lonlat {
  double lon = 0, lat = 0;
};
lonlat to_lonlat(vec3 p);

}  // namespace sfp::mesh
