#include "sfc/curve.hpp"

#include <algorithm>

#include "sfc/generator.hpp"
#include "util/contract.hpp"

namespace sfp::sfc {

namespace {

struct frame {
  // All in corner coordinates: the frame covers the square spanned from
  // (ox,oy) by the vectors A=(ax,ay) and B=(bx,by).
  int ox, oy;
  int ax, ay;
  int bx, by;
};

void recurse(const std::vector<int>& factors, std::size_t depth,
             const frame& f, std::vector<cell>& out) {
  if (depth == factors.size()) {
    // Leaf: |A| = |B| = 1; the covered unit cell's lower-left corner is the
    // componentwise min of the frame's two opposite corners.
    out.push_back({std::min(f.ox, f.ox + f.ax + f.bx),
                   std::min(f.oy, f.oy + f.ay + f.by)});
    return;
  }
  const int fac = factors[depth];
  const std::vector<child_frame>& spec = generator_for(fac);
  // Sub-vectors a = A/f, b = B/f (A and B are always divisible: their length
  // is the product of the remaining factors).
  const int sax = f.ax / fac, say = f.ay / fac;
  const int sbx = f.bx / fac, sby = f.by / fac;
  for (const child_frame& cs : spec) {
    frame child;
    child.ox = f.ox + cs.oa * sax + cs.ob * sbx;
    child.oy = f.oy + cs.oa * say + cs.ob * sby;
    child.ax = cs.aa * sax + cs.ab * sbx;
    child.ay = cs.aa * say + cs.ab * sby;
    child.bx = cs.ba * sax + cs.bb * sbx;
    child.by = cs.ba * say + cs.bb * sby;
    recurse(factors, depth + 1, child, out);
  }
}

/// Factor `side` over the given prime set (largest first), or empty if it
/// does not decompose.
std::vector<int> prime_factors_over(int side, const std::vector<int>& primes) {
  std::vector<int> out;
  int rem = side;
  for (const int p : primes) {
    while (rem % p == 0) {
      rem /= p;
      out.push_back(p);
    }
  }
  if (rem != 1) return {};
  return out;
}

}  // namespace

int factor_of(refinement r) {
  switch (r) {
    case refinement::hilbert2: return 2;
    case refinement::peano3: return 3;
    case refinement::cinco5: return 5;
  }
  SFP_REQUIRE(false, "invalid refinement");
  return 0;
}

int side_of(const schedule& s) {
  int side = 1;
  for (const refinement r : s) side *= factor_of(r);
  return side;
}

std::optional<schedule> schedule_for(int side, nesting_order order) {
  if (side < 2) return std::nullopt;
  int n2 = 0, n3 = 0;
  int rem = side;
  while (rem % 2 == 0) {
    rem /= 2;
    ++n2;
  }
  while (rem % 3 == 0) {
    rem /= 3;
    ++n3;
  }
  if (rem != 1) return std::nullopt;

  schedule s;
  s.reserve(static_cast<std::size_t>(n2 + n3));
  switch (order) {
    case nesting_order::peano_first:
      s.insert(s.end(), static_cast<std::size_t>(n3), refinement::peano3);
      s.insert(s.end(), static_cast<std::size_t>(n2), refinement::hilbert2);
      break;
    case nesting_order::hilbert_first:
      s.insert(s.end(), static_cast<std::size_t>(n2), refinement::hilbert2);
      s.insert(s.end(), static_cast<std::size_t>(n3), refinement::peano3);
      break;
    case nesting_order::interleaved: {
      int r3 = n3, r2 = n2;
      while (r3 > 0 || r2 > 0) {
        if (r3 > 0) {
          s.push_back(refinement::peano3);
          --r3;
        }
        if (r2 > 0) {
          s.push_back(refinement::hilbert2);
          --r2;
        }
      }
      break;
    }
  }
  return s;
}

std::optional<schedule> extended_schedule_for(int side) {
  if (side < 2) return std::nullopt;
  const std::vector<int> factors = prime_factors_over(side, {5, 3, 2});
  if (factors.empty()) return std::nullopt;
  schedule s;
  s.reserve(factors.size());
  for (const int f : factors) {
    s.push_back(f == 5 ? refinement::cinco5
                       : (f == 3 ? refinement::peano3 : refinement::hilbert2));
  }
  return s;
}

bool is_sfc_compatible(int side) { return schedule_for(side).has_value(); }

bool is_sfc_compatible_extended(int side) {
  return extended_schedule_for(side).has_value();
}

std::vector<cell> generate_factors(const std::vector<int>& factors) {
  int side = 1;
  for (const int f : factors) {
    SFP_REQUIRE(f >= 2, "refinement factors must be at least 2");
    SFP_REQUIRE(side <= (1 << 20) / f, "curve side too large");
    side *= f;
  }
  SFP_REQUIRE(side >= 1, "factor list must produce a positive side");
  std::vector<cell> out;
  out.reserve(static_cast<std::size_t>(side) * static_cast<std::size_t>(side));
  recurse(factors, 0, frame{0, 0, side, 0, 0, side}, out);
  return out;
}

std::vector<cell> generate(const schedule& s) {
  std::vector<int> factors;
  factors.reserve(s.size());
  for (const refinement r : s) factors.push_back(factor_of(r));
  return generate_factors(factors);
}

std::vector<cell> hilbert_curve(int levels) {
  SFP_REQUIRE(levels >= 1, "hilbert curve needs level >= 1");
  return generate(schedule(static_cast<std::size_t>(levels), refinement::hilbert2));
}

std::vector<cell> peano_curve(int levels) {
  SFP_REQUIRE(levels >= 1, "peano curve needs level >= 1");
  return generate(schedule(static_cast<std::size_t>(levels), refinement::peano3));
}

std::vector<cell> hilbert_peano_curve(int side, nesting_order order) {
  const auto s = schedule_for(side, order);
  SFP_REQUIRE(s.has_value(), "side must be of the form 2^n * 3^m, side >= 2");
  return generate(*s);
}

std::vector<std::int64_t> curve_index(const std::vector<cell>& curve, int side) {
  SFP_REQUIRE(side >= 1, "side must be positive");
  SFP_REQUIRE(curve.size() == static_cast<std::size_t>(side) *
                                  static_cast<std::size_t>(side),
              "curve length must be side^2");
  std::vector<std::int64_t> index(curve.size(), -1);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const cell c = curve[i];
    SFP_REQUIRE(c.x >= 0 && c.x < side && c.y >= 0 && c.y < side,
                "curve cell out of range");
    const auto flat = static_cast<std::size_t>(c.y) *
                          static_cast<std::size_t>(side) +
                      static_cast<std::size_t>(c.x);
    SFP_REQUIRE(index[flat] == -1, "curve visits a cell twice");
    index[flat] = static_cast<std::int64_t>(i);
  }
  return index;
}

std::string schedule_name(const schedule& s) {
  bool has2 = false, has3 = false, has5 = false;
  for (const refinement r : s) {
    if (r == refinement::hilbert2) has2 = true;
    else if (r == refinement::peano3) has3 = true;
    else has5 = true;
  }
  if (has5) return has2 || has3 ? "hilbert-peano-cinco" : "cinco";
  if (has2 && has3) return "hilbert-peano";
  if (has3) return "m-peano";
  return "hilbert";
}

}  // namespace sfp::sfc
