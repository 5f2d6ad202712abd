#include "io/gnuplot.hpp"

#include <fstream>

#include "util/contract.hpp"

namespace sfp::io {

void write_gnuplot(const std::string& basename, const plot_spec& spec) {
  SFP_REQUIRE(!spec.series.empty(), "plot needs at least one series");
  std::size_t max_len = 0;
  for (const auto& s : spec.series) {
    SFP_REQUIRE(s.x.size() == s.y.size(), "series x/y length mismatch");
    SFP_REQUIRE(!s.x.empty(), "series must not be empty");
    max_len = std::max(max_len, s.x.size());
  }

  // Data file: one block per series, blank-line separated (gnuplot "index").
  {
    std::ofstream dat(basename + ".dat");
    SFP_REQUIRE(dat.good(), "cannot write " + basename + ".dat");
    for (const auto& s : spec.series) {
      dat << "# " << s.name << '\n';
      for (std::size_t i = 0; i < s.x.size(); ++i)
        dat << s.x[i] << ' ' << s.y[i] << '\n';
      dat << "\n\n";
    }
    SFP_REQUIRE(dat.good(), "failed writing " + basename + ".dat");
  }

  std::ofstream gp(basename + ".gp");
  SFP_REQUIRE(gp.good(), "cannot write " + basename + ".gp");
  gp << "set terminal pngcairo size 900,600\n";
  gp << "set output '" << basename << ".png'\n";
  gp << "set title '" << spec.title << "'\n";
  gp << "set xlabel '" << spec.xlabel << "'\n";
  gp << "set ylabel '" << spec.ylabel << "'\n";
  if (spec.log_x) gp << "set logscale x 2\n";
  gp << "set key top left\n";
  gp << "set grid\n";
  gp << "plot ";
  for (std::size_t i = 0; i < spec.series.size(); ++i) {
    if (i) gp << ", \\\n     ";
    gp << "'" << basename << ".dat' index " << i
       << " with linespoints title '" << spec.series[i].name << "'";
  }
  gp << '\n';
  SFP_REQUIRE(gp.good(), "failed writing " + basename + ".gp");
}

}  // namespace sfp::io
