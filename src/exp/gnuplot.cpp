#include "exp/gnuplot.hpp"

#include <fstream>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

GnuplotFiles write_gnuplot_panel(const std::string& directory, const std::string& basename,
                                 const std::string& title,
                                 const std::vector<SweepSeries>& series, double y_max) {
  MCSIM_REQUIRE(!series.empty(), "panel needs at least one series");
  GnuplotFiles files;
  files.data_path = directory + "/" + basename + ".dat";
  files.script_path = directory + "/" + basename + ".gp";

  std::ofstream data(files.data_path);
  MCSIM_REQUIRE(data.good(), "cannot write " + files.data_path);
  for (const auto& s : series) {
    data << "# " << s.label << "\n";
    for (const auto& point : s.points) {
      if (point.result.unstable) continue;
      data << format_util(point.target_gross_utilization) << ' '
           << format_double(point.result.mean_response(), 2) << ' '
           << format_double(point.result.response_ci.halfwidth, 2) << '\n';
    }
    data << "\n\n";  // gnuplot index separator
  }

  std::ofstream script(files.script_path);
  MCSIM_REQUIRE(script.good(), "cannot write " + files.script_path);
  script << "# Generated by mcsim; run:  gnuplot " << basename << ".gp\n"
         << "set terminal pngcairo size 800,600\n"
         << "set output '" << basename << ".png'\n"
         << "set title '" << title << "'\n"
         << "set xlabel 'Utilization'\n"
         << "set ylabel 'Average Response Time'\n"
         << "set xrange [0:1]\n"
         << "set yrange [0:" << format_double(y_max, 0) << "]\n"
         << "set key top left\n"
         << "plot ";
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i) script << ", \\\n     ";
    script << "'" << basename << ".dat' index " << i
           << " using 1:2:3 with yerrorlines title '" << series[i].label << "'";
  }
  script << '\n';
  return files;
}

}  // namespace mcsim
