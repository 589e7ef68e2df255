#include "trace/trace_io.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace pns::trace {

bool save_trace_csv(const std::string& path, const pns::TimeSeries& series) {
  std::ofstream f(path);
  if (!f) return false;
  pns::CsvWriter w(f);
  w.header({"t", "value"});
  for (std::size_t i = 0; i < series.size(); ++i)
    w.row({series.times()[i], series.values()[i]});
  return static_cast<bool>(f);
}

pns::PiecewiseLinear load_trace_csv(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("load_trace_csv: cannot open " + path);
  std::vector<double> ts, vs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    std::istringstream ss(line);
    std::string a, b;
    if (!std::getline(ss, a, ',') || !std::getline(ss, b, ','))
      throw std::runtime_error("load_trace_csv: malformed line " +
                               std::to_string(line_no) + " in " + path);
    char* end_a = nullptr;
    char* end_b = nullptr;
    const double t = std::strtod(a.c_str(), &end_a);
    const double v = std::strtod(b.c_str(), &end_b);
    const bool a_ok = end_a != a.c_str();
    const bool b_ok = end_b != b.c_str();
    if (!a_ok || !b_ok) {
      if (line_no == 1) continue;  // header row
      throw std::runtime_error("load_trace_csv: non-numeric data at line " +
                               std::to_string(line_no) + " in " + path);
    }
    ts.push_back(t);
    vs.push_back(v);
  }
  if (ts.size() < 2)
    throw std::runtime_error("load_trace_csv: fewer than 2 samples in " +
                             path);
  // Recorded traces arrive in time order; anything else is put in order
  // here (a repeated time still fails PiecewiseLinear's strictly
  // increasing knots).
  if (!std::is_sorted(ts.begin(), ts.end())) {
    std::vector<std::size_t> order(ts.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return ts[a] < ts[b];
    });
    std::vector<double> sorted_ts(ts.size()), sorted_vs(vs.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      sorted_ts[k] = ts[order[k]];
      sorted_vs[k] = vs[order[k]];
    }
    ts.swap(sorted_ts);
    vs.swap(sorted_vs);
  }
  return pns::PiecewiseLinear(std::move(ts), std::move(vs));
}

}  // namespace pns::trace
