#include "experiments/svg_plot.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "common/string_utils.h"

namespace evocat {
namespace experiments {

namespace {

constexpr double kWidth = 640.0;
constexpr double kHeight = 480.0;
constexpr double kMargin = 56.0;

struct Axis {
  double min = 0.0;
  double max = 1.0;

  double ToPixelX(double v) const {
    return kMargin + (v - min) / (max - min) * (kWidth - 2 * kMargin);
  }
  double ToPixelY(double v) const {
    return kHeight - kMargin - (v - min) / (max - min) * (kHeight - 2 * kMargin);
  }
};

void Header(std::ostringstream& out, const std::string& title) {
  out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << kWidth
      << "\" height=\"" << kHeight << "\" viewBox=\"0 0 " << kWidth << " "
      << kHeight << "\">\n";
  out << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  out << "<text x=\"" << kWidth / 2 << "\" y=\"24\" text-anchor=\"middle\" "
         "font-family=\"sans-serif\" font-size=\"15\">"
      << title << "</text>\n";
}

void Frame(std::ostringstream& out, const Axis& x, const Axis& y,
           const std::string& x_label, const std::string& y_label) {
  out << StrFormat(
      "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" "
      "fill=\"none\" stroke=\"#444\"/>\n",
      kMargin, kMargin, kWidth - 2 * kMargin, kHeight - 2 * kMargin);
  // Four ticks per axis with value labels.
  for (int i = 0; i <= 4; ++i) {
    double xv = x.min + (x.max - x.min) * i / 4.0;
    double yv = y.min + (y.max - y.min) * i / 4.0;
    out << StrFormat(
        "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\" "
        "font-family=\"sans-serif\" font-size=\"11\">%.0f</text>\n",
        x.ToPixelX(xv), kHeight - kMargin + 18.0, xv);
    out << StrFormat(
        "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\" "
        "font-family=\"sans-serif\" font-size=\"11\">%.0f</text>\n",
        kMargin - 8.0, y.ToPixelY(yv) + 4.0, yv);
  }
  out << StrFormat(
      "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\" "
      "font-family=\"sans-serif\" font-size=\"13\">%s</text>\n",
      kWidth / 2, kHeight - 12.0, x_label.c_str());
  out << StrFormat(
      "<text x=\"16\" y=\"%.1f\" text-anchor=\"middle\" "
      "font-family=\"sans-serif\" font-size=\"13\" "
      "transform=\"rotate(-90 16 %.1f)\">%s</text>\n",
      kHeight / 2, kHeight / 2, y_label.c_str());
}

}  // namespace

std::string RenderDispersionSvg(const api::RunArtifacts& run,
                                const std::string& title) {
  std::ostringstream out;
  Header(out, title);

  Axis axis;  // shared square axis so the IL = DR diagonal is meaningful
  axis.min = 0.0;
  axis.max = 1.0;
  for (const auto* population : {&run.initial, &run.final_population}) {
    for (const auto& m : *population) {
      axis.max = std::max({axis.max, m.fitness.il, m.fitness.dr});
    }
  }
  axis.max = std::ceil(axis.max / 10.0) * 10.0;
  Frame(out, axis, axis, "information loss", "disclosure risk");

  // IL = DR diagonal.
  out << StrFormat(
      "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#bbb\" "
      "stroke-dasharray=\"4 3\"/>\n",
      axis.ToPixelX(axis.min), axis.ToPixelY(axis.min), axis.ToPixelX(axis.max),
      axis.ToPixelY(axis.max));

  for (const auto& m : run.initial) {
    out << StrFormat(
        "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"4\" fill=\"none\" "
        "stroke=\"#1f77b4\" stroke-width=\"1.2\"/>\n",
        axis.ToPixelX(m.fitness.il), axis.ToPixelY(m.fitness.dr));
  }
  for (const auto& m : run.final_population) {
    out << StrFormat(
        "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"3\" fill=\"#d62728\"/>\n",
        axis.ToPixelX(m.fitness.il), axis.ToPixelY(m.fitness.dr));
  }

  // Legend.
  out << "<circle cx=\"" << kWidth - 150 << "\" cy=\"44\" r=\"4\" fill=\"none\" "
         "stroke=\"#1f77b4\"/><text x=\"" << kWidth - 140
      << "\" y=\"48\" font-family=\"sans-serif\" font-size=\"12\">initial"
         "</text>\n";
  out << "<circle cx=\"" << kWidth - 150 << "\" cy=\"62\" r=\"3\" "
         "fill=\"#d62728\"/><text x=\"" << kWidth - 140
      << "\" y=\"66\" font-family=\"sans-serif\" font-size=\"12\">final"
         "</text>\n";
  out << "</svg>\n";
  return out.str();
}

std::string RenderEvolutionSvg(const api::RunArtifacts& run,
                               const std::string& title) {
  std::ostringstream out;
  Header(out, title);

  Axis x, y;
  x.min = 0.0;
  x.max = std::max<size_t>(1, run.history.size());
  y.min = 1e100;
  y.max = -1e100;
  auto widen = [&](double v) {
    y.min = std::min(y.min, v);
    y.max = std::max(y.max, v);
  };
  widen(run.initial_scores.min);
  widen(run.initial_scores.max);
  for (const auto& record : run.history) {
    widen(record.min_score);
    widen(record.max_score);
  }
  double pad = std::max(1.0, (y.max - y.min) * 0.08);
  y.min = std::max(0.0, y.min - pad);
  y.max = y.max + pad;
  Frame(out, x, y, "generation", "score");

  struct Series {
    const char* color;
    const char* label;
    std::function<double(const core::GenerationRecord&)> value;
    double initial;
  };
  const Series series[] = {
      {"#2ca02c", "min",
       [](const core::GenerationRecord& r) { return r.min_score; },
       run.initial_scores.min},
      {"#1f77b4", "mean",
       [](const core::GenerationRecord& r) { return r.mean_score; },
       run.initial_scores.mean},
      {"#d62728", "max",
       [](const core::GenerationRecord& r) { return r.max_score; },
       run.initial_scores.max},
  };
  int legend_y = 44;
  for (const auto& s : series) {
    out << "<polyline fill=\"none\" stroke=\"" << s.color
        << "\" stroke-width=\"1.5\" points=\"";
    out << StrFormat("%.1f,%.1f ", x.ToPixelX(0), y.ToPixelY(s.initial));
    for (const auto& record : run.history) {
      out << StrFormat("%.1f,%.1f ", x.ToPixelX(record.generation),
                       y.ToPixelY(s.value(record)));
    }
    out << "\"/>\n";
    out << "<text x=\"" << kWidth - 140 << "\" y=\"" << legend_y
        << "\" font-family=\"sans-serif\" font-size=\"12\" fill=\"" << s.color
        << "\">" << s.label << "</text>\n";
    legend_y += 18;
  }
  out << "</svg>\n";
  return out.str();
}

Status WriteFigureSvgs(const api::RunArtifacts& run, const std::string& title,
                       const std::string& directory, const std::string& stem) {
  for (const auto& [suffix, content] :
       {std::pair<std::string, std::string>{
            "_dispersion.svg", RenderDispersionSvg(run, title)},
        std::pair<std::string, std::string>{
            "_evolution.svg", RenderEvolutionSvg(run, title)}}) {
    std::string path = directory + "/" + stem + suffix;
    std::ofstream out(path);
    if (!out) return Status::IOError("cannot open '", path, "' for writing");
    out << content;
    if (!out) return Status::IOError("error writing '", path, "'");
  }
  return Status::OK();
}

}  // namespace experiments
}  // namespace evocat
