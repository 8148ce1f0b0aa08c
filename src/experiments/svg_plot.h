/// \file svg_plot.h
/// \brief Self-contained SVG renderers for the paper's two figure types.
///
/// The paper's artifacts are figures; these helpers render a job's
/// `api::RunArtifacts` into the same two pictures with zero external
/// dependencies: the (IL, DR) dispersion scatter (initial vs final clouds)
/// and the min/mean/max score-evolution lines. Bench binaries write them
/// when `EVOCAT_SVG_DIR` is set.

#ifndef EVOCAT_EXPERIMENTS_SVG_PLOT_H_
#define EVOCAT_EXPERIMENTS_SVG_PLOT_H_

#include <string>

#include "api/session.h"
#include "common/status.h"

namespace evocat {
namespace experiments {

/// \brief SVG scatter of initial (hollow) vs final (filled) (IL, DR) pairs,
/// with the IL = DR diagonal for the balance story.
std::string RenderDispersionSvg(const api::RunArtifacts& run,
                                const std::string& title);

/// \brief SVG line chart of min/mean/max score over generations.
std::string RenderEvolutionSvg(const api::RunArtifacts& run,
                               const std::string& title);

/// \brief Writes both figures as `<stem>_dispersion.svg` and
/// `<stem>_evolution.svg` under `directory`.
Status WriteFigureSvgs(const api::RunArtifacts& run, const std::string& title,
                       const std::string& directory, const std::string& stem);

}  // namespace experiments
}  // namespace evocat

#endif  // EVOCAT_EXPERIMENTS_SVG_PLOT_H_
