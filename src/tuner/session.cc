#include "tuner/session.h"

#include <fstream>

namespace restune {

int SessionResult::IterationsToBest(double rel_tol) const {
  const double threshold = best_feasible_res * (1.0 + rel_tol);
  for (const IterationRecord& rec : history) {
    if (rec.best_feasible_res <= threshold) return rec.iteration;
  }
  return history.empty() ? 0 : history.back().iteration;
}

Status SessionResult::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << "iteration,res,tps,lat,feasible,best_feasible_res,failed,fault,"
         "attempts\n";
  out << "0," << default_observation.res << "," << default_observation.tps
      << "," << default_observation.lat << ",1," << default_observation.res
      << ",0,none,1\n";
  for (const IterationRecord& rec : history) {
    out << rec.iteration << "," << rec.observation.res << ","
        << rec.observation.tps << "," << rec.observation.lat << ","
        << (rec.feasible ? 1 : 0) << "," << rec.best_feasible_res << ","
        << (rec.failed ? 1 : 0) << "," << FaultKindName(rec.fault) << ","
        << rec.attempts << "\n";
  }
  return out.good() ? Status::OK()
                    : Status::IoError("write to '" + path + "' failed");
}

}  // namespace restune
