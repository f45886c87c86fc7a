#ifndef RESTUNE_META_DATA_REPOSITORY_H_
#define RESTUNE_META_DATA_REPOSITORY_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "meta/base_learner.h"
#include "meta/task.h"

namespace restune {

class ThreadPool;

/// The backend store of historical tuning meta-data (paper Section 4,
/// "Data Repository"): one `TuningTask` per past tuning run, from which
/// base-learners are trained on demand and cached.
///
/// Supports the paper's three evaluation settings via filtered views:
/// * original         — every task;
/// * varying workload — hold out tasks of the target workload;
/// * varying hardware — hold out tasks from the target's instance type.
class DataRepository {
 public:
  DataRepository() = default;

  /// Registers one finished tuning task's meta-data.
  Status AddTask(TuningTask task);

  size_t num_tasks() const { return tasks_.size(); }
  const std::vector<TuningTask>& tasks() const { return tasks_; }

  /// Trains (and caches) base-learners for the tasks selected by `keep`,
  /// in task order. Training failures for individual tasks are skipped with
  /// a warning — a corrupt history must not block tuning. `keep` is called
  /// once per task, serially and in order; the fits then run as one loop
  /// on `pool` (null = the shared pool) and keep their bits at any pool
  /// size. Two tasks with the same fingerprint in one call may both fit.
  std::vector<BaseLearner> TrainBaseLearners(
      const std::function<bool(const TuningTask&)>& keep,
      ThreadPool* pool = nullptr) const;

  /// All tasks (the paper's original setting).
  std::vector<BaseLearner> TrainAllBaseLearners() const;

  /// Hold out tasks whose workload equals `workload` (varying workloads).
  std::vector<BaseLearner> TrainHoldOutWorkload(
      const std::string& workload) const;

  /// Hold out tasks whose hardware equals `hardware` (varying hardware).
  std::vector<BaseLearner> TrainHoldOutHardware(
      const std::string& hardware) const;

  /// Repository maintenance: merges tasks with the same name (later
  /// observations appended to the first occurrence) and subsamples any task
  /// above `max_observations_per_task` by uniform striding. Returns the
  /// number of tasks removed by merging. Call periodically in a long-lived
  /// server so repeated sessions on the same workload do not bloat the
  /// store or skew the ensemble toward duplicated learners.
  size_t Compact(size_t max_observations_per_task = 400);

  /// Writes all tasks, plus `learners` with their fitted GPs and cached
  /// Cholesky factors, as one sealed FileKind::kRepository file
  /// (common/byte_codec.h). A later `LoadFromFile` pre-seeds the
  /// process-global `BaseLearnerCache`, so `TrainBaseLearners` never refits
  /// what this call persisted. Atomic: a failed or interrupted save leaves
  /// the previous file intact.
  Status SaveToFile(const std::string& path,
                    const std::vector<BaseLearner>& learners = {}) const;

  /// Loads tasks previously written by `SaveToFile` (appends to the
  /// current contents; nothing is appended unless the whole file decodes).
  /// Serialized base-learner records are reassembled without training and
  /// inserted into the global `BaseLearnerCache` under their stored
  /// fingerprints.
  Status LoadFromFile(const std::string& path);

  /// Base-learners reassembled by the last `LoadFromFile` call.
  const std::vector<BaseLearner>& loaded_learners() const {
    return loaded_learners_;
  }

 private:
  std::vector<TuningTask> tasks_;
  std::vector<BaseLearner> loaded_learners_;
};

}  // namespace restune

#endif  // RESTUNE_META_DATA_REPOSITORY_H_
