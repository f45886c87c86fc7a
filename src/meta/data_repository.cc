#include "meta/data_repository.h"

#include <array>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "gp/gp_serialization.h"
#include "meta/base_learner_cache.h"

namespace restune {

Status DataRepository::AddTask(TuningTask task) {
  if (task.name.empty()) {
    return Status::InvalidArgument("task must have a name");
  }
  if (task.observations.empty()) {
    return Status::InvalidArgument("task '" + task.name +
                                   "' has no observations");
  }
  tasks_.push_back(std::move(task));
  return Status::OK();
}

std::vector<BaseLearner> DataRepository::TrainBaseLearners(
    const std::function<bool(const TuningTask&)>& keep,
    ThreadPool* pool) const {
  // `keep` may count the tasks it sees (the server's snapshot filter does),
  // so it runs serially, in task order.
  std::vector<const TuningTask*> kept;
  for (const TuningTask& task : tasks_) {
    if (keep(task)) kept.push_back(&task);
  }
  // One pool task per learner, each writing only its own slot. A fit's
  // nested loops (restarts, Gram rows) then run inline, so every learner
  // has the bits of a serial `BaseLearner::Train` at any pool size.
  std::vector<std::optional<Result<BaseLearner>>> trained(kept.size());
  ResolvePool(pool)->ParallelFor(kept.size(), [&](size_t i) {
    trained[i] = BaseLearner::Train(*kept[i]);
  });
  std::vector<BaseLearner> learners;
  learners.reserve(kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    Result<BaseLearner>& learner = *trained[i];
    if (!learner.ok()) {
      RESTUNE_LOG(kWarning) << "skipping base-learner for task '"
                            << kept[i]->name
                            << "': " << learner.status().ToString();
      continue;
    }
    learners.push_back(std::move(learner).value());
  }
  return learners;
}

std::vector<BaseLearner> DataRepository::TrainAllBaseLearners() const {
  return TrainBaseLearners([](const TuningTask&) { return true; });
}

std::vector<BaseLearner> DataRepository::TrainHoldOutWorkload(
    const std::string& workload) const {
  return TrainBaseLearners(
      [&](const TuningTask& t) { return t.workload != workload; });
}

std::vector<BaseLearner> DataRepository::TrainHoldOutHardware(
    const std::string& hardware) const {
  return TrainBaseLearners(
      [&](const TuningTask& t) { return t.hardware != hardware; });
}

size_t DataRepository::Compact(size_t max_observations_per_task) {
  std::vector<TuningTask> merged;
  size_t removed = 0;
  for (TuningTask& task : tasks_) {
    TuningTask* existing = nullptr;
    for (TuningTask& m : merged) {
      if (m.name == task.name) {
        existing = &m;
        break;
      }
    }
    if (existing != nullptr) {
      existing->observations.insert(existing->observations.end(),
                                    task.observations.begin(),
                                    task.observations.end());
      // The freshest meta-feature wins (characterizer may have improved).
      if (!task.meta_feature.empty()) {
        existing->meta_feature = std::move(task.meta_feature);
      }
      ++removed;
    } else {
      merged.push_back(std::move(task));
    }
  }
  // Subsample oversized histories with a uniform stride, keeping endpoints.
  for (TuningTask& task : merged) {
    if (max_observations_per_task == 0 ||
        task.observations.size() <= max_observations_per_task) {
      continue;
    }
    std::vector<Observation> kept;
    kept.reserve(max_observations_per_task);
    const double stride = static_cast<double>(task.observations.size()) /
                          static_cast<double>(max_observations_per_task);
    for (size_t k = 0; k < max_observations_per_task; ++k) {
      kept.push_back(
          task.observations[static_cast<size_t>(k * stride)]);
    }
    task.observations = std::move(kept);
  }
  tasks_ = std::move(merged);
  return removed;
}

namespace {

Status WriteLearner(ByteWriter* out, const BaseLearner& learner) {
  out->PutString(learner.name());
  out->PutVector(learner.meta_feature());
  for (MetricKind kind : kAllMetricKinds) {
    out->PutF64(learner.standardizer().mean(kind));
  }
  for (MetricKind kind : kAllMetricKinds) {
    out->PutF64(learner.standardizer().stddev(kind));
  }
  out->PutString(learner.fingerprint());
  return WriteMultiOutputGp(out, learner.gp());
}

Result<BaseLearner> ReadLearner(ByteReader* in) {
  std::string name;
  Vector meta_feature;
  std::array<double, kNumMetricKinds> means{};
  std::array<double, kNumMetricKinds> stds{};
  std::string fingerprint;
  RESTUNE_RETURN_IF_ERROR(in->GetString(&name));
  RESTUNE_RETURN_IF_ERROR(in->GetVector(&meta_feature));
  for (double& v : means) RESTUNE_RETURN_IF_ERROR(in->GetF64(&v));
  for (double& v : stds) RESTUNE_RETURN_IF_ERROR(in->GetF64(&v));
  RESTUNE_RETURN_IF_ERROR(in->GetString(&fingerprint));
  // The GP payload restores cached Cholesky factors, so no O(n^3)
  // refactorization happens on this path.
  RESTUNE_ASSIGN_OR_RETURN(MultiOutputGp gp, ReadMultiOutputGp(in));
  return BaseLearner::FromParts(
      std::move(name), std::move(meta_feature),
      MetricStandardizer::FromMoments(means, stds),
      std::make_shared<MultiOutputGp>(std::move(gp)), std::move(fingerprint));
}

}  // namespace

Status DataRepository::SaveToFile(
    const std::string& path, const std::vector<BaseLearner>& learners) const {
  ByteWriter out;
  out.PutU32(static_cast<uint32_t>(tasks_.size()));
  for (const TuningTask& task : tasks_) WriteTuningTask(&out, task);
  out.PutU32(static_cast<uint32_t>(learners.size()));
  for (const BaseLearner& learner : learners) {
    RESTUNE_RETURN_IF_ERROR(WriteLearner(&out, learner));
  }
  return SaveSealedFile(path, FileKind::kRepository, out.str());
}

Status DataRepository::LoadFromFile(const std::string& path) {
  RESTUNE_ASSIGN_OR_RETURN(const std::string payload,
                           LoadSealedFile(path, FileKind::kRepository));
  ByteReader in(payload);
  // Decode everything before touching `this`, so a bad file appends
  // nothing. Element counts are checked against the smallest encodings: a
  // task (3 empty strings, an empty vector, a zero count) and a learner
  // (two empty strings, an empty vector, six doubles).
  DataRepository staged;
  uint32_t count = 0;
  RESTUNE_RETURN_IF_ERROR(in.GetCount(&count, 20));
  for (uint32_t i = 0; i < count; ++i) {
    TuningTask task;
    RESTUNE_RETURN_IF_ERROR(ReadTuningTask(&in, &task));
    RESTUNE_RETURN_IF_ERROR(staged.AddTask(std::move(task)));
  }
  RESTUNE_RETURN_IF_ERROR(in.GetCount(&count, 60));
  std::vector<BaseLearner> learners;
  learners.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RESTUNE_ASSIGN_OR_RETURN(BaseLearner learner, ReadLearner(&in));
    learners.push_back(std::move(learner));
  }
  RESTUNE_RETURN_IF_ERROR(in.ExpectEnd());

  for (TuningTask& task : staged.tasks_) tasks_.push_back(std::move(task));
  // Pre-seed the process cache: TrainBaseLearners over the same tasks and
  // options will hit these entries instead of refitting.
  for (const BaseLearner& learner : learners) {
    if (!learner.fingerprint().empty()) {
      BaseLearnerCache::Global()->Insert(learner.fingerprint(), learner);
    }
  }
  loaded_learners_ = std::move(learners);
  return Status::OK();
}

}  // namespace restune
