#include "gp/gp_serialization.h"

#include <cmath>
#include <memory>
#include <string>

#include "common/contracts.h"
#include "common/fnv.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace restune {

namespace {

/// Checksum of a serialized factor: size, jitter, then the lower-triangle
/// entries row-major, all hashed by bit pattern.
uint64_t FactorChecksum(const Matrix& lower, double jitter) {
  Fnv1a fnv;
  fnv.AddU64(lower.rows());
  fnv.AddDouble(jitter);
  for (size_t i = 0; i < lower.rows(); ++i) {
    const double* row = lower.RowPtr(i);
    for (size_t j = 0; j <= i; ++j) fnv.AddDouble(row[j]);
  }
  return fnv.hash();
}

struct SerializationMetrics {
  obs::Counter* factor_loads;
  obs::Counter* factor_fallbacks;

  static SerializationMetrics* Get() {
    static SerializationMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new SerializationMetrics();
      metrics->factor_loads =
          registry->GetCounter("restune_gp_factor_loads_total");
      metrics->factor_fallbacks =
          registry->GetCounter("restune_gp_factor_fallbacks_total");
      return metrics;
    }();
    return m;
  }
};

Result<std::unique_ptr<Kernel>> MakeKernelByName(const std::string& name,
                                                 size_t dim) {
  if (name == "matern52") {
    return std::unique_ptr<Kernel>(std::make_unique<Matern52Kernel>(dim));
  }
  if (name == "se") {
    return std::unique_ptr<Kernel>(
        std::make_unique<SquaredExponentialKernel>(dim));
  }
  return Status::NotFound("unknown kernel '" + name + "'");
}

}  // namespace

Status WriteGpModel(ByteWriter* out, const GpModel& model) {
  if (!model.fitted()) {
    return Status::FailedPrecondition("cannot serialize an unfitted GP");
  }
  const size_t n = model.num_observations();
  const size_t d = model.dim();
  out->PutString(model.kernel().name());
  out->PutVector(model.kernel().GetLogParams());
  out->PutF64(model.options().noise_variance);
  out->PutBool(model.options().normalize_y);
  Vector x;
  x.reserve(n * d);
  for (size_t i = 0; i < n; ++i) {
    const double* row = model.train_x().RowPtr(i);
    x.insert(x.end(), row, row + d);
  }
  out->PutVector(x);
  out->PutVector(model.train_y());
  const Cholesky& factor = model.factor();
  Vector lower;
  lower.reserve(n * (n + 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    const double* row = factor.lower().RowPtr(i);
    lower.insert(lower.end(), row, row + i + 1);
  }
  out->PutF64(factor.jitter());
  out->PutVector(lower);
  out->PutU64(FactorChecksum(factor.lower(), factor.jitter()));
  return Status::OK();
}

Result<GpModel> ReadGpModel(ByteReader* in) {
  std::string kernel_name;
  Vector log_params;
  double noise = 0.0;
  bool normalize = false;
  Vector flat_x;
  Vector y;
  double jitter = 0.0;
  Vector packed_lower;
  uint64_t stored_checksum = 0;
  RESTUNE_RETURN_IF_ERROR(in->GetString(&kernel_name));
  RESTUNE_RETURN_IF_ERROR(in->GetVector(&log_params));
  RESTUNE_RETURN_IF_ERROR(in->GetF64(&noise));
  RESTUNE_RETURN_IF_ERROR(in->GetBool(&normalize));
  RESTUNE_RETURN_IF_ERROR(in->GetVector(&flat_x));
  RESTUNE_RETURN_IF_ERROR(in->GetVector(&y));
  RESTUNE_RETURN_IF_ERROR(in->GetF64(&jitter));
  RESTUNE_RETURN_IF_ERROR(in->GetVector(&packed_lower));
  RESTUNE_RETURN_IF_ERROR(in->GetU64(&stored_checksum));

  // Every size derives from a vector the reader already bounded by the
  // payload, so none of the allocations below can outgrow the input.
  if (log_params.size() < 2 || !internal::AllFinite(log_params) ||
      !std::isfinite(noise)) {
    return Status::InvalidArgument("GP: malformed hyper-parameters");
  }
  const size_t d = log_params.size() - 1;
  const size_t n = y.size();
  if (n == 0 || flat_x.size() % d != 0 || flat_x.size() / d != n) {
    return Status::InvalidArgument("GP: training data shape mismatch");
  }
  if (packed_lower.size() != n * (n + 1) / 2) {
    return Status::InvalidArgument("GP: factor size mismatch");
  }
  Matrix x(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) x(i, c) = flat_x[i * d + c];
  }
  Matrix lower(n, n);
  for (size_t i = 0, k = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) lower(i, j) = packed_lower[k++];
  }

  RESTUNE_ASSIGN_OR_RETURN(std::unique_ptr<Kernel> kernel,
                           MakeKernelByName(kernel_name, d));
  kernel->SetLogParams(log_params);
  GpOptions options;
  options.noise_variance = noise;
  options.normalize_y = normalize;
  // Hyper-parameters were optimized before saving; loading restores the
  // cached factor or, failing that, refactorizes with them.
  options.optimize_hyperparams = false;
  GpModel model(std::move(kernel), options);
  if (stored_checksum == FactorChecksum(lower, jitter)) {
    Result<Cholesky> factor = Cholesky::FromLower(std::move(lower), jitter);
    if (factor.ok()) {
      RESTUNE_RETURN_IF_ERROR(
          model.FitWithFactor(x, y, std::move(factor).value()));
      SerializationMetrics::Get()->factor_loads->Add();
      return model;
    }
    RESTUNE_LOG(kWarning) << "stored GP factor rejected ("
                          << factor.status().ToString()
                          << "); refactorizing from training data";
  } else {
    // A corrupted factor is recoverable — the training data is intact, so
    // fall back to refactorizing rather than failing the load.
    RESTUNE_LOG(kWarning)
        << "GP factor checksum mismatch; refactorizing from training data";
  }
  SerializationMetrics::Get()->factor_fallbacks->Add();
  RESTUNE_RETURN_IF_ERROR(model.Fit(x, y));
  return model;
}

Status WriteMultiOutputGp(ByteWriter* out, const MultiOutputGp& model) {
  for (MetricKind kind : kAllMetricKinds) {
    RESTUNE_RETURN_IF_ERROR(WriteGpModel(out, model.model(kind)));
  }
  return Status::OK();
}

// GCC's -Wmaybe-uninitialized misfires on the moved-from GpModel locals
// below: it cannot see that Result's engaged-state check guards every read
// of the optional<Cholesky> payload (gcc bug 80635 family). Scoped to this
// one function; clang and ASan/MSan see nothing here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
Result<MultiOutputGp> ReadMultiOutputGp(ByteReader* in) {
  RESTUNE_ASSIGN_OR_RETURN(GpModel res, ReadGpModel(in));
  RESTUNE_ASSIGN_OR_RETURN(GpModel tps, ReadGpModel(in));
  RESTUNE_ASSIGN_OR_RETURN(GpModel lat, ReadGpModel(in));
  return MultiOutputGp(
      std::array<GpModel, kNumMetricKinds>{std::move(res), std::move(tps),
                                           std::move(lat)});
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

Status SaveGpModel(const GpModel& model, std::ostream* out) {
  ByteWriter payload;
  RESTUNE_RETURN_IF_ERROR(WriteGpModel(&payload, model));
  return WriteSealed(FileKind::kGpModel, payload.str(), out);
}

Result<GpModel> LoadGpModel(std::istream* in) {
  RESTUNE_ASSIGN_OR_RETURN(const std::string payload,
                           ReadSealed(FileKind::kGpModel, in));
  ByteReader reader(payload);
  RESTUNE_ASSIGN_OR_RETURN(GpModel model, ReadGpModel(&reader));
  RESTUNE_RETURN_IF_ERROR(reader.ExpectEnd());
  return model;
}

}  // namespace restune
