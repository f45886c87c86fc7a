#ifndef RESTUNE_GP_GP_SERIALIZATION_H_
#define RESTUNE_GP_GP_SERIALIZATION_H_

#include <istream>
#include <ostream>

#include "common/byte_codec.h"
#include "common/result.h"
#include "gp/gp_model.h"
#include "gp/multi_output_gp.h"

namespace restune {

/// Binary serialization for trained GP models (common/byte_codec.h).
///
/// A production data repository keeps base models trained, not just raw
/// observations (paper Fig. 2 stores "Base Model of Task i"); these
/// helpers persist a fitted `GpModel` — kernel type and hyper-parameters,
/// fit options, training data and the fitted Cholesky factor with an FNV
/// checksum — so loading skips both the marginal-likelihood search and the
/// O(n³) factorization. A factor whose checksum does not match is dropped
/// and the model refactorizes from its training data
/// (`restune_gp_factor_fallbacks_total`).

/// Payload codecs, embedded in the data repository's learner records.
Status WriteGpModel(ByteWriter* out, const GpModel& model);
Result<GpModel> ReadGpModel(ByteReader* in);
/// Three stacked single-output models (res, tps, lat).
Status WriteMultiOutputGp(ByteWriter* out, const MultiOutputGp& model);
Result<MultiOutputGp> ReadMultiOutputGp(ByteReader* in);

/// A standalone model file: one sealed FileKind::kGpModel payload.
Status SaveGpModel(const GpModel& model, std::ostream* out);
Result<GpModel> LoadGpModel(std::istream* in);

}  // namespace restune

#endif  // RESTUNE_GP_GP_SERIALIZATION_H_
