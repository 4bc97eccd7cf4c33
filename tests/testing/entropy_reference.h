// Reference entropy implementation: the pre-batching per-candidate
// recursion, retained verbatim as the differential oracle for the batched
// sweep in entropy.cc (DESIGN.md §12). Every leaf is scored by its own
// CountNewlyUninformativeBoth call, so the only state API it shares with
// the batch path is the per-candidate one — a disagreement localizes the
// bug to the batch sweep or the packed arrays, not to shared plumbing.
//
// Part of the jinfer_testing library: the tests link it, the shipped
// libjinfer does not.

#ifndef JINFER_TESTS_TESTING_ENTROPY_REFERENCE_H_
#define JINFER_TESTS_TESTING_ENTROPY_REFERENCE_H_

#include "core/entropy.h"
#include "core/inference_state.h"
#include "core/types.h"

namespace jinfer {
namespace testing {

/// entropy^k_S(t) by the per-candidate recursion; bit-identical to
/// EntropyKOf for every k, state and candidate.
core::Entropy EntropyKOfReference(const core::InferenceState& state,
                                  core::ClassId cls, int k);

/// In-place form on a caller-owned scratch state (restored exactly),
/// mirroring EntropyKOfInPlace.
core::Entropy EntropyKOfInPlaceReference(core::InferenceState& state,
                                         core::ClassId cls, int k);

}  // namespace testing
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_ENTROPY_REFERENCE_H_
