// The pre-columnar row-major encode and build, retained as the yardstick
// for the columnar pipeline in core/signature_index.cc: the
// encoded-vs-legacy property tests (tests/core/encoded_identity_test.cc)
// assert Build over the columnar storage is bit-identical to this in every
// observable (codes, class table, transcripts), and the micro_core
// BM_EncodeRelationRowMajor / BM_IngestAndBuildRowMajor benches report the
// columnar speedup against it. Part of the jinfer_testing library: the
// tests link it, the shipped libjinfer does not.

#ifndef JINFER_TESTS_TESTING_SIGNATURE_INDEX_REFERENCE_H_
#define JINFER_TESTS_TESTING_SIGNATURE_INDEX_REFERENCE_H_

#include <vector>

#include "core/signature_index.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "util/result.h"

namespace jinfer {
namespace testing {

/// Reference encode: walks materialized rows cell by cell through a
/// Value-keyed hash dictionary.
core::EncodedInstance EncodeInstanceReference(
    const std::vector<rel::Row>& r_rows, const std::vector<rel::Row>& p_rows);

/// The full row-major reference pipeline: EncodeInstanceReference over
/// pre-materialized rows, then the same classification passes as
/// SignatureIndex::Build.
util::Result<core::SignatureIndex> BuildReferenceRowMajor(
    const rel::Schema& r_schema, const std::vector<rel::Row>& r_rows,
    const rel::Schema& p_schema, const std::vector<rel::Row>& p_rows,
    const core::SignatureIndexOptions& options = {});

}  // namespace testing
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_SIGNATURE_INDEX_REFERENCE_H_
