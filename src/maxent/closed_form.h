// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_CLOSED_FORM_H_
#define PME_MAXENT_CLOSED_FORM_H_

#include <vector>

#include "anonymize/bucketized_table.h"
#include "constraints/term_index.h"

namespace pme::maxent {

/// The Theorem-5 closed form: with no background knowledge, the maximum
/// entropy joint distribution factorizes within every bucket,
///
///   P(q, s, b) = P(q, b) · P(s, b) / P(b),
///
/// which is exactly the uniform "portion of S in the bucket" rule (Eq. 1
/// / Eq. 9) used by the pre-background-knowledge literature. Returns the
/// term probabilities over the TermIndex numbering.
std::vector<double> ClosedFormNoKnowledge(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index);

}  // namespace pme::maxent

#endif  // PME_MAXENT_CLOSED_FORM_H_
