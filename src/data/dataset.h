// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_DATA_DATASET_H_
#define PME_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/schema.h"

namespace pme::data {

/// The original microdata table `D` of the paper: a schema plus row-major
/// integer-coded records. All values are dictionary codes into the schema's
/// per-attribute dictionaries.
class Dataset {
 public:
  explicit Dataset(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  Schema& mutable_schema() { return schema_; }

  size_t num_records() const { return rows_.size(); }

  /// Appends a record of codes; must match the attribute count.
  Status AppendRecord(std::vector<uint32_t> codes);

  /// Appends a record of string values, interning them.
  Status AppendRecordValues(const std::vector<std::string>& values);

  /// Code of attribute `attr` in record `row`.
  uint32_t At(size_t row, size_t attr) const { return rows_[row][attr]; }

  /// Whole record (codes).
  const std::vector<uint32_t>& Record(size_t row) const { return rows_[row]; }

  /// String value of attribute `attr` in record `row`.
  const std::string& ValueAt(size_t row, size_t attr) const;

 private:
  Schema schema_;
  std::vector<std::vector<uint32_t>> rows_;
};

/// Dense encoder for tuples over a fixed subset of attributes.
///
/// The paper works with "an instance of the QI attributes" (`q` values in
/// Figure 1(c)): a whole tuple such as {male, college} gets one symbol.
/// TupleEncoder assigns each distinct observed tuple a dense id in
/// first-seen order and remembers the tuple behind each id. It also keeps
/// one posting list per (tuple position, value): the ids of the tuples
/// holding that value there, ascending — so a lookup by a few attribute
/// values walks the matching ids instead of every tuple.
class TupleEncoder {
 public:
  /// `attrs` are the dataset attribute indices that make up the tuple.
  explicit TupleEncoder(std::vector<size_t> attrs)
      : attrs_(std::move(attrs)), postings_(attrs_.size()) {}

  /// Encodes the tuple of record `row` in `d`, interning if unseen.
  uint32_t Encode(const Dataset& d, size_t row);

  /// Encodes an explicit code vector (must match the attr count).
  uint32_t EncodeCodes(const std::vector<uint32_t>& codes);

  /// Looks up an already-interned tuple; kNotFound if never seen.
  Result<uint32_t> Find(const std::vector<uint32_t>& codes) const;

  /// The code vector behind tuple id `id`.
  const std::vector<uint32_t>& Decode(uint32_t id) const;

  /// Pretty string "attr1=v1,attr2=v2" for diagnostics.
  std::string ToString(const Dataset& d, uint32_t id) const;

  /// The attribute indices this encoder covers.
  const std::vector<size_t>& attrs() const { return attrs_; }

  /// Ids of the tuples whose code at tuple position `position` (an index
  /// into attrs()) is `code`, ascending; empty when no tuple has it.
  const std::vector<uint32_t>& Postings(size_t position, uint32_t code) const;

  /// Number of distinct tuples seen.
  uint32_t size() const { return static_cast<uint32_t>(tuples_.size()); }

 private:
  struct VectorHash {
    size_t operator()(const std::vector<uint32_t>& v) const {
      size_t h = 1469598103934665603ULL;
      for (uint32_t x : v) {
        h ^= x;
        h *= 1099511628211ULL;
      }
      return h;
    }
  };

  std::vector<size_t> attrs_;
  std::vector<std::vector<uint32_t>> tuples_;
  // postings_[position][code]: tuple ids, ascending (ids grow as tuples
  // are interned, so appending keeps the order).
  std::vector<std::vector<std::vector<uint32_t>>> postings_;
  std::unordered_map<std::vector<uint32_t>, uint32_t, VectorHash> ids_;
};

}  // namespace pme::data

#endif  // PME_DATA_DATASET_H_
