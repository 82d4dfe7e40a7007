#include "data/dataset.h"

#include <sstream>

namespace pme::data {

Status Dataset::AppendRecord(std::vector<uint32_t> codes) {
  if (codes.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("record arity mismatch");
  }
  for (size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] >= schema_.attribute(i).dictionary.size()) {
      return Status::InvalidArgument("code out of dictionary range");
    }
  }
  rows_.push_back(std::move(codes));
  return Status::Ok();
}

Status Dataset::AppendRecordValues(const std::vector<std::string>& values) {
  if (values.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("record arity mismatch");
  }
  std::vector<uint32_t> codes(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    codes[i] = schema_.attribute(i).dictionary.Intern(values[i]);
  }
  rows_.push_back(std::move(codes));
  return Status::Ok();
}

const std::string& Dataset::ValueAt(size_t row, size_t attr) const {
  return schema_.attribute(attr).dictionary.ValueOf(rows_[row][attr]);
}

uint32_t TupleEncoder::Encode(const Dataset& d, size_t row) {
  std::vector<uint32_t> codes(attrs_.size());
  for (size_t i = 0; i < attrs_.size(); ++i) codes[i] = d.At(row, attrs_[i]);
  return EncodeCodes(codes);
}

uint32_t TupleEncoder::EncodeCodes(const std::vector<uint32_t>& codes) {
  auto it = ids_.find(codes);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(tuples_.size());
  tuples_.push_back(codes);
  ids_.emplace(codes, id);
  for (size_t i = 0; i < codes.size() && i < postings_.size(); ++i) {
    auto& by_code = postings_[i];
    if (codes[i] >= by_code.size()) by_code.resize(codes[i] + 1);
    by_code[codes[i]].push_back(id);
  }
  return id;
}

const std::vector<uint32_t>& TupleEncoder::Postings(size_t position,
                                                    uint32_t code) const {
  static const std::vector<uint32_t> kNone;
  if (position >= postings_.size() || code >= postings_[position].size()) {
    return kNone;
  }
  return postings_[position][code];
}

Result<uint32_t> TupleEncoder::Find(const std::vector<uint32_t>& codes) const {
  auto it = ids_.find(codes);
  if (it == ids_.end()) return Status::NotFound("tuple not interned");
  return it->second;
}

const std::vector<uint32_t>& TupleEncoder::Decode(uint32_t id) const {
  return tuples_.at(id);
}

std::string TupleEncoder::ToString(const Dataset& d, uint32_t id) const {
  const auto& codes = Decode(id);
  std::ostringstream oss;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (i > 0) oss << ",";
    const auto& attr = d.schema().attribute(attrs_[i]);
    oss << attr.name << "=" << attr.dictionary.ValueOf(codes[i]);
  }
  return oss.str();
}

}  // namespace pme::data
