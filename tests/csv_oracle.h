// Reference CSV reader for parity tests: the original line-at-a-time
// istream parser (getline, SplitString, one strtod/strtoll per field on a
// copied token, Dataset::Append per tuple), except that a bad value's
// message carries its "line N: " prefix like every other per-line error.
// The block-parallel loader in data/csv.cc must agree with it on every
// input: the same OK/error verdict, the same error message and the same
// Dataset bytes.

#ifndef SMPTREE_TESTS_CSV_ORACLE_H_
#define SMPTREE_TESTS_CSV_ORACLE_H_

#include <cerrno>
#include <cstdlib>
#include <istream>
#include <string>
#include <string_view>

#include "data/dataset.h"
#include "util/status.h"
#include "util/string_util.h"

namespace smptree::oracle {

inline bool StrtodParseDouble(std::string_view s, double* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

inline bool StrtollParseInt64(std::string_view s, int64_t* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

inline Status ParseValue(const Schema& schema, int attr, std::string_view text,
                         AttrValue* out) {
  const AttrInfo& info = schema.attr(attr);
  if (!info.is_categorical() && text == "?") {
    out->f = kMissingValue;
    return Status::OK();
  }
  if (info.is_categorical()) {
    for (size_t i = 0; i < info.value_names.size(); ++i) {
      if (info.value_names[i] == text) {
        out->cat = static_cast<int32_t>(i);
        return Status::OK();
      }
    }
    int64_t code = 0;
    if (!StrtollParseInt64(text, &code) || code < 0 ||
        code >= info.cardinality) {
      return Status::Corruption(StringPrintf(
          "bad categorical value '%.*s' for attribute '%s'",
          static_cast<int>(text.size()), text.data(), info.name.c_str()));
    }
    out->cat = static_cast<int32_t>(code);
    return Status::OK();
  }
  double v = 0.0;
  if (!StrtodParseDouble(text, &v)) {
    return Status::Corruption(StringPrintf(
        "bad continuous value '%.*s' for attribute '%s'",
        static_cast<int>(text.size()), text.data(), info.name.c_str()));
  }
  out->f = static_cast<float>(v);
  return Status::OK();
}

inline Result<Dataset> ParseCsv(const Schema& schema, std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption("empty CSV input");
  }
  const auto header = SplitString(TrimWhitespace(line), ',');
  if (static_cast<int>(header.size()) != schema.num_attrs() + 1) {
    return Status::Corruption(StringPrintf(
        "header has %zu columns, schema expects %d", header.size(),
        schema.num_attrs() + 1));
  }
  for (int a = 0; a < schema.num_attrs(); ++a) {
    if (std::string(TrimWhitespace(header[a])) != schema.attr(a).name) {
      return Status::Corruption(
          StringPrintf("header column %d is '%s', schema expects '%s'", a,
                       header[a].c_str(), schema.attr(a).name.c_str()));
    }
  }

  Dataset data(schema);
  TupleValues values(schema.num_attrs());
  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty()) continue;
    const auto fields = SplitString(trimmed, ',');
    if (static_cast<int>(fields.size()) != schema.num_attrs() + 1) {
      return Status::Corruption(
          StringPrintf("line %lld: %zu fields, expected %d",
                       static_cast<long long>(line_no), fields.size(),
                       schema.num_attrs() + 1));
    }
    for (int a = 0; a < schema.num_attrs(); ++a) {
      const Status s =
          ParseValue(schema, a, TrimWhitespace(fields[a]), &values[a]);
      if (!s.ok()) {
        return Status::Corruption(StringPrintf(
            "line %lld: %.*s", static_cast<long long>(line_no),
            static_cast<int>(s.message().size()), s.message().data()));
      }
    }
    const std::string_view label_text = TrimWhitespace(fields.back());
    int label = -1;
    for (int c = 0; c < schema.num_classes(); ++c) {
      if (schema.class_name(c) == label_text) {
        label = c;
        break;
      }
    }
    if (label < 0) {
      int64_t code = 0;
      if (StrtollParseInt64(label_text, &code) && code >= 0 &&
          code < schema.num_classes()) {
        label = static_cast<int>(code);
      }
    }
    if (label < 0) {
      return Status::Corruption(
          StringPrintf("line %lld: unknown class '%.*s'",
                       static_cast<long long>(line_no),
                       static_cast<int>(label_text.size()), label_text.data()));
    }
    SMPTREE_RETURN_IF_ERROR(
        data.Append(values, static_cast<ClassLabel>(label)));
  }
  return data;
}

}  // namespace smptree::oracle

#endif  // SMPTREE_TESTS_CSV_ORACLE_H_
