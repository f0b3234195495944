#include "data/csv.h"

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/string_util.h"

namespace smptree {

namespace {

// EmitCsv hands its text to the sink in chunks of about this many bytes.
constexpr size_t kEmitChunkBytes = 64 << 10;

void AppendValue(const Schema& schema, int attr, AttrValue v,
                 std::string* out) {
  const AttrInfo& info = schema.attr(attr);
  char num[32];
  std::to_chars_result r{num, std::errc()};
  if (info.is_categorical()) {
    if (!info.value_names.empty() && v.cat >= 0 &&
        v.cat < static_cast<int32_t>(info.value_names.size())) {
      out->append(info.value_names[v.cat]);
      return;
    }
    r = std::to_chars(num, num + sizeof(num), v.cat);
  } else if (IsMissing(v.f)) {
    out->push_back('?');
    return;
  } else {
    // Byte for byte what printf("%.9g") prints: enough digits to round-trip
    // every float.
    r = std::to_chars(num, num + sizeof(num), static_cast<double>(v.f),
                      std::chars_format::general, 9);
  }
  out->append(num, r.ptr);
}

/// Formats `data` as CSV, handing the text to `sink` chunk by chunk.
void EmitCsv(const Dataset& data,
             const std::function<void(std::string_view)>& sink) {
  const Schema& schema = data.schema();
  std::string buf;
  for (int a = 0; a < schema.num_attrs(); ++a) {
    buf.append(schema.attr(a).name);
    buf.push_back(',');
  }
  buf.append("class\n");
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    for (int a = 0; a < schema.num_attrs(); ++a) {
      AppendValue(schema, a, data.value(t, a), &buf);
      buf.push_back(',');
    }
    buf.append(schema.class_name(data.label(t)));
    buf.push_back('\n');
    if (buf.size() >= kEmitChunkBytes) {
      sink(buf);
      buf.clear();
    }
  }
  sink(buf);
}

Status ParseValue(const Schema& schema, int attr, std::string_view text,
                  AttrValue* out) {
  const AttrInfo& info = schema.attr(attr);
  // "?" marks a missing value (ARFF/UCI convention). Continuous attributes
  // use the canonical missing sentinel; categorical schemas must declare an
  // explicit value (e.g. "unknown") instead, so "?" there is rejected by
  // the normal lookup below.
  if (!info.is_categorical() && text == "?") {
    out->f = kMissingValue;
    return Status::OK();
  }
  if (info.is_categorical()) {
    // Try a value name first, then a numeric code.
    for (size_t i = 0; i < info.value_names.size(); ++i) {
      if (info.value_names[i] == text) {
        out->cat = static_cast<int32_t>(i);
        return Status::OK();
      }
    }
    int64_t code = 0;
    if (!ParseInt64(text, &code) || code < 0 || code >= info.cardinality) {
      return Status::Corruption(StringPrintf(
          "bad categorical value '%.*s' for attribute '%s'",
          static_cast<int>(text.size()), text.data(), info.name.c_str()));
    }
    out->cat = static_cast<int32_t>(code);
    return Status::OK();
  }
  double v = 0.0;
  if (!ParseDouble(text, &v)) {
    return Status::Corruption(StringPrintf(
        "bad continuous value '%.*s' for attribute '%s'",
        static_cast<int>(text.size()), text.data(), info.name.c_str()));
  }
  out->f = static_cast<float>(v);
  return Status::OK();
}

Status CheckHeader(const Schema& schema, std::string_view line) {
  const auto header = SplitString(TrimWhitespace(line), ',');
  if (static_cast<int>(header.size()) != schema.num_attrs() + 1) {
    return Status::Corruption(StringPrintf(
        "header has %zu columns, schema expects %d", header.size(),
        schema.num_attrs() + 1));
  }
  for (int a = 0; a < schema.num_attrs(); ++a) {
    if (TrimWhitespace(header[a]) != schema.attr(a).name) {
      return Status::Corruption(
          StringPrintf("header column %d is '%s', schema expects '%s'", a,
                       header[a].c_str(), schema.attr(a).name.c_str()));
    }
  }
  return Status::OK();
}

/// One block of whole lines and the tuples parsed from it. The buffers keep
/// their capacity from block to block.
struct Block {
  std::string bytes;      ///< storage the reader fills
  std::string_view text;  ///< the lines of this block, within `bytes`
  std::vector<std::vector<AttrValue>> columns;
  std::vector<ClassLabel> labels;
  int64_t lines = 0;  ///< lines parsed, blank ones included
  /// First bad line, counted from the block's first line (its number in the
  /// file is known only once every earlier block is parsed), and its error,
  /// which still needs its "line N: " prefix.
  int64_t error_line = 0;
  Status error;
};

/// Fills `dst` with up to `n` bytes of input; returns how many, 0 at the end.
using ReadFn = std::function<Result<size_t>(char* dst, size_t n)>;

/// Hands out the input as blocks of whole lines. The input is read
/// kCsvBlockBytes at a time and each block ends after the last '\n' of its
/// final read, so only the input's last line may lack its '\n'. A line
/// longer than a read makes its block take as many reads as it needs.
class LineBlockReader {
 public:
  explicit LineBlockReader(ReadFn read) : read_(std::move(read)) {}

  /// Points `block->text` at the next block; empty at the end of the input.
  Status Next(Block* block) {
    std::string& buf = block->bytes;
    size_t len = carry_.size();
    if (buf.size() < len + kCsvBlockBytes) buf.resize(len + kCsvBlockBytes);
    std::memcpy(buf.data(), carry_.data(), len);
    carry_.clear();
    while (!eof_) {
      if (buf.size() < len + kCsvBlockBytes) buf.resize(len + kCsvBlockBytes);
      SMPTREE_ASSIGN_OR_RETURN(const size_t got,
                               read_(buf.data() + len, kCsvBlockBytes));
      if (got == 0) {
        eof_ = true;
        break;
      }
      // Earlier bytes of this block hold no '\n', so the cut is in this read.
      const char* nl =
          static_cast<const char*>(memrchr(buf.data() + len, '\n', got));
      len += got;
      if (nl != nullptr) {
        const size_t cut = static_cast<size_t>(nl - buf.data()) + 1;
        carry_.assign(buf.data() + cut, len - cut);
        len = cut;
        break;
      }
    }
    block->text = std::string_view(buf.data(), len);
    return Status::OK();
  }

 private:
  ReadFn read_;
  std::string carry_;  ///< bytes after the last '\n' handed out
  bool eof_ = false;
};

/// Parses one trimmed, non-blank line into `block`. A line with the wrong
/// number of fields reports that, even when one of its values is bad too.
Status ParseLine(const Schema& schema, std::string_view line, Block* block) {
  const std::string_view whole = line;
  const auto field_count_error = [&] {
    const size_t fields =
        static_cast<size_t>(std::count(whole.begin(), whole.end(), ',')) + 1;
    return Status::Corruption(StringPrintf(
        "%zu fields, expected %d", fields, schema.num_attrs() + 1));
  };
  for (int a = 0; a < schema.num_attrs(); ++a) {
    const size_t comma = line.find(',');
    if (comma == std::string_view::npos) return field_count_error();
    AttrValue value{};
    const Status s =
        ParseValue(schema, a, TrimWhitespace(line.substr(0, comma)), &value);
    if (!s.ok()) {
      const auto commas = std::count(whole.begin(), whole.end(), ',');
      return commas == schema.num_attrs() ? s : field_count_error();
    }
    block->columns[a].push_back(value);
    line.remove_prefix(comma + 1);
  }
  if (line.find(',') != std::string_view::npos) return field_count_error();
  const std::string_view label_text = TrimWhitespace(line);
  int label = -1;
  for (int c = 0; c < schema.num_classes(); ++c) {
    if (schema.class_name(c) == label_text) {
      label = c;
      break;
    }
  }
  if (label < 0) {
    int64_t code = 0;
    if (ParseInt64(label_text, &code) && code >= 0 &&
        code < schema.num_classes()) {
      label = static_cast<int>(code);
    }
  }
  if (label < 0) {
    return Status::Corruption(StringPrintf("unknown class '%.*s'",
                                           static_cast<int>(label_text.size()),
                                           label_text.data()));
  }
  block->labels.push_back(static_cast<ClassLabel>(label));
  return Status::OK();
}

/// Parses `block->text` line by line, stopping at the first bad line.
void ParseBlock(const Schema& schema, Block* block) {
  block->columns.resize(schema.num_attrs());
  for (auto& column : block->columns) column.clear();
  block->labels.clear();
  block->lines = 0;
  block->error = Status::OK();
  std::string_view rest = block->text;
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    const std::string_view trimmed = TrimWhitespace(line);
    if (!trimmed.empty()) {
      Status s = ParseLine(schema, trimmed, block);
      if (!s.ok()) {
        block->error_line = block->lines;
        block->error = std::move(s);
        return;
      }
    }
    ++block->lines;
  }
}

/// The one CSV parse path. The calling thread reads up to
/// hardware_concurrency blocks, they parse at once (the first on the calling
/// thread), and their tuples join the Dataset in file order; then the next
/// round. The first error in file order wins, whichever block found it.
Result<Dataset> LoadCsv(const Schema& schema, ReadFn read) {
  LineBlockReader reader(std::move(read));
  const int max_blocks =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<Block> blocks(max_blocks);

  SMPTREE_RETURN_IF_ERROR(reader.Next(&blocks[0]));
  std::string_view& first = blocks[0].text;
  if (first.empty()) return Status::Corruption("empty CSV input");
  const size_t header_end = std::min(first.find('\n'), first.size());
  SMPTREE_RETURN_IF_ERROR(CheckHeader(schema, first.substr(0, header_end)));
  first.remove_prefix(std::min(header_end + 1, first.size()));

  Dataset data(schema);
  int64_t line_base = 2;  // the header is line 1
  int ready = 1;          // blocks[0] already holds the lines after the header
  for (bool more = true; more;) {
    for (; ready < max_blocks; ++ready) {
      SMPTREE_RETURN_IF_ERROR(reader.Next(&blocks[ready]));
      if (blocks[ready].text.empty()) {
        more = false;
        break;
      }
    }
    {
      std::vector<std::thread> workers;
      for (int b = 1; b < ready; ++b) {
        workers.emplace_back(ParseBlock, std::cref(schema), &blocks[b]);
      }
      if (ready > 0) ParseBlock(schema, &blocks[0]);
      for (std::thread& w : workers) w.join();
    }
    for (int b = 0; b < ready; ++b) {
      Block& block = blocks[b];
      if (!block.error.ok()) {
        const std::string_view msg = block.error.message();
        return Status::Corruption(StringPrintf(
            "line %lld: %.*s",
            static_cast<long long>(line_base + block.error_line),
            static_cast<int>(msg.size()), msg.data()));
      }
      SMPTREE_RETURN_IF_ERROR(data.AppendColumns(block.columns, block.labels));
      line_base += block.lines;
    }
    ready = 0;
  }
  return data;
}

}  // namespace

Status WriteCsv(const Dataset& data, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  EmitCsv(data, [&out](std::string_view text) {
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  });
  out.flush();
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<Dataset> ReadCsv(const Schema& schema, const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) return Status::IOError("cannot open " + path);
  return LoadCsv(schema, [&](char* dst, size_t n) -> Result<size_t> {
    const size_t got = std::fread(dst, 1, n, file.get());
    if (std::ferror(file.get())) {
      return Status::IOError("read failed for " + path + ": " +
                             std::strerror(errno));
    }
    return got;
  });
}

std::string ToCsvString(const Dataset& data) {
  std::string text;
  EmitCsv(data, [&text](std::string_view chunk) { text.append(chunk); });
  return text;
}

Result<Dataset> FromCsvString(const Schema& schema, const std::string& text) {
  size_t pos = 0;
  return LoadCsv(schema, [&](char* dst, size_t n) -> Result<size_t> {
    n = std::min(n, text.size() - pos);
    std::memcpy(dst, text.data() + pos, n);
    pos += n;
    return n;
  });
}

}  // namespace smptree
