#include "support/format.h"

#include <algorithm>
#include <iomanip>

#include "support/check.h"

namespace locald {

std::optional<std::int64_t> parse_int(const std::string& text) {
  if (text.empty()) {
    return std::nullopt;
  }
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(text, &used);
    if (used != text.size()) {
      return std::nullopt;
    }
    return value;
  } catch (...) {
    return std::nullopt;
  }
}

std::string fixed(double value, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          std::ostringstream os;
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(static_cast<unsigned char>(ch));
          out += os.str();
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

JsonWriter::JsonWriter(std::ostream& out, int indent)
    : out_(out), indent_(indent) {
  LOCALD_CHECK(indent >= 0, "indent must be non-negative");
}

void JsonWriter::newline_indent(std::size_t depth) {
  if (indent_ > 0) {
    out_ << '\n'
         << std::string(depth * static_cast<std::size_t>(indent_), ' ');
  }
}

void JsonWriter::before_value() {
  LOCALD_ASSERT(!complete(), "JSON document already complete");
  if (stack_.empty()) {
    root_written_ = true;
    return;
  }
  Level& top = stack_.back();
  if (top.is_object) {
    LOCALD_ASSERT(pending_key_, "object member written without a key");
    pending_key_ = false;
    return;
  }
  if (top.count > 0) out_ << ',';
  newline_indent(stack_.size());
  ++top.count;
}

void JsonWriter::write_scalar(const std::string& rendered) {
  before_value();
  out_ << rendered;
}

void JsonWriter::begin_object() {
  before_value();
  out_ << '{';
  stack_.push_back(Level{true, 0});
}

void JsonWriter::end_object() {
  LOCALD_ASSERT(!stack_.empty() && stack_.back().is_object && !pending_key_,
                "end_object without a matching open object");
  const std::size_t count = stack_.back().count;
  stack_.pop_back();
  if (count > 0) newline_indent(stack_.size());
  out_ << '}';
}

void JsonWriter::begin_array() {
  before_value();
  out_ << '[';
  stack_.push_back(Level{false, 0});
}

void JsonWriter::end_array() {
  LOCALD_ASSERT(!stack_.empty() && !stack_.back().is_object,
                "end_array without a matching open array");
  const std::size_t count = stack_.back().count;
  stack_.pop_back();
  if (count > 0) newline_indent(stack_.size());
  out_ << ']';
}

void JsonWriter::key(const std::string& name) {
  LOCALD_ASSERT(!stack_.empty() && stack_.back().is_object && !pending_key_,
                "key() is only valid directly inside an object");
  Level& top = stack_.back();
  if (top.count > 0) out_ << ',';
  newline_indent(stack_.size());
  ++top.count;
  out_ << json_quote(name) << (indent_ > 0 ? ": " : ":");
  pending_key_ = true;
}

void JsonWriter::value(const std::string& v) { write_scalar(json_quote(v)); }
void JsonWriter::value(const char* v) { write_scalar(json_quote(v)); }
void JsonWriter::value(bool v) { write_scalar(v ? "true" : "false"); }
void JsonWriter::value(std::int64_t v) { write_scalar(std::to_string(v)); }
void JsonWriter::value(std::uint64_t v) { write_scalar(std::to_string(v)); }
void JsonWriter::value(double v, int digits) {
  write_scalar(fixed(v, digits));
}
TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  LOCALD_CHECK(!header_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  LOCALD_CHECK(cells.size() == header_.size(),
               "row width must match the header");
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::left << std::setw(static_cast<int>(width[c]))
         << row[c];
    }
    os << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    total += width[c] + (c == 0 ? 0 : 2);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return os.str();
}

std::string TextTable::render_csv() const {
  auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) {
      return cell;
    }
    std::string quoted = "\"";
    for (char ch : cell) {
      if (ch == '"') quoted += '"';
      quoted += ch;
    }
    quoted += '"';
    return quoted;
  };
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : ",") << escape(row[c]);
    }
    os << '\n';
  };
  emit_row(header_);
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return os.str();
}

}  // namespace locald
