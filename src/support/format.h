// Text formatting used by examples and benchmark binaries.
//
// The paper-reproduction benches print aligned tables ("the same rows the
// paper reports"); `TextTable` renders those without dragging in a formatting
// dependency. `cat(...)` is the project-wide string builder. `JsonWriter` is
// the one JSON emitter shared by `locald sweep`, `locald list/run --format
// json`, and the HTTP serving layer, so their documents cannot drift apart.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace locald {

// Concatenate streamable values into a string.
template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

// Strict base-10 integer parse: the whole string must be consumed, or
// nullopt. The one integer reader behind CLI flag values and family
// selector parameters, so the two surfaces cannot drift.
std::optional<std::int64_t> parse_int(const std::string& text);

// Fixed-point rendering with `digits` decimals (no locale surprises).
std::string fixed(double value, int digits);

// RFC-8259 JSON string literal (quotes included): ", \ and control
// characters escaped. Backs the CLI's `sweep --format json` mode.
std::string json_quote(const std::string& s);

// A streaming JSON document writer with automatic comma and indentation
// bookkeeping. `indent == 0` emits the document compact on one line;
// `indent > 0` pretty-prints with that many spaces per nesting level.
// Doubles always take an explicit digit count (rendered via `fixed`) so
// every emitted byte is deterministic — the serving layer's byte-identity
// contract and the sweep CI gate both ride on this.
//
//   JsonWriter w(out, 2);
//   w.begin_object();
//   w.key("scenario"); w.value("promise-cycle");
//   w.key("ok"); w.value(true);
//   w.end_object();
//
// Misuse (a value without a key inside an object, unbalanced end_* calls)
// throws BugError — emitting malformed JSON is a locald defect, never valid
// output.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, int indent = 0);

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  void key(const std::string& name);

  void value(const std::string& v);
  void value(const char* v);
  void value(bool v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(double v, int digits);

  // True once the root value is closed; nothing further may be written.
  bool complete() const { return root_written_ && stack_.empty(); }

 private:
  struct Level {
    bool is_object = false;
    std::size_t count = 0;
  };

  void before_value();
  void newline_indent(std::size_t depth);
  void write_scalar(const std::string& rendered);

  std::ostream& out_;
  int indent_;
  std::vector<Level> stack_;
  bool pending_key_ = false;
  bool root_written_ = false;
};

// A minimal aligned-column table renderer.
//
//   TextTable t({"r", "|T_r|", "audit"});
//   t.add_row({"1", "31", "1.000"});
//   std::cout << t.render();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  // Render with a header rule, columns padded to the widest cell.
  std::string render() const;

  // Render as RFC-4180 CSV (header row first); cells containing commas,
  // quotes, or newlines are quoted. Used by the CLI's --format csv mode.
  std::string render_csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace locald
