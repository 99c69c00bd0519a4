#include "core/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ber {

namespace {

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* want, Json::Type got) {
  throw JsonError(std::string("json: expected ") + want + ", got " +
                  type_name(got));
}

// ------------------------------------------------------------------ parse ---

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') { ++line; col = 1; } else { ++col; }
    }
    throw JsonError("json parse error at line " + std::to_string(line) + ":" +
                    std::to_string(col) + ": " + why);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (!eof() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal (expected 'true')");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal (expected 'false')");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal (expected 'null')");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (!eof() && peek() == '}') { ++pos_; return obj; }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (obj.contains(key)) fail("duplicate object key \"" + key + "\"");
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (!eof() && peek() == ']') { ++pos_; return arr; }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (!eof()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (eof()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape digit");
            }
            // UTF-8 encode the BMP code point (surrogate pairs unsupported —
            // spec files are ASCII in practice).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
    fail("unterminated string");
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
    bool any = false;
    auto digits = [&] {
      while (!eof() && peek() >= '0' && peek() <= '9') { ++pos_; any = true; }
    };
    digits();
    if (!eof() && peek() == '.') { ++pos_; digits(); }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
      digits();
    }
    if (!any) { pos_ = start; fail("invalid value"); }
    // std::from_chars, not strtod: locale-independent, so spec files parse
    // identically in embedding processes that set a comma-decimal locale
    // (and it mirrors the std::to_chars emitter — parse(dump(x)) == x).
    const char* tok_begin = text_.data() + start;
    const char* tok_end = text_.data() + pos_;
    const char* parse_begin = *tok_begin == '+' ? tok_begin + 1 : tok_begin;
    double v = 0.0;
    const auto res = std::from_chars(parse_begin, tok_end, v);
    if (res.ec != std::errc() || res.ptr != tok_end) {
      pos_ = start;
      fail("invalid number");
    }
    return Json(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    out += "null";
    return;
  }
  // Integral doubles print without a fraction; everything else uses the
  // shortest form that round-trips exactly.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    out += buf;
    return;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

// -------------------------------------------------------------- accessors ---

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return num_;
}

long Json::as_int() const {
  const double v = as_number();
  // 2^53: the largest magnitude below which every integer is exactly
  // representable as a double.
  if (v != std::floor(v) || std::fabs(v) > 9007199254740992.0) {
    throw JsonError("json: expected integer, got " + dump());
  }
  return static_cast<long>(v);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

const Json::Array& Json::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

const Json::Object& Json::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

Json& Json::push_back(Json v) {
  if (type_ != Type::kArray) type_error("array", type_);
  arr_.push_back(std::move(v));
  return *this;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  type_error("array or object", type_);
}

const Json& Json::operator[](std::size_t i) const {
  const Array& a = items();
  if (i >= a.size()) throw JsonError("json: array index out of range");
  return a[i];
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (Member& m : obj_) {
    if (m.first == key) {
      m.second = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(key, std::move(value));
  return *this;
}

bool Json::contains(const std::string& key) const {
  return find(key) != nullptr;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const Member& m : obj_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) throw JsonError("json: missing key \"" + key + "\"");
  return *v;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return num_ == other.num_;
    case Type::kString: return str_ == other.str_;
    case Type::kArray: return arr_ == other.arr_;
    case Type::kObject: return obj_ == other.obj_;
  }
  return false;
}

// ------------------------------------------------------------ parse / dump ---

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

Json Json::parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError("json: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse(buf.str());
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: dump_number(out, num_); break;
    case Type::kString: dump_string(out, str_); break;
    case Type::kArray: {
      if (arr_.empty()) { out += "[]"; break; }
      // Arrays of scalars stay on one line even in pretty mode (rate grids
      // read better horizontally); arrays holding containers break.
      bool scalar = true;
      for (const Json& v : arr_) {
        if (v.is_array() || v.is_object()) { scalar = false; break; }
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += pretty && scalar ? ", " : ",";
        if (!scalar) newline(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      if (!scalar) newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (obj_.empty()) { out += "{}"; break; }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        dump_string(out, obj_[i].first);
        out += pretty ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace ber
