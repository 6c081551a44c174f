#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace db2graph {

Json Json::Bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double n) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = n;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

const Json* Json::Find(const std::string& key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Json::GetBool(const std::string& key, bool fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

std::string Json::GetString(const std::string& key,
                            const std::string& fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

void Json::Set(const std::string& key, Json v) {
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

namespace {

// Length (2..4) of the UTF-8 sequence starting at s[i], or 0 when the
// bytes there are not a well-formed sequence (bad lead byte, truncated,
// or continuation bytes missing).
size_t Utf8SequenceLength(const std::string& s, size_t i) {
  unsigned char c = static_cast<unsigned char>(s[i]);
  size_t len;
  if ((c & 0xE0) == 0xC0) {
    len = 2;
  } else if ((c & 0xF0) == 0xE0) {
    len = 3;
  } else if ((c & 0xF8) == 0xF0) {
    len = 4;
  } else {
    return 0;  // continuation byte or invalid lead (0x80..0xBF, 0xF8..)
  }
  if (i + len > s.size()) return 0;
  for (size_t k = 1; k < len; ++k) {
    if ((static_cast<unsigned char>(s[i + k]) & 0xC0) != 0x80) return 0;
  }
  return len;
}

void EscapeTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"':
        *out += "\\\"";
        continue;
      case '\\':
        *out += "\\\\";
        continue;
      case '\n':
        *out += "\\n";
        continue;
      case '\t':
        *out += "\\t";
        continue;
      case '\r':
        *out += "\\r";
        continue;
      case '\b':
        *out += "\\b";
        continue;
      case '\f':
        *out += "\\f";
        continue;
      default:
        break;
    }
    if (c < 0x20) {
      // Remaining control characters have no shorthand escape.
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else if (c < 0x80) {
      out->push_back(static_cast<char>(c));
    } else {
      // Raw query scripts flow verbatim into trace/query-log JSON, so
      // arbitrary bytes reach here: pass well-formed UTF-8 through and
      // replace anything else with U+FFFD to keep the document valid.
      size_t len = Utf8SequenceLength(s, i);
      if (len == 0) {
        *out += "\\ufffd";
      } else {
        out->append(s, i, len);
        i += len - 1;
      }
    }
  }
  out->push_back('"');
}

void DumpTo(const Json& j, int depth, std::string* out) {
  const std::string pad(static_cast<size_t>(depth) * 2, ' ');
  const std::string pad_in(static_cast<size_t>(depth + 1) * 2, ' ');
  switch (j.type()) {
    case Json::Type::kNull:
      *out += "null";
      return;
    case Json::Type::kBool:
      *out += j.as_bool() ? "true" : "false";
      return;
    case Json::Type::kNumber: {
      double n = j.as_number();
      char buf[32];
      if (n == std::floor(n) && std::abs(n) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(n));
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", n);
      }
      *out += buf;
      return;
    }
    case Json::Type::kString:
      EscapeTo(j.as_string(), out);
      return;
    case Json::Type::kArray: {
      if (j.items().empty()) {
        *out += "[]";
        return;
      }
      *out += "[\n";
      for (size_t i = 0; i < j.items().size(); ++i) {
        *out += pad_in;
        DumpTo(j.items()[i], depth + 1, out);
        if (i + 1 < j.items().size()) *out += ",";
        *out += "\n";
      }
      *out += pad + "]";
      return;
    }
    case Json::Type::kObject: {
      if (j.members().empty()) {
        *out += "{}";
        return;
      }
      *out += "{\n";
      for (size_t i = 0; i < j.members().size(); ++i) {
        *out += pad_in;
        EscapeTo(j.members()[i].first, out);
        *out += ": ";
        DumpTo(j.members()[i].second, depth + 1, out);
        if (i + 1 < j.members().size()) *out += ",";
        *out += "\n";
      }
      *out += pad + "}";
      return;
    }
  }
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<Json> ParseDocument() {
    SkipWs();
    Json value;
    Status st = ParseValue(&value);
    if (!st.ok()) return st;
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(Json* out) {
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Containers recurse: bound the nesting so hostile input cannot
      // overflow the stack.
      if (depth_ == kMaxDepth) {
        return Error("nesting deeper than " + std::to_string(kMaxDepth));
      }
      ++depth_;
      Status st = c == '{' ? ParseObject(out) : ParseArray(out);
      --depth_;
      return st;
    }
    if (c == '"') {
      std::string s;
      DB2G_RETURN_NOT_OK(ParseString(&s));
      *out = Json::Str(std::move(s));
      return Status::OK();
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      *out = Json::Bool(true);
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      *out = Json::Bool(false);
      return Status::OK();
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      *out = Json();
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseNumber(Json* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    char* end = nullptr;
    std::string num = text_.substr(start, pos_ - start);
    double d = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("bad number '" + num + "'");
    *out = Json::Number(d);
    return Status::OK();
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t cp = 0;
    for (int k = 0; k < 4; ++k) {
      char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') {
        cp |= static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        cp |= static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        cp |= static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    *out = cp;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'u': {
            uint32_t cp = 0;
            DB2G_RETURN_NOT_OK(ParseHex4(&cp));
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: a low surrogate escape must follow.
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Error("unpaired high surrogate in \\u escape");
              }
              pos_ += 2;
              uint32_t low = 0;
              DB2G_RETURN_NOT_OK(ParseHex4(&low));
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("invalid low surrogate in \\u escape");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return Error("unpaired low surrogate in \\u escape");
            }
            AppendUtf8(cp, out);
            break;
          }
          default:
            return Error(std::string("unsupported escape '\\") + e + "'");
        }
      } else {
        out->push_back(c);
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(Json* out) {
    Consume('[');
    *out = Json::Array();
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      Json item;
      DB2G_RETURN_NOT_OK(ParseValue(&item));
      out->Append(std::move(item));
      SkipWs();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(Json* out) {
    Consume('{');
    *out = Json::Object();
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      std::string key;
      DB2G_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Error("expected ':' in object");
      Json value;
      DB2G_RETURN_NOT_OK(ParseValue(&value));
      out->Set(key, std::move(value));
      SkipWs();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(*this, indent, &out);
  return out;
}

Result<Json> Json::Parse(const std::string& text) {
  return JsonParser(text).ParseDocument();
}

}  // namespace db2graph
