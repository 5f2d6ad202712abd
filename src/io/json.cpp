#include "io/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/contract.hpp"

namespace sfp::io {

namespace detail {

void throw_bad_integer(std::string_view key, const std::string& lo,
                       const std::string& hi) {
  ::sfp::detail::contract_fail(
      "precondition", "json_integer", __FILE__, __LINE__,
      std::string(key) + " must be an integer in [" + lo + ", " + hi + "]");
}

}  // namespace detail

const json_value& json_value::at(const std::string& key) const {
  SFP_REQUIRE(type == kind::object, "json: at() on a non-object");
  const auto it = object.find(key);
  SFP_REQUIRE(it != object.end(), "json: missing key: " + key);
  return it->second;
}

bool json_value::has(const std::string& key) const {
  return type == kind::object && object.count(key) > 0;
}

void json_require_known_keys(const json_value& v,
                             std::initializer_list<std::string_view> known,
                             std::string_view what) {
  for (const auto& member : v.object)
    SFP_REQUIRE(std::find(known.begin(), known.end(), member.first) !=
                    known.end(),
                std::string(what) + ": unknown key '" + member.first + "'");
}

namespace {

class parser {
 public:
  explicit parser(std::string_view text) : text_(text) {}

  json_value parse_document() {
    json_value v = parse_value();
    skip_ws();
    SFP_REQUIRE(pos_ == text_.size(), err("trailing characters"));
    return v;
  }

 private:
  std::string err(const char* what) const {
    return std::string("json parse error at byte ") + std::to_string(pos_) +
           ": " + what;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    SFP_REQUIRE(pos_ < text_.size(), err("unexpected end of input"));
    return text_[pos_];
  }

  void expect(char c) {
    SFP_REQUIRE(peek() == c, err("unexpected character"));
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  json_value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      // Containers recurse; bound the depth so hostile input like
      // "[[[[..." cannot blow the stack (found by the fuzz harness).
      case '{': {
        SFP_REQUIRE(depth_ < kMaxDepth, err("nesting too deep"));
        ++depth_;
        json_value v = parse_object();
        --depth_;
        return v;
      }
      case '[': {
        SFP_REQUIRE(depth_ < kMaxDepth, err("nesting too deep"));
        ++depth_;
        json_value v = parse_array();
        --depth_;
        return v;
      }
      case '"': {
        json_value v;
        v.type = json_value::kind::string;
        v.string = parse_string();
        return v;
      }
      case 't': {
        SFP_REQUIRE(consume_literal("true"), err("bad literal"));
        json_value v;
        v.type = json_value::kind::boolean;
        v.boolean = true;
        return v;
      }
      case 'f': {
        SFP_REQUIRE(consume_literal("false"), err("bad literal"));
        json_value v;
        v.type = json_value::kind::boolean;
        v.boolean = false;
        return v;
      }
      case 'n': {
        SFP_REQUIRE(consume_literal("null"), err("bad literal"));
        return json_value{};
      }
      default: return parse_number();
    }
  }

  json_value parse_object() {
    expect('{');
    json_value v;
    v.type = json_value::kind::object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  json_value parse_array() {
    expect('[');
    json_value v;
    v.type = json_value::kind::array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      SFP_REQUIRE(pos_ < text_.size(), err("unterminated string"));
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      SFP_REQUIRE(pos_ < text_.size(), err("unterminated escape"));
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          SFP_REQUIRE(pos_ + 4 <= text_.size(), err("short \\u escape"));
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              SFP_REQUIRE(false, err("bad \\u escape"));
          }
          // Latin-1 subset is all this library ever emits.
          out.push_back(static_cast<char>(code & 0xFF));
          break;
        }
        default: SFP_REQUIRE(false, err("bad escape"));
      }
    }
  }

  json_value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    SFP_REQUIRE(pos_ > start, err("expected a value"));
    json_value v;
    v.type = json_value::kind::number;
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_,
                                     v.number);
    SFP_REQUIRE(res.ec == std::errc() && res.ptr == text_.data() + pos_,
                err("bad number"));
    return v;
  }

  static constexpr int kMaxDepth = 192;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

json_value parse_json(std::string_view text) {
  return parser(text).parse_document();
}

json_value json_string(std::string s) {
  json_value v;
  v.type = json_value::kind::string;
  v.string = std::move(s);
  return v;
}

json_value json_number(double n) {
  json_value v;
  v.type = json_value::kind::number;
  v.number = n;
  return v;
}

json_value json_bool(bool b) {
  json_value v;
  v.type = json_value::kind::boolean;
  v.boolean = b;
  return v;
}

json_value json_array() {
  json_value v;
  v.type = json_value::kind::array;
  return v;
}

json_value json_object() {
  json_value v;
  v.type = json_value::kind::object;
  return v;
}

namespace {

void append_number(std::string& out, double n) {
  SFP_REQUIRE(std::isfinite(n), "json: NaN/Inf cannot be serialized");
  // Integral values inside the exactly-representable range print as
  // integers so ids and counters survive a write/parse round trip legibly.
  if (n == static_cast<double>(static_cast<long long>(n)) &&
      n >= -9007199254740992.0 && n <= 9007199254740992.0) {
    out += std::to_string(static_cast<long long>(n));
    return;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, n);
  SFP_ASSERT(res.ec == std::errc(), "json: number formatting failed");
  out.append(buf, res.ptr);
}

void write_value(std::string& out, const json_value& v, int indent,
                 int depth) {
  const auto newline_pad = [&out, indent](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.type) {
    case json_value::kind::null: out += "null"; break;
    case json_value::kind::boolean: out += v.boolean ? "true" : "false"; break;
    case json_value::kind::number: append_number(out, v.number); break;
    case json_value::kind::string:
      out.push_back('"');
      out += json_escape(v.string);
      out.push_back('"');
      break;
    case json_value::kind::array: {
      if (v.array.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i) out.push_back(',');
        newline_pad(depth + 1);
        write_value(out, v.array[i], indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back(']');
      break;
    }
    case json_value::kind::object: {
      if (v.object.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, child] : v.object) {
        if (!first) out.push_back(',');
        first = false;
        newline_pad(depth + 1);
        out.push_back('"');
        out += json_escape(key);
        out += indent > 0 ? "\": " : "\":";
        write_value(out, child, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string write_json(const json_value& v, int indent) {
  std::string out;
  write_value(out, v, indent, 0);
  if (indent > 0) out.push_back('\n');
  return out;
}

void write_json_file(const json_value& v, const std::string& path,
                     int indent) {
  std::ofstream os(path, std::ios::binary);
  SFP_REQUIRE(os.good(), "cannot open json file for writing: " + path);
  os << write_json(v, indent);
  os.flush();
  SFP_REQUIRE(os.good(), "failed writing json file: " + path);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace sfp::io
