#ifndef MITRA_COMMON_JSON_BUILDER_H_
#define MITRA_COMMON_JSON_BUILDER_H_

#include <charconv>
#include <cmath>
#include <concepts>
#include <string>
#include <string_view>
#include <utility>

#include "common/json_escape.h"

/// \file json_builder.h
/// The one JSON emitter for reports and telemetry: migration, batch and
/// quarantine reports, metrics and trace exports, bench reports. (Hdt
/// documents have their own format-aware writer in json/.) Header-only so
/// that obs/, which sits below common/ in the link order, can use it
/// without a link dependency.

namespace mitra {

/// Appends compact JSON (no whitespace) to a string, placing commas
/// itself. The caller keeps Begin/End calls balanced and puts a Key before
/// each value inside an object:
///   json.BeginObject().Key("n").Int(3).EndObject().Take();  // {"n":3}
class JsonBuilder {
 public:
  JsonBuilder& BeginObject() { return Open("{"); }
  JsonBuilder& EndObject() { return Close('}'); }
  JsonBuilder& BeginArray() { return Open("["); }
  JsonBuilder& EndArray() { return Close(']'); }

  /// An object member's key; the next call writes its value.
  JsonBuilder& Key(std::string_view key) {
    String(key);
    out_ += ':';
    need_comma_ = false;
    return *this;
  }

  /// A string value, escaped by AppendJsonEscaped.
  JsonBuilder& String(std::string_view s) {
    Raw("\"");
    AppendJsonEscaped(&out_, s);
    out_ += '"';
    return *this;
  }

  /// Any signed or unsigned integer, exactly (INT64_MIN and UINT64_MAX
  /// included).
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonBuilder& Int(T v) { return Number(v); }

  JsonBuilder& Bool(bool v) { return Raw(v ? "true" : "false"); }

  /// The shortest decimal form that reads back as the same double
  /// (std::to_chars); NaN and infinities, which JSON cannot express,
  /// become null.
  JsonBuilder& Double(double v) {
    return std::isfinite(v) ? Number(v) : Raw("null");
  }

  /// Splices `json`, which must be one complete JSON value (e.g. another
  /// builder's output), as the next value.
  JsonBuilder& Raw(std::string_view json) {
    if (need_comma_) out_ += ',';
    out_ += json;
    need_comma_ = true;
    return *this;
  }

  /// Moves the text out; use the builder no further.
  std::string Take() { return std::move(out_); }

 private:
  JsonBuilder& Open(std::string_view bracket) {
    Raw(bracket);
    need_comma_ = false;
    return *this;
  }
  JsonBuilder& Close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
    return *this;
  }
  template <typename T>
  JsonBuilder& Number(T v) {
    char buf[32];
    const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    return Raw(std::string_view(buf, static_cast<size_t>(end - buf)));
  }

  std::string out_;
  /// The last write completed a value, so the next one needs a comma.
  bool need_comma_ = false;
};

}  // namespace mitra

#endif  // MITRA_COMMON_JSON_BUILDER_H_
