// Serialization of the XML document model.
//
// Output is deterministic (attributes are stored sorted), so serialized
// messages can be compared byte-for-byte in tests and hashed for dedup.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "xml/element.h"

namespace mercury::xml {

struct WriteOptions {
  /// Pretty-print with two-space indentation; compact single-line otherwise.
  bool pretty = false;
  /// Emit the <?xml version="1.0"?> declaration.
  bool declaration = false;
};

/// Append-style writers for the message codec: no temporary strings,
/// compact form only. escape_attr_to escapes &, <, > and ".
void escape_attr_to(std::string& out, std::string_view value);
void write_to(std::string& out, const Element& element);

/// Byte counts of what the two append-style writers would emit, computed
/// without building the output: escaped_attr_size(v) is the number of bytes
/// escape_attr_to(out, v) appends and written_size(e) == write(e).size().
std::size_t escaped_attr_size(std::string_view value);
std::size_t written_size(const Element& element);

std::string write(const Element& element, const WriteOptions& options = {});

}  // namespace mercury::xml
