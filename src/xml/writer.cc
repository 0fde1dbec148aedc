#include "xml/writer.h"

#include <sstream>

namespace mercury::xml {
namespace {

void append_escaped(std::string& out, std::string_view s, bool attr) {
  // Append unescaped runs in bulk; most strings contain no specials at all.
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char* replacement = nullptr;
    switch (s[i]) {
      case '&': replacement = "&amp;"; break;
      case '<': replacement = "&lt;"; break;
      case '>': replacement = "&gt;"; break;
      case '"':
        if (attr) replacement = "&quot;";
        break;
      default: break;
    }
    if (replacement != nullptr) {
      out.append(s.substr(start, i - start));
      out += replacement;
      start = i + 1;
    }
  }
  out.append(s.substr(start));
}

/// Size of append_escaped's output for the same input.
std::size_t escaped_size(std::string_view s, bool attr) {
  std::size_t size = s.size();
  for (const char c : s) {
    switch (c) {
      case '&': size += 4; break;  // &amp;
      case '<':
      case '>': size += 3; break;  // &lt; &gt;
      case '"':
        if (attr) size += 5;       // &quot;
        break;
      default: break;
    }
  }
  return size;
}

void append_indent(std::string& out, const WriteOptions& options, int depth) {
  if (options.pretty) out.append(2 * static_cast<std::size_t>(depth), ' ');
}

void append_newline(std::string& out, const WriteOptions& options) {
  if (options.pretty) out += '\n';
}

void write_element(std::string& out, const Element& e, const WriteOptions& options,
                   int depth) {
  append_indent(out, options, depth);
  out += '<';
  out += e.name();
  for (const auto& [key, value] : e.attributes()) {
    out += ' ';
    out += key;
    out += "=\"";
    append_escaped(out, value, /*attr=*/true);
    out += '"';
  }

  if (e.text().empty() && e.children().empty()) {
    out += "/>";
    append_newline(out, options);
    return;
  }

  out += '>';
  if (!e.children().empty()) {
    append_newline(out, options);
    for (const auto& child : e.children()) {
      write_element(out, *child, options, depth + 1);
    }
    if (!e.text().empty()) {
      append_indent(out, options, depth);
      append_escaped(out, e.text(), /*attr=*/false);
      append_newline(out, options);
    }
    append_indent(out, options, depth);
  } else {
    append_escaped(out, e.text(), /*attr=*/false);
  }
  out += "</";
  out += e.name();
  out += '>';
  append_newline(out, options);
}

}  // namespace

void escape_attr_to(std::string& out, std::string_view value) {
  append_escaped(out, value, /*attr=*/true);
}

void write_to(std::string& out, const Element& element) {
  write_element(out, element, WriteOptions{}, 0);
}

std::size_t escaped_attr_size(std::string_view value) {
  return escaped_size(value, /*attr=*/true);
}

std::size_t written_size(const Element& e) {
  // Mirrors write_element's compact form byte for byte.
  std::size_t size = 1 + e.name().size();  // <name
  for (const auto& [key, value] : e.attributes()) {
    size += 1 + key.size() + 2 + escaped_size(value, /*attr=*/true) + 1;
  }
  if (e.text().empty() && e.children().empty()) return size + 2;  // />
  size += 1;  // >
  for (const auto& child : e.children()) size += written_size(*child);
  size += escaped_size(e.text(), /*attr=*/false);
  return size + 2 + e.name().size() + 1;  // </name>
}

std::string write(const Element& element, const WriteOptions& options) {
  std::string out;
  if (options.declaration) {
    out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    out += options.pretty ? "\n" : "";
  }
  write_element(out, element, options, 0);
  if (!options.pretty) return out;
  // Trim the trailing newline for symmetric parse/write round-trips.
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

}  // namespace mercury::xml
