// Recursive-descent parser for the XML subset used by the command language.
//
// Supported: elements, attributes (single- or double-quoted), character
// data, CDATA sections, self-closing tags, comments, an optional <?xml ...?>
// declaration, the five predefined entities (&lt; &gt; &amp; &apos; &quot;)
// and numeric character references to any XML 1.0 Char. Rejected with an
// error: DTDs, processing instructions other than the declaration, and
// references to code points outside Char. There is no namespace processing
// (colons are ordinary name characters).
#pragma once

#include <string_view>

#include "util/result.h"
#include "xml/element.h"

namespace mercury::xml {

/// Parse a complete document; exactly one root element is required.
/// Errors carry a line:column position.
util::Result<Element> parse(std::string_view input);

}  // namespace mercury::xml
