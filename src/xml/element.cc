#include "xml/element.h"

#include <sstream>

namespace mercury::xml {

Element::Element(const Element& other)
    : name_(other.name_), attributes_(other.attributes_), text_(other.text_) {
  children_.reserve(other.children_.size());
  for (const auto& child : other.children_) {
    children_.push_back(std::make_unique<Element>(*child));
  }
}

Element& Element::operator=(const Element& other) {
  if (this == &other) return *this;
  Element copy(other);
  *this = std::move(copy);
  return *this;
}

std::optional<std::string> Element::attr(std::string_view key) const {
  const auto it = attributes_.find(key);  // heterogeneous: no temp string
  if (it == attributes_.end()) return std::nullopt;
  return it->second;
}

std::string Element::attr_or(std::string_view key, std::string_view fallback) const {
  // Hot path (the message codec reads every field this way): one binary
  // search and one string construction, no optional in between.
  const auto it = attributes_.find(key);
  return it != attributes_.end() ? it->second : std::string{fallback};
}

std::optional<double> Element::attr_double(std::string_view key) const {
  const auto it = attributes_.find(key);
  if (it == attributes_.end()) return std::nullopt;
  const std::string& v = it->second;
  // std::from_chars for double is not universally available; use strtod.
  const char* begin = v.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || end != begin + v.size()) return std::nullopt;
  return parsed;
}

Element& Element::set_attr(std::string key, std::string value) {
  attributes_.insert_or_assign(std::move(key), std::move(value));
  return *this;
}

bool Element::add_attr(const std::string& key, std::string value) {
  // A <msg> header carries up to 6 attributes; reserving once avoids the
  // doubling steps for the common message shapes.
  if (attributes_.empty()) attributes_.reserve(6);
  return attributes_.try_emplace(key, std::move(value)).second;
}

Element& Element::set_attr(std::string key, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return set_attr(std::move(key), os.str());
}

Element& Element::set_attr(std::string key, long long value) {
  return set_attr(std::move(key), std::to_string(value));
}

bool Element::has_attr(std::string_view key) const {
  return attributes_.contains(key);
}

Element& Element::set_text(std::string text) {
  text_ = std::move(text);
  return *this;
}

Element& Element::add_child(Element child) {
  children_.push_back(std::make_unique<Element>(std::move(child)));
  return *children_.back();
}

const Element* Element::child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

Element* Element::child(std::string_view name) {
  return const_cast<Element*>(static_cast<const Element*>(this)->child(name));
}

std::vector<const Element*> Element::children_named(std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& c : children_) {
    if (c->name() == name) out.push_back(c.get());
  }
  return out;
}

bool Element::operator==(const Element& other) const {
  if (name_ != other.name_ || attributes_ != other.attributes_ ||
      text_ != other.text_ || children_.size() != other.children_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (!(*children_[i] == *other.children_[i])) return false;
  }
  return true;
}

}  // namespace mercury::xml
