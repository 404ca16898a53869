#include "os/filesystem.hpp"

#include <algorithm>

#include "snapshot/format.hpp"
#include "util/contract.hpp"
#include "util/strings.hpp"

namespace soda::os {

FileSystem::FileSystem() : root_(std::make_unique<Node>()) {}

FileSystem::FileSystem(const FileSystem& other) : root_(clone(*other.root_)) {}

FileSystem& FileSystem::operator=(const FileSystem& other) {
  if (this != &other) root_ = clone(*other.root_);
  return *this;
}

std::unique_ptr<FileSystem::Node> FileSystem::clone(const Node& node) {
  auto copy = std::make_unique<Node>();
  copy->type = node.type;
  copy->size_bytes = node.size_bytes;
  for (const auto& [name, child] : node.children) {
    copy->children.emplace(name, clone(*child));
  }
  return copy;
}

Result<std::vector<std::string>> FileSystem::split_path(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return Error{"path must be absolute: " + std::string(path)};
  }
  std::vector<std::string> parts;
  std::size_t pos = 1;
  while (pos < path.size()) {
    std::size_t next = path.find('/', pos);
    if (next == std::string_view::npos) next = path.size();
    if (next == pos) return Error{"empty path component in " + std::string(path)};
    parts.emplace_back(path.substr(pos, next - pos));
    pos = next + 1;
  }
  return parts;
}

FileSystem::Node* FileSystem::find(std::string_view path) const {
  auto parts = split_path(path);
  if (!parts.ok()) return nullptr;
  Node* node = root_.get();
  for (const auto& part : parts.value()) {
    if (node->type != FileType::kDirectory) return nullptr;
    auto it = node->children.find(part);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

Result<std::pair<FileSystem::Node*, std::string>> FileSystem::walk_to_parent(
    std::string_view path, bool create) {
  auto parts_result = split_path(path);
  if (!parts_result.ok()) return parts_result.error();
  auto& parts = parts_result.value();
  if (parts.empty()) return Error{"path names the root: " + std::string(path)};
  Node* node = root_.get();
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (node->type != FileType::kDirectory) {
      return Error{"regular file in the way at component '" + parts[i] + "'"};
    }
    auto it = node->children.find(parts[i]);
    if (it == node->children.end()) {
      if (!create) return Error{"no such directory: " + parts[i]};
      it = node->children.emplace(parts[i], std::make_unique<Node>()).first;
    }
    node = it->second.get();
  }
  if (node->type != FileType::kDirectory) {
    return Error{"parent is not a directory for " + std::string(path)};
  }
  return std::make_pair(node, parts.back());
}

Status FileSystem::mkdir_p(std::string_view path) {
  auto walked = walk_to_parent(path, /*create=*/true);
  if (!walked.ok()) return walked.error();
  auto [parent, leaf] = walked.value();
  auto it = parent->children.find(leaf);
  if (it != parent->children.end()) {
    if (it->second->type != FileType::kDirectory) {
      return Error{"file exists and is not a directory: " + std::string(path)};
    }
    return {};
  }
  parent->children.emplace(leaf, std::make_unique<Node>());
  return {};
}

Status FileSystem::add_file(std::string_view path, std::int64_t size_bytes) {
  SODA_EXPECTS(size_bytes >= 0);
  auto walked = walk_to_parent(path, /*create=*/true);
  if (!walked.ok()) return walked.error();
  auto [parent, leaf] = walked.value();
  auto it = parent->children.find(leaf);
  if (it != parent->children.end()) {
    if (it->second->type == FileType::kDirectory) {
      return Error{"path names a directory: " + std::string(path)};
    }
    it->second->size_bytes = size_bytes;
    return {};
  }
  auto node = std::make_unique<Node>();
  node->type = FileType::kRegular;
  node->size_bytes = size_bytes;
  parent->children.emplace(leaf, std::move(node));
  return {};
}

Status FileSystem::remove(std::string_view path) {
  auto walked = walk_to_parent(path, /*create=*/false);
  if (!walked.ok()) return walked.error();
  auto [parent, leaf] = walked.value();
  if (parent->children.erase(leaf) == 0) {
    return Error{"no such path: " + std::string(path)};
  }
  return {};
}

bool FileSystem::exists(std::string_view path) const { return find(path) != nullptr; }

std::optional<FileInfo> FileSystem::stat(std::string_view path) const {
  const Node* node = find(path);
  if (!node) return std::nullopt;
  return FileInfo{node->type, node->size_bytes};
}

Result<std::vector<std::string>> FileSystem::list(std::string_view path) const {
  const Node* node = (path == "/") ? root_.get() : find(path);
  if (!node) return Error{"no such path: " + std::string(path)};
  if (node->type != FileType::kDirectory) {
    return Error{"not a directory: " + std::string(path)};
  }
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) names.push_back(name);
  return names;
}

void FileSystem::collect_files(const Node& node, const std::string& prefix,
                               std::vector<std::string>& out) {
  for (const auto& [name, child] : node.children) {
    const std::string path = prefix + "/" + name;
    if (child->type == FileType::kRegular) {
      out.push_back(path);
    } else {
      collect_files(*child, path, out);
    }
  }
}

std::vector<std::string> FileSystem::files_under(std::string_view path) const {
  const Node* node = (path == "/") ? root_.get() : find(path);
  std::vector<std::string> out;
  if (!node) return out;
  if (node->type == FileType::kRegular) {
    out.emplace_back(path);
    return out;
  }
  const std::string prefix = (path == "/") ? "" : std::string(path);
  collect_files(*node, prefix, out);
  return out;
}

std::int64_t FileSystem::subtree_size(const Node& node) noexcept {
  if (node.type == FileType::kRegular) return node.size_bytes;
  std::int64_t total = 0;
  for (const auto& [name, child] : node.children) total += subtree_size(*child);
  return total;
}

std::size_t FileSystem::subtree_files(const Node& node) noexcept {
  if (node.type == FileType::kRegular) return 1;
  std::size_t total = 0;
  for (const auto& [name, child] : node.children) total += subtree_files(*child);
  return total;
}

std::int64_t FileSystem::total_size() const noexcept { return subtree_size(*root_); }

std::size_t FileSystem::file_count() const noexcept { return subtree_files(*root_); }

void FileSystem::copy_tree(const Node& from, Node& into) {
  for (const auto& [name, child] : from.children) {
    auto it = into.children.find(name);
    if (child->type == FileType::kRegular) {
      auto node = std::make_unique<Node>();
      node->type = FileType::kRegular;
      node->size_bytes = child->size_bytes;
      into.children.insert_or_assign(name, std::move(node));
    } else {
      if (it == into.children.end() ||
          it->second->type != FileType::kDirectory) {
        it = into.children.insert_or_assign(name, std::make_unique<Node>()).first;
      }
      copy_tree(*child, *it->second);
    }
  }
}

Status FileSystem::copy_from(const FileSystem& src, std::string_view src_path,
                             std::string_view dst_path) {
  const Node* from = (src_path == "/") ? src.root_.get() : src.find(src_path);
  if (!from) return Error{"source path missing: " + std::string(src_path)};
  if (from->type == FileType::kRegular) {
    return add_file(dst_path, from->size_bytes);
  }
  if (dst_path != "/") {
    if (auto status = mkdir_p(dst_path); !status.ok()) return status;
  }
  Node* into = (dst_path == "/") ? root_.get() : find(dst_path);
  SODA_ENSURES(into != nullptr && into->type == FileType::kDirectory);
  copy_tree(*from, *into);
  return {};
}

template <class Ar>
void FileSystem::serialize(Ar& ar) {
  // Deeper trees than any rootfs builds are hostile input: reject them
  // before the recursion can exhaust the stack.
  constexpr int kMaxDepth = 256;
  ar.begin_section("filesystem");
  // Recursive lambda over the node tree; std::map iterates children sorted.
  auto walk_node = [&ar](auto&& self, Node& node, int depth) -> void {
    ar.u8(node.type, FileType::kDirectory);
    ar.i64(node.size_bytes);
    ar.check(depth < kMaxDepth, "filesystem tree nested too deep");
    ar.seq(node.children, [&](auto& child) {
      ar.str(child.first);
      if constexpr (Ar::kLoading) child.second = std::make_unique<Node>();
      self(self, *child.second, depth + 1);
    });
  };
  if constexpr (Ar::kLoading) root_ = std::make_unique<Node>();
  walk_node(walk_node, *root_, 0);
  ar.end_section();
}
template void FileSystem::serialize(snapshot::Writer&);
template void FileSystem::serialize(snapshot::Reader&);

}  // namespace soda::os
