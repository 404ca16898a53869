// In-memory filesystem model for guest root filesystems. The SODA Daemon's
// rootfs customization (paper §4.3) manipulates this tree: pruning /etc
// service entries and unneeded libraries, and measuring the resulting image
// size to decide RAM-disk eligibility.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace soda::os {

enum class FileType { kRegular, kDirectory };

/// Metadata returned by FileSystem::stat.
struct FileInfo {
  FileType type = FileType::kRegular;
  std::int64_t size_bytes = 0;  // 0 for directories
};

/// A rooted tree of directories and sized regular files, addressed by
/// absolute slash-separated paths ("/etc/init.d/httpd"). File *content* is
/// not stored — only structure and size, which is all the priming pipeline
/// needs.
class FileSystem {
 public:
  FileSystem();
  // Deep-copying a filesystem is meaningful (image replication onto nodes).
  FileSystem(const FileSystem& other);
  FileSystem& operator=(const FileSystem& other);
  FileSystem(FileSystem&&) noexcept = default;
  FileSystem& operator=(FileSystem&&) noexcept = default;
  ~FileSystem() = default;

  /// Creates a directory and any missing ancestors. Fails if a regular file
  /// is in the way.
  Status mkdir_p(std::string_view path);

  /// Creates or replaces a regular file, creating ancestor directories.
  /// Fails if the path names an existing directory.
  Status add_file(std::string_view path, std::int64_t size_bytes);

  /// Removes a file or directory subtree. Fails if the path does not exist
  /// or names the root.
  Status remove(std::string_view path);

  [[nodiscard]] bool exists(std::string_view path) const;
  [[nodiscard]] std::optional<FileInfo> stat(std::string_view path) const;

  /// Immediate children names of a directory (sorted); error for files or
  /// missing paths.
  Result<std::vector<std::string>> list(std::string_view path) const;

  /// All regular-file paths under `path` (depth-first, sorted per level).
  [[nodiscard]] std::vector<std::string> files_under(std::string_view path) const;

  /// Sum of all regular-file sizes.
  [[nodiscard]] std::int64_t total_size() const noexcept;

  /// Number of regular files.
  [[nodiscard]] std::size_t file_count() const noexcept;

  /// Copies the subtree rooted at `src_path` in `src` to `dst_path` here
  /// (merging into existing directories).
  Status copy_from(const FileSystem& src, std::string_view src_path,
                   std::string_view dst_path);

  /// Splits "/a/b/c" into {"a","b","c"}; rejects empty components and
  /// non-absolute paths.
  static Result<std::vector<std::string>> split_path(std::string_view path);

  /// Checkpoints the whole tree (structure + sizes — content is never
  /// stored). Children serialize in map order, so save is deterministic.
  template <class Ar>
  void serialize(Ar& ar);

 private:
  struct Node {
    FileType type = FileType::kDirectory;
    std::int64_t size_bytes = 0;
    std::map<std::string, std::unique_ptr<Node>> children;
  };

  static std::unique_ptr<Node> clone(const Node& node);
  Node* find(std::string_view path) const;
  /// Walks to the parent of `path`, creating directories; returns
  /// (parent, leaf name) or error.
  Result<std::pair<Node*, std::string>> walk_to_parent(std::string_view path,
                                                       bool create);
  static void collect_files(const Node& node, const std::string& prefix,
                            std::vector<std::string>& out);
  static std::int64_t subtree_size(const Node& node) noexcept;
  static std::size_t subtree_files(const Node& node) noexcept;
  static void copy_tree(const Node& from, Node& into);

  std::unique_ptr<Node> root_;
};

}  // namespace soda::os
