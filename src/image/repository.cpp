#include "image/repository.hpp"

#include "util/contract.hpp"

namespace soda::image {

ImageRepository::ImageRepository(std::string name, net::NodeId node)
    : name_(std::move(name)), node_(node) {}

std::string ImageRepository::path_for(const ServiceImage& image) {
  return "/images/" + image.name + "-" + image.version + ".rpm";
}

Result<ImageLocation> ImageRepository::publish(ServiceImage image) {
  if (images_.count(image.name) > 0) {
    return Error{"image already published: " + image.name};
  }
  const std::string path = path_for(image);
  image.manifest = build_manifest(image);
  images_.emplace(image.name, path);
  by_path_.emplace(path,
                   std::make_shared<const ServiceImage>(std::move(image)));
  return ImageLocation{name_, path};
}

bool ImageRepository::withdraw(const std::string& name) {
  auto it = images_.find(name);
  if (it == images_.end()) return false;
  by_path_.erase(it->second);
  images_.erase(it);
  return true;
}

Result<ImagePtr> ImageRepository::lookup(const std::string& path) const {
  auto it = by_path_.find(path);
  if (it == by_path_.end()) return Error{"404: no image at " + path};
  return it->second;
}

ImageRepository::Reply ImageRepository::serve(const std::string& path) const {
  if (fail_next_ > 0) {
    --fail_next_;
    return {503, "Service Unavailable", nullptr};
  }
  auto it = by_path_.find(path);
  if (it == by_path_.end()) return {404, "Not Found", nullptr};
  return {200, "OK", it->second};
}

Error repository_unavailable(const std::string& name) {
  return Error{"repository '" + name + "' is no longer available"};
}

void RepositoryDirectory::add(const ImageRepository* repository) {
  SODA_EXPECTS(repository != nullptr);
  by_name_[repository->name()] = repository;
}

bool RepositoryDirectory::remove(const std::string& name) {
  return by_name_.erase(name) > 0;
}

const ImageRepository* RepositoryDirectory::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Result<ImagePtr> RepositoryDirectory::lookup(
    const ImageLocation& location) const {
  const ImageRepository* repository = find(location.repository);
  if (repository == nullptr) return repository_unavailable(location.repository);
  return repository->lookup(location.path);
}

}  // namespace soda::image
