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

net::HttpResponse ImageRepository::handle(const net::HttpRequest& request) const {
  if (fail_next_ > 0) {
    --fail_next_;
    net::HttpResponse resp;
    resp.status = 503;
    resp.reason = "Service Unavailable";
    resp.headers.set("Retry-After", "1");
    resp.body = "transient overload";
    return resp;
  }
  if (request.method != "GET") {
    net::HttpResponse resp;
    resp.status = 400;
    resp.reason = "Bad Request";
    resp.body = "only GET is supported";
    return resp;
  }
  auto found = lookup(request.target);
  if (!found.ok()) return net::HttpResponse::not_found();
  const ServiceImage& image = *found.value();
  net::HttpResponse resp;
  resp.headers.set("Content-Type", "application/x-rpm");
  resp.headers.set("Content-Length", std::to_string(image.packaged_bytes()));
  resp.headers.set("Connection", "keep-alive");
  resp.body = "<rpm:" + image.name + "-" + image.version + ">";
  return resp;
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

}  // namespace soda::image
