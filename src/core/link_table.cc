#include "src/core/link_table.h"

namespace hac {

Result<void> LinkTable::AddLink(const std::string& name, DocId doc, LinkClass cls,
                                InodeId inode, uint64_t mtime) {
  if (links_.count(name) != 0) {
    return Error(ErrorCode::kAlreadyExists, "link " + name);
  }
  if (doc == kInvalidDocId) {
    return Error(ErrorCode::kInvalidArgument, "tracked link needs a DocId");
  }
  if (name_of_doc_.count(doc) != 0) {
    return Error(ErrorCode::kAlreadyExists,
                 "directory already links doc " + std::to_string(doc));
  }
  links_.emplace(name, LinkRecord{doc, cls, inode, mtime});
  name_of_doc_.emplace(doc, name);
  (cls == LinkClass::kPermanent ? permanent_ : transient_).Set(doc);
  return OkResult();
}

Result<void> LinkTable::AddForeignLink(const std::string& name) {
  if (links_.count(name) != 0) {
    return Error(ErrorCode::kAlreadyExists, "link " + name);
  }
  links_.emplace(name, LinkRecord{kInvalidDocId, LinkClass::kPermanent});
  return OkResult();
}

Result<LinkRecord> LinkTable::RemoveLink(const std::string& name) {
  auto it = links_.find(name);
  if (it == links_.end()) {
    return Error(ErrorCode::kNotFound, "link " + name);
  }
  LinkRecord rec = it->second;
  links_.erase(it);
  if (rec.doc != kInvalidDocId) {
    name_of_doc_.erase(rec.doc);
    (rec.cls == LinkClass::kPermanent ? permanent_ : transient_).Clear(rec.doc);
  }
  return rec;
}

const LinkRecord* LinkTable::Find(const std::string& name) const {
  auto it = links_.find(name);
  return it == links_.end() ? nullptr : &it->second;
}

Result<std::string> LinkTable::NameOf(DocId doc) const {
  auto it = name_of_doc_.find(doc);
  if (it == name_of_doc_.end()) {
    return Error(ErrorCode::kNotFound, "no link for doc " + std::to_string(doc));
  }
  return it->second;
}

std::string LinkTable::UniqueName(
    const std::string& base, const std::function<bool(const std::string&)>& taken) const {
  std::string candidate = base.empty() ? "link" : base;
  int suffix = 2;
  while (links_.count(candidate) != 0 || taken(candidate)) {
    candidate = (base.empty() ? "link" : base) + "~" + std::to_string(suffix++);
  }
  return candidate;
}

Bitmap LinkTable::LinkSet() const {
  Bitmap out = transient_;
  out |= permanent_;
  return out;
}

Result<void> LinkTable::Promote(const std::string& name) {
  auto it = links_.find(name);
  if (it == links_.end()) {
    return Error(ErrorCode::kNotFound, "link " + name);
  }
  LinkRecord& rec = it->second;
  if (rec.doc == kInvalidDocId || rec.cls == LinkClass::kPermanent) {
    return OkResult();  // already permanent
  }
  rec.cls = LinkClass::kPermanent;
  rec.inode = kInvalidInode;
  rec.mtime = 0;
  transient_.Clear(rec.doc);
  permanent_.Set(rec.doc);
  return OkResult();
}

Result<void> LinkTable::Demote(const std::string& name, InodeId inode, uint64_t mtime) {
  auto it = links_.find(name);
  if (it == links_.end()) {
    return Error(ErrorCode::kNotFound, "link " + name);
  }
  LinkRecord& rec = it->second;
  if (rec.doc == kInvalidDocId) {
    return Error(ErrorCode::kInvalidArgument,
                 "foreign link " + name + " has no document to hand back");
  }
  if (rec.cls == LinkClass::kTransient) {
    return OkResult();  // already transient
  }
  rec.cls = LinkClass::kTransient;
  rec.inode = inode;
  rec.mtime = mtime;
  permanent_.Clear(rec.doc);
  transient_.Set(rec.doc);
  return OkResult();
}

size_t LinkTable::SizeBytes() const {
  size_t total = permanent_.SizeBytes() + transient_.SizeBytes() + prohibited_.SizeBytes();
  for (const auto& [name, rec] : links_) {
    total += 2 * name.size() + sizeof(LinkRecord) + 96;
  }
  return total;
}

}  // namespace hac
