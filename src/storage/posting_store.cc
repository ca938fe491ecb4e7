#include "storage/posting_store.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "index/inverted_index.h"
#include "storage/codec.h"

namespace simsel {
PostingStore PostingStore::Build(const InvertedIndex& index,
                                 size_t page_bytes) {
  if (page_bytes == 0) page_bytes = index.options().page_bytes;
  PostingStore store;
  store.file_ = PagedFile(page_bytes);
  store.block_postings_ = index.block_postings();
  const size_t bp = store.block_postings_;
  const size_t num_tokens = index.num_tokens();
  store.offsets_.resize(num_tokens);
  store.counts_.resize(num_tokens);
  store.blk_index_.assign(num_tokens + 1, 0);
  std::vector<uint8_t> buf;
  for (uint32_t t = 0; t < num_tokens; ++t) {
    const size_t n = index.ListSize(t);
    store.counts_[t] = static_cast<uint32_t>(n);
    // Page-align each list start so scans don't share pages across lists.
    size_t pos = store.file_.size();
    size_t misalign = pos % page_bytes;
    if (misalign != 0 && n > 0) {
      std::vector<uint8_t> pad(page_bytes - misalign, 0);
      store.file_.Append(pad.data(), pad.size());
    }
    store.offsets_[t] = store.file_.size();
    const uint32_t* ids = index.LenIds(t);
    const float* lens = index.LenLens(t);
    for (size_t i = 0; i < n; ++i) {
      store.id_limit_ = std::max<size_t>(store.id_limit_, size_t{ids[i]} + 1);
    }
    buf.clear();
    for (size_t first = 0; first < n; first += bp) {
      EncodePostingBlock(ids + first, lens + first, std::min(bp, n - first),
                         &buf);
      store.blk_ends_.push_back(static_cast<uint32_t>(buf.size()));
    }
    store.blk_index_[t + 1] = store.blk_ends_.size();
    store.file_.Append(buf.data(), buf.size());
  }
  return store;
}

uint64_t PostingStore::total_postings() const {
  uint64_t total = 0;
  for (uint32_t c : counts_) total += c;
  return total;
}

size_t PostingStore::ReadBlock(uint32_t token, size_t first, size_t count,
                               uint32_t* ids, float* lens, bool random,
                               PageReadStats* reader, Status* status,
                               BlockDecodeScratch* scratch) const {
  SIMSEL_DCHECK(token < counts_.size());
  if (status != nullptr) *status = Status::Ok();
  const size_t n = counts_[token];
  if (first >= n) return 0;
  count = std::min(count, n - first);
  if (scratch == nullptr) {
    thread_local BlockDecodeScratch shared;
    scratch = &shared;
  }
  const size_t bp = block_postings_;
  const size_t b0 = first / bp;
  const size_t b1 = (first + count - 1) / bp;
  const uint64_t base = blk_index_[token];
  // One physical read of the compressed span. The read always happens —
  // even when the decoded block is cached — so page accounting reflects
  // actual positioning, not the caller's scratch reuse pattern.
  const uint64_t bytes_begin = b0 == 0 ? 0 : blk_ends_[base + b0 - 1];
  const uint64_t bytes_end = blk_ends_[base + b1];
  scratch->raw.resize(bytes_end - bytes_begin);
  // Stats-less callers get a fresh window per call: every read then charges
  // its first page, which is the conservative (seek-per-call) model.
  PageReadStats one_shot;
  PageReadStats* rs = reader != nullptr ? reader : &one_shot;
  const uint64_t seq_before = rs->seq_reads;
  const uint64_t rand_before = rs->rand_reads;
  Status st = file_.ReadAt(offsets_[token] + bytes_begin, scratch->raw.size(),
                           scratch->raw.data(), random, rs);
  if (!st.ok()) {
    if (status == nullptr) {
      SIMSEL_CHECK_MSG(st.ok(), st.ToString().c_str());
    }
    *status = std::move(st);
    return 0;
  }
  seq_reads_.fetch_add(rs->seq_reads - seq_before, std::memory_order_relaxed);
  rand_reads_.fetch_add(rs->rand_reads - rand_before,
                        std::memory_order_relaxed);
  size_t out = 0;
  for (size_t b = b0; b <= b1; ++b) {
    const size_t blk_first = b * bp;
    const size_t blk_count = std::min(bp, n - blk_first);
    const bool cached = scratch->owner == this && scratch->token == token &&
                        scratch->first == blk_first &&
                        scratch->ids.size() >= blk_count;
    if (!cached) {
      scratch->InvalidateCache();  // ids/lens are garbage until decode is done
      scratch->ids.resize(bp);
      scratch->lens.resize(bp);
      const uint64_t bs =
          (b == 0 ? 0 : blk_ends_[base + b - 1]) - bytes_begin;
      const uint64_t be = blk_ends_[base + b] - bytes_begin;
      size_t got = 0, consumed = 0;
      uint32_t max_id = 0;
      const bool ok =
          DecodePostingBlock(scratch->raw.data() + bs, be - bs, blk_count,
                             scratch->ids.data(), scratch->lens.data(), &got,
                             &consumed, scratch, &max_id) &&
          got == blk_count && consumed == be - bs &&
          (got == 0 || max_id < id_limit_);
      if (!ok) {
        // PagedFile's checksum is no MAC: a hostile image can pass Load
        // with undecodable blocks or out-of-range ids. A caller with a
        // status gets Corruption; a null status keeps the historical
        // contract (checked crash).
        SIMSEL_CHECK_MSG(status != nullptr,
                         "corrupt posting block in store image");
        *status = Status::Corruption("corrupt posting block in store image");
        return 0;
      }
      scratch->owner = this;
      scratch->token = token;
      scratch->first = blk_first;
    }
    const size_t lo = std::max(first, blk_first);
    const size_t hi = std::min(first + count, blk_first + blk_count);
    std::memcpy(ids + out, scratch->ids.data() + (lo - blk_first),
                (hi - lo) * sizeof(uint32_t));
    std::memcpy(lens + out, scratch->lens.data() + (lo - blk_first),
                (hi - lo) * sizeof(float));
    out += hi - lo;
  }
  SIMSEL_DCHECK(out == count);
  return count;
}

Status PostingStore::Save(const std::string& path) const {
  // Directory block appended to a copy of the image, so the image itself
  // stays page-aligned: [image][directory][dir_size fixed64] inside one
  // checksummed PagedFile payload.
  PagedFile out(file_.page_size());
  out.Append(file_.contents().data(), file_.contents().size());
  std::vector<uint8_t> dir;
  PutFixed64(&dir, counts_.size());
  PutFixed64(&dir, block_postings_);
  for (size_t t = 0; t < counts_.size(); ++t) {
    PutVarint64(&dir, offsets_[t]);
    PutVarint32(&dir, counts_[t]);
    // Per-block compressed sizes (the ends are reconstructed on Load).
    uint32_t prev_end = 0;
    for (uint64_t b = blk_index_[t]; b < blk_index_[t + 1]; ++b) {
      PutVarint32(&dir, blk_ends_[b] - prev_end);
      prev_end = blk_ends_[b];
    }
  }
  PutFixed64(&dir, dir.size() + 8);  // directory block size incl. this field
  out.Append(dir.data(), dir.size());
  return out.SaveToFile(path);
}

Result<PostingStore> PostingStore::Load(const std::string& path,
                                        size_t num_sets) {
  Result<PagedFile> file = PagedFile::LoadFromFile(path);
  if (!file.ok()) return file.status();
  const std::vector<uint8_t>& buf = file->contents();
  if (buf.size() < 8) return Status::Corruption("store too small: " + path);
  Decoder tail{buf.data(), buf.size(), buf.size() - 8};
  uint64_t dir_size;
  GetFixed64(&tail, &dir_size);
  if (dir_size < 24 || dir_size > buf.size()) {
    return Status::Corruption("bad directory size in: " + path);
  }
  size_t dir_start = buf.size() - dir_size;
  Decoder dec{buf.data(), buf.size() - 8, dir_start};
  uint64_t num_tokens, block_postings;
  // A directory entry takes at least two bytes, which bounds the token
  // count before it sizes the tables.
  if (!GetFixed64(&dec, &num_tokens) || !GetFixed64(&dec, &block_postings) ||
      block_postings == 0 || block_postings > kMaxBlockPostings ||
      num_tokens > dec.remaining() / 2) {
    return Status::Corruption("truncated directory in: " + path);
  }
  PostingStore store;
  store.block_postings_ = block_postings;
  store.id_limit_ = num_sets;
  store.offsets_.resize(num_tokens);
  store.counts_.resize(num_tokens);
  store.blk_index_.assign(num_tokens + 1, 0);
  for (uint64_t t = 0; t < num_tokens; ++t) {
    uint64_t offset;
    uint32_t count;
    if (!GetVarint64(&dec, &offset) || !GetVarint32(&dec, &count)) {
      return Status::Corruption("truncated directory entry in: " + path);
    }
    const uint64_t num_blocks =
        count / block_postings + (count % block_postings != 0);
    // Each block end must stay inside the list bytes, so the 32-bit ends
    // never wrap.
    if (offset > dir_start) {
      return Status::Corruption("list range out of bounds in: " + path);
    }
    uint64_t end = 0;
    for (uint64_t b = 0; b < num_blocks; ++b) {
      uint32_t size;
      if (!GetVarint32(&dec, &size)) {
        return Status::Corruption("truncated block directory in: " + path);
      }
      end += size;
      if (end > dir_start - offset) {
        return Status::Corruption("list range out of bounds in: " + path);
      }
      store.blk_ends_.push_back(static_cast<uint32_t>(end));
    }
    store.offsets_[t] = offset;
    store.counts_[t] = count;
    store.blk_index_[t + 1] = store.blk_ends_.size();
  }
  store.file_ = PagedFile(file->page_size());
  store.file_.Append(buf.data(), dir_start);
  return store;
}

}  // namespace simsel
