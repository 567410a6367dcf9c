// dcape-lint fixture: must trigger exactly [unordered-net].
//
// The join-state footgun once the key index replaced the hash map: an
// encoder that walks the open-addressed index directly and writes each
// key as the walk yields it. Slot order follows the hash and the
// insertion history, so a group and its relocated, merged copy would
// encode the same state to different bytes. The walk must collect the
// keys and sort them first, as PartitionGroup::SortedSlots does.
#include <cstddef>
#include <string>

#include "state/key_index.h"
#include "tuple/serde.h"

namespace dcape {

class KeyListEncoder {
 public:
  void EncodeKeys(std::string* out) const {
    ByteWriter writer(out);
    writer.PutVarint(static_cast<uint64_t>(index_.size()));
    for (size_t slot : index_) writer.PutZigzag(index_.key(slot));
  }

 private:
  JoinKeyIndex index_{2};
};

}  // namespace dcape
