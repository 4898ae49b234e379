package lru

// GateSummary is the compact boundary state one profiling shard exports
// instead of replaying overlap accesses (DESIGN.md §13): the shard's
// distinct blocks in first-touch order and in final recency order.
// Both slices list the same block set; together they are everything a
// boundary reconciler needs to (a) classify the shard's apparent first
// touches against earlier history and (b) advance the sequential LRU
// state across the shard without seeing a single raw access.
//
// The summary's size is the shard's distinct-block count — independent
// of the shard length — which is what makes exchanging summaries
// cheaper than the warmup-replay scheme it replaced.
type GateSummary struct {
	// FirstTouch lists the shard's distinct blocks in the order each
	// was first accessed. Its prefix of length j is exactly the set of
	// distinct blocks the shard saw before its (j+1)-th first touch —
	// the intra-shard half of that access's reuse distance.
	FirstTouch []uint64

	// Recency lists the same blocks ordered by most recent access,
	// most recent first — the shard's exit LRU stack. Replaying it
	// bottom-up over an earlier boundary stack reproduces the
	// sequential LRU stack at the shard's end, because an LRU stack
	// depends only on the order of last accesses.
	Recency []uint64
}

// Summary exports the stack's gate summary. First-touch order is read
// straight off the arena slab: slots are allocated in access order and
// never freed, so the slab order is the insertion order.
func (s *Stack) Summary() GateSummary {
	first := make([]uint64, len(s.nodes))
	for i := range s.nodes {
		first[i] = s.nodes[i].Block
	}
	return GateSummary{FirstTouch: first, Recency: s.Blocks()}
}
