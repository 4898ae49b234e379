package lru

// Recent is a bounded move-to-front window: the k most recent blocks of
// an LRU stack, most recent first, in one contiguous slice, so a
// conflict walk reads the blocks above a re-referenced one as a plain
// slice of independent loads.
//
// Recent never classifies: Stack drives it from its stamps. A block
// with reuse distance d < k sits at window position d and Lift(d) moves
// it to the front; any other block is not in the window and Push puts
// it there. Kept in step that way, the window always equals the first
// min(k, Len) entries of Stack.Blocks.
//
// The window slides toward the front of a buffer about 4k entries
// long: Push writes one slot below the head, and only when the head
// reaches 0 are the k-1 surviving entries copied back to the end, so a
// push costs O(1) amortized. The buffer grows with the window while it
// fills and is never reallocated once it holds k blocks.
//
// The zero value is not usable; call NewRecent.
type Recent struct {
	buf  []uint64
	head int // the window is buf[head : head+n]
	n    int
	k    int
}

// NewRecent returns an empty window of capacity k >= 1.
func NewRecent(k int) *Recent {
	if k < 1 {
		panic("lru: Recent capacity must be positive")
	}
	return &Recent{k: k}
}

// Blocks returns the window, most recent first. The slice aliases the
// buffer and is valid until the next Push, Lift or Reset.
func (r *Recent) Blocks() []uint64 { return r.buf[r.head : r.head+r.n] }

// Push puts a block that is not in the window at the front, dropping
// the least recent block when the window is full.
func (r *Recent) Push(b uint64) {
	if r.head == 0 {
		r.settle(r.buf[:min(r.n, r.k-1)])
	}
	r.head--
	r.buf[r.head] = b
	r.n = min(r.n+1, r.k)
}

// Lift moves the block at window position d — its reuse distance,
// which a conflict walk finds by scanning the window from the front
// until it meets the block, and Stack.Find by a binary search over the
// window's stamps — to the front and returns the d blocks that were
// above it, most recent first. The move is one copy of those blocks,
// and above aliases the window like Blocks. A position outside the
// window panics: the caller's gate and the window have diverged.
func (r *Recent) Lift(d int) (above []uint64) {
	if uint(d) >= uint(r.n) {
		panic("lru: Lift of a block outside the window")
	}
	w := r.Blocks()
	b := w[d]
	copy(w[1:d+1], w[:d])
	w[0] = b
	return w[1 : d+1]
}

// Reset replaces the window with the first k blocks of a top-to-bottom
// stack listing; an empty listing empties it.
func (r *Recent) Reset(topToBottom []uint64) {
	r.settle(topToBottom[:min(len(topToBottom), r.k)])
}

// settle copies w to the end of the buffer and makes it the window,
// first growing the buffer to four times the window's next size when
// it is shorter, so Push has room to slide toward index 0.
func (r *Recent) settle(w []uint64) {
	if size := 4 * min(len(w)+1, r.k); len(r.buf) < size {
		r.buf = make([]uint64, size)
	}
	r.head = len(r.buf) - len(w)
	r.n = copy(r.buf[r.head:], w)
}
