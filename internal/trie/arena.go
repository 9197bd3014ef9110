package trie

// The arena holds the trie's cells, and the value bytes of the leaves that
// hold them, in pages the trie owns. An index names a page and a position
// in it (page<<pageShift | position), so an index stays valid as the arena
// grows: pages are added, never moved. Page sizes grow geometrically from
// minPage to maxPage, so a small trie pays for a small page and a large one
// wastes at most one partly filled page. A freed entry goes on a free list
// that the next allocation takes from before it touches fresh room.
const (
	minPageShift = 6  // 64 entries
	pageShift    = 12 // 4 096 entries: 320 KiB of cells
	pageMask     = 1<<pageShift - 1
)

// pool is one paged, free-listed arena of T.
type pool[T any] struct {
	pages [][]T
	fill  int      // entries handed out from the last page
	free  []uint32 // freed indices, reused last-in first-out
}

// alloc returns the index of an entry for the caller to fill, and whether
// a page was added for it.
func (p *pool[T]) alloc() (i uint32, grew bool) {
	if n := len(p.free); n > 0 {
		i = p.free[n-1]
		p.free = p.free[:n-1]
		return i, false
	}
	if len(p.pages) == 0 || p.fill == len(p.pages[len(p.pages)-1]) {
		size := 1 << min(minPageShift+len(p.pages), pageShift)
		// A new page table each time, never an append into spare room:
		// Views hold the old table while the writer builds the next.
		p.pages = append(p.pages[:len(p.pages):len(p.pages)], make([]T, size))
		p.fill, grew = 0, true
	}
	i = uint32(len(p.pages)-1)<<pageShift | uint32(p.fill)
	p.fill++
	return i, grew
}

// release returns entry i to the free list.
func (p *pool[T]) release(i uint32) { p.free = append(p.free, i) }

func (p *pool[T]) at(i uint32) *T { return &p.pages[i>>pageShift][i&pageMask] }

// tables is the page tables of the cells and the value records, as the
// writer publishes them to Views: a View reads through the tables it
// loaded, which hold every page that existed when its version was frozen.
type tables struct {
	cells [][]cell
	vals  [][][]byte
}
