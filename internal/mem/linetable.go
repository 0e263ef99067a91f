package mem

// pageShift is log2 of the lines one LineTable page covers.
const pageShift = 12

// pageLines is the number of lines one LineTable page covers: 4096 lines,
// 256 KiB of address space.
const pageLines = 1 << pageShift

// LineTable holds a small per-line value — a cache way, directory sharer
// bits, a flag — for every line that has one. It is how the cache tags and
// the coherence directory keep per-line state: a dense array indexed by
// line address, the way hardware tag and directory arrays are, instead of
// a hash table probed on every access.
//
// The zero value T means absent, and the zero LineTable is empty and ready
// to use. Lines are grouped into pages of 4096 consecutive lines. A page is
// allocated when the first line of its range gets a value and released
// when the last one loses it, so storage is one page (4096 values) per
// 4096-line range holding a line, plus a directory entry for it. The page
// last used is remembered, so a walk over consecutive lines finds its page
// without consulting the directory.
//
// A LineTable is not safe for concurrent use, not even by readers: Get
// moves the remembered page.
type LineTable[T comparable] struct {
	pages map[uint64]*linePage[T]
	// memo is the page last found, or nil.
	memo *linePage[T]
	// live counts the lines with a non-zero value.
	live int
}

type linePage[T comparable] struct {
	v [pageLines]T
	// key is the page number: the line address shifted right by pageShift.
	key uint64
	// live counts the page's non-zero values.
	live int32
}

// page returns the page numbered key, or nil when no line of its range has
// a value.
func (t *LineTable[T]) page(key uint64) *linePage[T] {
	if p := t.memo; p != nil && p.key == key {
		return p
	}
	p := t.pages[key]
	if p != nil {
		t.memo = p
	}
	return p
}

// Get returns line a's value, zero when absent.
func (t *LineTable[T]) Get(a LineAddr) T {
	if p := t.page(uint64(a) >> pageShift); p != nil {
		return p.v[a&(pageLines-1)]
	}
	var zero T
	return zero
}

// Set gives line a the value v; a zero v deletes it.
func (t *LineTable[T]) Set(a LineAddr, v T) {
	var zero T
	key := uint64(a) >> pageShift
	p := t.page(key)
	if p == nil {
		if v == zero {
			return
		}
		if t.pages == nil {
			t.pages = map[uint64]*linePage[T]{}
		}
		p = &linePage[T]{key: key}
		t.pages[key] = p
		t.memo = p
	}
	slot := &p.v[a&(pageLines-1)]
	switch {
	case *slot == zero && v != zero:
		p.live++
		t.live++
	case *slot != zero && v == zero:
		p.live--
		t.live--
	}
	*slot = v
	if p.live == 0 {
		delete(t.pages, key)
		t.memo = nil
	}
}

// Len returns the number of lines with a value.
func (t *LineTable[T]) Len() int { return t.live }

// Update replaces the value v of every line a that has one with f(a, v),
// in no particular order; a zero result deletes the line. f must not use
// the table.
func (t *LineTable[T]) Update(f func(a LineAddr, v T) T) {
	var zero T
	for key, p := range t.pages {
		base := LineAddr(key << pageShift)
		for i := range p.v {
			old := p.v[i]
			if old == zero {
				continue
			}
			v := f(base+LineAddr(i), old)
			p.v[i] = v
			if v == zero {
				p.live--
				t.live--
			}
		}
		if p.live == 0 {
			delete(t.pages, key)
			if t.memo == p {
				t.memo = nil
			}
		}
	}
}

// Reset deletes every line, releasing every page.
func (t *LineTable[T]) Reset() {
	clear(t.pages)
	t.memo, t.live = nil, 0
}

// Pages returns the number of pages held: the 4096-line ranges in which at
// least one line has a value.
func (t *LineTable[T]) Pages() int { return len(t.pages) }
