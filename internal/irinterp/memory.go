package irinterp

import (
	"encoding/binary"
	"sync"
)

// Simulated memory is a lazily allocated page table over [0, MemLimit).
// A page is taken on its first write; a page never written reads as
// zero. Every access is bounds-checked against MemLimit before it
// touches the table, so the page size is invisible to programs. Pages
// are recycled: a run returns its pages to pagePool when it ends, and
// a page taken from the pool is zeroed first.
const (
	pageBits = 14
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page [pageSize]byte

// pagePool holds the pages of finished runs for later ones.
var pagePool = sync.Pool{New: func() any { return new(page) }}

// releasePages returns the machine's pages to pagePool. The machine
// must not touch memory afterwards.
func (m *machine) releasePages() {
	for _, p := range m.pages {
		if p != nil {
			pagePool.Put(p)
		}
	}
	m.pages = nil
}

// page returns the page holding addr for reading, or nil if it was
// never written.
func (m *machine) page(addr int64) *page {
	if i := addr >> pageBits; i < int64(len(m.pages)) {
		return m.pages[i]
	}
	return nil
}

// writablePage returns the page holding addr, taking a zeroed one from
// the pool (and growing the table) on first use.
func (m *machine) writablePage(addr int64) *page {
	i := addr >> pageBits
	if i >= int64(len(m.pages)) {
		m.pages = append(m.pages, make([]*page, i+1-int64(len(m.pages)))...)
	}
	p := m.pages[i]
	if p == nil {
		p = pagePool.Get().(*page)
		*p = page{}
		m.pages[i] = p
	}
	return p
}

// checkAddr traps unless [addr, addr+size) lies in simulated memory.
func (m *machine) checkAddr(addr, size int64) {
	if addr < globalBase || addr+size > m.opts.MemLimit {
		m.outOfBounds(addr, size)
	}
}

// outOfBounds is the trap of checkAddr, kept out of line so that
// checkAddr inlines into every access.
//
//go:noinline
func (m *machine) outOfBounds(addr, size int64) {
	m.trap("out-of-bounds access at %#x (size %d)", addr, size)
}

func (m *machine) load64(addr int64) uint64 {
	m.checkAddr(addr, 8)
	off := addr & pageMask
	if off > pageSize-8 {
		return m.load64Slow(addr)
	}
	if p := m.page(addr); p != nil {
		return binary.LittleEndian.Uint64(p[off:])
	}
	return 0
}

// load64Slow reads an access that straddles a page boundary.
func (m *machine) load64Slow(addr int64) uint64 {
	var bits uint64
	for i := int64(0); i < 8; i++ {
		if p := m.page(addr + i); p != nil {
			bits |= uint64(p[(addr+i)&pageMask]) << (8 * i)
		}
	}
	return bits
}

func (m *machine) store64(addr int64, bits uint64) {
	m.checkAddr(addr, 8)
	if off := addr & pageMask; off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.writablePage(addr)[off:], bits)
		return
	}
	for i := int64(0); i < 8; i++ {
		m.writablePage(addr + i)[(addr+i)&pageMask] = byte(bits >> (8 * i))
	}
}

// memset fills [addr, addr+n) with b. The range must be checked.
func (m *machine) memset(addr, n int64, b byte) {
	for n > 0 {
		off := addr & pageMask
		c := min(n, pageSize-off)
		if p := m.page(addr); p != nil || b != 0 {
			if p == nil {
				p = m.writablePage(addr)
			}
			chunk := p[off : off+c]
			for i := range chunk {
				chunk[i] = b
			}
		}
		addr += c
		n -= c
	}
}

// memmove copies n bytes from src to dst with memmove semantics: the
// destination reads as the source did before the copy even when the
// ranges overlap. Both ranges must be checked.
func (m *machine) memmove(dst, src, n int64) {
	if n <= 0 || dst == src {
		return
	}
	if dst < src || dst >= src+n {
		// Ascending chunks: a chunk never reads bytes an earlier one wrote.
		for n > 0 {
			c := min(n, pageSize-dst&pageMask, pageSize-src&pageMask)
			m.copyChunk(dst, src, c)
			dst, src, n = dst+c, src+c, n-c
		}
		return
	}
	// dst overlaps the tail of src: descending chunks.
	for n > 0 {
		de, se := dst+n, src+n
		c := min(n, (de-1)&pageMask+1, (se-1)&pageMask+1)
		m.copyChunk(de-c, se-c, c)
		n -= c
	}
}

// copyChunk copies c bytes between ranges that each lie in one page.
func (m *machine) copyChunk(dst, src, c int64) {
	sp := m.page(src)
	if sp == nil {
		if m.page(dst) != nil {
			m.memset(dst, c, 0)
		}
		return
	}
	so := src & pageMask
	do := dst & pageMask
	copy(m.writablePage(dst)[do:do+c], sp[so:so+c])
}

// readBytes copies [addr, addr+n) out of simulated memory. The range
// must be checked.
func (m *machine) readBytes(addr, n int64) []byte {
	out := make([]byte, n)
	for i := int64(0); i < n; {
		a := addr + i
		c := min(n-i, pageSize-a&pageMask)
		if p := m.page(a); p != nil {
			copy(out[i:i+c], p[a&pageMask:])
		}
		i += c
	}
	return out
}

// writeBytes copies data into simulated memory at addr. The range must
// be checked.
func (m *machine) writeBytes(addr int64, data []byte) {
	for i := int64(0); i < int64(len(data)); {
		a := addr + i
		c := min(int64(len(data))-i, pageSize-a&pageMask)
		copy(m.writablePage(a)[a&pageMask:], data[i:i+c])
		i += c
	}
}
