package isa

// PageSize is the granularity of the sparse memory image. It matches the
// simulated virtual-memory page size used by the TLB model.
const PageSize = 4096

// Memory is a sparse, byte-addressed functional memory image. The timing
// model (caches, coherence) is tag/state-only; architectural values live
// here. Loads read it when they perform; stores write it when they drain
// from the write buffer having obtained ownership, which is the moment a
// store becomes globally visible under the simulated coherence protocol.
//
// Memory is not safe for concurrent use; the simulation engine is
// single-goroutine and deterministic by design.
type Memory struct {
	pages map[uint64]*[PageSize]byte
}

// NewMemory returns an empty memory image. Unwritten bytes read as zero.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[PageSize]byte {
	pn := addr / PageSize
	p := m.pages[pn]
	if p == nil && create {
		p = new([PageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// ByteAt returns the byte at addr.
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr%PageSize]
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint64, b byte) {
	m.page(addr, true)[addr%PageSize] = b
}

// Read returns the little-endian unsigned value of the given byte width at
// addr. Width must be 1, 2, 4 or 8. An access inside one page costs one page
// lookup; reads never allocate pages.
func (m *Memory) Read(addr uint64, size uint8) uint64 {
	var v uint64
	off := addr % PageSize
	if off+uint64(size) > PageSize {
		for i := uint8(0); i < size; i++ {
			v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
		}
		return v
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	for i := uint64(0); i < uint64(size); i++ {
		v |= uint64(p[off+i]) << (8 * i)
	}
	return v
}

// Write stores the low `size` bytes of v little-endian at addr, with one
// page lookup when the access stays inside one page.
func (m *Memory) Write(addr uint64, size uint8, v uint64) {
	off := addr % PageSize
	if size == 0 || off+uint64(size) > PageSize {
		for i := uint8(0); i < size; i++ {
			m.SetByte(addr+uint64(i), byte(v>>(8*i)))
		}
		return
	}
	p := m.page(addr, true)
	for i := uint64(0); i < uint64(size); i++ {
		p[off+i] = byte(v >> (8 * i))
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.ByteAt(addr + uint64(i))
	}
	return out
}

// SetBytes stores data starting at addr, one page span at a time.
func (m *Memory) SetBytes(addr uint64, data []byte) {
	for len(data) > 0 {
		n := copy(m.page(addr, true)[addr%PageSize:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// LoadProgramImage applies a program's initial data chunks.
func (m *Memory) LoadProgramImage(p *Program) {
	for _, c := range p.InitMem {
		m.SetBytes(c.Addr, c.Data)
	}
}

// Footprint returns the number of distinct pages touched so far.
func (m *Memory) Footprint() int { return len(m.pages) }
