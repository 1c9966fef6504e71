package unimem

// poke writes data directly with no timing; [addr, addr+len(data)) must
// lie in one page.
func (s *Space) poke(addr uint64, data []byte) {
	s.checkSpan(addr, len(data))
	p := s.pageOf(addr)
	copy(p.data[addr%uint64(s.cfg.PageBytes):], data)
}

// peekRange reads size bytes starting at addr with no timing, across
// page boundaries.
func (s *Space) peekRange(addr uint64, size int) []byte {
	out := make([]byte, 0, size)
	for size > 0 {
		n := min(size, s.pageRemaining(addr))
		out = append(out, s.Peek(addr, n)...)
		addr += uint64(n)
		size -= n
	}
	return out
}
