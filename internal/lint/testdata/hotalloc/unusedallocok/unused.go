// Fixture: suppressions that suppress nothing. The first sits above an
// append onto a reused base, a shape hotalloc never flags; the second is
// in a function no cycle-accounted code reaches. The third is live, so
// the case also shows that a consulted directive is left alone.
package unusedallocok

type sink struct{ buf []byte }

// drain is the cycle-accounted path.
//
//fcae:cycle-accounting
func (s *sink) drain(rows [][]byte) [][]byte {
	var out [][]byte
	for _, r := range rows {
		//fcae:alloc-ok amortized: buf keeps its capacity between rows
		s.buf = append(s.buf[:0], r...)
		//fcae:alloc-ok retained output: the caller keeps every row copy
		out = append(out, append([]byte(nil), s.buf...))
	}
	return out
}

// cold is reached from nowhere hot.
func cold(n int) []byte {
	//fcae:alloc-ok one-time buffer
	return make([]byte, n)
}
