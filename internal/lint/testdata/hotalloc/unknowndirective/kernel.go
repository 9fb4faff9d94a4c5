// Fixture: two misspelt directive names. Neither does what its author
// meant — kernel is not cycle-accounted, so nothing in it is hot, and
// the make below would not be suppressed if it were — and before the
// directive index knew the set of names, neither was reported: the
// comments just sat there. Both are findings at the comment.
package unknowndirective

// kernel copies every row through a scratch buffer.
//
//fcae:cycle-acounting
func kernel(rows [][]byte) int {
	n := 0
	for _, r := range rows {
		//fcae:aloc-ok grow-once scratch, sized per row for the fixture
		buf := make([]byte, len(r))
		n += copy(buf, r)
	}
	return n
}
